import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scatterqml import dataset
from scatterqml.dataset import (
    DatasetConfig,
    DatasetError,
    ScatteringEvent,
    SweepConfig,
    apply_pca,
    assign_label,
    balance_and_split,
    build_dataset,
    central_excess_entropy,
    check_width,
    desk_sweep_config,
    fit_pca,
    scale_to_angles,
    angle_bounds,
    run_sweep,
    separation_row,
)
from scatterqml.evolution import TIME_CHUNK, EvolutionError, trajectory
from scatterqml.lattice import (
    LatticeModel,
    WavepacketSpec,
    build_hamiltonian,
    free_modes,
    ground_state,
    prepare_scattering_state,
)
from scatterqml.observables import ObservableError, entanglement_entropy, site_densities

from conftest import tiny_sweep_config


def test_sweep_config_validation():
    with pytest.raises(DatasetError):
        SweepConfig(masses=(), couplings=(0.5,), fermion_momenta=(0.9,),
                    antifermion_momenta=(-0.9,))
    with pytest.raises(DatasetError):
        SweepConfig(masses=(0.5,), couplings=(0.5,), fermion_momenta=(0.9,),
                    antifermion_momenta=(0.9,))
    # each packet must move towards the other, inside the first Brillouin zone
    for fermion, antifermion, key in [
        ((0.9, -0.9), (-0.9,), "fermion_momenta"),  # both packets move left
        ((-0.9,), (0.9,), "fermion_momenta"),  # packets move apart
        ((4.0,), (-0.9,), "fermion_momenta"),
        ((0.0,), (-0.9,), "fermion_momenta"),
        ((0.9,), (0.0,), "antifermion_momenta"),
        ((0.9,), (-np.pi,), "antifermion_momenta"),
    ]:
        with pytest.raises(DatasetError, match=f"^{key} must be in"):
            dataclasses.replace(tiny_sweep_config(), fermion_momenta=fermion,
                                antifermion_momenta=antifermion)
    edge = dataclasses.replace(tiny_sweep_config(), fermion_momenta=(np.pi,),
                               antifermion_momenta=(-3.1,))
    assert edge.fermion_momenta == (np.pi,)


@pytest.mark.parametrize("field,value", [
    ("masses", (np.nan, 0.6)),
    ("couplings", (0.5, np.inf)),
    ("fermion_momenta", (np.nan,)),
    ("antifermion_momenta", (-np.inf,)),
    ("time_horizon", np.nan),
    ("momentum_width", np.nan),
])
def test_sweep_config_rejects_non_finite_values(field, value):
    with pytest.raises(DatasetError, match=f"{field} must be finite"):
        dataclasses.replace(tiny_sweep_config(), **{field: value})


@pytest.mark.parametrize("field,value,message", [
    ("time_horizon", 0.2, "time_horizon must be at least time_step"),
    ("time_horizon", 0.0, "time_horizon must be at least time_step"),
    ("time_horizon", -3.0, "time_horizon must be at least time_step"),
    ("momentum_width", 0.0, "momentum_width must be positive"),
    ("momentum_width", -0.4, "momentum_width must be positive"),
])
def test_sweep_config_rejects_an_empty_time_grid_or_packet_width(field, value, message):
    with pytest.raises(DatasetError, match=message):
        dataclasses.replace(tiny_sweep_config(), **{field: value})
    # a horizon of exactly one step still records that step
    assert len(dataclasses.replace(tiny_sweep_config(), time_horizon=0.5).times) == 1


@pytest.mark.parametrize("horizon,last", [
    (0.8, 0.5), (23.9, 23.5), (24.0, 24.0), (16.0, 16.0), (4.0, 4.0),
])
def test_time_grid_ends_at_the_last_step_within_the_horizon(horizon, last):
    times = dataclasses.replace(tiny_sweep_config(), time_horizon=horizon).times
    assert times[-1] == last
    assert times.size == round(last / dataset.TIME_STEP)
    assert np.array_equal(times, dataset.TIME_STEP * np.arange(1, times.size + 1))


def test_grid_cardinality_and_order():
    cfg = tiny_sweep_config()
    grid = cfg.grid()
    assert len(grid) == 9
    assert grid[0] == (0.2, 0.4, 0.9, -0.9)
    assert grid[-1] == (0.8, 0.8, 0.9, -0.9)


def test_desk_default_grid():
    cfg = desk_sweep_config()
    assert cfg.sites == 12
    assert len(cfg.grid()) == 210
    assert all(k < 0 for k in cfg.antifermion_momenta)


def test_detect_separation_time_synthetic():
    # two counter-moving lumps on 12 sites crossing mid-trajectory
    N, times = 12, 0.5 * np.arange(1, 41)
    image = np.zeros((times.size, N))
    for i, t in enumerate(times):
        peak = min(int(round(1 + 0.5 * t)), N - 1)
        trough = max(int(round(10 - 0.5 * t)), 0)
        image[i, peak] += 1.0
        image[i, trough] -= 1.0
    row = separation_row(image)
    # closed form: extrema meet, then separate beyond 6 sites
    sep = np.abs(np.argmax(image, axis=1) - np.argmin(image, axis=1))
    close = np.flatnonzero(sep <= 6)[0]
    expected = times[np.flatnonzero((sep > 6) & (np.arange(sep.size) > close))[0]]
    assert times[row] == expected


def test_detect_separation_time_never_approached():
    image = np.zeros((4, 12))
    image[:, 0] = 1.0
    image[:, 11] = -1.0  # always far apart, never approached
    assert separation_row(image) is None


def test_central_excess_entropy_and_label():
    traces = np.arange(2 * 11, dtype=float).reshape(2, 11)
    # N=12: mean of cut columns 4 and 5 of the row
    assert central_excess_entropy(traces[1]) == 0.5 * (traces[1, 4] + traces[1, 5])
    assert assign_label(0.9, 0.5) == 1
    assert assign_label(0.5, 0.5) == 0  # threshold itself is class 0
    with pytest.raises(DatasetError):
        assign_label(np.nan, 0.5)


def test_sweep_events_structure(tiny_events):
    cfg = tiny_sweep_config()
    assert len(tiny_events) == len(cfg.grid())
    for ev in tiny_events:
        assert ev.error is None
        assert ev.density_image.shape == (cfg.times.size, cfg.sites)
        assert ev.entropy_traces.shape == (cfg.times.size, cfg.sites - 1)
        # charge neutrality at every recorded time
        assert np.abs(ev.density_image.sum(axis=1)).max() < 1e-9
        assert ev.t_star is not None
        assert ev.delta_s_mid is not None
        assert set(ev.parameters) == {
            "mass", "coupling", "fermion_momentum", "antifermion_momentum"
        }


def test_sweep_labels_come_from_a_row_of_the_time_grid(tiny_events):
    times = tiny_sweep_config().times
    for ev in tiny_events:
        (row,) = np.flatnonzero(times == ev.t_star)
        assert row == separation_row(ev.density_image)
        traces = ev.entropy_traces
        assert ev.delta_s_mid == 0.5 * (traces[row, 2] + traces[row, 3])  # N=8: cuts 3, 4


def test_sweep_deterministic(tiny_events):
    from scatterqml.dataset import run_sweep

    again = run_sweep(tiny_sweep_config(), workers=1)
    for a, b in zip(tiny_events, again):
        assert np.array_equal(a.density_image, b.density_image)
        assert a.delta_s_mid == b.delta_s_mid


def test_pooled_sweep_writes_the_same_bytes_as_serial(tiny_events, tmp_path):
    from scatterqml.serialize import save_events

    pooled, serial = tmp_path / "pooled.jsonl", tmp_path / "serial.jsonl"
    save_events(pooled, tiny_sweep_config(), tiny_events)  # the fixture ran 4 workers
    save_events(serial, tiny_sweep_config(), run_sweep(tiny_sweep_config(), workers=1))
    assert pooled.read_bytes() == serial.read_bytes()


# one N=12 sweep in a fresh interpreter, written to argv[1]; its masses are
# argv[2] (comma-separated) and its pool has argv[3] workers
_SWEEP_SCRIPT = """
import sys
from scatterqml.dataset import SweepConfig, run_sweep
from scatterqml.serialize import save_events
config = SweepConfig(masses=tuple(map(float, sys.argv[2].split(","))), couplings=(0.7,),
                     fermion_momenta=(0.9,), antifermion_momenta=(-0.9,), sites=12)
save_events(sys.argv[1], config, run_sweep(config, workers=int(sys.argv[3])))
"""


def _sweep_bytes(path, masses, workers, blas_threads):
    src = str(Path(dataset.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS=blas_threads,
    )
    args = [str(path), ",".join(map(str, masses)), str(workers)]
    result = subprocess.run(
        [sys.executable, "-c", _SWEEP_SCRIPT, *args],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return path.read_bytes()


@pytest.mark.parametrize(
    "masses,workers", [((0.25,), 1), ((0.25, 0.6), 2)], ids=["one-lattice", "two-lattices-pooled"]
)
def test_sweep_bytes_do_not_depend_on_blas_threads(tmp_path, masses, workers):
    """N=12 events, unlike the N=8 TINY ones, change in their last bits when
    BLAS runs on two threads; the sweep pins it to one, so a serial run with
    one thread and a run on `workers` with two write the same bytes."""
    one = _sweep_bytes(tmp_path / "one.jsonl", masses, workers=1, blas_threads="1")
    two = _sweep_bytes(tmp_path / "two.jsonl", masses, workers=workers, blas_threads="2")
    assert one == two


def _blas_thread_counts(_task=None):
    return [get_threads() for get_threads, _ in dataset._blas_thread_controls()]


def _failing_task(_task):
    raise ValueError("task failed")


@pytest.mark.parametrize("workers", [1, 2])
def test_ordered_map_runs_tasks_on_one_blas_thread_and_restores_the_count(
    two_blas_threads, workers
):
    assert two_blas_threads == [2] * len(two_blas_threads)
    one_thread = [1] * len(two_blas_threads)
    assert dataset.ordered_map(_blas_thread_counts, [0, 1], workers) == [one_thread] * 2
    assert _blas_thread_counts() == two_blas_threads
    with pytest.raises(ValueError, match="task failed"):
        dataset.ordered_map(_failing_task, [0, 1], workers)
    assert _blas_thread_counts() == two_blas_threads


def _process_threads(_task):
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_pool_workers_start_no_blas_threads(two_blas_threads):
    """A forked worker inherits the pin; setting it again would start each
    copy's threads, which spin beside the task."""
    assert dataset.ordered_map(_process_threads, [0, 1], 2) == [1, 1]


@pytest.mark.parametrize("workers", [1, 2])
def test_ordered_map_without_blas_controls_still_maps(monkeypatch, workers):
    monkeypatch.setattr(dataset, "_blas_thread_controls", lambda: ())
    assert dataset.ordered_map(abs, [-1, -2, 3], workers) == [1, 2, 3]


def test_ordered_map_opens_at_most_one_worker_per_task(monkeypatch):
    opened = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            opened.append((max_workers, initializer))

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(dataset, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(dataset.os, "cpu_count", lambda: 64)
    assert dataset.ordered_map(abs, [-1, -2], 64) == [1, 2]
    assert dataset.ordered_map(abs, [-1, -2, -3]) == [1, 2, 3]
    assert dataset.ordered_map(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert dataset.ordered_map(abs, [-1], 64) == [1]  # one task: no pool
    assert opened == [(2, dataset._pin_blas), (3, dataset._pin_blas), (2, dataset._pin_blas)]


def test_time_chunks_match_per_time_observables():
    """A time grid that is not a multiple of TIME_CHUNK: every chunk, the
    short last one included, gives the rows single-state calls give."""
    config = dataclasses.replace(tiny_sweep_config(), time_horizon=8.5)
    times = config.times
    assert times.size == 17 and times.size % TIME_CHUNK != 0
    task = (config, 0.5, 0.6)
    (event,) = dataset._run_group(task)
    assert event.error is None

    model = LatticeModel(sites=8, mass=0.5, coupling=0.6)
    ham = build_hamiltonian(model)
    sector = ham.sector
    vacuum, _ = ground_state(ham)
    c, d = config.packet_positions
    fer = WavepacketSpec("fermion", c, 0.9, config.momentum_width)
    anti = WavepacketSpec("antifermion", d, -0.9, config.momentum_width)
    psi0 = prepare_scattering_state(ham, vacuum, free_modes(model), fer, anti)
    densities, entropies = [], []
    for _, states in trajectory(ham, psi0, times):
        for psi in states:
            densities.append(site_densities(sector, psi) - site_densities(sector, vacuum))
            entropies.append(
                entanglement_entropy(sector, psi) - entanglement_entropy(sector, vacuum)
            )
    assert np.abs(event.density_image - densities).max() < 1e-13
    assert np.abs(event.entropy_traces - entropies).max() < 1e-13

    (again,) = dataset._run_group(task)
    assert again.density_image.tobytes() == event.density_image.tobytes()
    assert again.entropy_traces.tobytes() == event.entropy_traces.tobytes()


def test_uneven_chunks_give_the_same_event(monkeypatch):
    """A basis that fills up returns a short stack, as it does at N >= 16:
    the event must not depend on how trajectory chunks the states."""
    config = dataclasses.replace(tiny_sweep_config(), time_horizon=8.5)
    task = (config, 0.5, 0.6)
    (event,) = dataset._run_group(task)
    whole = dataset.trajectory
    sizes = []

    def uneven(ham, state, times):
        for chunk_times, states in whole(ham, state, times):
            for rows in np.split(np.arange(len(states)), [1, 6]):
                if rows.size:
                    sizes.append(rows.size)
                    yield chunk_times[rows], states[rows]

    monkeypatch.setattr(dataset, "trajectory", uneven)
    (split,) = dataset._run_group(task)
    assert sizes == [1, 5, 10, 1]
    assert np.abs(split.density_image - event.density_image).max() < 1e-13
    assert np.abs(split.entropy_traces - event.entropy_traces).max() < 1e-13
    assert event.t_star is not None and split.t_star == event.t_star


def test_sweep_events_follow_grid_order():
    config = SweepConfig(
        masses=(0.5, 0.3),
        couplings=(0.6, 0.2),
        fermion_momenta=(0.9, 0.5),
        antifermion_momenta=(-0.9, -0.5),
        sites=4,
        time_horizon=1.0,
        momentum_width=0.7,
    )
    events = run_sweep(config, workers=1)
    assert [tuple(ev.parameters.values()) for ev in events] == config.grid()


def test_pca_rank_reconstruction(rng):
    base = rng.normal(size=(5, 40))
    weights = rng.normal(size=(30, 5))
    X = weights @ base  # exact rank 5
    pca = fit_pca(X, 5)
    scores = apply_pca(pca, X)
    recon = scores @ pca.components + pca.mean
    assert np.abs(recon - X).max() < 1e-8
    assert np.all(np.diff(pca.explained_variance) <= 1e-12)
    with pytest.raises(DatasetError):
        fit_pca(X, 6)


def test_angle_scaling(rng):
    train = rng.normal(size=(20, 3))
    bounds = angle_bounds(train)
    angles = scale_to_angles(train, bounds)
    assert angles.min() >= 0.0 and angles.max() <= np.pi
    assert np.isclose(angles.min(axis=0), 0.0).all()
    assert np.isclose(angles.max(axis=0), np.pi).all()
    # out-of-range points clip, degenerate dimensions map to pi/2
    outside = scale_to_angles(train * 10, bounds)
    assert outside.min() >= 0.0 and outside.max() <= np.pi
    flat = scale_to_angles(np.ones((4, 1)), np.array([[1.0], [1.0]]))
    assert np.all(flat == np.pi / 2)


def test_balance_and_split_properties():
    labels = np.array([0] * 30 + [1] * 20)
    train, test = balance_and_split(labels, 0.2, seed=7)
    assert np.intersect1d(train, test).size == 0
    kept = np.concatenate([train, test])
    assert labels[kept].sum() * 2 == kept.size  # balanced overall
    assert labels[test].sum() * 2 == test.size  # stratified
    train2, test2 = balance_and_split(labels, 0.2, seed=7)
    assert np.array_equal(train, train2) and np.array_equal(test, test2)
    with pytest.raises(DatasetError):
        balance_and_split(np.array([0, 0, 0, 1]), 0.2, seed=0)
    with pytest.raises(DatasetError, match="no training events"):
        balance_and_split(np.array([0] * 5 + [1] * 5), 0.95, seed=0)
    with pytest.raises(DatasetError, match="test_fraction 0.05 leaves no test events of 5 per class"):
        balance_and_split(np.array([0] * 5 + [1] * 5), 0.05, seed=0)


@pytest.mark.parametrize("n_events", [6, 9, 12, 21])
@pytest.mark.parametrize("test_fraction", [0.2, 0.35, 0.5])
def test_check_width_bound_is_the_largest_rank_a_grid_can_give(rng, n_events, test_fraction):
    """Balanced labels and generic features reach the bound: check_width
    accepts a width the PCA can fit and refuses the next one up."""
    labels = np.arange(n_events) % 2
    train, _ = balance_and_split(labels, test_fraction, seed=0)
    features = rng.normal(size=(train.size, 64))
    bound = train.size - 1
    check_width(bound, n_events, test_fraction)
    fit_pca(features, bound)
    with pytest.raises(DatasetError, match=f"{n_events} grid points .* rank at most {bound}$"):
        check_width(bound + 1, n_events, test_fraction)
    with pytest.raises(DatasetError, match="rank"):
        fit_pca(features, bound + 1)


def test_build_dataset_median_threshold(tiny_events):
    ds = build_dataset(tiny_events, 4)
    entropies = [e.delta_s_mid for e in tiny_events]
    assert ds.threshold == float(np.median(entropies))
    assert set(np.unique(ds.labels)) <= {0, 1}
    assert ds.labels[ds.train_idx].sum() * 2 <= len(ds.train_idx) + 1
    assert ds.features.shape[1] == 4
    assert ds.features.min() >= 0.0 and ds.features.max() <= np.pi
    X_train, y_train = ds.train
    assert X_train.shape[0] == y_train.size == len(ds.train_idx)


def test_build_dataset_explicit_threshold(tiny_events):
    cut = float(np.percentile([e.delta_s_mid for e in tiny_events], 40))
    ds = build_dataset(tiny_events, 2, DatasetConfig(threshold=cut, split_seed=1))
    assert ds.threshold == cut
    # with a low threshold most events are class 1; balancing downsamples
    assert ds.labels.sum() * 2 == ds.labels.size


def test_build_dataset_excludes_failed_events(tiny_events):
    broken = list(tiny_events)
    bad = ScatteringEvent(
        parameters={},
        density_image=np.zeros((1, 8)), entropy_traces=np.zeros((1, 7)),
        error="boom",
    )
    ds = build_dataset(broken + [bad], 4)
    assert len(broken) >= ds.labels.size  # the failed event contributed nothing


@pytest.mark.parametrize("options,key", [
    ({"test_fraction": 0.0}, "test_fraction"),
    ({"threshold": float("inf")}, "threshold"),
    ({"test_fraction": 1.0}, "test_fraction"),
    ({"split_seed": -1}, "split_seed"),
])
def test_build_dataset_checks_its_options_first(options, key):
    # no events at all: the options are checked when they are made, before
    # build_dataset counts events
    with pytest.raises(DatasetError, match=f"^{key} must be"):
        build_dataset([], 2, DatasetConfig(**options))


def _one_lattice_config():
    return dataclasses.replace(tiny_sweep_config(), masses=(0.5,), couplings=(0.6,))


def test_sweep_records_physics_errors_and_raises_programming_errors(monkeypatch):
    def diverging(*args, **kwargs):
        raise EvolutionError("Krylov space exhausted")

    monkeypatch.setattr(dataset, "trajectory", diverging)
    (event,) = run_sweep(_one_lattice_config(), workers=1)
    assert event.error == "EvolutionError: Krylov space exhausted"

    def broken(*args, **kwargs):
        raise TypeError("bad argument")

    monkeypatch.setattr(dataset, "trajectory", broken)
    with pytest.raises(TypeError, match="bad argument"):
        run_sweep(_one_lattice_config(), workers=1)

    # a wrong state shape is a programming error, not a physics failure
    def misshapen(*args, **kwargs):
        raise ObservableError("state has shape (3,)")

    monkeypatch.undo()
    monkeypatch.setattr(dataset, "entanglement_entropy", misshapen)
    with pytest.raises(ObservableError, match="shape"):
        run_sweep(_one_lattice_config(), workers=1)
