import dataclasses

import numpy as np
import pytest

from scatterqml import dataset
from scatterqml.dataset import (
    WORKERS_ENV,
    DatasetConfig,
    DatasetError,
    ScatteringEvent,
    SweepConfig,
    apply_pca,
    assign_label,
    balance_and_split,
    build_dataset,
    central_excess_entropy,
    desk_sweep_config,
    detect_separation_time,
    fit_pca,
    scale_to_angles,
    angle_bounds,
    run_sweep,
    worker_count,
)
from scatterqml.evolution import EvolutionError, trajectory
from scatterqml.lattice import (
    LatticeModel,
    WavepacketSpec,
    build_hamiltonian,
    free_modes,
    ground_state,
    prepare_scattering_state,
)
from scatterqml.observables import excess_entropy, site_densities

from conftest import tiny_sweep_config


def test_sweep_config_validation():
    with pytest.raises(DatasetError):
        SweepConfig(masses=(), couplings=(0.5,), fermion_momenta=(0.9,),
                    antifermion_momenta=(-0.9,))
    with pytest.raises(DatasetError):
        SweepConfig(masses=(0.5,), couplings=(0.5,), fermion_momenta=(0.9,),
                    antifermion_momenta=(0.9,))


@pytest.mark.parametrize("field,value", [
    ("masses", (np.nan, 0.6)),
    ("couplings", (0.5, np.inf)),
    ("fermion_momenta", (np.nan,)),
    ("antifermion_momenta", (-np.inf,)),
    ("time_horizon", np.nan),
    ("time_step", np.inf),
    ("momentum_width", np.nan),
    ("fermion_position", np.inf),
])
def test_sweep_config_rejects_non_finite_values(field, value):
    with pytest.raises(DatasetError, match=f"{field} must be finite"):
        dataclasses.replace(tiny_sweep_config(), **{field: value})


def test_sweep_config_rejects_non_positive_time_step():
    with pytest.raises(DatasetError, match="time_step"):
        dataclasses.replace(tiny_sweep_config(), time_step=0.0)


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
    t_star = detect_separation_time(image, times, 0.5, N)
    # closed form: extrema meet, then separate beyond 6 sites
    sep = np.abs(np.argmax(image, axis=1) - np.argmin(image, axis=1))
    close = np.flatnonzero(sep <= 6)[0]
    expected = times[np.flatnonzero((sep > 6) & (np.arange(sep.size) > close))[0]]
    assert t_star == expected


def test_detect_separation_time_never_approached():
    times = np.arange(1.0, 5.0)
    image = np.zeros((4, 12))
    image[:, 0] = 1.0
    image[:, 11] = -1.0  # always far apart, never approached
    assert detect_separation_time(image, times, 0.5, 12) is None


def test_central_excess_entropy_and_label():
    times = np.array([1.0, 2.0])
    traces = np.arange(2 * 11, dtype=float).reshape(2, 11)
    ev = ScatteringEvent(
        parameters={}, times=times,
        density_image=np.zeros((2, 12)), entropy_traces=traces,
    )
    # N=12: mean of cut columns 4 and 5 of the requested row
    assert central_excess_entropy(ev, 2.0) == 0.5 * (traces[1, 4] + traces[1, 5])
    with pytest.raises(DatasetError):
        central_excess_entropy(ev, 1.7)
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


def test_time_chunks_match_per_time_observables():
    """A time grid that is not a multiple of TIME_CHUNK: every chunk, the
    short last one included, gives the rows single-state calls give."""
    config = dataclasses.replace(tiny_sweep_config(), time_horizon=8.5)
    times = config.times
    assert times.size == 17 and times.size % dataset.TIME_CHUNK != 0
    task = (config, 0.5, 0.6, [(0.9, -0.9)])
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
    for _, psi in trajectory(ham, psi0, times):
        densities.append(site_densities(sector, psi) - site_densities(sector, vacuum))
        entropies.append([excess_entropy(sector, psi, vacuum, cut) for cut in range(1, 8)])
    assert np.abs(event.density_image - densities).max() < 1e-13
    assert np.abs(event.entropy_traces - entropies).max() < 1e-13

    (again,) = dataset._run_group(task)
    assert again.density_image.tobytes() == event.density_image.tobytes()
    assert again.entropy_traces.tobytes() == event.entropy_traces.tobytes()


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


def test_build_dataset_median_threshold(tiny_events):
    ds = build_dataset(tiny_events)
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
    ds = build_dataset(
        tiny_events, DatasetConfig(threshold=cut, split_seed=1, n_components=2)
    )
    assert ds.threshold == cut
    # with a low threshold most events are class 1; balancing downsamples
    assert ds.labels.sum() * 2 == ds.labels.size


def test_build_dataset_excludes_failed_events(tiny_events):
    broken = list(tiny_events)
    bad = ScatteringEvent(
        parameters={}, times=np.array([1.0]),
        density_image=np.zeros((1, 8)), entropy_traces=np.zeros((1, 7)),
        error="boom",
    )
    ds = build_dataset(broken + [bad])
    assert len(broken) >= ds.labels.size  # the failed event contributed nothing


@pytest.mark.parametrize("options,key", [
    ({"n_components": 0}, "n_components"),
    ({"n_components": 2, "threshold": float("inf")}, "threshold"),
    ({"n_components": 2, "test_fraction": 1.0}, "test_fraction"),
    ({"n_components": 2, "split_seed": -1}, "split_seed"),
])
def test_build_dataset_checks_its_options_first(options, key):
    # no events at all: the options are checked when they are made, before
    # build_dataset counts events
    with pytest.raises(DatasetError, match=f"^{key} must be"):
        build_dataset([], DatasetConfig(**options))


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert worker_count() == 3
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv(WORKERS_ENV, bad)
        with pytest.raises(DatasetError, match=f"{WORKERS_ENV}.*{bad!r}"):
            worker_count()


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
