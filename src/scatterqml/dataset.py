"""Parameter sweep, event labeling and dataset construction.

Runs scattering trajectories over a (mass, coupling, momentum-pair) grid,
extracts the separation time and the central excess entropy, labels events
against an entropy threshold and produces balanced, PCA-reduced,
angle-scaled train/test splits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np
import scipy

from .evolution import EvolutionError, trajectory
from .lattice import (
    LatticeError,
    LatticeModel,
    WavepacketSpec,
    build_hamiltonian,
    check_sites,
    free_modes,
    ground_state,
    prepare_scattering_state,
)
from .observables import entanglement_entropy, site_densities

TIME_STEP = 0.5  # spacing of the recorded times
# the packets have separated once the density maximum and minimum sit more
# than this fraction of the lattice apart
SEPARATION_FRACTION = 0.5


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS copies bundled with
    the numpy and scipy wheels; a copy that is not found is left out."""
    controls = []
    for package, library, suffix in (
        (np, "numpy.libs/libscipy_openblas64_*.so", "64_"),
        (scipy, "scipy.libs/libscipy_openblas*.so", ""),
    ):
        site = os.path.dirname(os.path.dirname(package.__file__))
        for path in sorted(glob.glob(os.path.join(site, library))):
            try:
                lib = ctypes.CDLL(path)
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue  # another BLAS build: leave it as it is
            controls.append((get_threads, set_threads))
    return tuple(controls)


def _set_blas_threads(counts) -> None:
    """Give each bundled OpenBLAS copy its thread count from `counts`.

    A copy that already has its count is left alone: any set call starts the
    copy's threads afresh, and in a forked pool worker those threads spin
    beside the task.
    """
    for (get_threads, set_threads), count in zip(_blas_thread_controls(), counts):
        if get_threads() != count:
            set_threads(count)


def _pin_blas() -> None:
    """Set every bundled OpenBLAS copy to one thread."""
    _set_blas_threads(itertools.repeat(1))


@contextlib.contextmanager
def single_threaded_blas():
    """Run the block with one BLAS thread, then restore each copy's count."""
    saved = [get_threads() for get_threads, _ in _blas_thread_controls()]
    _pin_blas()
    try:
        yield
    finally:
        _set_blas_threads(saved)


def ordered_map(fn, tasks, workers: int | None = None) -> list:
    """[fn(t) for t in tasks], in a process pool of `workers` (default: the
    available parallelism, at most one per task) when that is more than one.

    BLAS runs single-threaded in the caller and in every pool worker: a
    pool's processes already use the cores, and a pinned thread count makes
    the results independent of both `workers` and OPENBLAS_NUM_THREADS.
    """
    n_workers = min(workers if workers is not None else (os.cpu_count() or 1), len(tasks))
    with single_threaded_blas():
        if n_workers > 1:
            with ProcessPoolExecutor(max_workers=n_workers, initializer=_pin_blas) as pool:
                return list(pool.map(fn, tasks))
        return [fn(t) for t in tasks]


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    masses: tuple
    couplings: tuple
    fermion_momenta: tuple
    antifermion_momenta: tuple
    sites: int = 12
    time_horizon: float = 24.0
    momentum_width: float = 0.4

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "tuple":
                if len(value) == 0:
                    raise DatasetError(f"{f.name} grid is empty")
                if not np.all(np.isfinite(value)):
                    raise DatasetError(f"{f.name} must be finite, got {tuple(value)}")
            elif not np.isfinite(value):
                raise DatasetError(f"{f.name} must be finite, got {value}")
        check_sites(self.sites)
        if min(self.masses) <= 0:
            raise DatasetError(f"masses must be positive, got {tuple(self.masses)}")
        if self.time_horizon < TIME_STEP:
            raise DatasetError(
                f"time_horizon must be at least time_step ({TIME_STEP}), "
                f"got {self.time_horizon}"
            )
        if self.momentum_width <= 0:
            raise DatasetError(f"momentum_width must be positive, got {self.momentum_width}")
        # the fermion starts on the left and moves right, the antifermion the
        # other way, each inside the first Brillouin zone (-pi, pi]
        if not all(0 < k <= np.pi for k in self.fermion_momenta):
            raise DatasetError(
                f"fermion_momenta must be in (0, pi], got {tuple(self.fermion_momenta)}"
            )
        if not all(-np.pi < k < 0 for k in self.antifermion_momenta):
            raise DatasetError(
                f"antifermion_momenta must be in (-pi, 0), got {tuple(self.antifermion_momenta)}"
            )

    @property
    def times(self) -> np.ndarray:
        """The recorded times: every multiple of TIME_STEP up to time_horizon."""
        n_steps = int(self.time_horizon // TIME_STEP)
        return TIME_STEP * np.arange(1, n_steps + 1)

    @property
    def packet_positions(self) -> tuple[float, float]:
        """Fermion and antifermion packet centres, at N/4 and 3N/4."""
        return float(round(self.sites / 4)), float(round(3 * self.sites / 4))

    def grid(self):
        """All (mass, coupling, fermion momentum, antifermion momentum) tuples."""
        return [
            (m, g, kc, kd)
            for m in self.masses
            for g in self.couplings
            for kc in self.fermion_momenta
            for kd in self.antifermion_momenta
        ]


def desk_sweep_config() -> SweepConfig:
    """Default desk-scale sweep: 210 events on a two-band mass grid.

    The mass bands sit on either side of the entropy-production crossover at
    strong coupling, so the central-entropy distribution is bimodal and the
    median threshold falls inside the gap between the two modes.
    """
    light = np.round(np.linspace(0.18, 0.33, 7), 4)
    heavy = np.round(np.linspace(0.60, 0.90, 7), 4)
    return SweepConfig(
        masses=tuple(np.concatenate([light, heavy])),
        couplings=tuple(np.round(np.linspace(0.50, 0.85, 15), 4)),
        fermion_momenta=(0.9,),
        antifermion_momenta=(-0.9,),
    )


# the grid point of an event, by name
PARAMETER_KEYS = ("mass", "coupling", "fermion_momentum", "antifermion_momentum")


@dataclass
class ScatteringEvent:
    """One grid point's trajectory; its recorded times are SweepConfig.times."""

    parameters: dict  # its grid point, by PARAMETER_KEYS
    density_image: np.ndarray  # (timeSteps, N)
    entropy_traces: np.ndarray  # (timeSteps, N-1)
    t_star: float | None = None
    delta_s_mid: float | None = None
    error: str | None = None


def separation_row(density_image) -> int | None:
    """First row, after the extrema have approached, at which the density
    maximum and minimum sit more than SEPARATION_FRACTION of the sites apart."""
    image = np.asarray(density_image)
    sep = np.abs(np.argmax(image, axis=1) - np.argmin(image, axis=1))
    threshold = SEPARATION_FRACTION * image.shape[1]
    close = np.flatnonzero(sep <= threshold)
    if close.size == 0:
        return None  # packets never approached: the rule does not fire
    apart = np.flatnonzero(sep > threshold)
    apart = apart[apart > close[0]]
    if apart.size == 0:
        return None
    return int(apart[0])


def central_excess_entropy(entropy_row) -> float:
    """Mean excess entropy of the two central cuts of one row of entropy traces."""
    N = len(entropy_row) + 1
    # column j holds the cut after site j, i.e. cut n = j + 1
    return float(0.5 * (entropy_row[N // 2 - 2] + entropy_row[N // 2 - 1]))


def assign_label(delta_s_mid: float, threshold: float) -> int:
    """1 when the excess central entropy exceeds the threshold, else 0."""
    if not (np.isfinite(delta_s_mid) and np.isfinite(threshold)):
        raise DatasetError("non-finite entropy or threshold")
    return int(delta_s_mid > threshold)


def _run_group(args):
    """All trajectories for one (mass, coupling) pair, one per momentum pair
    in grid order; used by the worker pool.

    The observables are evaluated once per stack of states that trajectory
    yields, one stack per Krylov basis.
    """
    config, mass, coupling = args
    model = LatticeModel(sites=config.sites, mass=mass, coupling=coupling)
    ham = build_hamiltonian(model)
    basis = ham.sector
    vacuum, _ = ground_state(ham)
    modes = free_modes(model)
    vac_density = site_densities(basis, vacuum)
    vac_entropies = entanglement_entropy(basis, vacuum)
    pos_c, pos_d = config.packet_positions
    times = config.times

    events = []
    for kc, kd in itertools.product(config.fermion_momenta, config.antifermion_momenta):
        params = dict(zip(PARAMETER_KEYS, (mass, coupling, kc, kd)))
        try:
            fer = WavepacketSpec("fermion", pos_c, kc, config.momentum_width)
            anti = WavepacketSpec("antifermion", pos_d, kd, config.momentum_width)
            psi0 = prepare_scattering_state(ham, vacuum, modes, fer, anti)
            densities, entropies = [], []
            for _, states in trajectory(ham, psi0, times):
                densities.append(site_densities(basis, states) - vac_density)
                entropies.append(entanglement_entropy(basis, states) - vac_entropies)
            event = ScatteringEvent(params, np.concatenate(densities), np.concatenate(entropies))
            row = separation_row(event.density_image)
            if row is not None:
                event.t_star = float(times[row])
                event.delta_s_mid = central_excess_entropy(event.entropy_traces[row])
        except (LatticeError, EvolutionError) as exc:
            # an expected physics failure becomes the event's error; the sweep goes on
            event = ScatteringEvent(
                parameters=params,
                density_image=np.zeros((len(times), config.sites)),
                entropy_traces=np.zeros((len(times), config.sites - 1)),
                error=f"{type(exc).__name__}: {exc}",
            )
        events.append(event)
    return events


def run_sweep(config: SweepConfig, workers: int | None = None) -> list[ScatteringEvent]:
    """One event per grid tuple, in grid order; deterministic given the config."""
    tasks = [(config, m, g) for m in config.masses for g in config.couplings]
    groups = ordered_map(_run_group, tasks, workers)
    return [event for group in groups for event in group]


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (d, rawDim), orthonormal rows
    explained_variance: np.ndarray  # non-increasing


def fit_pca(train_features: np.ndarray, n_components: int) -> PcaModel:
    """Principal components of the training rows via SVD of the centered matrix."""
    X = np.asarray(train_features, dtype=float)
    mean = X.mean(axis=0)
    centered = X - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(svals > 1e-10 * max(svals[0], 1e-30)))
    if n_components > rank:
        raise DatasetError(
            f"requested {n_components} components but the training data has rank {rank}"
        )
    variance = svals**2 / max(X.shape[0] - 1, 1)
    return PcaModel(
        mean=mean,
        components=vt[:n_components],
        explained_variance=variance[:n_components],
    )


def apply_pca(model: PcaModel, features: np.ndarray) -> np.ndarray:
    return (np.asarray(features, dtype=float) - model.mean) @ model.components.T


def angle_bounds(train_scores: np.ndarray) -> np.ndarray:
    """Per-dimension (min, max) over the training scores, shape (2, d)."""
    X = np.asarray(train_scores, dtype=float)
    return np.vstack([X.min(axis=0), X.max(axis=0)])


def scale_to_angles(scores: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Affine map of each score dimension to [0, pi], clipping out-of-range values.

    A zero-range dimension maps to the constant pi/2.
    """
    lo, hi = np.asarray(bounds)
    span = hi - lo
    X = np.asarray(scores, dtype=float)
    out = np.empty_like(X)
    degenerate = span <= 0
    ok = ~degenerate
    out[:, ok] = np.pi * (X[:, ok] - lo[ok]) / span[ok]
    out[:, degenerate] = np.pi / 2
    return np.clip(out, 0.0, np.pi)


def balance_and_split(labels: np.ndarray, test_fraction: float, seed: int):
    """Balanced, stratified train/test index split.

    The majority class is downsampled uniformly at random to the minority
    count; each class is split with the same test fraction.  Returns
    (train_idx, test_idx), both sorted, deterministic given the seed.
    """
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    per_class = {}
    for cls in (0, 1):
        per_class[cls] = np.flatnonzero(labels == cls)
    counts = {cls: idx.size for cls, idx in per_class.items()}
    if min(counts.values()) < 2:
        raise DatasetError(f"need at least 2 events per class, have {counts}")
    n_keep = min(counts.values())

    train_idx, test_idx = [], []
    n_test = int(round(test_fraction * n_keep))
    if n_test >= n_keep:
        raise DatasetError(
            f"test_fraction {test_fraction} leaves no training events "
            f"of {n_keep} per class"
        )
    if n_test == 0:
        raise DatasetError(
            f"test_fraction {test_fraction} leaves no test events of {n_keep} per class"
        )
    for cls in (0, 1):
        idx = per_class[cls]
        if idx.size > n_keep:
            idx = rng.choice(idx, size=n_keep, replace=False)
        idx = rng.permutation(idx)
        test_idx.append(idx[:n_test])
        train_idx.append(idx[n_test:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def check_width(width: int, n_events: int, test_fraction: float) -> None:
    """Refuse a PCA width that no dataset of `n_events` events can reach.

    balance_and_split keeps at most k = n_events // 2 events per class and
    holds round(test_fraction * k) of each out, so whatever the labels, the
    centred training rows have rank at most 2 * (k - round(test_fraction * k)) - 1.
    """
    per_class = n_events // 2
    rank = 2 * (per_class - int(round(test_fraction * per_class))) - 1
    if width > rank:
        raise DatasetError(
            f"requested {width} components but {n_events} grid points give "
            f"training data of rank at most {rank}"
        )


@dataclass
class ProcessedDataset:
    """Angle-scaled PCA features with labels and a frozen train/test split."""

    features: np.ndarray  # (M, d) angles in [0, pi]
    labels: np.ndarray  # (M,) binary
    train_idx: np.ndarray
    test_idx: np.ndarray
    pca: PcaModel
    bounds: np.ndarray  # (2, d) angle-scaling bounds from the training split
    threshold: float
    seed: int
    event_rows: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    @property
    def train(self):
        return self.features[self.train_idx], self.labels[self.train_idx]

    @property
    def test(self):
        return self.features[self.test_idx], self.labels[self.test_idx]


@dataclass(frozen=True)
class DatasetConfig:
    """Labelling and split options of build_dataset()."""

    # None labels at the median excess central entropy
    threshold: float | None = field(default=None, metadata={"none": "median"})
    test_fraction: float = 0.2  # held-out fraction per class
    split_seed: int = 0  # balancing/split RNG seed

    def __post_init__(self):
        if self.threshold is not None and not np.isfinite(self.threshold):
            raise DatasetError(f"threshold must be finite or 'median', got {self.threshold}")
        if not 0 < self.test_fraction < 1:
            raise DatasetError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.split_seed < 0:
            raise DatasetError(
                f"split_seed must be a non-negative integer, got {self.split_seed}"
            )


def build_dataset(
    events: list[ScatteringEvent], width: int, config: DatasetConfig = DatasetConfig()
) -> ProcessedDataset:
    """Label, balance, split and project a sweep into a training dataset with
    `width` PCA features, the input width of the model it feeds.

    Events without a detected separation time (or with recorded errors) are
    excluded.  When config.threshold is None the median of the excess central
    entropies is used, which keeps both classes populated at small lattices.
    """
    threshold, seed = config.threshold, config.split_seed
    usable = [
        (i, ev)
        for i, ev in enumerate(events)
        if ev.error is None and ev.delta_s_mid is not None
    ]
    if len(usable) < 4:
        raise DatasetError(f"only {len(usable)} labeled events available")
    entropies = np.array([ev.delta_s_mid for _, ev in usable])
    if threshold is None:
        threshold = float(np.median(entropies))
    labels = np.array([assign_label(s, threshold) for s in entropies])

    train_local, test_local = balance_and_split(labels, config.test_fraction, seed)
    keep = np.concatenate([train_local, test_local])
    keep.sort()

    raw = np.array([usable[i][1].density_image.ravel() for i in keep])
    kept_labels = labels[keep]
    # each split's rows: the positions of its (sorted) indices in keep
    train_idx = np.searchsorted(keep, train_local)
    test_idx = np.searchsorted(keep, test_local)

    pca = fit_pca(raw[train_idx], width)
    scores = apply_pca(pca, raw)
    bounds = angle_bounds(scores[train_idx])
    angles = scale_to_angles(scores, bounds)

    return ProcessedDataset(
        features=angles,
        labels=kept_labels,
        train_idx=train_idx,
        test_idx=test_idx,
        pca=pca,
        bounds=bounds,
        threshold=threshold,
        seed=seed,
        event_rows=np.array([usable[i][0] for i in keep]),
    )
