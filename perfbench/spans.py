"""In-memory span tracing installed around the package's public functions.

The tracer patches module attributes for the duration of one traced phase:
every wrapped call records a span (name, layer metric, start, end, parent
index) and the counters below.  Names re-bound by importing modules
(``scatterqml.dataset.trajectory``, ``scatterqml.cli.run_sweep``, ...) are
patched too, because a call through such a name never looks up the
defining module again.  Nothing is written while tracing; ``report`` turns
the spans into per-layer self times at the end.

Span names follow the pipeline stages: hamiltonian_build, ground_state,
krylov_step, entropy_cut (one entropy profile is N-1 of them), event_group
(one lattice's events), sweep_serial / sweep_pooled, and encode,
qcnn<q>_forward, qcnn<q>_gradient, cnn_forward, cnn_gradient, train_run,
experiment.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# Per-layer self-time metrics.  Every span carries exactly one of them, so
# these plus ``other_s`` add up to the traced wall time.
SELF_TIME_METRICS = (
    "lattice.build_hamiltonian_s",
    "lattice.ground_state_s",
    "lattice.prepare_state_s",
    "evolution.trajectory_s",
    "observables.entropy_s",
    "observables.density_s",
    "dataset.run_sweep_s",
    "dataset.build_dataset_s",
    "serialize.save_events_s",
    "serialize.save_dataset_s",
    "serialize.load_events_s",
    "serialize.load_dataset_s",
    "cli.gen_data_s",
    "circuits.encode_s",
    "qcnn.forward_s",
    "qcnn.gradient_s",
    "cnn.forward_s",
    "cnn.backward_s",
    "train.self_s",
)


def _qcnn_name(stage):
    return lambda model, *args, **kwargs: f"qcnn{model.n_qubits}_{stage}"


def _sweep_name(config, workers=None):
    return "sweep_serial" if workers == 1 else "sweep_pooled"


# (span name or callable(args) -> name, metric, defining module.attr, re-bound names)
SPANS = (
    ("hamiltonian_build", "lattice.build_hamiltonian_s", "lattice.build_hamiltonian",
     ("dataset.build_hamiltonian",)),
    ("ground_state", "lattice.ground_state_s", "lattice.ground_state",
     ("dataset.ground_state",)),
    ("prepare_state", "lattice.prepare_state_s", "lattice.prepare_scattering_state",
     ("dataset.prepare_scattering_state",)),
    ("free_modes", "lattice.prepare_state_s", "lattice.free_modes",
     ("dataset.free_modes",)),
    ("entropy_cut", "observables.entropy_s", "observables.entanglement_entropy",
     ("dataset.entanglement_entropy",)),
    ("density", "observables.density_s", "observables.site_densities",
     ("dataset.site_densities",)),
    (_sweep_name, "dataset.run_sweep_s", "dataset.run_sweep", ("cli.run_sweep",)),
    ("event_group", "dataset.run_sweep_s", "dataset._run_group", ()),
    ("build_dataset", "dataset.build_dataset_s", "dataset.build_dataset",
     ("cli.build_dataset",)),
    ("save_events", "serialize.save_events_s", "serialize.save_events",
     ("cli.save_events",)),
    ("save_dataset", "serialize.save_dataset_s", "serialize.save_dataset",
     ("cli.save_dataset",)),
    ("load_events", "serialize.load_events_s", "serialize.load_events",
     ("cli.load_events",)),
    ("load_dataset", "serialize.load_dataset_s", "serialize.load_dataset", ()),
    ("gen_data", "cli.gen_data_s", "cli.main", ()),
    ("encode", "circuits.encode_s", "circuits.encode", ("qcnn.encode", "train.encode")),
    (_qcnn_name("forward"), "qcnn.forward_s", "qcnn.qcnn_forward", ("train.qcnn_forward",)),
    (_qcnn_name("gradient"), "qcnn.gradient_s", "qcnn.adjoint_gradient",
     ("train.adjoint_gradient",)),
    ("cnn_forward", "cnn.forward_s", "cnn.cnn_forward", ("train.cnn_forward",)),
    ("cnn_gradient", "cnn.backward_s", "cnn.cnn_backward", ("train.cnn_backward",)),
    ("train_run", "train.self_s", "train.train", ("cli.train",)),
    ("experiment", "train.self_s", "train.run_experiment", ("cli.run_experiment",)),
)

# Generators: each next() is one span (one Krylov step of a trajectory).
STEP_SPANS = (
    ("krylov_step", "evolution.trajectory_s", "evolution.trajectory",
     ("dataset.trajectory",)),
)

PACKAGE = "scatterqml"


def _resolve(dotted):
    module_name, attr = dotted.rsplit(".", 1)
    return importlib.import_module(f"{PACKAGE}.{module_name}"), attr


class Tracer:
    """Records spans and counters while installed; restores the package on exit."""

    def __init__(self, only=None):
        """only: defining names (e.g. "dataset.run_sweep") to wrap; None wraps all."""
        self.only = only
        self.spans = []  # [name, metric, start, end, parent index or -1]
        self.counts = Counter()
        self.maxima = Counter()
        self._stack = []
        self._patches = []

    # -- recording -----------------------------------------------------
    def _open(self, name, metric):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, metric, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()

    def run(self, name, metric, fn, *args, **kwargs):
        """Call fn inside one span."""
        self._open(name, metric)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def _wrap(self, fn, name, metric):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            self._observe(label, args)
            return self.run(label, metric, fn, *args, **kwargs)

        return traced

    def _wrap_steps(self, fn, name, metric):
        @functools.wraps(fn)
        def traced(ham, state, *args, **kwargs):
            self.maxima["lattice.state_dim"] = max(self.maxima["lattice.state_dim"], state.size)
            steps = fn(ham, state, *args, **kwargs)
            while True:
                self._open(name, metric)
                try:
                    item = next(steps)
                except StopIteration:
                    # the exhausted generator did no step: drop its empty span
                    self.spans.pop(self._stack.pop())
                    return
                except BaseException:
                    self._close()
                    raise
                self._close()
                self.counts["evolution.steps"] += 1
                yield item

        return traced

    def _observe(self, label, args):
        if label == "entropy_cut":
            self.counts["observables.entropy_calls"] += 1
        elif label.endswith("_gradient") and label.startswith("qcnn"):
            self.counts["qcnn.gradient_calls"] += 1
        elif label == "train_run":
            self.counts["train.runs"] += 1
        if label.startswith("qcnn"):
            states = args[1]
            self.maxima["circuits.state_bytes"] = max(
                self.maxima["circuits.state_bytes"], states.shape[0] * states.shape[1] * 16
            )

    def _count_calls(self, fn, counter):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        try:
            return self._install()
        except BaseException:
            self.__exit__()
            raise

    def _install(self):
        for table, wrapper in ((SPANS, self._wrap), (STEP_SPANS, self._wrap_steps)):
            for name, metric, defining, rebound in table:
                if self.only is not None and defining not in self.only:
                    continue
                module, attr = _resolve(defining)
                traced = wrapper(getattr(module, attr), name, metric)
                for dotted in (defining,) + rebound:
                    self._patch(*_resolve(dotted), traced)
        if self.only is not None:
            return self
        lattice = importlib.import_module(f"{PACKAGE}.lattice")
        circuits = importlib.import_module(f"{PACKAGE}.circuits")
        self._patch(
            lattice.SparseHamiltonian, "apply",
            self._count_calls(lattice.SparseHamiltonian.apply, "evolution.matvecs"),
        )
        # qcnn imports apply_unitary inside its functions, so patching the
        # defining module covers every caller.
        self._patch(
            circuits, "apply_unitary",
            self._count_calls(circuits.apply_unitary, "circuits.apply_calls"),
        )
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- analysis ------------------------------------------------------
    def self_times(self):
        """Self time per metric: span duration minus its children's durations."""
        child_time = [0.0] * len(self.spans)
        for name, metric, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        totals["other_s"] = 0.0
        for i, (name, metric, start, end, parent) in enumerate(self.spans):
            totals[metric if metric in totals else "other_s"] += end - start - child_time[i]
        return totals

    def durations(self, name):
        """Inclusive durations of every span with the given name."""
        return [end - start for n, _, start, end, _ in self.spans if n == name]

    def dump(self):
        return {
            "spans": [
                {"name": n, "metric": m, "start": s, "end": e, "parent": p}
                for n, m, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
