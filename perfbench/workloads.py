"""Benchmark workloads: seeded inputs, the measured call and its checks.

Each workload draws every input from the workload seed, so the package
receives only generated inputs.  ``run`` is the measured phase; ``check``
tests the invariants every output must satisfy, ``compare`` tests an output
against the values recorded at the seed commit for ``DEFAULT_SEED``, and
``probe`` evaluates the model gradients that ``check_probe`` verifies.

Tolerances (no looser than the package's tests use for the same quantity,
and wide enough for another propagator run at the same tol=1e-10):
  * number conservation: each density row sums to zero within 1e-9
    (tests/test_dataset.py);
  * densities and delta_s_mid against the reference: 1e-8 (criterion 1
    compares densities and entropies with a dense oracle at 1e-8); t_star
    exactly, since it lies on the recorded time grid;
  * qcnn probabilities and losses: 1e-12 (tests/test_qcnn.py); gradients and
    trained parameters: 1e-8 (adjoint vs parameter shift in tests/test_qcnn.py);
    per-epoch accuracies exactly;
  * directional finite differences of the loss against the gradient: 1e-6
    (criterion 5 and tests/test_qcnn.py).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
from pathlib import Path

import numpy as np

from scatterqml import cli, dataset, serialize
from scatterqml.dataset import ProcessedDataset, SweepConfig
from scatterqml.train import TrainConfig, make_classifier

# Package functions are called through their modules, so that the tracer's
# patches of those module attributes see every call.  The package namespace
# binds the name "train" to the function, so the module comes from importlib.
training = importlib.import_module("scatterqml.train")

DEFAULT_SEED = 0

CONSERVATION_TOL = 1e-9
PHYSICS_TOL = 1e-8
PROBABILITY_TOL = 1e-12
GRADIENT_TOL = 1e-8
FD_TOL = 1e-6
FD_STEP = 1e-4

# The desk sweep's two mass bands and coupling range (dataset.desk_sweep_config).
LIGHT_MASSES = tuple(np.round(np.linspace(0.18, 0.33, 7), 4))
HEAVY_MASSES = tuple(np.round(np.linspace(0.60, 0.90, 7), 4))
COUPLINGS = tuple(np.round(np.linspace(0.50, 0.85, 15), 4))


class Tally:
    """Attempted and failed operations, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def expect(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _close(a, b, tol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def synthetic_dataset(rng, n_features, n_train, n_test) -> ProcessedDataset:
    """Angles in [0, pi] labelled by a fixed linear teacher, balanced per split.

    The teacher weights alternate in sign along the feature axis; a row is
    class 1 when its teacher score lies above the median, so both classes
    hold exactly half of the rows, and the test rows take the same number
    from each class.
    """
    n = n_train + n_test
    features = rng.uniform(0.0, np.pi, size=(n, n_features))
    teacher = np.cos(np.pi * np.arange(n_features) / 2) + 0.5 * np.sin(np.arange(n_features))
    scores = (features - np.pi / 2) @ teacher
    labels = (scores > np.median(scores)).astype(int)
    test_idx = np.sort(np.concatenate([
        rng.permutation(np.flatnonzero(labels == cls))[: n_test // 2] for cls in (0, 1)
    ]))
    train_idx = np.setdiff1d(np.arange(n), test_idx)
    return ProcessedDataset(
        features=features, labels=labels, train_idx=train_idx, test_idx=test_idx,
        pca=None, bounds=None, threshold=0.0, seed=0,
    )


def check_events(events, tally):
    """No recorded error and number conservation in every event."""
    for i, ev in enumerate(events):
        ok = ev.error is None and bool(
            np.all(np.abs(ev.density_image.sum(axis=1)) <= CONSERVATION_TOL)
        )
        tally.expect(ok, f"event {i}: error {ev.error!r} or number not conserved")


def event_summary(events):
    return [
        {
            "mass": ev.parameters["mass"],
            "coupling": ev.parameters["coupling"],
            "fermion_momentum": ev.parameters["fermion_momentum"],
            "antifermion_momentum": ev.parameters["antifermion_momentum"],
            "t_star": ev.t_star,
            "delta_s_mid": ev.delta_s_mid,
            "density_image": ev.density_image.tolist(),
        }
        for ev in events
    ]


def compare_events(events, reference, tally):
    tally.expect(len(events) == len(reference), "event count differs from the reference")
    for i, (got, ref) in enumerate(zip(event_summary(events), reference)):
        same_point = all(got[k] == ref[k] for k in (
            "mass", "coupling", "fermion_momentum", "antifermion_momentum"))
        ok = same_point and got["t_star"] == ref["t_star"]
        if ok and ref["delta_s_mid"] is not None:
            ok = got["delta_s_mid"] is not None and abs(
                got["delta_s_mid"] - ref["delta_s_mid"]) <= PHYSICS_TOL
        ok = ok and _close(got["density_image"], ref["density_image"], PHYSICS_TOL)
        tally.expect(ok, f"event {i} differs from the reference")


def same_events(a, b):
    return len(a) == len(b) and all(
        x.error == y.error and x.t_star == y.t_star and x.delta_s_mid == y.delta_s_mid
        and np.array_equal(x.density_image, y.density_image)
        and np.array_equal(x.entropy_traces, y.entropy_traces)
        for x, y in zip(a, b)
    )


class Workload:
    name = ""
    # pooled: the workload's call goes through a process pool, and the traced
    # run times it at workers = nproc for the pool efficiency.
    # measure_pooled: the untraced (measured) phase passes workers = nproc
    # rather than 1.
    pooled = False
    measure_pooled = False
    unit = ""  # what throughput counts: "events" or "samples"

    def inputs(self, seed):
        raise NotImplementedError

    def run(self, inputs, workers):
        raise NotImplementedError

    def work(self, inputs) -> int:
        raise NotImplementedError

    def check(self, inputs, output, tally):
        raise NotImplementedError

    def same(self, a, b) -> bool:
        """Outputs of two runs of the same inputs are identical."""
        raise NotImplementedError

    def summary(self, output):
        raise NotImplementedError

    def compare(self, output, reference, tally):
        raise NotImplementedError

    def probe(self, inputs):
        """Model probabilities and gradients checked once per benchmark run."""
        return {}

    def warm_up(self):
        raise NotImplementedError


def tiny_sweep_config():
    """One N=8 event over 8 steps: reaches every physics call in milliseconds."""
    return SweepConfig(
        masses=(0.5,), couplings=(0.5,), fermion_momenta=(0.9,),
        antifermion_momenta=(-0.9,), sites=8, time_horizon=4.0, momentum_width=0.7,
    )


class GenDataN12(Workload):
    """gen-data through the CLI on a seed-drawn N=12 sub-grid of the desk sweep.

    Measured with --workers 1: with the package's default BLAS threading
    two pool workers oversubscribe the cores and the pooled sweep time is
    too unsteady to bound (the same 8-event pooled sweep took 4 to 19 s
    from one run to the next).  The traced run times the pooled call too.
    """

    name = "gen-data-n12"
    pooled = True
    unit = "events"
    masses_per_band = 2
    couplings = 2

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 12])
        masses = sorted(rng.choice(LIGHT_MASSES, self.masses_per_band, replace=False))
        masses += sorted(rng.choice(HEAVY_MASSES, self.masses_per_band, replace=False))
        couplings = sorted(rng.choice(COUPLINGS, self.couplings, replace=False))
        return {
            "masses": [float(m) for m in masses],
            "couplings": [float(g) for g in couplings],
        }

    def argv(self, inputs, workers):
        def floats(values):
            return ",".join(repr(v) for v in values)

        return [
            "gen-data", "--out", str(self.out_dir), "--workers", str(workers),
            "--set", "sites=12",
            "--set", f"masses={floats(inputs['masses'])}",
            "--set", f"couplings={floats(inputs['couplings'])}",
            "--set", "fermion_momenta=0.9",
            "--set", "antifermion_momenta=-0.9",
        ]

    def run(self, inputs, workers):
        """gen-data, then read its files back as train and experiment do."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(self.argv(inputs, workers))
        if code != 0:
            return {"code": code, "message": err.getvalue().strip()}
        _, events = serialize.load_events(self.out_dir / "events.jsonl")
        data = serialize.load_dataset(self.out_dir / "dataset.json")
        raw = (self.out_dir / "events.jsonl").read_bytes()
        return {"code": 0, "events": events, "dataset": data, "bytes": raw}

    def work(self, inputs):
        return len(inputs["masses"]) * len(inputs["couplings"])

    def check(self, inputs, output, tally):
        if output["code"] != 0:
            for i in range(self.work(inputs)):
                tally.expect(False, f"event {i}: gen-data failed: {output['message']}")
            return
        events, data = output["events"], output["dataset"]
        tally.expect(len(events) == self.work(inputs), "gen-data wrote the wrong event count")
        check_events(events, tally)
        expected = [int(events[row].delta_s_mid > data.threshold) for row in data.event_rows]
        tally.expect(
            list(data.labels) == expected,
            "dataset labels disagree with delta_s_mid against the threshold",
        )
        tally.expect(
            bool(np.all((data.features >= 0) & (data.features <= np.pi))),
            "dataset features outside [0, pi]",
        )

    def same(self, a, b):
        return a["code"] == b["code"] and a.get("bytes") == b.get("bytes")

    def summary(self, output):
        return {"events": event_summary(output["events"])}

    def compare(self, output, reference, tally):
        if output["code"] == 0:
            compare_events(output["events"], reference["events"], tally)

    def warm_up(self):
        dataset.run_sweep(tiny_sweep_config(), workers=1)


class SweepN14Serial(Workload):
    """run_sweep at N=14 with one worker: one lattice, several momentum pairs."""

    name = "sweep-n14-serial"
    unit = "events"
    fermion_momenta = (0.7, 0.8, 0.9, 1.0)

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 14])
        band = (LIGHT_MASSES, HEAVY_MASSES)[int(rng.integers(2))]
        k_fermion, k_second = rng.choice(self.fermion_momenta, 2, replace=False)
        return SweepConfig(
            masses=(float(rng.choice(band)),),
            couplings=(float(rng.choice(COUPLINGS)),),
            fermion_momenta=(float(k_fermion),),
            antifermion_momenta=tuple(sorted((-float(k_fermion), -float(k_second)))),
            sites=14,
        )

    def run(self, inputs, workers):
        return dataset.run_sweep(inputs, workers=workers)

    def work(self, inputs):
        return len(inputs.grid())

    def check(self, inputs, output, tally):
        tally.expect(len(output) == self.work(inputs), "run_sweep returned the wrong event count")
        check_events(output, tally)

    def same(self, a, b):
        return same_events(a, b)

    def summary(self, output):
        return {"events": event_summary(output)}

    def compare(self, output, reference, tally):
        compare_events(output, reference["events"], tally)

    def warm_up(self):
        dataset.run_sweep(tiny_sweep_config(), workers=1)


def _loss(clf, states, labels, params):
    saved = clf.params
    clf.params = params
    try:
        return float(np.mean((clf.predict_prepared(states) - labels) ** 2))
    finally:
        clf.params = saved


def probe_classifier(model, data, seed, rows):
    """Probabilities and gradient of the run-`seed` classifier on `rows` training rows.

    The gradient is checked against a central finite difference of the loss
    along a seeded random direction.  Only circuit models are probed: the
    loss is smooth in their parameters, while a CNN's ReLU kinks can defeat
    a finite difference.
    """
    clf = make_classifier(model, seed)
    X, y = data.train
    states, labels = clf.prepare(X[:rows]), y[:rows].astype(float)
    grad = clf.gradient_prepared(states, labels)
    direction = np.random.default_rng(seed).normal(size=grad.shape)
    direction /= np.linalg.norm(direction)
    fd = (
        _loss(clf, states, labels, clf.params + FD_STEP * direction)
        - _loss(clf, states, labels, clf.params - FD_STEP * direction)
    ) / (2 * FD_STEP)
    return {
        "probabilities": clf.predict_prepared(states).tolist(),
        "gradient": grad.tolist(),
        "directional_derivative": float(grad @ direction),
        "finite_difference": fd,
    }


def check_probe(probe, tally, reference=None):
    for model, values in probe.items():
        tally.expect(
            abs(values["directional_derivative"] - values["finite_difference"]) <= FD_TOL,
            f"{model}: gradient disagrees with finite differences",
        )
        if reference is not None:
            ref = reference[model]
            tally.expect(
                _close(values["probabilities"], ref["probabilities"], PROBABILITY_TOL),
                f"{model}: probabilities differ from the reference",
            )
            tally.expect(
                _close(values["gradient"], ref["gradient"], GRADIENT_TOL),
                f"{model}: gradient differs from the reference",
            )


def _warm_up_training():
    data = synthetic_dataset(np.random.default_rng(0), 4, 4, 2)
    for model in ("qcnn4-hee", "cnn51"):
        training.train(data, TrainConfig(model=model, batch_size=4, epochs=1, runs=1), seed=0)


class ExperimentPool(Workload):
    """run_experiment for qcnn8-hee, qcnn4-hee and cnn51 on synthetic angles."""

    name = "experiment-pool"
    pooled = True
    measure_pooled = True
    unit = "samples"
    models = ("qcnn8-hee", "qcnn4-hee", "cnn51")
    n_train, n_test = 168, 42
    epochs = 1
    runs = 2

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 8])
        return {
            "datasets": {
                8: synthetic_dataset(rng, 8, self.n_train, self.n_test),
                4: synthetic_dataset(rng, 4, self.n_train, self.n_test),
            },
            "base_seed": int(rng.integers(1 << 16)),
        }

    def _dataset(self, inputs, model):
        return inputs["datasets"][8 if model.startswith("qcnn8") else 4]

    def config(self, inputs, model):
        return TrainConfig(
            model=model, epochs=self.epochs, runs=self.runs, base_seed=inputs["base_seed"]
        )

    def run(self, inputs, workers):
        return [
            training.run_experiment(
                self._dataset(inputs, m), self.config(inputs, m), workers=workers)
            for m in self.models
        ]

    def work(self, inputs):
        return self.n_train * self.epochs * self.runs * len(self.models)

    def check(self, inputs, output, tally):
        for rep in output:
            for i in range(self.runs):
                tally.expect(i < rep.completed, f"{rep.model}: training run failed {rep.failures}")
            accs = np.concatenate([rep.mean_test_accuracy, rep.mean_train_accuracy])
            tally.expect(
                bool(np.all((accs >= 0) & (accs <= 1))), f"{rep.model}: accuracy outside [0, 1]"
            )

    def same(self, a, b):
        return all(
            x.completed == y.completed
            and np.array_equal(x.mean_test_accuracy, y.mean_test_accuracy)
            and np.array_equal(x.mean_train_accuracy, y.mean_train_accuracy)
            for x, y in zip(a, b)
        )

    def summary(self, output):
        return {
            rep.model: {
                "mean_test_accuracy": rep.mean_test_accuracy.tolist(),
                "mean_train_accuracy": rep.mean_train_accuracy.tolist(),
            }
            for rep in output
        }

    def compare(self, output, reference, tally):
        for rep in output:
            ref = reference[rep.model]
            tally.expect(
                rep.mean_test_accuracy.tolist() == ref["mean_test_accuracy"]
                and rep.mean_train_accuracy.tolist() == ref["mean_train_accuracy"],
                f"{rep.model}: per-epoch accuracies differ from the reference",
            )

    def probe(self, inputs):
        return {
            m: probe_classifier(m, self._dataset(inputs, m), inputs["base_seed"], rows=8)
            for m in self.models if m.startswith("qcnn")
        }

    def warm_up(self):
        _warm_up_training()


class Qcnn16Step(Workload):
    """train() for qcnn16-hee, one minibatch per epoch, in one process."""

    name = "qcnn16-step"
    unit = "samples"
    n_train, n_test = 4, 2
    epochs = 1

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 16])
        return {
            "dataset": synthetic_dataset(rng, 16, self.n_train, self.n_test),
            "seed": int(rng.integers(1 << 16)),
        }

    def config(self):
        return TrainConfig(
            model="qcnn16-hee", batch_size=self.n_train, epochs=self.epochs, runs=1
        )

    def run(self, inputs, workers):
        return training.train(inputs["dataset"], self.config(), seed=inputs["seed"])

    def work(self, inputs):
        return self.n_train * self.epochs

    def check(self, inputs, output, tally):
        for epoch in range(self.epochs):
            ok = epoch < len(output.train_loss) and np.isfinite(output.train_loss[epoch])
            ok = ok and 0 <= output.test_accuracy[epoch] <= 1
            tally.expect(ok, f"epoch {epoch}: missing or non-finite result")

    def same(self, a, b):
        return (
            a.train_loss == b.train_loss
            and a.test_accuracy == b.test_accuracy
            and np.array_equal(a.final_params, b.final_params)
        )

    def summary(self, output):
        return {
            "train_loss": list(output.train_loss),
            "train_accuracy": list(output.train_accuracy),
            "test_accuracy": list(output.test_accuracy),
            "final_params": output.final_params.tolist(),
        }

    def compare(self, output, reference, tally):
        got = self.summary(output)
        tally.expect(
            got["train_accuracy"] == reference["train_accuracy"]
            and got["test_accuracy"] == reference["test_accuracy"],
            "per-epoch accuracies differ from the reference",
        )
        tally.expect(
            _close(got["train_loss"], reference["train_loss"], PROBABILITY_TOL),
            "training losses differ from the reference",
        )
        tally.expect(
            _close(got["final_params"], reference["final_params"], GRADIENT_TOL),
            "trained parameters differ from the reference",
        )

    def probe(self, inputs):
        return {
            "qcnn16-hee": probe_classifier("qcnn16-hee", inputs["dataset"], inputs["seed"], rows=1)
        }

    def warm_up(self):
        _warm_up_training()


def workloads(out_dir: Path):
    """All workloads by name; out_dir receives the files gen-data writes."""
    return {
        w.name: w
        for w in (GenDataN12(out_dir), SweepN14Serial(), ExperimentPool(), Qcnn16Step())
    }


def nproc() -> int:
    return os.cpu_count() or 1
