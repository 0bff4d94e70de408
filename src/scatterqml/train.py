"""Training loop (Adam on squared error) and multi-run experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .circuits import (
    encode,  # unused here; perfbench/spans.py patches the name train.encode
    sites,
)
from .cnn import INPUT_DIM as CNN_INPUT_DIM
from .cnn import CnnModel, cnn113, cnn51, cnn_backward, cnn_forward
from .dataset import ProcessedDataset, ordered_map, single_threaded_blas
from .qcnn import QcnnModel, adjoint_gradient, qcnn_forward

# Adam moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    model: str = "qcnn4-hee"
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 30
    runs: int = 50
    base_seed: int = 0

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise TrainError(f"unknown model {self.model!r}; choose from {MODEL_NAMES}")
        if self.epochs < 1 or self.runs < 1:
            raise TrainError("epochs and runs must be >= 1")
        if self.batch_size < 1:
            raise TrainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.base_seed < 0:
            raise TrainError(f"base_seed must be a non-negative integer, got {self.base_seed}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TrainError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )


def mse_loss(preds: np.ndarray, labels: np.ndarray) -> float:
    preds = np.asarray(preds, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if preds.size == 0:
        raise TrainError("empty batch")
    if preds.shape != labels.shape:
        raise TrainError("prediction/label length mismatch")
    return float(np.mean((preds - labels) ** 2))


def accuracy(preds: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of samples with (p >= 0.5) matching the binary label."""
    cls = (np.asarray(preds) >= 0.5).astype(int)
    return float(np.mean(cls == np.asarray(labels).astype(int)))


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n):
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(params, grads, state: AdamState, config: TrainConfig):
    """One bias-corrected Adam update; returns (new params, new state)."""
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grads**2
    m_hat = m / (1 - ADAM_BETA1**t)
    v_hat = v / (1 - ADAM_BETA2**t)
    new_params = params - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, AdamState(m=m, v=v, step=t)


class _Classifier:
    """The wrapped model's flat parameter vector, read and set as `params`."""

    @property
    def params(self):
        return self.model.params

    @params.setter
    def params(self, value):
        self.model.params = np.asarray(value, dtype=float)


class QcnnClassifier(_Classifier):
    """Variational circuit classifier over angle features."""

    def __init__(self, n_qubits: int, encoding: str, seed: int):
        self.model = QcnnModel.random(n_qubits, encoding, seed)

    def prepare(self, angles):
        """Encoding carries no trainable weights, so the site tensors
        (circuits.sites), the tree's only input, are computed once.  The
        tree forms its two-site kets from them on every call (under 1% of a
        forward)."""
        return sites(angles, self.model.n_qubits, self.model.encoding)

    def predict_prepared(self, states):
        return qcnn_forward(self.model, states)

    def gradient_prepared(self, states, labels):
        # adjoint mode: identical to the parameter-shift gradient, depth-linear cost
        return adjoint_gradient(self.model, states, labels)


class CnnClassifier(_Classifier):
    """Classical baseline over the same angle features, rescaled to [0, 1]."""

    def __init__(self, template, seed: int):
        """template: the architecture factory, cnn51 or cnn113."""
        self.model = CnnModel.random(template(), seed=seed)

    def prepare(self, angles):
        return np.asarray(angles, dtype=float) / np.pi

    def predict_prepared(self, X):
        return cnn_forward(self.model, X)

    def gradient_prepared(self, X, labels):
        return cnn_backward(self.model, X, labels)


# Model name -> (input width = PCA component count, classifier factory of the run seed)
_MODELS = {
    **{
        f"qcnn{width}-{encoding}": (width, partial(QcnnClassifier, width, encoding))
        for width in (4, 8, 16)
        for encoding in ("hee", "tpe")
    },
    "cnn51": (CNN_INPUT_DIM, partial(CnnClassifier, cnn51)),
    "cnn113": (CNN_INPUT_DIM, partial(CnnClassifier, cnn113)),
}
MODEL_NAMES = tuple(_MODELS)


def input_width(name: str) -> int:
    """Feature dimension the named model consumes."""
    return _MODELS[name][0]


def make_classifier(name: str, seed: int):
    return _MODELS[name][1](seed)


@dataclass
class RunResult:
    train_loss: list
    train_accuracy: list
    test_accuracy: list
    final_params: np.ndarray


def train(dataset: ProcessedDataset, config: TrainConfig, seed: int) -> RunResult:
    """Seeded minibatch Adam training; deterministic given (dataset, config, seed).

    Runs on one BLAS thread (single_threaded_blas), as it does inside
    ordered_map: the models' small products are slower multithreaded, and the
    result does not depend on OPENBLAS_NUM_THREADS.  The train and test rows
    are prepared together once and evaluated in one forward per epoch."""
    X_train, y_train = dataset.train
    X_test, y_test = dataset.test
    if config.batch_size > len(y_train):
        raise TrainError("batch size exceeds the training set")

    clf = make_classifier(config.model, seed)
    y_train = y_train.astype(float)
    rng = np.random.default_rng(seed)
    state = AdamState.zeros(len(clf.params))
    losses, train_accs, test_accs = [], [], []
    n = len(y_train)
    with single_threaded_blas():
        S = clf.prepare(np.concatenate([X_train, X_test]))
        S_train = S[:n]
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                batch = order[start : start + config.batch_size]
                grads = clf.gradient_prepared(S_train[batch], y_train[batch])
                clf.params, state = adam_step(clf.params, grads, state, config)
            p = clf.predict_prepared(S)
            loss = mse_loss(p[:n], y_train)
            if not np.isfinite(loss):
                raise TrainError(
                    f"non-finite loss at epoch {epoch} "
                    f"(parameter norm {np.linalg.norm(clf.params):.3e})"
                )
            losses.append(loss)
            train_accs.append(accuracy(p[:n], y_train))
            test_accs.append(accuracy(p[n:], y_test))
    return RunResult(
        train_loss=losses,
        train_accuracy=train_accs,
        test_accuracy=test_accs,
        final_params=clf.params.copy(),
    )


@dataclass(frozen=True)
class RunRow:
    """One epoch of one training run: a line of runs.csv."""

    model: str
    threshold: float
    split_seed: int
    seed: int
    epoch: int
    train_loss: float
    train_accuracy: float
    test_accuracy: float


@dataclass
class ExperimentReport:
    """The completed runs of one model on one dataset, by seed in seed order,
    and the (seed, message) of every run a TrainError ended."""

    model: str
    threshold: float
    split_seed: int
    runs: dict  # seed -> RunResult
    failures: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.runs)

    @property
    def mean_test_accuracy(self) -> np.ndarray:
        """Per epoch, over the completed runs."""
        return np.array([r.test_accuracy for r in self.runs.values()]).mean(axis=0)

    @property
    def mean_train_accuracy(self) -> np.ndarray:
        return np.array([r.train_accuracy for r in self.runs.values()]).mean(axis=0)

    def rows(self) -> list[RunRow]:
        return [
            RunRow(self.model, self.threshold, self.split_seed, seed, epoch, *values)
            for seed, r in self.runs.items()
            for epoch, values in enumerate(zip(r.train_loss, r.train_accuracy, r.test_accuracy), 1)
        ]


@dataclass(frozen=True)
class Summary:
    """A model's final epoch: the mean test accuracy over its runs and its
    standard error (None for one run)."""

    threshold: float
    epochs: int
    runs: int
    mean: float
    sem: float | None


def summarize(rows) -> dict[str, Summary]:
    """Each model's Summary, in the order the models first appear in `rows`.

    The test accuracies are stacked (runs, epochs) in row order and reduced
    over the runs, as ExperimentReport.mean_test_accuracy is, so a mean reads
    the same computed from a report or from its rows.  Runs of one model that
    end at different epochs (a file cut at a line break) or that were
    recorded at different thresholds or split seeds are refused."""
    curves = {}
    for row in rows:
        recorded, runs = curves.setdefault(row.model, ((row.threshold, row.split_seed), {}))
        if recorded != (row.threshold, row.split_seed):
            raise ValueError(
                f"the runs of {row.model} were recorded at more than one threshold or split seed"
            )
        runs.setdefault(row.seed, []).append(row.test_accuracy)
    summaries = {}
    for model, ((threshold, _), runs) in curves.items():
        if len({len(accs) for accs in runs.values()}) > 1:
            raise ValueError(f"the runs of {model} do not all end at the same epoch")
        test = np.array(list(runs.values()))
        n, epochs = test.shape
        sem = float(test.std(axis=0, ddof=1)[-1] / np.sqrt(n)) if n > 1 else None
        summaries[model] = Summary(threshold, epochs, n, float(test.mean(axis=0)[-1]), sem)
    return summaries


def _train_one(args):
    """One run's RunResult, or the message of the TrainError that ended it."""
    dataset, config, seed = args
    try:
        return train(dataset, config, seed)
    except TrainError as exc:
        return f"{type(exc).__name__}: {exc}"


def run_experiment(
    dataset: ProcessedDataset, config: TrainConfig, workers: int | None = None
) -> ExperimentReport:
    """Independent trainings with seeds base..base+runs-1, kept in seed order.

    Diverged runs are left out and their TrainErrors kept as failures; any
    other error propagates.
    """
    seeds = [config.base_seed + i for i in range(config.runs)]
    outcomes = ordered_map(_train_one, [(dataset, config, s) for s in seeds], workers)
    failures = [(s, r) for s, r in zip(seeds, outcomes) if isinstance(r, str)]
    if len(failures) == len(seeds):
        raise TrainError(f"all {config.runs} runs failed: {failures[:3]}")
    runs = {s: r for s, r in zip(seeds, outcomes) if isinstance(r, RunResult)}
    return ExperimentReport(config.model, dataset.threshold, dataset.seed, runs, failures)
