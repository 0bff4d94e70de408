import tracemalloc
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from scatterqml import dataset
from scatterqml import train as train_module
from scatterqml.circuits import sites
from scatterqml.dataset import PcaModel, ProcessedDataset
from scatterqml.train import (
    AdamState,
    TrainConfig,
    TrainError,
    accuracy,
    adam_step,
    make_classifier,
    mse_loss,
    run_experiment,
    summarize,
    train,
)


def synthetic_dataset(seed=0, n=200, rule="axis", margin=0.25):
    """Linearly separable angle features with a margin around the boundary."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, np.pi, size=(n, 4))
    if rule == "axis":
        score = X[:, 0] - np.pi / 2
    else:
        w = rng.normal(size=4)
        w /= np.linalg.norm(w)
        score = (X - np.pi / 2) @ w
    keep = np.abs(score) > margin
    X, score = X[keep], score[keep]
    y = (score > 0).astype(int)
    idx = rng.permutation(y.size)
    n_test = y.size // 5
    return ProcessedDataset(
        features=X,
        labels=y,
        train_idx=np.sort(idx[n_test:]),
        test_idx=np.sort(idx[:n_test]),
        pca=PcaModel(np.zeros(4), np.eye(4), np.ones(4)),
        bounds=np.array([np.zeros(4), np.full(4, np.pi)]),
        threshold=0.0,
        seed=seed,
    )


def test_the_train_submodule_is_not_shadowed_by_the_function():
    import scatterqml.train as module

    assert module.TrainConfig is TrainConfig and module.train is train


def test_train_config_validation():
    with pytest.raises(TrainError):
        TrainConfig(model="qcnn3-hee")
    with pytest.raises(TrainError):
        TrainConfig(epochs=0)
    for batch_size in (0, -4):
        with pytest.raises(TrainError, match="batch_size"):
            TrainConfig(batch_size=batch_size)
    for learning_rate in (0.0, -0.01, np.nan, np.inf):
        with pytest.raises(TrainError, match="learning_rate"):
            TrainConfig(learning_rate=learning_rate)


def test_mse_and_accuracy():
    assert mse_loss(np.array([0.5, 1.0]), np.array([0.0, 1.0])) == pytest.approx(0.125)
    assert accuracy(np.array([0.6, 0.4, 0.5]), np.array([1, 0, 1])) == 1.0
    assert accuracy(np.array([0.6, 0.4]), np.array([0, 1])) == 0.0
    with pytest.raises(TrainError):
        mse_loss(np.array([]), np.array([]))
    with pytest.raises(TrainError):
        mse_loss(np.array([0.1]), np.array([0.1, 0.2]))


def test_adam_first_step_closed_form():
    # for |g| >> eps the first bias-corrected update is lr * sign(g)
    params = np.zeros(3)
    grads = np.array([5.0, -2.0, 0.5])
    config = TrainConfig(learning_rate=0.01)
    new, state = adam_step(params, grads, AdamState.zeros(3), config)
    assert np.abs(new - (-0.01 * np.sign(grads))).max() < 1e-6
    assert state.step == 1


def test_make_classifier_shapes():
    assert make_classifier("qcnn8-tpe", 0).params.size == 72
    assert make_classifier("cnn113", 0).params.size == 113


def test_training_is_deterministic():
    ds = synthetic_dataset(seed=3)
    config = TrainConfig(model="cnn51", epochs=5)
    r1 = train(ds, config, seed=7)
    r2 = train(ds, config, seed=7)
    assert r1.train_loss == r2.train_loss
    assert np.array_equal(r1.final_params, r2.final_params)
    r3 = train(ds, config, seed=8)
    assert not np.array_equal(r1.final_params, r3.final_params)


def _blas_counts():
    return [get_threads() for get_threads, _ in dataset._blas_thread_controls()]


def _recording_gradients(monkeypatch, seen, nan):
    """Make train's classifiers record each copy's BLAS thread count at every
    gradient (and return a NaN gradient if asked)."""
    make = train_module.make_classifier

    def recording(name, seed):
        clf = make(name, seed)
        gradient = clf.gradient_prepared

        def recorded(states, labels):
            seen.append(_blas_counts())
            return np.full(clf.params.shape, np.nan) if nan else gradient(states, labels)

        clf.gradient_prepared = recorded
        return clf

    monkeypatch.setattr(train_module, "make_classifier", recording)


@pytest.mark.parametrize("model", ["cnn51", "qcnn4-tpe"])
def test_train_runs_on_one_blas_thread_and_restores_the_count(
    two_blas_threads, monkeypatch, model
):
    """Also when a NaN gradient ends the run in a TrainError."""
    ds = synthetic_dataset(seed=3, n=60)
    config = TrainConfig(model=model, epochs=2, batch_size=16)
    for nan in (False, True):
        seen = []
        _recording_gradients(monkeypatch, seen, nan)
        ends = pytest.raises(TrainError, match="non-finite loss") if nan else nullcontext()
        with ends:
            train(ds, config, seed=0)
        assert seen and all(counts == [1] * len(two_blas_threads) for counts in seen)
        assert _blas_counts() == two_blas_threads


def test_train_evaluates_train_and_test_rows_in_one_forward_like_two():
    ds = synthetic_dataset(seed=5, n=80)
    for model in ("cnn51", "qcnn4-hee", "qcnn4-tpe"):
        result = train(ds, TrainConfig(model=model, epochs=2, batch_size=16), seed=1)
        clf = make_classifier(model, 1)
        clf.params = result.final_params
        (X_train, y_train), (X_test, y_test) = ds.train, ds.test
        with dataset.single_threaded_blas():
            p_train = clf.predict_prepared(clf.prepare(X_train))
            p_test = clf.predict_prepared(clf.prepare(X_test))
        assert result.train_loss[-1] == mse_loss(p_train, y_train.astype(float))
        assert result.train_accuracy[-1] == accuracy(p_train, y_train)
        assert result.test_accuracy[-1] == accuracy(p_test, y_test)


def test_batch_size_guard():
    ds = synthetic_dataset(seed=3, n=30)
    with pytest.raises(TrainError):
        train(ds, TrainConfig(model="cnn51", batch_size=512), seed=0)


def test_qcnn_learns_separable_data():
    ds = synthetic_dataset(seed=2, rule="axis", n=400, margin=0.5)
    rep = run_experiment(ds, TrainConfig(model="qcnn4-hee", runs=3), workers=1)
    assert rep.mean_test_accuracy[-1] >= 0.99


def test_cnn_learns_separable_data():
    ds = synthetic_dataset(seed=2, rule="hyperplane", n=400, margin=0.5)
    rep = run_experiment(ds, TrainConfig(model="cnn51", runs=3), workers=1)
    assert rep.mean_test_accuracy[-1] >= 0.99


def test_experiment_aggregation_and_sem():
    """summarize's final mean and SEM, checked against single train calls."""
    ds = synthetic_dataset(seed=4)
    config = TrainConfig(model="cnn51", epochs=3, runs=4, base_seed=7)
    rep = run_experiment(ds, config, workers=2)
    assert rep.completed == 4 and rep.failures == []
    assert list(rep.runs) == [7, 8, 9, 10]
    assert rep.mean_test_accuracy.shape == (3,)
    singles = [train(ds, config, seed=s).test_accuracy[-1] for s in range(7, 11)]
    mean = sum(singles) / 4
    sem = (sum((a - mean) ** 2 for a in singles) / 3) ** 0.5 / 2
    summary = summarize(rep.rows())["cnn51"]
    assert (summary.threshold, summary.epochs, summary.runs) == (ds.threshold, 3, 4)
    assert summary.mean == pytest.approx(mean, abs=1e-15)
    assert summary.sem == pytest.approx(sem, abs=1e-15)
    assert summary.mean == rep.mean_test_accuracy[-1]


def test_single_run_has_no_sem():
    ds = synthetic_dataset(seed=5)
    rep = run_experiment(ds, TrainConfig(model="cnn51", epochs=2, runs=1), workers=1)
    summary = summarize(rep.rows())["cnn51"]
    assert summary.runs == 1 and summary.sem is None
    assert summary.mean == train(ds, TrainConfig(model="cnn51", epochs=2), 0).test_accuracy[-1]


def test_summarize_keeps_models_apart_in_first_seen_order():
    ds = synthetic_dataset(seed=5)
    reports = [
        run_experiment(ds, TrainConfig(model=m, epochs=2, runs=2), workers=1)
        for m in ("cnn113", "cnn51")
    ]
    rows = [row for rep in reports for row in rep.rows()]
    summaries = summarize(rows)
    assert list(summaries) == ["cnn113", "cnn51"]
    for rep in reports:
        assert summaries[rep.model] == summarize(rep.rows())[rep.model]
        assert summaries[rep.model].mean == rep.mean_test_accuracy[-1]


@pytest.mark.parametrize("field, other", [("threshold", 0.9), ("split_seed", 1)])
def test_summarize_refuses_one_model_recorded_on_two_datasets(field, other):
    ds = synthetic_dataset(seed=5)
    rows = run_experiment(ds, TrainConfig(model="cnn51", epochs=2, runs=1), workers=1).rows()
    moved = [replace(row, seed=1, **{field: other}) for row in rows]
    with pytest.raises(ValueError, match="the runs of cnn51 were recorded at more than one"):
        summarize(rows + moved)
    assert summarize(rows + [replace(row, seed=1) for row in rows])["cnn51"].runs == 2


def test_experiment_rows_are_one_per_run_and_epoch():
    ds = synthetic_dataset(seed=5)
    config = TrainConfig(model="cnn51", epochs=2, runs=2, base_seed=3)
    rep = run_experiment(ds, config, workers=1)
    rows = rep.rows()
    assert [(r.seed, r.epoch) for r in rows] == [(3, 1), (3, 2), (4, 1), (4, 2)]
    assert {(r.model, r.threshold, r.split_seed) for r in rows} == {
        ("cnn51", ds.threshold, ds.seed)
    }
    single = train(ds, config, seed=4)
    assert [(r.train_loss, r.train_accuracy, r.test_accuracy) for r in rows[2:]] == list(
        zip(single.train_loss, single.train_accuracy, single.test_accuracy)
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_experiment_counts_train_errors_and_raises_programming_errors(workers):
    ds = synthetic_dataset(seed=6, n=30)
    with pytest.raises(TrainError, match="all 2 runs failed"):
        run_experiment(ds, TrainConfig(model="cnn51", batch_size=512, runs=2), workers)
    # text features make the float conversion in train() raise ValueError
    broken = synthetic_dataset(seed=6)
    broken.features = np.full(broken.features.shape, "angle", dtype=object)
    with pytest.raises(ValueError, match="could not convert"):
        run_experiment(broken, TrainConfig(model="cnn51", runs=2), workers)


def test_qcnn16_prepare_and_forward_on_168_rows_stay_below_256_mib(rng):
    clf = make_classifier("qcnn16-hee", 0)
    angles = rng.uniform(0, np.pi, size=(168, 16))
    tracemalloc.start()
    try:
        p = clf.predict_prepared(clf.prepare(angles))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.shape == (168,)
    assert peak < 256 * 2**20


@pytest.mark.parametrize(
    "name,ndim",
    [("qcnn4-hee", 5), ("qcnn8-hee", 5), ("qcnn16-hee", 5),
     ("qcnn4-tpe", 5), ("qcnn8-tpe", 5), ("qcnn16-tpe", 5)],
)
def test_qcnn_prepare_picks_site_tensors_where_the_tree_is_cheaper(rng, name, ndim):
    # the tree is the only evaluator, so every circuit model takes site tensors
    clf = make_classifier(name, 0)
    width, kind = clf.model.n_qubits, clf.model.encoding
    angles = rng.uniform(0, np.pi, size=(2, width))
    prepared = clf.prepare(angles)
    assert prepared.ndim == ndim
    assert np.array_equal(prepared, sites(angles, width, kind))
