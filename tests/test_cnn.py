from dataclasses import replace

import numpy as np
import pytest

from scatterqml.cnn import (
    CnnError,
    CnnModel,
    cnn113,
    cnn51,
    cnn_backward,
    cnn_forward,
    sigmoid,
)
from scatterqml.train import make_classifier

from oracles import finite_difference_gradient


def test_parameter_counts():
    assert cnn51().n_parameters == 51
    assert cnn113().n_parameters == 113


def test_forward_range_and_shape(rng):
    model = CnnModel.random(cnn51(), seed=0)
    X = rng.uniform(0, 1, size=(10, 4))
    p = cnn_forward(model, X)
    assert p.shape == (10,)
    assert np.all((p > 0) & (p < 1))


def test_forward_wrong_width(rng):
    with pytest.raises(CnnError):
        cnn_forward(cnn51(), rng.uniform(size=(2, 5)))


def test_zero_parameters_give_half():
    p = cnn_forward(cnn51(), np.ones((3, 4)))
    assert np.abs(p - sigmoid(0.0)).max() < 1e-15


@pytest.mark.parametrize("factory", [cnn51, cnn113])
def test_backward_matches_finite_differences(factory, rng):
    model = CnnModel.random(factory(), seed=2)
    X = rng.uniform(0, 1, size=(6, 4))
    y = rng.integers(0, 2, size=6).astype(float)
    grad = cnn_backward(model, X, y)

    def loss(params):
        m = replace(model, params=params)
        return float(np.mean((cnn_forward(m, X) - y) ** 2))

    fd = finite_difference_gradient(loss, model.params, 1e-5)
    scale = max(np.abs(fd).max(), 1.0)
    assert np.abs(grad - fd).max() / scale < 1e-6


def test_predict_rescales_angles(rng):
    clf = make_classifier("cnn113", 4)
    angles = rng.uniform(0, np.pi, size=(5, 4))
    X = clf.prepare(angles)
    assert np.allclose(X, angles / np.pi)
    assert np.allclose(clf.predict_prepared(X), cnn_forward(clf.model, angles / np.pi))
