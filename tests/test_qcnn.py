import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scatterqml import circuits, qcnn
from scatterqml.circuits import CircuitError, encode, sites
from scatterqml.qcnn import (
    CONV,
    LAYER,
    PARAMS_PER_CONV,
    PARAMS_PER_LAYER,
    PARAMS_PER_POOL,
    POOL,
    QcnnModel,
    adjoint_gradient,
    fuse,
    qcnn_forward,
    step_matrices,
)

from oracles import (
    build_program,
    conv_block,
    conv_block_gates,
    count_parameters,
    density_first_two_environments,
    density_second_layer,
    finite_difference_gradient,
    gate_adjoint_gradient,
    gate_encode,
    gate_forward,
    outer_product_first_environment,
    outer_product_first_layer,
    pair_unitary,
    parameter_shift_gradient,
    pool_block,
    pool_block_gates,
    table_cnots,
    table_parameters,
    tpe4_density_probability,
)


def _mse(width, encoding, states, labels):
    def loss(params):
        m = QcnnModel(n_qubits=width, encoding=encoding, params=params)
        return float(np.mean((qcnn_forward(m, states) - labels) ** 2))

    return loss


def _fuse(layer_params, steps=slice(None)):
    """Fused block of the stacked LAYER table's steps (all, or a slice)."""
    return fuse(step_matrices(layer_params)[steps])[-1]


_CONV_STEPS = slice(len(CONV))
_POOL_STEPS = slice(len(CONV), None)


def test_conv_block_structure():
    assert len(set(table_parameters(CONV))) == PARAMS_PER_CONV == 15
    assert table_cnots(CONV) == 3


def test_pool_block_structure():
    assert len(set(table_parameters(POOL))) == PARAMS_PER_POOL == 9
    assert table_cnots(POOL) == 1


def test_layer_table_matches_the_oracle_gate_lists(rng):
    # each parameter drives exactly one step, in table order; fixed steps none
    driven = LAYER.drive.sum(axis=1) == 1
    assert set(np.unique(LAYER.drive)) == {0.0, 1.0}
    assert np.array_equal(LAYER.drive.sum(axis=0), np.ones(PARAMS_PER_LAYER))
    assert not LAYER.drive[~driven].any()
    params = LAYER.drive[driven].argmax(axis=1)
    assert list(params) == table_parameters(CONV + POOL)
    theta = rng.uniform(-np.pi, np.pi, PARAMS_PER_LAYER)
    gates = conv_block_gates(1, 0, 0) + pool_block_gates(1, 0, PARAMS_PER_CONV)
    assert np.abs(_fuse(theta) - pair_unitary(gates, theta)).max() < 1e-14
    # every running product is the oracle's product of the gates so far
    Q = fuse(step_matrices(theta))
    assert len(Q) == len(gates)
    for k in range(len(gates)):
        assert np.abs(Q[k] - pair_unitary(gates[: k + 1], theta)).max() < 1e-14
    # the blocks the model applies are the same table, stacked over layers
    U = qcnn._layers(QcnnModel(n_qubits=4, params=np.concatenate([theta, theta[::-1]])))[:, -1]
    assert np.abs(U[0] - pair_unitary(gates, theta)).max() < 1e-14
    assert np.abs(U[1] - pair_unitary(gates, theta[::-1])).max() < 1e-14
    U = _fuse(np.zeros(PARAMS_PER_LAYER), _CONV_STEPS)  # identity up to a global phase
    assert abs(abs(U[0, 0]) - 1.0) < 1e-14
    assert np.abs(U / U[0, 0] - np.eye(4)).max() < 1e-14


def test_conv_block_identity_at_zero():
    U = conv_block(np.zeros(15))
    assert np.abs(U - np.eye(4)).max() < 1e-12
    U = _fuse(np.zeros(PARAMS_PER_LAYER), _CONV_STEPS) * np.exp(0.25j * np.pi)
    assert np.abs(U - np.eye(4)).max() < 1e-12


def test_conv_block_unitary(rng):
    theta = rng.uniform(-np.pi, np.pi, PARAMS_PER_LAYER)
    for U in (conv_block(theta[:PARAMS_PER_CONV]), _fuse(theta, _CONV_STEPS), _fuse(theta)):
        assert np.abs(U @ U.conj().T - np.eye(4)).max() < 1e-12


def test_pool_block_unitary(rng):
    theta = rng.uniform(-np.pi, np.pi, PARAMS_PER_LAYER)
    U = pool_block(theta[PARAMS_PER_CONV:])
    assert np.abs(U @ U.conj().T - np.eye(4)).max() < 1e-12
    assert np.abs(_fuse(theta, _POOL_STEPS) - U).max() < 1e-12


@pytest.mark.parametrize("width,count", [(4, 48), (8, 72), (16, 96)])
def test_parameter_counts(width, count):
    model = QcnnModel(n_qubits=width)
    assert model.n_parameters == count
    gates, _ = build_program(model)
    assert count_parameters(gates) == count


def test_invalid_width():
    with pytest.raises(CircuitError):
        QcnnModel(n_qubits=6)


def test_program_reduces_to_single_readout():
    for width in (4, 8, 16):
        model = QcnnModel(n_qubits=width)
        gates, readout = build_program(model)
        assert 0 <= readout < width


def test_zero_parameters_give_deterministic_readout():
    # at zero parameters every block is the identity (conv) or a fixed
    # rotation-free fragment (pool CNOT), so |0...0> stays a basis state
    model = QcnnModel(n_qubits=4, params=np.zeros(48))
    p = qcnn_forward(model, sites(np.zeros((1, 4)), 4, "tpe"))  # |0000>
    assert abs(p[0]) < 1e-12  # readout stays |0>


def test_forward_probabilities_in_range(rng):
    model = QcnnModel.random(4, "hee", 3)
    angles = rng.uniform(0, np.pi, size=(6, 4))
    p = qcnn_forward(model, sites(angles, 4, model.encoding))
    assert p.shape == (6,)
    assert np.all(p >= -1e-12) and np.all(p <= 1 + 1e-12)


def test_tpe4_matches_density_matrix_oracle(rng):
    # distinct inputs on the two layer-1 pairs: exchanging the pairs changes
    # the readout, so an evaluation that mixed them up would fail
    model = QcnnModel.random(4, "tpe", 5)
    angles = rng.uniform(0, np.pi, size=(3, 4))
    expect = tpe4_density_probability(model, angles)
    swapped = tpe4_density_probability(model, angles[:, [2, 3, 0, 1]])
    assert np.abs(swapped - expect).min() > 1e-3
    assert np.abs(qcnn_forward(model, sites(angles, 4, "tpe")) - expect).max() < 1e-12
    assert np.abs(gate_forward(model, encode(angles, 4, "tpe")) - expect).max() < 1e-12


def test_parameter_shift_matches_finite_differences(rng):
    model = QcnnModel.random(4, "hee", 11)
    angles = rng.uniform(0, np.pi, size=(3, 4))
    labels = np.array([0.0, 1.0, 1.0])
    grad = parameter_shift_gradient(model, encode(angles, 4, "hee"), labels)
    loss = _mse(4, "hee", sites(angles, 4, "hee"), labels)
    fd = finite_difference_gradient(loss, model.params, 1e-4)
    assert np.abs(grad - fd).max() < 1e-6


def test_adjoint_agrees_with_parameter_shift(rng):
    for width in (4, 8):
        model = QcnnModel.random(width, "hee", width)
        angles = rng.uniform(0, np.pi, size=(4, width))
        states, tree = encode(angles, width, "tpe"), sites(angles, width, "tpe")
        labels = rng.integers(0, 2, size=4).astype(float)
        ps = parameter_shift_gradient(model, states, labels)
        adj = adjoint_gradient(model, tree, labels)
        assert np.abs(ps - adj).max() < 1e-8
        assert np.abs(gate_adjoint_gradient(model, states, labels) - adj).max() < 1e-12
        fd = finite_difference_gradient(_mse(width, "tpe", tree, labels), model.params, 1e-4)
        assert np.abs(adj - fd).max() < 1e-6


@pytest.mark.parametrize("kind", ["hee", "tpe"])
@pytest.mark.parametrize("width", [4, 8, 16])
def test_layer_blocks_match_gate_by_gate(rng, width, kind):
    model = QcnnModel.random(width, kind, width)
    angles = rng.uniform(0, np.pi, size=(2, width))
    states, tree = encode(angles, width, kind), sites(angles, width, kind)
    labels = np.array([0.0, 1.0])
    assert np.abs(qcnn_forward(model, tree) - gate_forward(model, states)).max() < 1e-12
    adj = adjoint_gradient(model, tree, labels)
    assert np.abs(adj - gate_adjoint_gradient(model, states, labels)).max() < 1e-12


def test_block_gradient_matches_directional_difference_at_16_qubits(rng):
    angles = rng.uniform(0, np.pi, size=(1, 16))
    labels = np.array([1.0])
    direction = rng.normal(size=QcnnModel(n_qubits=16).n_parameters)
    direction /= np.linalg.norm(direction)
    step = 1e-4
    # both encodings' site tensors, each against its own loss
    for kind in ("hee", "tpe"):
        states = sites(angles, 16, kind)
        model = QcnnModel.random(16, kind, 17)
        loss = _mse(16, kind, states, labels)
        fd = (loss(model.params + step * direction) - loss(model.params - step * direction)) / (
            2 * step
        )
        assert abs(adjoint_gradient(model, states, labels) @ direction - fd) < 1e-6


def _tree_vs_gate_oracle(model, angles, labels):
    """Largest probability and gradient differences between the tree over
    site tensors and the gate-by-gate oracle on the gate-by-gate encoding."""
    tree = sites(angles, model.n_qubits, model.encoding)
    state = gate_encode(angles, model.n_qubits, model.encoding)
    dp = np.abs(qcnn_forward(model, tree) - gate_forward(model, state)).max()
    dg = adjoint_gradient(model, tree, labels) - gate_adjoint_gradient(model, state, labels)
    return dp, np.abs(dg).max()


@st.composite
def circuit_cases(draw):
    width = draw(st.sampled_from([4, 8]))
    kind = draw(st.sampled_from(["hee", "tpe"]))
    rows = draw(st.integers(1, 3))
    n_params = PARAMS_PER_LAYER * int(np.log2(width))
    params = draw(arrays(float, n_params, elements=st.floats(-np.pi, np.pi)))
    angles = draw(arrays(float, (rows, width), elements=st.floats(0.0, np.pi)))
    labels = draw(arrays(float, rows, elements=st.sampled_from([0.0, 1.0])))
    return QcnnModel(n_qubits=width, encoding=kind, params=params), angles, labels


@settings(max_examples=40, deadline=None, database=None)
@given(circuit_cases())
def test_tree_matches_statevector(case):
    dp, dg = _tree_vs_gate_oracle(*case)
    assert dp < 1e-12
    assert dg < 1e-10


@pytest.mark.parametrize("kind", ["hee", "tpe"])
def test_tree_matches_statevector_at_16_qubits(kind):
    model = QcnnModel.random(16, kind, 23)
    for rows in (1, 3):
        rng = np.random.default_rng(16)
        angles = rng.uniform(0, np.pi, size=(rows, 16))
        dp, dg = _tree_vs_gate_oracle(model, angles, np.array([0.0, 1.0, 1.0])[:rows])
        assert dp < 1e-12
        assert dg < 1e-10


def test_tree_rejects_a_site_batch_of_the_wrong_width():
    with pytest.raises(CircuitError):
        qcnn_forward(QcnnModel(n_qubits=8), sites(np.zeros((1, 4)), 4, "tpe"))


@pytest.mark.parametrize(
    "shape", [(1, 16, 4, 3, 4), (1, 16, 4, 2, 2), (1, 16, 2, 2, 4), (1, 2**16)]
)
def test_tree_rejects_a_site_batch_not_shaped_chi_2_chi(shape):
    model = QcnnModel(n_qubits=16)
    for run in (
        lambda states: qcnn_forward(model, states),
        lambda states: adjoint_gradient(model, states, np.zeros(1)),
    ):
        with pytest.raises(CircuitError, match=re.escape(str(shape))):
            run(np.zeros(shape))


# the first-layer entries the tree keeps: its first segment at left bond
# (0, 0), the interior, and its last segment at right bond (0, 0)
_KEPT = [(slice(None), slice(0, 1), slice(0, 1)), (slice(None), slice(1, -1)),
         (slice(None), slice(-1, None), Ellipsis, slice(0, 1))]


def _random_adjoint(rng, shape):
    """An adjoint on the kept entries only, zero on the ones the tree drops."""
    lam = np.zeros(shape, complex)
    for kept in _KEPT:
        lam[kept] = rng.normal(size=lam[kept].shape) + 1j * rng.normal(size=lam[kept].shape)
    return lam


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("kind", ["hee", "tpe"])
def test_ket_first_layer_matches_the_outer_product_route(kind, rows):
    """The first layer's kets (batch, k, l, 2, 2, r), read as segments
    sum_a Y conj Y over their purification, the pooled qubit a, against the
    outer-product route."""
    rng = np.random.default_rng(rows)
    A = sites(rng.uniform(0, np.pi, size=(rows, 16)), 16, kind)
    U = qcnn._layers(QcnnModel.random(16, kind, rows))[:, -1]
    T, expect = outer_product_first_layer(U[0], A)
    X, kets = next(qcnn._tree(U, A))
    assert len(kets) == len(_KEPT)
    assert all(ket.shape[3:5] == (2, 2) for ket in kets)
    for ket, kept in zip(kets, _KEPT):
        group = qcnn._ket_segments(ket)
        assert group.shape == expect[kept].shape
        assert np.abs(group - expect[kept]).max() < 1e-13
    lam = _random_adjoint(rng, expect.shape)
    env = sum(
        qcnn._ket_environment(x, qcnn._ket_adjoint(ket, lam[kept]))
        for x, ket, kept in zip(X, kets, _KEPT)
    )
    assert np.abs(env - outer_product_first_environment(U[0], T, lam)).max() < 1e-13


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("kind", ["hee", "tpe"])
def test_ket_second_layer_matches_the_density_route(kind, rows):
    """The second layer's segments from merged kets, and both ket layers'
    environments, against pairwise merged and folded density segments."""
    rng = np.random.default_rng(10 + rows)
    A = sites(rng.uniform(0, np.pi, size=(rows, 16)), 16, kind)
    U = qcnn._layers(QcnnModel.random(16, kind, 10 + rows))[:, -1]
    T1, first = outer_product_first_layer(U[0], A)
    T2, expect = density_second_layer(U[1], first)
    tree = qcnn._tree(U, A)
    built = [next(tree), next(tree)]
    (_, kets), (_, groups) = built
    assert len(groups) == len(_KEPT)
    for group, kept in zip(groups, _KEPT):
        assert group.shape == expect[kept].shape
        assert np.abs(group - expect[kept]).max() < 1e-13
    lam = _random_adjoint(rng, expect.shape)
    env = qcnn._ket_environments(U, [b for b, _ in built], kets, [lam[kept] for kept in _KEPT])
    assert np.abs(env - density_first_two_environments(U, T1, first, T2, lam)).max() < 1e-13


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize(
    "merge, adjoint, left_shape, right_shape",
    [
        # first-layer kets (batch, k, l, e, 2, m) with e = 1, second-layer kets with e = 2
        (qcnn._merge, qcnn._merge_adjoint, (3, 8, 4, 1, 2, 4), (3, 8, 4, 1, 2, 4)),
        (qcnn._merge, qcnn._merge_adjoint, (3, 2, 4, 2, 2, 4), (3, 2, 4, 2, 2, 1)),
        (qcnn._ket_merge, qcnn._ket_merge_adjoint, (3, 2, 4, 2, 2, 4), (3, 2, 4, 2, 2, 1)),
        # density segments (batch, k, L, 2, 2, M)
        (qcnn._merge, qcnn._merge_adjoint, (2, 3, 16, 2, 2, 16), (2, 3, 16, 2, 2, 16)),
        (qcnn._merge, qcnn._merge_adjoint, (2, 1, 1, 2, 2, 16), (2, 1, 16, 2, 2, 1)),
    ],
    ids=["first-layer-kets", "second-layer-kets", "ket-merge", "segments", "root"],
)
def test_merge_adjoint_is_the_adjoint_of_merge(merge, adjoint, left_shape, right_shape):
    """sum(W * merge(dL, R) + W * merge(L, dR)) = sum(left_in * dL) +
    sum(right_in * dR) for (left_in, right_in) = adjoint(W, L, R); each half
    holds on its own, the merge being bilinear."""
    rng = np.random.default_rng(sum(left_shape) + sum(right_shape))
    L, dL = _complex_normal(rng, left_shape), _complex_normal(rng, left_shape)
    R, dR = _complex_normal(rng, right_shape), _complex_normal(rng, right_shape)
    W = _complex_normal(rng, merge(L, R).shape)
    left_in, right_in = adjoint(W, L, R)
    assert left_in.shape == left_shape and right_in.shape == right_shape
    left_half, right_half = np.sum(W * merge(dL, R)), np.sum(W * merge(L, dR))
    assert np.isclose(left_half, np.sum(left_in * dL), rtol=1e-12, atol=0)
    assert np.isclose(right_half, np.sum(right_in * dR), rtol=1e-12, atol=0)
    total = np.sum(left_in * dL) + np.sum(right_in * dR)
    assert np.isclose(left_half + right_half, total, rtol=1e-12, atol=0)


def test_tree_reads_only_boundary_bond_zero_like_the_statevector():
    """Random site tensors whose boundary bond entries are all nonzero: the
    tree and circuits.statevector both read only boundary index 0, so the
    tree still agrees with the gate oracle on the contracted state."""
    rng = np.random.default_rng(41)
    A = rng.normal(size=(3, 16, 4, 2, 4))
    assert np.all(A[:, 0, 1:] != 0) and np.all(A[:, -1, ..., 1:] != 0)
    A[:, 0] /= np.linalg.norm(circuits.statevector(A), axis=1)[:, None, None, None]
    state = circuits.statevector(A)
    assert np.abs(np.linalg.norm(state, axis=1) - 1.0).max() < 1e-12
    model = QcnnModel.random(16, "hee", 29)
    labels = np.array([1.0, 0.0, 1.0])
    assert np.abs(qcnn_forward(model, A) - gate_forward(model, state)).max() < 1e-12
    dg = adjoint_gradient(model, A, labels) - gate_adjoint_gradient(model, state, labels)
    assert np.abs(dg).max() < 1e-10
