import numpy as np
import pytest

from scatterqml import circuits
from scatterqml.circuits import CircuitError, encode
from scatterqml.qcnn import (
    PARAMS_PER_CONV,
    PARAMS_PER_POOL,
    QcnnModel,
    adjoint_gradient,
    conv_block_gates,
    pool_block_gates,
    qcnn_forward,
)

from oracles import (
    build_program,
    conv_block,
    count_cnots,
    count_parameters,
    finite_difference_gradient,
    gate_adjoint_gradient,
    gate_forward,
    parameter_shift_gradient,
    pool_block,
)


def _mse(width, encoding, states, labels):
    def loss(params):
        m = QcnnModel(n_qubits=width, encoding=encoding, params=params)
        return float(np.mean((qcnn_forward(m, states) - labels) ** 2))

    return loss


def test_conv_block_structure():
    gates = conv_block_gates(0, 1, 0)
    assert count_parameters(gates) == PARAMS_PER_CONV == 15
    assert count_cnots(gates) == 3


def test_pool_block_structure():
    gates = pool_block_gates(1, 0, 0)
    assert count_parameters(gates) == PARAMS_PER_POOL == 9
    assert count_cnots(gates) == 1
    with pytest.raises(CircuitError):
        pool_block_gates(1, 1, 0)


def test_conv_block_identity_at_zero():
    U = conv_block(np.zeros(15))
    assert np.abs(U - np.eye(4)).max() < 1e-12


def test_conv_block_unitary(rng):
    U = conv_block(rng.uniform(-np.pi, np.pi, 15))
    assert np.abs(U @ U.conj().T - np.eye(4)).max() < 1e-12


def test_pool_block_unitary(rng):
    U = pool_block(rng.uniform(-np.pi, np.pi, 9))
    assert np.abs(U @ U.conj().T - np.eye(4)).max() < 1e-12


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
    state = np.zeros((1, 16), complex)
    state[0, 0] = 1.0
    p = qcnn_forward(model, state)
    assert abs(p[0]) < 1e-12  # readout stays |0>


def test_forward_probabilities_in_range(rng):
    model = QcnnModel.random(4, "hee", 3)
    angles = rng.uniform(0, np.pi, size=(6, 4))
    p = qcnn_forward(model, encode(angles, 4, model.encoding))
    assert p.shape == (6,)
    assert np.all(p >= -1e-12) and np.all(p <= 1 + 1e-12)


def test_shared_weight_equivariance(rng):
    # swapping the two conv pairs' input blocks must not change the readout
    # distribution structure: with identical per-pair inputs the circuit
    # output is invariant under exchanging the pairs
    model = QcnnModel.random(4, "hee", 5)
    a = rng.uniform(0, np.pi, size=2)
    angles = np.concatenate([a, a])  # pair (q0,q1) equals pair (q2,q3)
    p1 = qcnn_forward(model, encode(angles[None, :], 4, model.encoding))
    swapped = np.concatenate([a, a])
    p2 = qcnn_forward(model, encode(swapped[None, :], 4, model.encoding))
    assert abs(p1[0] - p2[0]) < 1e-12


def test_parameter_shift_matches_finite_differences(rng):
    model = QcnnModel.random(4, "hee", 11)
    states = encode(rng.uniform(0, np.pi, size=(3, 4)), 4, "hee")
    labels = np.array([0.0, 1.0, 1.0])
    grad = parameter_shift_gradient(model, states, labels)

    def loss(params):
        m = QcnnModel(n_qubits=4, encoding="hee", params=params)
        p = qcnn_forward(m, states)
        return float(np.mean((p - labels) ** 2))

    fd = finite_difference_gradient(loss, model.params, 1e-4)
    assert np.abs(grad - fd).max() < 1e-6


def test_adjoint_agrees_with_parameter_shift(rng):
    for width in (4, 8):
        model = QcnnModel.random(width, "hee", width)
        states = encode(rng.uniform(0, np.pi, size=(4, width)), width, "tpe")
        labels = rng.integers(0, 2, size=4).astype(float)
        ps = parameter_shift_gradient(model, states, labels)
        adj = adjoint_gradient(model, states, labels)
        assert np.abs(ps - adj).max() < 1e-8
        assert np.abs(gate_adjoint_gradient(model, states, labels) - adj).max() < 1e-12
        fd = finite_difference_gradient(_mse(width, "tpe", states, labels), model.params, 1e-4)
        assert np.abs(adj - fd).max() < 1e-6


@pytest.mark.parametrize("kind", ["hee", "tpe"])
@pytest.mark.parametrize("width", [4, 8, 16])
def test_layer_blocks_match_gate_by_gate(rng, width, kind):
    model = QcnnModel.random(width, kind, width)
    states = encode(rng.uniform(0, np.pi, size=(2, width)), width, kind)
    labels = np.array([0.0, 1.0])
    assert np.abs(qcnn_forward(model, states) - gate_forward(model, states)).max() < 1e-12
    adj = adjoint_gradient(model, states, labels)
    assert np.abs(adj - gate_adjoint_gradient(model, states, labels)).max() < 1e-12


@pytest.mark.parametrize("width", [4, 8, 16])
def test_forward_applies_one_block_per_pair_and_layer(monkeypatch, width):
    calls = []
    apply = circuits.apply_unitary
    monkeypatch.setattr(circuits, "apply_unitary", lambda *args: calls.append(1) or apply(*args))
    qcnn_forward(QcnnModel.random(width, "hee", 0), encode(np.zeros((1, width)), width, "tpe"))
    assert len(calls) == width - 1  # conv and pool fused into one block per pair


def test_block_gradient_matches_directional_difference_at_16_qubits(rng):
    model = QcnnModel.random(16, "hee", 17)
    states = encode(rng.uniform(0, np.pi, size=(1, 16)), 16, "hee")
    labels = np.array([1.0])
    direction = rng.normal(size=model.n_parameters)
    direction /= np.linalg.norm(direction)
    loss = _mse(16, "hee", states, labels)
    step = 1e-4
    fd = (loss(model.params + step * direction) - loss(model.params - step * direction)) / (
        2 * step
    )
    assert abs(adjoint_gradient(model, states, labels) @ direction - fd) < 1e-6
