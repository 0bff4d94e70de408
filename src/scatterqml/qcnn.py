"""Layered variational circuit classifier with shared-weight convolution and
pooling blocks.

Each layer applies one 15-parameter, 3-CNOT two-qubit convolution unitary to
every adjacent pair of active qubits (weights shared within the layer),
followed by a 9-parameter, 1-CNOT pooling fragment that discards half of the
active qubits.  After log2(q) layers a single readout qubit remains; the
model output is its probability of reading |1>.

One layer is stated once, as data: CONV and POOL list its steps on the local
qubits (1, 0) of a pair, local qubit 1 being the first tensor factor as in
circuits.apply_unitary.  A rotation step is (sigma~, index, offset): its 4x4
Hermitian generator sigma~ (a Pauli on one local qubit), the index of its
parameter within the layer's 24 (None for a fixed rotation) and a fixed
angle offset.  At angle a = offset + parameter its matrix is
exp(-i a sigma~ / 2) = cos(a/2) I - i sin(a/2) sigma~, exact since
sigma~^2 = I.  A CNOT step is its 4x4 matrix.  LAYER = CONV + POOL.

The pool of a layer acts on the same disjoint pairs as its convolution, and
blocks on different pairs commute, so "every conv, then every pool" equals
"conv then pool, pair by pair": each layer is simulated as the product of
its LAYER steps, one fused 4x4 block applied to each of its pairs (q - 1
blocks for q qubits).  The gradient is an adjoint sweep back through those
blocks; each layer's 4x4 environment, summed over its pairs, gives every
parameter derivative as the table is walked forward (adjoint_gradient).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import circuits
from .circuits import (
    CNOT,
    CircuitError,
    encode,  # unused here; perfbench/spans.py patches the name qcnn.encode
    pair_environment,
    z_expectation,
)

HALF_PI = np.pi / 2

PARAMS_PER_CONV = 15
PARAMS_PER_POOL = 9
PARAMS_PER_LAYER = PARAMS_PER_CONV + PARAMS_PER_POOL

_I2 = np.eye(2)
_I4 = np.eye(4)
_PAULI_Y = np.array([[0, -1j], [1j, 0]])
_PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
# generators of Ry and Rz on local qubit 1 (first tensor factor) and qubit 0;
# CNOT (circuits) has control 1 and target 0
_RY = {1: np.kron(_PAULI_Y, _I2), 0: np.kron(_I2, _PAULI_Y)}
_RZ = {1: np.kron(_PAULI_Z, _I2), 0: np.kron(_I2, _PAULI_Z)}
_CNOT_01 = CNOT[[0, 2, 1, 3]][:, [0, 2, 1, 3]]  # control local qubit 0, target 1


def _u3(qubit, index):
    """General single-qubit rotation Rz-Ry-Rz on parameters index..index+2."""
    return [(_RZ[qubit], index, 0.0), (_RY[qubit], index + 1, 0.0), (_RZ[qubit], index + 2, 0.0)]


# Convolution: general rotations around a canonical-class entangler whose
# fixed +-pi/2 offsets make the whole block the identity (up to a global
# phase) when all parameters vanish; universal on two qubits.
CONV = (
    _u3(1, 0)
    + _u3(0, 3)
    + [
        (_RZ[1], None, HALF_PI),
        CNOT,
        (_RZ[0], 6, HALF_PI),
        (_RY[1], 7, HALF_PI),
        _CNOT_01,
        (_RY[1], 8, -HALF_PI),
        CNOT,
        (_RZ[0], None, -HALF_PI),
    ]
    + _u3(1, 9)
    + _u3(0, 12)
)
# Pooling: CNOT from the source, local qubit 1, to the target, qubit 0; the
# source is never touched again.
POOL = _u3(1, 15) + _u3(0, 18) + [CNOT] + _u3(0, 21)
LAYER = CONV + POOL


def step_matrix(step, layer_params: np.ndarray) -> np.ndarray:
    """4x4 matrix of one table step at one layer's 24 parameters."""
    if isinstance(step, np.ndarray):
        return step
    generator, index, offset = step
    angle = offset if index is None else offset + layer_params[index]
    return np.cos(angle / 2) * _I4 - 1j * np.sin(angle / 2) * generator


@dataclass
class QcnnModel:
    """Trainable parameters plus the fixed layered architecture."""

    n_qubits: int
    encoding: str = "hee"
    params: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.n_qubits not in (4, 8, 16):
            raise CircuitError("supported widths are 4, 8 and 16 qubits")
        if self.params is None:
            self.params = np.zeros(self.n_parameters)
        self.params = np.asarray(self.params, dtype=float)
        if self.params.shape != (self.n_parameters,):
            raise CircuitError(
                f"expected {self.n_parameters} parameters, got {self.params.shape}"
            )

    @property
    def n_layers(self) -> int:
        return int(np.log2(self.n_qubits))

    @property
    def n_parameters(self) -> int:
        return PARAMS_PER_LAYER * self.n_layers

    @classmethod
    def random(cls, n_qubits, encoding, seed):
        rng = np.random.default_rng(seed)
        model = cls(n_qubits=n_qubits, encoding=encoding)
        return replace(model, params=rng.uniform(-np.pi, np.pi, size=model.n_parameters))


def _layers(model: QcnnModel):
    """(LAYER step matrices, their fused 4x4 block, qubit pairs) of every
    layer in circuit order, and the final readout qubit."""
    active = list(range(model.n_qubits))
    layers = []
    for layer_params in model.params.reshape(model.n_layers, PARAMS_PER_LAYER):
        steps = [step_matrix(step, layer_params) for step in LAYER]
        U = np.eye(4, dtype=complex)
        for G in steps:
            U = G @ U
        pairs = [(active[i], active[i + 1]) for i in range(0, len(active), 2)]
        layers.append((steps, U, pairs))
        active = [b for _, b in pairs]
    if len(active) != 1:
        raise CircuitError("active set did not reduce to a single qubit")
    return layers, active[0]


def _run(layers, states: np.ndarray) -> np.ndarray:
    # circuits.apply_unitary is looked up at call time, so a wrapped
    # (call-counting) apply_unitary sees every block application
    for _, U, pairs in layers:
        for pair in pairs:
            states = circuits.apply_unitary(states, U, pair)
    return states


def _probability(states: np.ndarray, readout: int) -> np.ndarray:
    """Class-1 probability p = (1 - <Z>)/2 of the readout qubit."""
    return 0.5 * (1.0 - z_expectation(states, readout))


def qcnn_forward(model: QcnnModel, states: np.ndarray) -> np.ndarray:
    """Class-1 probability p = (1 - <Z>)/2 for a batch of encoded states."""
    states = np.atleast_2d(states)
    if states.shape[1] != 1 << model.n_qubits:
        raise CircuitError("state dimension does not match the model width")
    layers, readout = _layers(model)
    return _probability(_run(layers, states), readout)


def adjoint_gradient(model: QcnnModel, states: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Reverse-pass gradient of the mean squared error, layer by layer.

    lam = (dL/dp) P1 |psi> starts at the readout projector P1 and is carried
    back through the blocks with psi (Jones & Gacon, arXiv:2009.02823).  At
    each block application, psi before it and lam after it are contracted
    over the batch and every other qubit into a 4x4 environment; a layer's
    environments add up to E over its pairs, since the pairs share the block
    U.  Walking forward through the layer's LAYER steps from W = E^T U with
    W <- G W G^dagger, each rotation exp(-i theta sigma~ / 2) adds
    Im tr(sigma~ W) to its parameter.  Agreement with the parameter-shift
    reference to 1e-8 is asserted in the tests.
    """
    states = np.atleast_2d(states)
    labels = np.asarray(labels, dtype=float)
    layers, readout = _layers(model)

    psi = _run(layers, states)
    outer = 2.0 * (_probability(psi, readout) - labels) / labels.size
    projector = (np.arange(psi.shape[1]) >> readout) & 1  # P1 on the readout qubit
    lam = (outer[:, None] * projector) * psi
    grad = np.zeros((model.n_layers, PARAMS_PER_LAYER))
    for layer_grad, (steps, U, pairs) in zip(grad[::-1], reversed(layers)):
        Uh = U.conj().T
        env = np.zeros((4, 4), complex)
        for pair in reversed(pairs):
            psi = circuits.apply_unitary(psi, Uh, pair)
            env += pair_environment(lam, psi, pair)  # lam after the block, psi before it
            lam = circuits.apply_unitary(lam, Uh, pair)
        W = env.T @ U
        for step, G in zip(LAYER, steps):
            W = G @ W @ G.conj().T
            if isinstance(step, tuple) and step[1] is not None:
                generator, index, _ = step
                # tr(sigma~ W) = vdot(sigma~, W) as sigma~ is Hermitian
                layer_grad[index] += np.vdot(generator, W).imag
    return grad.ravel()
