"""Layered variational circuit classifier with shared-weight convolution and
pooling blocks.

Each layer applies one 15-parameter, 3-CNOT two-qubit convolution unitary to
every adjacent pair of active qubits (weights shared within the layer),
followed by a 9-parameter, 1-CNOT pooling fragment that discards half of the
active qubits.  After log2(q) layers a single readout qubit remains; the
model output is its probability of reading |1>.

The pool of a layer acts on the same disjoint pairs as its convolution, and
blocks on different pairs commute, so "every conv, then every pool" equals
"conv then pool, pair by pair": each layer is simulated as one fused 4x4 block
applied to each of its pairs (q - 1 blocks for q qubits).  The gradient is an
adjoint sweep back through those blocks; each layer's 4x4 environment, summed
over its pairs, gives every parameter derivative (see circuits).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import circuits
from .circuits import (
    GENERATORS,
    CircuitError,
    Gate,
    embed_pair,
    encode,  # unused here; perfbench/spans.py patches the name qcnn.encode
    fuse_pair,
    pair_environment,
    z_expectation,
)

HALF_PI = np.pi / 2

PARAMS_PER_CONV = 15
PARAMS_PER_POOL = 9
PARAMS_PER_LAYER = PARAMS_PER_CONV + PARAMS_PER_POOL


def _u3(qubit, base):
    """General single-qubit rotation Rz-Ry-Rz consuming three parameters."""
    return [
        Gate("rz", (qubit,), param=base),
        Gate("ry", (qubit,), param=base + 1),
        Gate("rz", (qubit,), param=base + 2),
    ]


def conv_block_gates(a: int, b: int, base: int) -> list[Gate]:
    """Two-qubit convolution block: 15 trainable rotations, 3 CNOTs.

    The middle section is a canonical-class entangler whose fixed +-pi/2
    offsets make the whole block the identity (up to a global phase) when all
    parameters vanish; the surrounding general rotations make it universal on
    two qubits.
    """
    gates = _u3(a, base) + _u3(b, base + 3)
    gates += [
        Gate("rz", (a,), offset=HALF_PI),
        Gate("cnot", (a, b)),
        Gate("rz", (b,), param=base + 6, offset=HALF_PI),
        Gate("ry", (a,), param=base + 7, offset=HALF_PI),
        Gate("cnot", (b, a)),
        Gate("ry", (a,), param=base + 8, offset=-HALF_PI),
        Gate("cnot", (a, b)),
        Gate("rz", (b,), offset=-HALF_PI),
    ]
    gates += _u3(a, base + 9) + _u3(b, base + 12)
    return gates


def pool_block_gates(source: int, target: int, base: int) -> list[Gate]:
    """Pooling fragment: 9 trainable rotations, 1 CNOT; the source qubit is
    never touched again afterwards."""
    if source == target:
        raise CircuitError("pool source and target must differ")
    return (
        _u3(source, base)
        + _u3(target, base + 3)
        + [Gate("cnot", (source, target))]
        + _u3(target, base + 6)
    )


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
    """(gate list on local qubits (1, 0), its fused 4x4 block, qubit pairs) of
    every layer in circuit order, and the final readout qubit."""
    active = list(range(model.n_qubits))
    layers = []
    for layer in range(model.n_layers):
        base = layer * PARAMS_PER_LAYER
        gates = conv_block_gates(1, 0, base) + pool_block_gates(1, 0, base + PARAMS_PER_CONV)
        pairs = [(active[i], active[i + 1]) for i in range(0, len(active), 2)]
        layers.append((gates, fuse_pair(gates, model.params), pairs))
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
    U.  Walking forward through the layer's gates from W = E^T U with
    W <- G W G^dagger, each rotation exp(-i theta sigma / 2) adds
    Im tr(sigma~ W) to its parameter.  Agreement with the parameter-shift
    reference to 1e-8 is asserted in the tests.
    """
    states = np.atleast_2d(states)
    labels = np.asarray(labels, dtype=float)
    params = model.params
    layers, readout = _layers(model)

    psi = _run(layers, states)
    outer = 2.0 * (_probability(psi, readout) - labels) / labels.size
    projector = (np.arange(psi.shape[1]) >> readout) & 1  # P1 on the readout qubit
    lam = (outer[:, None] * projector) * psi
    grad = np.zeros_like(params)
    for gates, U, pairs in reversed(layers):
        Uh = U.conj().T
        env = np.zeros((4, 4), complex)
        for pair in reversed(pairs):
            psi = circuits.apply_unitary(psi, Uh, pair)
            env += pair_environment(lam, psi, pair)  # lam after the block, psi before it
            lam = circuits.apply_unitary(lam, Uh, pair)
        W = env.T @ U
        for g in gates:
            G = embed_pair(g, g.matrix(params))
            W = G @ W @ G.conj().T
            if g.param is not None:
                # tr(sigma~ W) = vdot(sigma~, W) as sigma~ is Hermitian
                grad[g.param] += np.vdot(embed_pair(g, GENERATORS[g.kind]), W).imag
    return grad
