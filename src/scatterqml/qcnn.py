"""Layered variational circuit classifier with shared-weight convolution and
pooling blocks.

Each layer applies one 15-parameter, 3-CNOT two-qubit convolution unitary to
every adjacent pair of active qubits (weights shared within the layer),
followed by a 9-parameter, 1-CNOT pooling fragment that discards half of the
active qubits.  After log2(q) layers a single readout qubit remains; the
model output is its probability of reading |1>.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import (
    CircuitError,
    Gate,
    encode,
    fuse_pair,
    pair_environment,
    run_blocks,
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


def conv_block(params: np.ndarray) -> np.ndarray:
    """4x4 unitary of one convolution block; exact identity at zero parameters."""
    params = np.asarray(params, dtype=float)
    if params.shape != (PARAMS_PER_CONV,):
        raise CircuitError(f"conv block takes {PARAMS_PER_CONV} parameters")
    U, _ = fuse_pair(conv_block_gates(1, 0, 0), params)
    return U * np.exp(0.25j * np.pi)  # cancel the fixed offsets' global phase


def pool_block(params: np.ndarray) -> np.ndarray:
    """4x4 unitary of one pooling fragment (source = qubit 1, target = qubit 0)."""
    params = np.asarray(params, dtype=float)
    if params.shape != (PARAMS_PER_POOL,):
        raise CircuitError(f"pool block takes {PARAMS_PER_POOL} parameters")
    return fuse_pair(pool_block_gates(1, 0, 0), params)[0]


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
    def random(cls, n_qubits, encoding="hee", seed=0):
        rng = np.random.default_rng(seed)
        n = PARAMS_PER_LAYER * int(np.log2(n_qubits))
        params = rng.uniform(-np.pi, np.pi, size=n)
        return cls(n_qubits=n_qubits, encoding=encoding, params=params)


def _stages(model: QcnnModel):
    """(block gate builder, parameter base, qubit pairs) of every conv and
    pool stage in circuit order, and the final readout qubit."""
    active = list(range(model.n_qubits))
    stages = []
    for layer in range(model.n_layers):
        base = layer * PARAMS_PER_LAYER
        pairs = [(active[i], active[i + 1]) for i in range(0, len(active), 2)]
        stages += [(conv_block_gates, base, pairs)]
        stages += [(pool_block_gates, base + PARAMS_PER_CONV, pairs)]
        active = [b for _, b in pairs]
    if len(active) != 1:
        raise CircuitError("active set did not reduce to a single qubit")
    return stages, active[0]


def build_program(model: QcnnModel):
    """Gate program of the trainable part and the final readout qubit."""
    stages, readout = _stages(model)
    return [g for make, base, pairs in stages for a, b in pairs for g in make(a, b, base)], readout


def build_block_program(model: QcnnModel):
    """The gate program fused into one 4x4 block per conv/pool application.

    Returns [(block, (a, b), [(param index, dblock/dtheta)]), ...] in circuit
    order and the readout qubit; the pairs of one stage share their block.
    """
    stages, readout = _stages(model)
    program = []
    for make, base, pairs in stages:
        U, derivs = fuse_pair(make(1, 0, base), model.params)
        program += [(U, pair, derivs) for pair in pairs]
    return program, readout


def qcnn_forward(model: QcnnModel, states: np.ndarray) -> np.ndarray:
    """Class-1 probability p = (1 - <Z>)/2 for a batch of encoded states."""
    states = np.atleast_2d(states)
    if states.shape[1] != 1 << model.n_qubits:
        raise CircuitError("state dimension does not match the model width")
    program, readout = build_block_program(model)
    return 0.5 * (1.0 - z_expectation(run_blocks(program, states), readout))


def qcnn_predict(model: QcnnModel, angles: np.ndarray) -> np.ndarray:
    """Encode angle vectors and evaluate the model."""
    return qcnn_forward(model, encode(angles, model.n_qubits, model.encoding))


def adjoint_gradient(model: QcnnModel, states: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Reverse-pass gradient of the mean squared error, block by block.

    lam = (dL/dp) P1 |psi> starts at the readout projector P1 and is carried
    back through the blocks with psi (Jones & Gacon, arXiv:2009.02823).  At
    each block, psi before it and lam after it are contracted over the batch
    and every other qubit into a 4x4 environment E, and every parameter
    occurrence adds 2 Re sum(dU * E).  Agreement with the parameter-shift
    reference to 1e-8 is asserted in the tests.
    """
    from .circuits import apply_unitary

    states = np.atleast_2d(states)
    labels = np.asarray(labels, dtype=float)
    program, readout = build_block_program(model)

    psi = run_blocks(program, states)
    signs = 1.0 - 2.0 * ((np.arange(psi.shape[1]) >> readout) & 1)
    p = 0.5 * (1.0 - np.real(np.sum(signs * np.abs(psi) ** 2, axis=1)))
    outer = 2.0 * (p - labels) / labels.size

    lam = (outer[:, None] * 0.5 * (1.0 - signs)) * psi
    grad = np.zeros_like(model.params)
    for U, pair, derivs in reversed(program):
        Uh = U.conj().T
        psi = apply_unitary(psi, Uh, pair)
        env = pair_environment(lam, psi, pair)  # lam after the block, psi before it
        for k, dU in derivs:
            grad[k] += 2.0 * np.real(np.sum(dU * env))
        lam = apply_unitary(lam, Uh, pair)
    return grad
