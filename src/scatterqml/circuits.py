"""Minimal batched statevector circuit simulator and data encodings.

States are arrays of shape (batch, 2**n) with qubit q stored in bit q of the
basis index.  Circuits are described as Gate lists but simulated as fused 4x4
blocks applied by tensor contraction to a whole batch at once; gradients use
each block's 4x4 environment matrix.  Gate-by-gate simulation and the
parameter-shift rule are test oracles only (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CircuitError(ValueError):
    pass


def rx(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], complex)


def rz(theta):
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


# basis (control, target), control = first tensor factor
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], complex
)

_ROTATIONS = {"rx": rx, "ry": ry, "rz": rz}
_I2 = np.eye(2)


@dataclass(frozen=True)
class Gate:
    """One circuit element.

    kind is a rotation name or "cnot"; param points at a trainable parameter
    (None for fixed gates); the applied angle is param value + offset.
    """

    kind: str
    qubits: tuple
    param: int | None = None
    offset: float = 0.0

    def matrix(self, params, shift: float = 0.0):
        if self.kind == "cnot":
            return CNOT
        angle = self.offset + shift
        if self.param is not None:
            angle += params[self.param]
        return _ROTATIONS[self.kind](angle)


def apply_unitary(state: np.ndarray, U: np.ndarray, qubits: tuple) -> np.ndarray:
    """Apply a 2^k x 2^k unitary to the given qubits of a batched state."""
    batch, dim = state.shape
    n = dim.bit_length() - 1
    k = len(qubits)
    arr = state.reshape((batch,) + (2,) * n)
    axes = [1 + (n - 1 - q) for q in qubits]
    Ut = U.reshape((2,) * (2 * k))
    arr = np.tensordot(Ut, arr, axes=(list(range(k, 2 * k)), axes))
    arr = np.moveaxis(arr, list(range(k)), axes)
    return arr.reshape(batch, dim)


def pair_environment(bra: np.ndarray, ket: np.ndarray, qubits: tuple) -> np.ndarray:
    """4x4 matrix E[i, j] = sum of conj(bra_i) * ket_j over the batch and every
    qubit outside the pair, with i, j indexing the pair as in apply_unitary."""
    n = ket.shape[1].bit_length() - 1
    axes = [1 + (n - 1 - q) for q in qubits]
    bra, ket = (np.moveaxis(x.reshape((len(x),) + (2,) * n), axes, [0, 1]) for x in (bra, ket))
    return bra.reshape(4, -1).conj() @ ket.reshape(4, -1).T


def fuse_pair(gates: list[Gate], params: np.ndarray):
    """4x4 product U of a gate list on local qubits 0 and 1, and its derivatives.

    Local qubit 1 is the first tensor factor, as in apply_unitary.  Returns
    (U, [(param index, dU/dtheta)]), one entry per trainable gate: the gates
    after it times dR/dtheta = R(theta + pi)/2 times the gates before it."""

    def embed(gate, M):
        if len(gate.qubits) == 2:
            return M if gate.qubits == (1, 0) else M[[0, 2, 1, 3]][:, [0, 2, 1, 3]]
        a, b = (M, _I2) if gate.qubits == (1,) else (_I2, M)
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)  # kron(a, b)

    mats = [embed(g, g.matrix(params)) for g in gates]
    prefix = [np.eye(4)]  # prefix[i]: product of the gates before gate i
    for M in mats:
        prefix.append(M @ prefix[-1])
    suffix = [np.eye(4)]  # suffix[i]: product of gate i and the gates after it
    for M in reversed(mats):
        suffix.insert(0, suffix[0] @ M)
    derivs = [
        (g.param, suffix[i + 1] @ embed(g, 0.5 * g.matrix(params, shift=np.pi)) @ prefix[i])
        for i, g in enumerate(gates)
        if g.param is not None
    ]
    return prefix[-1], derivs


def run_blocks(program: list, state: np.ndarray) -> np.ndarray:
    """Apply a block program [(4x4 block, qubit pair, derivatives), ...]."""
    for U, qubits, _ in program:
        state = apply_unitary(state, U, qubits)
    return state


def z_expectation(state: np.ndarray, qubit: int) -> np.ndarray:
    """<Z> on one qubit for every state in the batch."""
    dim = state.shape[1]
    signs = 1.0 - 2.0 * ((np.arange(dim) >> qubit) & 1)
    return np.real(np.sum(signs * np.abs(state) ** 2, axis=1))


def encoding_program(n_qubits: int, kind: str) -> list[Gate]:
    """Angle-encoding circuit: one Ry per qubit per repetition.

    "tpe" is a single product layer with no entangling gates; "hee" repeats
    the rotation layer twice with a linear CNOT chain after each repetition.
    """
    if kind not in ("hee", "tpe"):
        raise CircuitError(f"unknown encoding {kind!r}")
    gates = []
    reps = 2 if kind == "hee" else 1
    for _ in range(reps):
        for q in range(n_qubits):
            gates.append(Gate("ry", (q,), param=q))
        if kind == "hee":
            for q in range(n_qubits - 1):
                gates.append(Gate("cnot", (q, q + 1)))
    return gates


def encode(angles: np.ndarray, n_qubits: int, kind: str) -> np.ndarray:
    """Encode a batch of angle vectors (rows) into statevectors.

    Runs encoding_program batched: a per-sample Kronecker product for the
    first Ry layer, then per CNOT chain one basis permutation and per-sample
    2x2 rotations for the second HEE layer."""
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    if angles.shape[1] != n_qubits:
        raise CircuitError(
            f"expected {n_qubits} angles per sample, got {angles.shape[1]}"
        )
    if kind not in ("hee", "tpe"):
        raise CircuitError(f"unknown encoding {kind!r}")
    batch = len(angles)
    c, s = np.cos(angles / 2), np.sin(angles / 2)
    state = np.ones((batch, 1))
    for q in range(n_qubits):  # Ry|0> = (c, s) on qubit q, the new top bit
        state = np.concatenate([c[:, q, None] * state, s[:, q, None] * state], axis=1)
    if kind == "hee":
        perm = np.arange(1 << n_qubits)  # gather for CNOT(q, q+1), q = 0..n-2 in order
        for q in reversed(range(n_qubits - 1)):
            perm ^= ((perm >> q) & 1) << (q + 1)
        state = state[:, perm]
        rotations = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        for q in range(n_qubits):
            split = state.reshape(batch, -1, 2, 1 << q)
            state = np.einsum("bij,bljr->blir", rotations[:, q], split).reshape(batch, -1)
        state = state[:, perm]
    return state.astype(complex)
