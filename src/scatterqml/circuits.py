"""Minimal batched statevector circuit simulator and data encodings.

States are arrays of shape (batch, 2**n) with qubit q stored in bit q of the
basis index.  Circuits are described as Gate lists on two local qubits, fused
into one 4x4 block (fuse_pair) and applied by tensor contraction to a whole
batch at once on every qubit pair that shares the block (apply_unitary).

Gradients need no derivative matrices.  A rotation R(theta) = exp(-i theta
sigma / 2) has dR/dtheta = -(i/2) sigma R, so with the block's 4x4
environment E (pair_environment: the adjoint state after the block against
the state before it) and W = B E^T U B^dagger, where B is the product of the
block's gates up to and including the rotation, its parameter gets
Im tr(sigma~ W), sigma~ being the generator (GENERATORS) embedded in the 4x4
space (embed_pair).  Gate-by-gate simulation, the gate lists of the
encodings and the parameter-shift rule are test oracles only
(tests/oracles.py).
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
# Pauli generator sigma of each rotation, R(theta) = exp(-i theta sigma / 2)
GENERATORS = {
    "rx": np.array([[0, 1], [1, 0]], complex),
    "ry": np.array([[0, -1j], [1j, 0]]),
    "rz": np.diag([1.0, -1.0]).astype(complex),
}
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

    def matrix(self, params):
        if self.kind == "cnot":
            return CNOT
        angle = self.offset
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


def embed_pair(gate: Gate, M: np.ndarray) -> np.ndarray:
    """A gate's 2x2 or 4x4 matrix as a 4x4 matrix on local qubits (1, 0)."""
    if len(gate.qubits) == 2:
        return M if gate.qubits == (1, 0) else M[[0, 2, 1, 3]][:, [0, 2, 1, 3]]
    a, b = (M, _I2) if gate.qubits == (1,) else (_I2, M)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)  # kron(a, b)


def fuse_pair(gates: list[Gate], params: np.ndarray) -> np.ndarray:
    """4x4 product of a gate list on local qubits 0 and 1.

    Local qubit 1 is the first tensor factor, as in apply_unitary."""
    U = np.eye(4, dtype=complex)
    for g in gates:
        U = embed_pair(g, g.matrix(params)) @ U
    return U


def z_expectation(state: np.ndarray, qubit: int) -> np.ndarray:
    """<Z> on one qubit for every state in the batch."""
    dim = state.shape[1]
    signs = 1.0 - 2.0 * ((np.arange(dim) >> qubit) & 1)
    return np.real(np.sum(signs * np.abs(state) ** 2, axis=1))


def encode(angles: np.ndarray, n_qubits: int, kind: str) -> np.ndarray:
    """Encode a batch of angle vectors (rows) into statevectors.

    "tpe" is one Ry(angle) per qubit; "hee" is that layer, a CNOT chain
    (q, q+1) for q = 0..n-2, a second Ry layer and the same chain again.  Run
    batched: a per-sample Kronecker product for the first Ry layer, then per
    CNOT chain one basis permutation and per-sample 2x2 rotations for the
    second HEE layer."""
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
