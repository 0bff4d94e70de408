"""Minimal batched statevector circuit simulator and data encodings.

States are arrays of shape (batch, 2**n) with qubit q stored in bit q of the
basis index.  A 2^k x 2^k unitary is applied to k qubits of a whole batch at
once by tensor contraction (apply_unitary); pair_environment contracts two
batches over everything outside a qubit pair into the pair's 4x4 environment
matrix, from which qcnn reads its parameter derivatives.  The encodings use
only Ry rotations and CNOTs, so encode returns real states; the first complex
block makes them complex.  Gate-by-gate simulation, the gate lists of the
encodings and the parameter-shift rule are test oracles only
(tests/oracles.py).
"""

from __future__ import annotations

import numpy as np


class CircuitError(ValueError):
    pass


# basis (control, target), control = first tensor factor
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], complex
)


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


def z_expectation(state: np.ndarray, qubit: int) -> np.ndarray:
    """<Z> on one qubit for every state in the batch."""
    dim = state.shape[1]
    signs = 1.0 - 2.0 * ((np.arange(dim) >> qubit) & 1)
    return np.real(np.sum(signs * np.abs(state) ** 2, axis=1))


def encode(angles: np.ndarray, n_qubits: int, kind: str) -> np.ndarray:
    """Encode a batch of angle vectors (rows) into real float64 statevectors.

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
    return state
