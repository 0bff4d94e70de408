"""Data encodings as matrix product states, and a batched statevector
helper.

`sites` encodes a batch of angle vectors as real site tensors of shape
(batch, n, chi, 2, chi), a matrix product state per sample: chi = 1 for TPE
(a product state) and chi = 4 for HEE, whose two CNOT chains are
prefix-XOR maps of the bits and so leave an exact bond of 4.  These site
tensors are the only input qcnn takes; it evaluates them as a tree.
`statevector` contracts site tensors to real states of shape (batch, 2**n),
qubit q stored in bit q of the basis index, and `encode` is the two in one;
apply_unitary applies a 2^k x 2^k unitary to k qubits of a whole batch of
such states by tensor contraction.  No classifier uses these three: they
serve the test oracles (tests/oracles.py), which simulate the encodings and
the classifier gate by gate on statevectors and hold the parameter-shift
rule.
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


# bond dimension of each encoding's site tensors
BOND = {"tpe": 1, "hee": 4}


def sites(angles: np.ndarray, n_qubits: int, kind: str) -> np.ndarray:
    """Encode a batch of angle vectors (rows) as real site tensors.

    Returns A of shape (batch, n, chi, 2, chi), a matrix product state:
    amplitude(x) = A[0][0, x_0, :] @ A[1][:, x_1, :] @ ... @ A[n-1][:, x_{n-1}, 0],
    i.e. the left boundary is bond index 0 and the last site's right bond is
    summed into index 0 (the other entries are zero).

    "tpe" is one Ry(angle) per qubit, a product state: chi = 1 and
    A[k][0, a, 0] = v_k[a] with v_k = Ry(x_k)|0> = (cos x_k/2, sin x_k/2).
    "hee" is that layer, a CNOT chain (q, q+1) for q = 0..n-2 in order, a
    second Ry layer and the same chain again.  Each chain maps bits b to
    their prefix XOR b'_k = b_0 ^ ... ^ b_k, so with beta_k the first chain's
    output bit and a_k the final output bit of site k,
    amplitude(a) = sum over beta of prod_k Ry(x_k)[a_k ^ a_{k-1}, beta_k] v_k[beta_k ^ beta_{k-1}].
    The bond left of site k carries (beta_{k-1}, a_{k-1}), so chi = 4 and
    A[k][(beta, alpha), a, (beta', a)] = Ry(x_k)[a ^ alpha, beta'] v_k[beta' ^ beta].
    """
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    if angles.shape[1] != n_qubits:
        raise CircuitError(
            f"expected {n_qubits} angles per sample, got {angles.shape[1]}"
        )
    if kind not in BOND:
        raise CircuitError(f"unknown encoding {kind!r}")
    batch = len(angles)
    c, s = np.cos(angles / 2), np.sin(angles / 2)
    v = np.stack([c, s], axis=-1)
    if kind == "tpe":
        return v[:, :, None, :, None].copy()
    ry = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)  # [..., out, in]
    beta, alpha, a, beta_out = np.indices((2, 2, 2, 2))
    values = ry[:, :, a ^ alpha, beta_out] * v[:, :, beta_out ^ beta]
    # the right bond's second bit copies the site's own bit a
    A = (values[..., None] * np.eye(2).reshape(2, 1, 2)).reshape(batch, n_qubits, 4, 2, 4)
    A[:, 0, 1:] = 0.0
    A[:, -1, :, :, 0] = A[:, -1].sum(axis=-1)
    A[:, -1, :, :, 1:] = 0.0
    return A


def statevector(sites: np.ndarray) -> np.ndarray:
    """Contract a batch of site tensors (batch, n, chi, 2, chi) to real
    (batch, 2**n) statevectors, qubit q in bit q of the basis index."""
    batch, n, chi = sites.shape[:3]
    state = np.ones((batch, 1, 1))  # (right bond, amplitudes of the qubits so far)
    for k in range(n):
        right = 1 if k == n - 1 else chi
        A = sites[:, k, : state.shape[1], :, :right].transpose(0, 3, 2, 1)  # (r, a, l)
        # qubit k becomes the most significant bit so far
        state = (A.reshape(batch, 2 * right, -1) @ state).reshape(batch, right, -1)
    return state[:, 0]


def encode(angles: np.ndarray, n_qubits: int, kind: str) -> np.ndarray:
    """Encode a batch of angle vectors (rows) into real float64 statevectors:
    the site tensors of `sites`, contracted."""
    return statevector(sites(angles, n_qubits, kind))
