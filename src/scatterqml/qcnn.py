"""Layered variational circuit classifier with shared-weight convolution and
pooling blocks.

Each layer applies one 15-parameter, 3-CNOT two-qubit convolution unitary to
every adjacent pair of active qubits (weights shared within the layer),
followed by a 9-parameter, 1-CNOT pooling fragment that discards half of the
active qubits.  After log2(q) layers a single readout qubit remains; the
model output is its probability of reading |1>.

One layer is stated once, as data: CONV and POOL list its steps on the local
qubits (1, 0) of a pair.  A 4x4 matrix acts on the pair index
(p q) = 2 p + q: local qubit 1, the pair's left qubit p, is the first
tensor factor, and local qubit 0, the right one q, the second.  A rotation
step is (sigma~, index, offset): its 4x4 Hermitian generator sigma~ (a
Pauli on one local qubit), the index of its parameter within the layer's
24 (None for a fixed rotation) and a fixed angle offset.  At angle a = offset + parameter its matrix is
exp(-i a sigma~ / 2) = cos(a/2) I - i sin(a/2) sigma~, exact since
sigma~^2 = I.  A CNOT step is its 4x4 matrix.  LAYER holds CONV + POOL as
constant arrays (StepTable): every step is cos(a/2) C + sin(a/2) D at
a = offset + params . drive, drive being the 0/1 row that picks the step's
parameter (all zero for a fixed step), so the 30 step matrices of every
layer are built as one (n_layers, 30, 4, 4) stack.

The pool of a layer acts on the same disjoint pairs as its convolution, and
blocks on different pairs commute, so "every conv, then every pool" equals
"conv then pool, pair by pair": each layer is the product U of its LAYER
steps, one fused 4x4 block per pair (q - 1 blocks for q qubits).  fuse
keeps the running products Q_k = G_k ... G_0 of the steps, U being the
last.  The gradient reduces each layer to its 4x4 environment, summed over
its pairs, and then reads every parameter derivative of every layer from
those running products at once (_layer_gradients).

qcnn_forward and adjoint_gradient take an encoded batch as site tensors
(batch, n, chi, 2, chi) (circuits.sites).  A pooled qubit is never touched
again, so the circuit is a tree over contiguous segments of sites (Grant et
al., npj Quantum Inf. 4, 65, 2018).  The first two layers work on kets,
with every pooled qubit kept as a purification index; the layers above
them on density segments.

Every shared bond of the tree is contracted by one function, _merge: a
left operand (batch, k, L, ..., m) and a right one (batch, k, m, ..., R),
kets or segments, flattened around their shared bond m to matrices
[(L x), m] and [m, (y R)] and multiplied in one batched matmul, giving
T[L, (x y), R]; _merge_adjoint carries an adjoint back through it.

A ket A[l, e, b, r], stored (batch, k, l, e, 2, r), has one active qubit
b and a purification index e.  _ket_merge merges two kets into the block's
input X[l, (e e'), (b b'), r]; the block acts on it as U X, and the pooled
qubit c of the output (c d) joins the purification, leaving the ket
[l, (e e' c), d, r] (_pool).  Layer 1 is one such merge over every site
pair, the site tensors entering as kets with e = 1, and gives kets with
e = 2.  Layer 2 merges neighbouring kets pairwise (_plan) and applies its
block, and only then forms the density segment, its purification traced
out: S[(l l'), d, d', (r r')] = sum_e Y[l, e, d, r] conj Y[l', e, d', r']
(_ket_segments).

From layer 3 on, a segment carries one active qubit and traces out the
rest: S[(l l'), x, x', (r r')], its ket and bra bonds to the left and
right neighbours around the active qubit's density matrix, stored
(batch, k, L, 2, 2, R) with k segments side by side.  A merge takes a
left segment (L, 2, 2, M) and a right one (M, 2, 2, R) over their shared
bond pair M with no transposed copy, then applies U . U^dagger and the
trace over the pooled qubit as one 4x16 matrix K.

The chain's outer bonds are trivial: circuits.sites uses only bond index
0 left of the first site and right of the last one, and a segment's outer
bond index passes unchanged up to the root.  So every layer holds three
groups of kets or segments (_edges): the left edge at bond 0 only, the
batched interior at full bonds, and the right edge at bond 0 only.  Above
layer 1, an edge merges with its interior neighbour, the rest of the
interior merges pairwise, and the root, the readout qubit's density matrix
at (batch, 1, 1, 2, 2, 1), is one merge of the two edges (_plan).

Above the first layer there are n/2 - 2 log2(n) + 2 interior merges (2 at
16 qubits, none at 4 and 8), all of them in layer 2 at these widths, and
2 log2(n) - 3 edge merges.  A layer-2 interior merge on kets costs about
32 chi^4 + 16 chi^3 + 64 chi^2 multiplications per sample (about 10k at
chi = 4), against 16 chi^6 + 64 chi^4 (about 82k) for merging and
folding density segments; an edge merge costs 16 chi^4 or less.  So no
full-bond density merge is left, and the cost per sample is O(n chi^4)
at these widths, rather than O(n 2^n).

The gradient runs the same layers in reverse.  Above layer 2, the
adjoint Lam of a layer's output segments is carried back through K and
the merge (_merge_adjoint).  At layer 2 it becomes the kets' adjoint
Z = Lam . conj Y (_ket_adjoint); the block's environment is
env[(c d), (b b')] = sum Z[.., (c d), ..] X[.., (b b'), ..], and U^T Z is
carried back through the ket merge (_ket_merge_adjoint, the inverse
regrouping and _merge_adjoint) to the first layer's kets, whose
environment is the same sum of their adjoint and X.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .circuits import (
    CNOT,
    CircuitError,
    encode,  # unused here; perfbench/spans.py patches the name qcnn.encode
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


class StepTable(NamedTuple):
    """A step list as stacked constant arrays: step k at angle
    a = offset[k] + sum_j drive[k, j] params[j] is the 4x4 matrix
    cos(a/2) C[k] + sin(a/2) D[k].  drive[k] is the 0/1 row of the layer
    parameter that drives step k, all zero for a fixed step.  A rotation
    has C = I and D = -i sigma~; a CNOT is fixed, with C its matrix and
    D = 0."""

    C: np.ndarray
    D: np.ndarray
    drive: np.ndarray
    offset: np.ndarray


def _table(steps) -> StepTable:
    rows = []
    for step in steps:
        drive = np.zeros(PARAMS_PER_LAYER)
        if isinstance(step, np.ndarray):
            rows.append((step, np.zeros((4, 4)), drive, 0.0))
        else:
            generator, index, offset = step
            if index is not None:
                drive[index] = 1.0
            rows.append((_I4, -1j * generator, drive, offset))
    return StepTable(*(np.array(column) for column in zip(*rows)))


LAYER = _table(CONV + POOL)


def step_matrices(params: np.ndarray) -> np.ndarray:
    """Matrices (..., steps, 4, 4) of the LAYER steps at layer parameters
    (..., 24)."""
    angles = LAYER.offset + params @ LAYER.drive.T
    half = angles[..., None, None] / 2
    return np.cos(half) * LAYER.C + np.sin(half) * LAYER.D


def fuse(matrices: np.ndarray) -> np.ndarray:
    """Running products Q_k = G_k ... G_0 (..., steps, 4, 4) of step
    matrices G (..., steps, 4, 4) in circuit order; the fused block is the
    last, Q[..., -1, :, :]."""
    G = np.moveaxis(matrices, -3, 0)  # step-major: each product is written in place
    Q = np.empty(G.shape, complex)
    Q[0] = G[0]
    for k in range(1, len(G)):
        np.matmul(G[k], Q[k - 1], out=Q[k])
    return np.moveaxis(Q, 0, -3)


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


def _layers(model: QcnnModel) -> np.ndarray:
    """Running step products (n_layers, steps, 4, 4) of every layer (fuse),
    in circuit order; [:, -1] are the layers' blocks."""
    return fuse(step_matrices(model.params.reshape(model.n_layers, PARAMS_PER_LAYER)))


def _fold(U: np.ndarray) -> np.ndarray:
    """U rho U^dagger followed by the trace over the pooled qubit a, as one
    4x16 matrix K[(b b'), (p p' q q')] = sum_a U[(a b), (p q)] conj U[(a b'), (p' q')]."""
    U4 = U.reshape(2, 2, 2, 2)
    return np.einsum("abpq,acrs->bcprqs", U4, U4.conj()).reshape(4, 16)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b where b may be real: a real b is multiplied by a's real and
    imaginary parts and never copied to complex."""
    if np.iscomplexobj(a) and not np.iscomplexobj(b):
        rows = a.shape[-2]
        stacked = np.concatenate([a.real, a.imag], axis=-2) @ b
        return stacked[..., :rows, :] + 1j * stacked[..., rows:, :]
    return a @ b


def _merge(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """T[L, (x y), R] = sum_m left[L, x, m] right[m, y, R] of every operand
    pair, kets or segments (batch, k, L, ..., m) and (batch, k, m, ..., R):
    one batched matmul over the shared bond m, the operands flattened around
    it to left[(L x), m] and right[m, (y R)] (views where they can be),
    returned as (batch, k, L, x y, R)."""
    batch, k, L = left.shape[:3]
    T = left.reshape(batch, k, -1, left.shape[-1]) @ right.reshape(batch, k, right.shape[2], -1)
    return T.reshape(batch, k, L, -1, right.shape[-1])


def _merge_adjoint(W: np.ndarray, left: np.ndarray, right: np.ndarray):
    """The adjoints of _merge's operands, given W the adjoint of its output,
    so that sum(W * dT) = sum(dleft * left_in) + sum(dright * right_in):
    left_in[(L x), m] = sum W[(L x), (y R)] right[m, (y R)] and
    right_in[m, (y R)] = sum left[(L x), m] W[(L x), (y R)]."""
    batch, k = left.shape[:2]
    lm = left.reshape(batch, k, -1, left.shape[-1])
    rm = right.reshape(batch, k, right.shape[2], -1)
    W = W.reshape(lm.shape[:3] + rm.shape[-1:])
    left_in, right_in = W @ rm.swapaxes(-1, -2), lm.swapaxes(-1, -2) @ W
    return left_in.reshape(left.shape), right_in.reshape(right.shape)


def _edges(x: np.ndarray) -> list:
    """A layer's kets or segments (batch, s, L, ..., R) as groups: the first
    at left bond 0 only, the interior, and the last at right bond 0 only (no
    interior when s = 2).  The root reads only those bond entries."""
    groups = [x[:, :1, :1], x[:, 1:-1], x[:, -1:, ..., :1]]
    return groups if x.shape[1] > 2 else groups[::2]


_ALL = slice(None)


def _plan(groups: list) -> list:
    """The merges of a layer whose kets or segments come in these groups
    (_edges), one per group leaving it, each as the (group, segment slice)
    of its left and its right operand.  Two edges merge into the root;
    otherwise each edge merges with its interior neighbour and the rest of
    the interior pairwise."""
    if len(groups) == 2:
        return [((0, _ALL), (1, _ALL))]
    plan = [((0, _ALL), (1, slice(0, 1)))]
    if groups[1].shape[1] > 2:
        plan.append(((1, slice(1, -1, 2)), (1, slice(2, -1, 2))))
    return plan + [((1, slice(-1, None)), (2, _ALL))]


def _ket_merge(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Merged kets X[l, (e e'), (b b'), r] = sum_m A[l, e, b, m]
    A'[m, e', b', r] of kets (batch, k, l, e, 2, m) and (batch, k, m, e, 2, r)
    (_merge): the purifications e e' become one index and the active qubits
    b b' the block's input, (batch, k, l, e^2, 4, r)."""
    batch, k, l, e = left.shape[:4]
    X = _merge(left, right).reshape(batch, k, l, e, 2, e, 2, -1).swapaxes(4, 5)
    return X.reshape(batch, k, l, e * e, 4, -1)


def _ket_merge_adjoint(W: np.ndarray, left: np.ndarray, right: np.ndarray):
    """The adjoints of _ket_merge's operands, given W the adjoint of its
    output: W regrouped back to [l, e, b, e', b', r] (_merge_adjoint)."""
    batch, k, l, e = left.shape[:4]
    return _merge_adjoint(W.reshape(batch, k, l, e, e, 2, 2, -1).swapaxes(4, 5), left, right)


def _pool(Y: np.ndarray) -> np.ndarray:
    """Block outputs Y = U X (batch, k, l, e, 4, r) as kets
    (batch, k, l, 2 e, 2, r): the pooled qubit c of (c d) joins the
    purification."""
    return Y.reshape(Y.shape[:3] + (-1, 2, Y.shape[-1]))


def _ket_segments(Y: np.ndarray) -> np.ndarray:
    """Segments S[(l l'), d, d', (r r')] = sum_e Y[l, e, d, r]
    conj Y[l', e, d', r'] of kets (batch, s, l, e, 2, r), their purification
    traced out, as one batched product of M[e, (l d r)] with its
    conjugate."""
    batch, s, l, e, _, r = Y.shape
    M = Y.transpose(0, 1, 3, 2, 4, 5).reshape(batch, s, e, 2 * l * r)
    S = (M.swapaxes(-1, -2) @ M.conj()).reshape(batch, s, l, 2, r, l, 2, r)
    return S.transpose(0, 1, 2, 5, 3, 6, 4, 7).reshape(batch, s, l * l, 2, 2, r * r)


def _ket_adjoint(Y: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The adjoint Z[l, e, d, r] = sum Lam[(l l'), d, d', (r r')]
    conj Y[l', e, d', r'] of the kets Y, where Lam is the adjoint of the
    segments _ket_segments(Y)."""
    batch, s, l, e, _, r = Y.shape
    width = 2 * l * r
    # Lam[(l d r), (l' d' r')] and conj Y[(l' d' r'), e]
    lam = lam.reshape(batch, s, l, l, 2, 2, r, r).transpose(0, 1, 2, 4, 6, 3, 5, 7)
    Yc = Y.transpose(0, 1, 2, 4, 5, 3).conj()
    Z = lam.reshape(batch, s, width, width) @ Yc.reshape(batch, s, width, e)
    return Z.reshape(batch, s, l, 2, r, e).transpose(0, 1, 2, 5, 3, 4)


def _ket_environment(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """A ket layer's environment env[(c d), (p q)] = sum Z[..., (c d), r]
    X[..., (p q), r] over the batch, the segments and every other index, for
    the block outputs Y = U X with adjoint Z, given as Y or as its kets
    (_pool)."""
    Z = Z.reshape(X.shape)
    return _mul(Z.swapaxes(-1, -2).reshape(-1, 4).T, X.swapaxes(-1, -2).reshape(-1, 4))


# |1><1| of the readout qubit in the root segment, at the boundary bonds
_READOUT = (slice(None), 0, 0, 1, 1, 0)


def _tree(U: np.ndarray, sites: np.ndarray):
    """Yield, layer by layer, what the layer's output is built from and the
    groups leaving the layer (_edges): at the first layer the merged kets X
    of each group, (batch, k, l, 1, 4, r), and the kets of U X leaving it,
    (batch, k, l, 2, 2, r); at the second the merged kets X and the kets
    Y of U X of each merge (_plan) and the segments leaving it; after it the
    merged T of each merge and its segments, each (batch, k, L, 2, 2, R).
    The last layer leaves the root, (batch, 1, 1, 2, 2, 1), whose _READOUT
    entry is p."""
    X = _ket_merge(sites[:, 0::2, :, None], sites[:, 1::2, :, None])
    groups = _edges(_pool(_mul(U[0], X)))
    yield _edges(X), groups
    X = [_ket_merge(groups[a][:, i], groups[b][:, j]) for (a, i), (b, j) in _plan(groups)]
    Y = [_pool(U[1] @ x) for x in X]
    groups = [_ket_segments(y) for y in Y]
    yield list(zip(X, Y)), groups
    for block in U[2:]:
        K = _fold(block)
        T = [_merge(groups[a][:, i], groups[b][:, j]) for (a, i), (b, j) in _plan(groups)]
        groups = [(K @ t).reshape(t.shape[:3] + (2, 2, t.shape[-1])) for t in T]
        yield T, groups


def _layer_gradients(Q: np.ndarray, env: np.ndarray) -> np.ndarray:
    """Parameter derivatives (n_layers, 24) from every layer's running step
    products Q (n_layers, steps, 4, 4) and environment env[i, j] (i the
    block's output index, j its input index), where the loss changes by
    2 Re sum(dU * env) and U = Q[:, -1].  A rotation step k,
    cos(a/2) I + sin(a/2) D with D = -i sigma~, changes U by
    dU = U Q_k^dagger (D / 2) Q_k da, so its parameter gets
    Re tr(Q_k^dagger D Q_k M) with M = env^T U: one batched conjugation of
    D for every step of every layer (a CNOT's D is 0), and drive sends each
    trace to the parameter that drives its step."""
    M = env.swapaxes(-1, -2) @ Q[:, -1]
    P = Q.conj().swapaxes(-1, -2) @ LAYER.D @ Q
    return np.einsum("lkij,lji->lk", P, M).real @ LAYER.drive


def _check_width(model: QcnnModel, sites: np.ndarray) -> None:
    n = model.n_qubits
    if sites.ndim != 5 or sites.shape[1:] != (n, sites.shape[2], 2, sites.shape[2]):
        raise CircuitError(
            f"expected (batch, {n}, chi, 2, chi) site tensors for {n} qubits, "
            f"got shape {sites.shape}"
        )


def qcnn_forward(model: QcnnModel, sites: np.ndarray) -> np.ndarray:
    """Class-1 probability p = (1 - <Z>)/2 of the readout qubit for a batch
    of (batch, n, chi, 2, chi) site tensors."""
    _check_width(model, sites)
    U = _layers(model)[:, -1]
    for _, groups in _tree(U, sites):
        pass
    return groups[0][_READOUT].real


def adjoint_gradient(model: QcnnModel, sites: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Reverse-pass gradient of the mean squared error over a batch of site
    tensors.

    Every layer's 4x4 environment, summed over its pairs, is collected
    first; every parameter derivative is then read from it and the layers'
    running step products (_layer_gradients).  Agreement with the
    parameter-shift reference to 1e-8 is asserted in the tests.

    The adjoint Lam of a layer's output segments, with
    dL = sum(Lam * d segments), starts as dL/dp on the root's _READOUT entry.
    Above the second layer, with H[(p p' q q'), (b b')] = sum of
    T[L, (p p' q q'), R] Lam[L, (b b'), R] over the bonds and every merge of
    the batch, a layer's environment is
    env[(a b), (p q)] = sum conj U[(a b'), (p' q')] H[(p p' q q'), (b b')],
    and Lam is carried back through K and the merge (_merge_adjoint, the
    adjoint of the one batched matmul every merge of the tree is) to the
    segments entering the layer.  The first two layers' environments come
    from their kets (_ket_environments), whose merges are carried back
    through the same _merge_adjoint.
    """
    _check_width(model, sites)
    Q = _layers(model)
    env = _tree_environments(Q[:, -1], sites, np.asarray(labels, dtype=float))
    return _layer_gradients(Q, env).ravel()


def _tree_environments(U, sites, labels) -> np.ndarray:
    built, groups = zip(*_tree(U, sites))
    root = groups[-1][0]
    lam = [np.zeros(root.shape)]
    lam[0][_READOUT] = 2.0 * (root[_READOUT].real - labels) / labels.size
    env = np.empty(U.shape, complex)
    for depth in range(len(U) - 1, 1, -1):
        entering = groups[depth - 1]
        K = _fold(U[depth])
        H = 0.0  # H[(p p' q q'), (b b')]
        lam_in = [np.empty_like(g) for g in entering]
        for T, g, ((a, i), (b, j)) in zip(built[depth], lam, _plan(entering)):
            R = T.shape[-1]
            g = g.reshape(T.shape[:3] + (4, R))  # [L, (b b'), R]
            H = H + _mul(T.reshape(-1, 16, R), g.reshape(-1, 4, R).swapaxes(1, 2)).sum(axis=0)
            left, right = entering[a][:, i], entering[b][:, j]
            lam_in[a][:, i], lam_in[b][:, j] = _merge_adjoint(K.T @ g, left, right)
        U4 = U[depth].reshape(2, 2, 2, 2)
        env[depth] = np.einsum("acrs,prqsbc->abpq", U4.conj(), H.reshape((2,) * 6)).reshape(4, 4)
        lam = lam_in
    env[:2] = _ket_environments(U, built[:2], groups[0], lam)
    return env


def _ket_environments(U, built, kets, lam) -> np.ndarray:
    """The environments (2, 4, 4) of the two ket layers, from what _tree
    built them of, the first layer's kets and lam, the adjoint of the second
    layer's segments: Z = Lam . conj Y of the second layer's kets is carried
    back through U and the merges (_ket_merge_adjoint) to the first layer's
    kets."""
    env = np.zeros((2, 4, 4), complex)
    Z = [np.empty_like(y) for y in kets]
    for (X, Y), g, ((a, i), (b, j)) in zip(built[1], lam, _plan(kets)):
        z = _ket_adjoint(Y, g).reshape(X.shape)
        env[1] += _ket_environment(X, z)
        Z[a][:, i], Z[b][:, j] = _ket_merge_adjoint(U[1].T @ z, kets[a][:, i], kets[b][:, j])
    for X, z in zip(built[0], Z):
        env[0] += _ket_environment(X, z)
    return env
