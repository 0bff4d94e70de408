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
"conv then pool, pair by pair": each layer is the product U of its LAYER
steps, one fused 4x4 block per pair (q - 1 blocks for q qubits).  Both
evaluations below reduce a layer to its 4x4 environment, summed over its
pairs, and read every parameter derivative from it by walking the LAYER
steps forward (_layer_gradient).

qcnn_forward and adjoint_gradient take either form of encoded batch
(circuits):

* (batch, 2**n) statevectors: each block is applied to the whole state and
  the gradient is an adjoint sweep back through the blocks.
* (batch, n, chi, 2, chi) site tensors: a pooled qubit is never touched
  again, so the circuit is a tree over contiguous segments of sites (Grant
  et al., npj Quantum Inf. 4, 65, 2018).  A segment carries one active
  qubit and traces out the rest: S[(l l'), x, x', (r r')], its ket and bra
  bonds to the left and right neighbours around the active qubit's density
  matrix, stored (batch, s, chi^2, 2, 2, chi^2).  With the bond pairs
  outermost, a layer merges segments 2j and 2j+1 by one batched matmul over
  their shared bond pair with no transposed copy (the first layer takes its
  products straight from pairs of sites), then applies U . U^dagger and the
  trace over the pooled qubit as one 4x16 matrix K.
  The root's boundary entry is the readout qubit's density matrix.  The
  gradient runs the same layers in reverse.  The cost per sample is
  O(n chi^6) rather than O(n 2^n).

train.QcnnClassifier picks the form: site tensors where chi^6 < 2^n (TPE at
every width, HEE at 16 qubits), statevectors for HEE at 4 and 8 qubits,
where the tree is slower.
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


def _fold(U: np.ndarray) -> np.ndarray:
    """U rho U^dagger followed by the trace over the pooled qubit a, as one
    4x16 matrix K[(b b'), (p p' q q')] = sum_a U[(a b), (p q)] conj U[(a b'), (p' q')]."""
    U4 = U.reshape(2, 2, 2, 2)
    return np.einsum("abpq,acrs->bcprqs", U4, U4.conj()).reshape(4, 16)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b where a or b may be real: the real factor is multiplied by the
    complex one's real and imaginary parts and never copied to complex."""
    if np.iscomplexobj(a) and not np.iscomplexobj(b):
        rows = a.shape[-2]
        stacked = np.concatenate([a.real, a.imag], axis=-2) @ b
        return stacked[..., :rows, :] + 1j * stacked[..., rows:, :]
    if np.iscomplexobj(b) and not np.iscomplexobj(a):
        return a @ b.real + 1j * (a @ b.imag)
    return a @ b


def _halves(segments: np.ndarray):
    """Left and right segments of every merge as matrices over their shared
    bond pair M: left [(L p p'), M] and right [M, (q q' R)] (views)."""
    batch, s, bond = segments.shape[:3]
    left = segments[:, 0::2].reshape(batch, s // 2, 4 * bond, bond)
    right = segments[:, 1::2].reshape(batch, s // 2, bond, 4 * bond)
    return left, right


def _merge(segments: np.ndarray) -> np.ndarray:
    """T[L, (p p' q q'), R] = sum_M S_left[L, p, p', M] S_right[M, q, q', R] for
    every adjacent pair of segments: (batch, s/2, L, 16, R)."""
    left, right = _halves(segments)
    bond = right.shape[2]
    return (left @ right).reshape(left.shape[:2] + (bond, 16, bond))


def _merge_sites(sites: np.ndarray) -> np.ndarray:
    """The first layer's T straight from the site pairs, real: with the
    two-site tensor X[l, p, q, r] = sum_m A[l, p, m] A'[m, q, r],
    T[(l l'), (p p' q q'), (r r')] = X[l, p, q, r] X[l', p', q', r']."""
    batch, n, chi = sites.shape[:3]
    X = sites[:, 0::2].reshape(batch, n // 2, 2 * chi, chi) @ sites[:, 1::2].reshape(
        batch, n // 2, chi, 2 * chi
    )
    X = X.reshape(batch, n // 2, chi, 2, 2, chi)
    ket = X[:, :, :, None, :, None, :, None, :, None]
    bra = X[:, :, None, :, None, :, None, :, None, :]
    return (ket * bra).reshape(batch, n // 2, chi * chi, 16, chi * chi)


# |1><1| of the readout qubit in the root segment, at the boundary bonds
_READOUT = (slice(None), 0, 0, 1, 1, 0)


def _tree(layers, sites: np.ndarray):
    """Yield, layer by layer, the merged T (one batched contraction per
    layer) and the segments leaving the layer, (batch, s, L, 2, 2, R).  The
    last layer leaves the root, whose _READOUT entry is p."""
    batch, _, chi = sites.shape[:3]
    segments = None
    for depth, (_, U, _) in enumerate(layers):
        T = _merge(segments) if depth else _merge_sites(sites)
        segments = _mul(_fold(U), T).reshape(batch, -1, chi * chi, 2, 2, chi * chi)
        yield T, segments


def _layer_gradient(steps, U: np.ndarray, env: np.ndarray, layer_grad: np.ndarray) -> None:
    """Add a layer's parameter derivatives to layer_grad from its environment
    env[i, j] (i the block's output index, j its input index), where the loss
    changes by 2 Re sum(dU * env).  Walking forward through the LAYER steps
    from W = env^T U with W <- G W G^dagger, each rotation exp(-i theta sigma~ / 2)
    adds Im tr(sigma~ W) to its parameter."""
    W = env.T @ U
    for step, G in zip(LAYER, steps):
        W = G @ W @ G.conj().T
        if isinstance(step, tuple) and step[1] is not None:
            generator, index, _ = step
            # tr(sigma~ W) = vdot(sigma~, W) as sigma~ is Hermitian
            layer_grad[index] += np.vdot(generator, W).imag


def _check_width(model: QcnnModel, states: np.ndarray) -> None:
    expected = model.n_qubits if states.ndim == 5 else 1 << model.n_qubits
    if states.ndim not in (2, 5) or states.shape[1] != expected:
        raise CircuitError("state dimension does not match the model width")


def qcnn_forward(model: QcnnModel, states: np.ndarray) -> np.ndarray:
    """Class-1 probability p = (1 - <Z>)/2 for a batch of encoded states:
    (batch, 2**n) statevectors or (batch, n, chi, 2, chi) site tensors."""
    states = np.atleast_2d(states)
    _check_width(model, states)
    layers, readout = _layers(model)
    if states.ndim == 2:
        return _probability(_run(layers, states), readout)
    for _, root in _tree(layers, states):
        pass
    return root[_READOUT].real


def adjoint_gradient(model: QcnnModel, states: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Reverse-pass gradient of the mean squared error, layer by layer.

    Each layer's 4x4 environment, summed over its pairs, gives its parameter
    derivatives (_layer_gradient).  Agreement with the parameter-shift
    reference to 1e-8 is asserted in the tests.

    Statevectors: lam = (dL/dp) P1 |psi> starts at the readout projector P1
    and is carried back through the blocks with psi (Jones & Gacon,
    arXiv:2009.02823).  At each block application, psi before it and lam
    after it are contracted over the batch and every other qubit into the
    block's environment.

    Site tensors: the adjoint Lam of a layer's output segments, with
    dL = sum(Lam * d segments), starts as dL/dp on the root's _READOUT entry.
    With H[(p p' q q'), (b b')] = sum of T[L, (p p' q q'), R] Lam[L, (b b'), R]
    over the bonds and every merge of the batch, a layer's environment is
    env[(a b), (p q)] = sum conj U[(a b'), (p' q')] H[(p p' q q'), (b b')];
    Lam is carried back through K and the merge products to the segments
    entering the layer.
    """
    states = np.atleast_2d(states)
    _check_width(model, states)
    labels = np.asarray(labels, dtype=float)
    layers, readout = _layers(model)
    grad = np.zeros((model.n_layers, PARAMS_PER_LAYER))
    if states.ndim == 5:
        _tree_gradient(layers, states, labels, grad)
        return grad.ravel()

    psi = _run(layers, states)
    outer = 2.0 * (_probability(psi, readout) - labels) / labels.size
    projector = (np.arange(psi.shape[1]) >> readout) & 1  # P1 on the readout qubit
    lam = (outer[:, None] * projector) * psi
    for layer_grad, (steps, U, pairs) in zip(grad[::-1], reversed(layers)):
        Uh = U.conj().T
        env = np.zeros((4, 4), complex)
        for pair in reversed(pairs):
            psi = circuits.apply_unitary(psi, Uh, pair)
            env += pair_environment(lam, psi, pair)  # lam after the block, psi before it
            lam = circuits.apply_unitary(lam, Uh, pair)
        _layer_gradient(steps, U, env, layer_grad)
    return grad.ravel()


def _tree_gradient(layers, sites: np.ndarray, labels: np.ndarray, grad: np.ndarray) -> None:
    merged, segments = zip(*_tree(layers, sites))
    lam = np.zeros(segments[-1].shape)
    lam[_READOUT] = 2.0 * (segments[-1][_READOUT].real - labels) / labels.size
    for depth in reversed(range(len(layers))):
        steps, U, _ = layers[depth]
        T = merged[depth]
        bond = T.shape[-1]
        lam = lam.reshape(T.shape[:3] + (4, bond))  # [L, (b b'), R]
        # H[(p p' q q'), (b b')]
        H = _mul(T.reshape(-1, 16, bond), lam.reshape(-1, 4, bond).swapaxes(1, 2)).sum(axis=0)
        U4 = U.reshape(2, 2, 2, 2)
        env = np.einsum("acrs,prqsbc->abpq", U4.conj(), H.reshape((2,) * 6)).reshape(4, 4)
        _layer_gradient(steps, U, env, grad[depth])
        if depth == 0:
            break
        entering = segments[depth - 1]
        left, right = _halves(entering)
        lam_T = (_fold(U).T @ lam).reshape(left.shape[:2] + (4 * bond, 4 * bond))
        lam = np.empty_like(entering)
        lam[:, 0::2] = (lam_T @ right.swapaxes(-1, -2)).reshape(lam[:, 0::2].shape)
        lam[:, 1::2] = (left.swapaxes(-1, -2) @ lam_T).reshape(lam[:, 1::2].shape)
