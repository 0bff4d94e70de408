"""Independent reference implementations used by the tests.

Everything here is built from first principles with dense linear algebra on
the full 2^N space and deliberately avoids the package's own code paths:
operators are assembled from explicit Kronecker products, evolution uses a
dense matrix exponential, entropies come from a full outer-product partial
trace, and the free-field references use the single-particle correlation
matrix.  ``svd_entanglement_entropy`` keeps its own per-cut Schmidt block
tables (``schmidt_blocks``) and one SVD per block, the reference for the
package's entropy profile (one middle-cut Gram, then a partial-trace
chain).  The package works on particle-number sectors; ``embed`` places a
sector state into the full space (at the basis states the package's
``Sector`` lists) so that it can be compared with these references.  The
circuit references own their gates: ``Gate``, the rotations ``rx``/``ry``/
``rz`` and the gate lists of the encodings and of the QCNN blocks
(``conv_block_gates``/``pool_block_gates``) are stated here, independently of
the package's layer table (``qcnn.LAYER``) that they check, and simulated one
gate at a time on statevectors, read out by ``z_expectation``; they are the
reference for the package's tree over site tensors.
``tpe4_density_probability`` runs a 4-qubit QCNN on TPE inputs by hand with
2x2 and 4x4 density matrices;
``outer_product_first_layer`` keeps the tree's first layer as an outer
product of two-site tensors folded by a 4x16 matrix, and
``density_second_layer`` merges its density segments pairwise and folds
them again, the reference for the package's two ket layers;
``parameter_shift_gradient`` runs every shifted program as one batch and
``serial_parameter_shift_gradient`` one program per shift.
``format_config`` renders a config mapping back to file text for the
round-trip tests, and ``load_model`` reads back the checkpoints the CLI
writes.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from scatterqml.circuits import CNOT, CircuitError, apply_unitary
from scatterqml.observables import ObservableError
from scatterqml.qcnn import PARAMS_PER_CONV, PARAMS_PER_LAYER, PARAMS_PER_POOL
from scatterqml.serialize import _fields, _load_record

I2 = np.eye(2)
PAULI_Z = np.diag([1.0, -1.0])
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1| in (empty, occupied) order


def site_annihilator(n_sites: int, site: int) -> np.ndarray:
    """Dense Jordan-Wigner annihilation operator with the string on lower sites.

    Bit j of the basis index is the occupation of site j, so site 0 is the
    least significant (last) Kronecker factor.
    """
    mat = np.eye(1)
    for j in range(n_sites - 1, -1, -1):
        if j == site:
            factor = LOWER
        elif j < site:
            factor = PAULI_Z
        else:
            factor = I2
        mat = np.kron(mat, factor)
    return mat


def dense_hamiltonian(n_sites: int, mass: float, coupling: float) -> np.ndarray:
    """Brute-force staggered Hamiltonian from explicit fermion operators."""
    c = [site_annihilator(n_sites, n) for n in range(n_sites)]
    num = [ci.conj().T @ ci for ci in c]
    H = np.zeros((2**n_sites, 2**n_sites), complex)
    for n in range(n_sites - 1):
        H += 0.5j * (c[n + 1].conj().T @ c[n]) - 0.5j * (c[n].conj().T @ c[n + 1])
    for n in range(n_sites):
        H += (-1) ** n * mass * num[n]
    for n in range(n_sites - 1):
        H += coupling * (num[n] @ num[n + 1])
    return H


def dense_number_operator(n_sites: int) -> np.ndarray:
    total = np.zeros((2**n_sites, 2**n_sites))
    for n in range(n_sites):
        cn = site_annihilator(n_sites, n)
        total += np.real(cn.conj().T @ cn)
    return total


def site_number_diagonals(n_sites: int) -> np.ndarray:
    """(n_sites, 2^n_sites): row n is the diagonal of the number operator of
    site n, from Kronecker products of single-site occupations (site 0 is the
    last factor)."""
    rows = []
    for site in range(n_sites):
        diag = np.ones(1)
        for j in range(n_sites - 1, -1, -1):
            diag = np.kron(diag, [0.0, 1.0] if j == site else [1.0, 1.0])
        rows.append(diag)
    return np.array(rows)


def number_diagonal(n_sites: int) -> np.ndarray:
    """Diagonal of the total number operator."""
    return site_number_diagonals(n_sites).sum(axis=0)


def sector_indices(n_sites: int, particles: int) -> np.ndarray:
    """Ascending full-space indices of the basis states holding `particles` fermions."""
    return np.flatnonzero(number_diagonal(n_sites) == particles)


def embed(sector, psi: np.ndarray) -> np.ndarray:
    """Full-space vector of a sector state, amplitudes at the sector's bitstrings."""
    full = np.zeros(1 << sector.sites, complex)
    full[sector.states] = psi
    return full


def total_number_expectation(psi: np.ndarray) -> float:
    """Expectation of the total fermion number operator in a full-space state."""
    n_sites = int(round(np.log2(psi.size)))
    return float(np.sum(number_diagonal(n_sites) * np.abs(psi) ** 2))


def dense_ground_state(n_sites: int, mass: float, coupling: float):
    """Lowest eigenstate with total number N/2, from full diagonalization."""
    H = dense_hamiltonian(n_sites, mass, coupling)
    number = np.diag(dense_number_operator(n_sites))
    vals, vecs = np.linalg.eigh(H)
    best = None
    for i in range(vals.size):
        filling = float(np.real(vecs[:, i].conj() @ (number * vecs[:, i])))
        if abs(filling - n_sites / 2) < 1e-6:
            best = i
            break
    if best is None:
        raise AssertionError("no half-filling eigenstate found")
    return vecs[:, best].astype(complex), float(vals[best])


def dense_evolve(H: np.ndarray, psi: np.ndarray, dt: float) -> np.ndarray:
    return expm(-1j * dt * H) @ psi


def dense_site_densities(n_sites: int, psi: np.ndarray) -> np.ndarray:
    return np.array(
        [
            float(
                np.real(
                    psi.conj()
                    @ (
                        site_annihilator(n_sites, n).conj().T
                        @ site_annihilator(n_sites, n)
                        @ psi
                    )
                )
            )
            for n in range(n_sites)
        ]
    )


def dense_reduced_density(psi: np.ndarray, cut: int) -> np.ndarray:
    """Reduced state of sites {0..cut-1} via the full outer product."""
    n = int(round(np.log2(psi.size)))
    rho = np.outer(psi, psi.conj())
    d_right, d_left = 1 << (n - cut), 1 << cut
    return np.einsum("aiaj->ij", rho.reshape(d_right, d_left, d_right, d_left))


def dense_entropy(psi: np.ndarray, cut: int) -> float:
    vals = np.linalg.eigvalsh(dense_reduced_density(psi, cut))
    vals = vals[vals > 1e-14]
    return float(-np.sum(vals * np.log(vals)))


# --- helpers moved out of the package, used only by tests ---
#
# reduced_density_matrix and von_neumann_entropy act on full-space states;
# entropy_profile collects the package's sector entropies over all cuts.

RDM_MAX_QUBITS = 12  # 2^12 x 2^12 dense matrix cap


def reduced_density_matrix(state: np.ndarray, cut: int) -> np.ndarray:
    """Reduced density matrix of sites {0..cut-1}: Hermitian, PSD, trace one."""
    if cut > RDM_MAX_QUBITS:
        raise ObservableError(f"cut {cut} exceeds the {RDM_MAX_QUBITS}-qubit memory cap")
    n = int(round(np.log2(state.size)))
    M = state.reshape(1 << (n - cut), 1 << cut)
    return M.T @ M.conj()


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr[rho ln rho]; eigenvalues below 1e-14 contribute zero."""
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ObservableError("density matrix trace differs from 1")
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-14]
    return float(-np.sum(vals * np.log(vals)))


def schmidt_blocks(sector, cut: int) -> list[np.ndarray]:
    """Rank tables of the Schmidt-matrix blocks for the cut after site cut-1.

    The Schmidt matrix of a sector state, (right sites) x (left sites
    {0..cut-1}), is block-diagonal in the left particle number.  Ranks
    ascend in (right bits, left bits), so the states with a given left
    particle number form their block's (right, left) grid in row-major
    order.  Each grid is transposed to have no more rows than columns, and
    grids of equal shape are stacked into one table.
    """
    left_count = np.bitwise_count(sector.states & ((1 << cut) - 1))
    stacks = {}
    for n in np.unique(left_count):
        grid = np.flatnonzero(left_count == n).reshape(-1, math.comb(cut, n))
        if grid.shape[0] > grid.shape[1]:
            grid = grid.T
        stacks.setdefault(grid.shape, []).append(grid)
    return [np.stack(grids) for grids in stacks.values()]


def svd_entanglement_entropy(sector, state: np.ndarray, cut: int) -> float:
    """Entropy of sites {0..cut-1} of one sector state from the singular values
    of its Schmidt blocks, one SVD per block table."""
    svals = np.concatenate(
        [
            np.linalg.svd(state[ranks], compute_uv=False).ravel()
            for ranks in schmidt_blocks(sector, cut)
        ]
    )
    p = svals**2
    p = p[p > 1e-14]
    return float(-np.sum(p * np.log(p)))


def entropy_profile(sector, state: np.ndarray, vacuum_entropies: np.ndarray) -> np.ndarray:
    """Excess entropy at every cut 1..N-1 given precomputed vacuum entropies,
    one per-cut SVD each."""
    return np.array(
        [svd_entanglement_entropy(sector, state, cut) for cut in range(1, sector.sites)]
    ) - np.asarray(vacuum_entropies)


# --- free-fermion (g = 0) correlation-matrix references ---


def ff_single_particle(n_sites: int, mass: float) -> np.ndarray:
    h = np.zeros((n_sites, n_sites), complex)
    for n in range(n_sites - 1):
        h[n + 1, n] = 0.5j
        h[n, n + 1] = -0.5j
    for n in range(n_sites):
        h[n, n] = (-1) ** n * mass
    return h


def dominant_momenta(vectors: np.ndarray) -> np.ndarray:
    """Momentum of the largest discrete-Fourier component of each column."""
    N = vectors.shape[0]
    kgrid = 2 * np.pi * np.arange(-N // 2, N // 2) / N
    fourier = np.exp(-1j * np.outer(kgrid, np.arange(N))) / np.sqrt(N)
    return kgrid[np.argmax(np.abs(fourier @ vectors) ** 2, axis=0)]


def ff_vacuum_projector(h: np.ndarray) -> np.ndarray:
    """Correlation matrix P_mn = <c_m^dag c_n> of the filled Dirac sea."""
    energies, vectors = np.linalg.eigh(h)
    W = vectors[:, energies < 0]
    return W @ W.conj().T


def ff_scattering_projector(h, phi_fermion, phi_antifermion) -> np.ndarray:
    """Correlation matrix after creating a fermion and removing a sea orbital.

    phi_antifermion follows the package convention: the conjugate of the
    removed sea orbital.
    """
    removed = np.asarray(phi_antifermion).conj()
    P = ff_vacuum_projector(h)
    return (
        P
        - np.outer(removed, removed.conj())
        + np.outer(phi_fermion, np.asarray(phi_fermion).conj())
    )


def ff_evolve_projector(h: np.ndarray, P: np.ndarray, t: float) -> np.ndarray:
    U = expm(-1j * h * t)
    return U @ P @ U.conj().T


def ff_densities(P: np.ndarray) -> np.ndarray:
    return np.real(np.diag(P))


def ff_block_entropy(P: np.ndarray, cut: int) -> float:
    """Entanglement entropy of sites {0..cut-1} for a Gaussian state."""
    nu = np.linalg.eigvalsh(P[:cut, :cut])
    nu = np.clip(nu, 1e-14, 1 - 1e-14)
    return float(-np.sum(nu * np.log(nu) + (1 - nu) * np.log(1 - nu)))


def finite_difference_gradient(fn, params: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of a scalar function."""
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (fn(up) - fn(dn)) / (2 * step)
    return grad


# --- gate-by-gate circuit references ---
#
# These state the encoding and QCNN gate programs here, one Gate per rotation
# or CNOT (conv and pool stages unfused), and run them one Gate at a time
# through apply_unitary (checked against truth tables in test_circuits), so
# they are independent of the layer table, the fused layer blocks, the
# environment-matrix gradient and the batched encoding they are compared with.


def rx(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], complex)


def rz(theta):
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


ROTATIONS = {"rx": rx, "ry": ry, "rz": rz}


@dataclass(frozen=True)
class Gate:
    """One circuit element.

    kind is a rotation name or "cnot" (control = first of qubits); param
    points at a trainable parameter (None for fixed gates); the applied angle
    is param value + offset.
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
        return ROTATIONS[self.kind](angle)


def _u3(qubit, base):
    """General single-qubit rotation Rz-Ry-Rz consuming three parameters."""
    return [
        Gate("rz", (qubit,), param=base),
        Gate("ry", (qubit,), param=base + 1),
        Gate("rz", (qubit,), param=base + 2),
    ]


def conv_block_gates(a: int, b: int, base: int) -> list[Gate]:
    """Two-qubit convolution block: 15 trainable rotations, 3 CNOTs, the
    identity (up to a global phase) at zero parameters."""
    gates = _u3(a, base) + _u3(b, base + 3)
    gates += [
        Gate("rz", (a,), offset=np.pi / 2),
        Gate("cnot", (a, b)),
        Gate("rz", (b,), param=base + 6, offset=np.pi / 2),
        Gate("ry", (a,), param=base + 7, offset=np.pi / 2),
        Gate("cnot", (b, a)),
        Gate("ry", (a,), param=base + 8, offset=-np.pi / 2),
        Gate("cnot", (a, b)),
        Gate("rz", (b,), offset=-np.pi / 2),
    ]
    return gates + _u3(a, base + 9) + _u3(b, base + 12)


def pool_block_gates(source: int, target: int, base: int) -> list[Gate]:
    """Pooling fragment: 9 trainable rotations, 1 CNOT; the source qubit is
    never touched again afterwards."""
    return (
        _u3(source, base)
        + _u3(target, base + 3)
        + [Gate("cnot", (source, target))]
        + _u3(target, base + 6)
    )


def zero_state(n_qubits, batch=1):
    state = np.zeros((batch, 1 << n_qubits), complex)
    state[:, 0] = 1.0
    return state


def z_expectation(state, qubit):
    """<Z> on one qubit for every statevector in the batch."""
    dim = state.shape[1]
    signs = 1.0 - 2.0 * ((np.arange(dim) >> qubit) & 1)
    return np.real(np.sum(signs * np.abs(state) ** 2, axis=1))


def count_cnots(gates):
    return sum(1 for g in gates if g.kind == "cnot")


def count_parameters(gates):
    return len({g.param for g in gates if g.param is not None})


def table_parameters(steps):
    """Parameter indices of a qcnn layer table's rotation steps, in order."""
    return [step[1] for step in steps if isinstance(step, tuple) and step[1] is not None]


def table_cnots(steps):
    """Steps of a qcnn layer table that are a CNOT in either orientation."""
    swap = [0, 2, 1, 3]
    return sum(
        1 for step in steps
        if isinstance(step, np.ndarray)
        and (np.array_equal(step, CNOT) or np.array_equal(step, CNOT[swap][:, swap]))
    )


def run_program(gates, state, params, shift_at=None, shift=0.0):
    """Apply a gate program; optionally shift the angle of one gate occurrence."""
    out = state
    for i, gate in enumerate(gates):
        if i == shift_at:
            gate = replace(gate, offset=gate.offset + shift)
        out = apply_unitary(out, gate.matrix(params), gate.qubits)
    return out


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


def build_program(model):
    """Gate program of the QCNN's trainable part and the final readout qubit.

    Per layer every conv block is applied to the layer's pairs, then every
    pool block, so the program does not rely on conv/pool fusion."""
    active = list(range(model.n_qubits))
    gates = []
    for layer in range(model.n_layers):
        base = layer * PARAMS_PER_LAYER
        pairs = [(active[i], active[i + 1]) for i in range(0, len(active), 2)]
        gates += [g for a, b in pairs for g in conv_block_gates(a, b, base)]
        gates += [g for a, b in pairs for g in pool_block_gates(a, b, base + PARAMS_PER_CONV)]
        active = [b for _, b in pairs]
    if len(active) != 1:
        raise CircuitError("active set did not reduce to a single qubit")
    return gates, active[0]


def pair_unitary(gates, params):
    """4x4 matrix of a gate list on qubits (1, 0), column j = image of |j>."""
    return run_program(gates, np.eye(4, dtype=complex), params).T


def conv_block(params):
    """4x4 unitary of one convolution block; exact identity at zero parameters."""
    params = np.asarray(params, dtype=float)
    if params.shape != (PARAMS_PER_CONV,):
        raise CircuitError(f"conv block takes {PARAMS_PER_CONV} parameters")
    U = pair_unitary(conv_block_gates(1, 0, 0), params)
    return U * np.exp(0.25j * np.pi)  # cancel the fixed offsets' global phase


def pool_block(params):
    """4x4 unitary of one pooling fragment (source = qubit 1, target = qubit 0)."""
    params = np.asarray(params, dtype=float)
    if params.shape != (PARAMS_PER_POOL,):
        raise CircuitError(f"pool block takes {PARAMS_PER_POOL} parameters")
    return pair_unitary(pool_block_gates(1, 0, 0), params)


def gate_encode(angles, n_qubits, kind):
    """Encode rows of angles one at a time, gate by gate."""
    program = encoding_program(n_qubits, kind)
    return np.array(
        [run_program(program, zero_state(n_qubits), row)[0] for row in np.atleast_2d(angles)]
    )


def gate_forward(model, states):
    """Class-1 readout probability of the QCNN, gate by gate."""
    gates, readout = build_program(model)
    out = run_program(gates, np.atleast_2d(states), model.params)
    return 0.5 * (1.0 - z_expectation(out, readout))


def tpe4_density_probability(model, angles):
    """Class-1 probability of a 4-qubit QCNN on TPE inputs, by density matrices.

    Each input qubit is rho_k = |v_k><v_k| with v_k = Ry(x_k)|0>.  With U_1,
    U_2 the two layers' blocks from the gate lists (source = first tensor
    factor): rho_1' = Tr_0[U_1 (rho_0 (x) rho_1) U_1^dagger],
    rho_3' = Tr_2[U_1 (rho_2 (x) rho_3) U_1^dagger], and the readout is
    <1| Tr_1[U_2 (rho_1' (x) rho_3') U_2^dagger] |1>.
    """
    if model.n_qubits != 4:
        raise CircuitError("the density-matrix oracle is for 4 qubits")
    gates = conv_block_gates(1, 0, 0) + pool_block_gates(1, 0, PARAMS_PER_CONV)
    U1, U2 = (pair_unitary(gates, p) for p in model.params.reshape(2, PARAMS_PER_LAYER))

    def pool(U, source, target):
        rho = (U @ np.kron(source, target) @ U.conj().T).reshape(2, 2, 2, 2)
        return np.einsum("abac->bc", rho)  # trace over the source

    probabilities = []
    for row in np.atleast_2d(angles):
        v = [ry(x)[:, 0] for x in row]
        rho = [np.outer(vk, vk.conj()) for vk in v]
        readout = pool(U2, pool(U1, rho[0], rho[1]), pool(U1, rho[2], rho[3]))
        probabilities.append(readout[1, 1].real)
    return np.array(probabilities)


def fold(U):
    """U rho U^dagger and the trace over the pooled qubit a as one 4x16 matrix
    K[(b b'), (p p' q q')] = sum_a U[(a b), (p q)] conj U[(a b'), (p' q')]."""
    U4 = U.reshape(2, 2, 2, 2)
    return np.einsum("abpq,acrs->bcprqs", U4, U4.conj()).reshape(4, 16)


def outer_product_first_layer(U, sites):
    """The QCNN tree's first layer by the outer-product route.

    With the two-site tensor X[l, p, q, r] = sum_m A[l, p, m] A'[m, q, r] of
    each site pair, its real outer product
    T[(l l'), (p p' q q'), (r r')] = X[l, p, q, r] X[l', p', q', r'] is
    folded by K = fold(U) into the segments K T,
    (batch, n/2, chi^2, 2, 2, chi^2).  Returns (T, segments).
    """
    X = np.einsum("xslpm,xsmqr->xslpqr", sites[:, 0::2], sites[:, 1::2])
    batch, s, chi = X.shape[:3]
    T = np.einsum("xslpqr,xsmuvt->xslmpuqvrt", X, X).reshape(batch, s, chi * chi, 16, chi * chi)
    segments = np.einsum("kj,xsljr->xslkr", fold(U), T)
    return T, segments.reshape(batch, s, chi * chi, 2, 2, chi * chi)


def outer_product_first_environment(U, T, lam):
    """The first layer's 4x4 environment from T of outer_product_first_layer
    and the adjoint lam of its segments:
    env[(a b), (p q)] = sum conj U[(a b'), (p' q')] H[(p p' q q'), (b b')] with
    H = sum of T[L, (p p' q q'), R] lam[L, (b b'), R] over the bonds, pairs
    and batch.  It serves any layer whose input T is folded by K = fold(U)."""
    H = np.einsum("xsljr,xslkr->jk", T, lam.reshape(T.shape[:3] + (4, T.shape[-1])))
    U4 = U.reshape(2, 2, 2, 2)
    return np.einsum("acrs,prqsbc->abpq", U4.conj(), H.reshape((2,) * 6)).reshape(4, 4)


def density_second_layer(U, segments):
    """The QCNN tree's second layer by the density route, from the first
    layer's segments (batch, n/2, L, 2, 2, L) at every bond: each
    neighbouring pair merges over its shared bond pair M into
    T[L, (p p' q q'), R] = sum_M S[L, p, p', M] S'[M, q, q', R], folded by
    K = fold(U) into the segments K T, (batch, n/4, L, 2, 2, R).  Returns
    (T, segments)."""
    T = np.einsum("xslpum,xsmqvr->xslpuqvr", segments[:, 0::2], segments[:, 1::2])
    batch, s, L, R = T.shape[0], T.shape[1], T.shape[2], T.shape[-1]
    T = T.reshape(batch, s, L, 16, R)
    return T, np.einsum("kj,xsljr->xslkr", fold(U), T).reshape(batch, s, L, 2, 2, R)


def density_first_two_environments(U, T1, segments, T2, lam):
    """The 4x4 environments (2, 4, 4) of the first two layers by the density
    route, from T1 of outer_product_first_layer, the first layer's segments,
    T2 of density_second_layer and lam, the adjoint of the second layer's
    segments.  lam is carried back through K and the merge, K^T lam = G and
    G[L, (p p'), (q q'), R] summed with the right operand over (q q' R) and
    with the left one over (L p p'), to the first layer's segments."""
    batch, s, L, _, R = T2.shape
    G = np.einsum("kj,xslkr->xsljr", fold(U[1]), lam.reshape(batch, s, L, 4, R))
    G = G.reshape(batch, s, L, 2, 2, 2, 2, R)
    lam_first = np.empty(segments.shape, complex)
    lam_first[:, 0::2] = np.einsum("xslpuqvr,xsmqvr->xslpum", G, segments[:, 1::2])
    lam_first[:, 1::2] = np.einsum("xslpuqvr,xslpum->xsmqvr", G, segments[:, 0::2])
    return np.array([
        outer_product_first_environment(U[0], T1, lam_first),
        outer_product_first_environment(U[1], T2, lam),
    ])


def serial_parameter_shift_gradient(model, states, labels):
    """Gradient of mean squared error via the two-point shift rule, one
    program per shift.

    Every occurrence of a shared parameter is shifted separately by +-pi/2
    and the contributions are accumulated, so weight sharing is handled
    exactly; the outer factor 2(p - y) comes from the chain rule through the
    readout probability.
    """
    states = np.atleast_2d(states)
    labels = np.asarray(labels, dtype=float)
    gates, readout = build_program(model)
    p0 = 0.5 * (1.0 - z_expectation(run_program(gates, states, model.params), readout))
    outer = 2.0 * (p0 - labels) / labels.size

    grad = np.zeros_like(model.params)
    for i, gate in enumerate(gates):
        if gate.param is None:
            continue
        plus = run_program(gates, states, model.params, shift_at=i, shift=np.pi / 2)
        minus = run_program(gates, states, model.params, shift_at=i, shift=-np.pi / 2)
        p_plus = 0.5 * (1.0 - z_expectation(plus, readout))
        p_minus = 0.5 * (1.0 - z_expectation(minus, readout))
        dp = 0.5 * (p_plus - p_minus)
        grad[gate.param] += np.sum(outer * dp)
    return grad


def parameter_shift_gradient(model, states, labels):
    """The shift rule of serial_parameter_shift_gradient, every program in
    one batch.

    With k parameterised gate occurrences, copy 0 of the batch runs
    unshifted and copies 2j + 1 and 2j + 2 shift occurrence j by +pi/2 and
    -pi/2: (1 + 2k) * batch rows.  The gate list is walked once; each gate
    applies its own matrix to every copy, and its shifted matrices to the
    two copies that shift it.
    """
    states = np.atleast_2d(states)
    labels = np.asarray(labels, dtype=float)
    gates, readout = build_program(model)
    params, batch = model.params, len(states)
    shifted = [i for i, gate in enumerate(gates) if gate.param is not None]
    copy = {i: 2 * j + 1 for j, i in enumerate(shifted)}  # its +pi/2 copy
    stack = np.tile(states, (1 + 2 * len(shifted), 1))
    for i, gate in enumerate(gates):
        out = apply_unitary(stack, gate.matrix(params), gate.qubits)
        if i in copy:
            for c, shift in ((copy[i], np.pi / 2), (copy[i] + 1, -np.pi / 2)):
                rows = slice(c * batch, (c + 1) * batch)
                matrix = replace(gate, offset=gate.offset + shift).matrix(params)
                out[rows] = apply_unitary(stack[rows], matrix, gate.qubits)
        stack = out
    p = 0.5 * (1.0 - z_expectation(stack, readout)).reshape(-1, batch)
    outer = 2.0 * (p[0] - labels) / labels.size
    dp = 0.5 * (p[1::2] - p[2::2])  # [occurrence, row]
    grad = np.zeros_like(params)
    np.add.at(grad, [gates[i].param for i in shifted], dp @ outer)
    return grad


def gate_generator(kind):
    """Pauli generator G of a rotation R(theta) = exp(-i theta G / 2)."""
    if kind == "rx":
        return np.array([[0, 1], [1, 0]], complex)
    if kind == "ry":
        return np.array([[0, -1j], [1j, 0]])
    return np.diag([1.0, -1.0]).astype(complex)


def gate_adjoint_gradient(model, states, labels):
    """Reverse-pass gradient of the mean squared error, gate by gate."""
    states = np.atleast_2d(states)
    labels = np.asarray(labels, dtype=float)
    gates, readout = build_program(model)
    params = model.params

    psi = run_program(gates, states, params)
    signs = 1.0 - 2.0 * ((np.arange(psi.shape[1]) >> readout) & 1)
    p = 0.5 * (1.0 - np.real(np.sum(signs * np.abs(psi) ** 2, axis=1)))
    outer = 2.0 * (p - labels) / labels.size

    # lam = (dL/dp) * P1 |psi>, with P1 the |1><1| projector on the readout qubit
    proj = 0.5 * (1.0 - signs)
    lam = (outer[:, None] * proj) * psi
    grad = np.zeros_like(params)
    for g in reversed(gates):
        U = g.matrix(params)
        psi = apply_unitary(psi, U.conj().T, g.qubits)
        if g.param is not None:
            dU = (-0.5j * gate_generator(g.kind)) @ U
            dpsi = apply_unitary(psi, dU, g.qubits)
            grad[g.param] += 2.0 * np.real(np.sum(np.conj(lam) * dpsi))
        lam = apply_unitary(lam, U.conj().T, g.qubits)
    return grad


# --- config file rendering ---


def format_config(values: dict) -> str:
    """Render a mapping back to the key=value file format."""
    lines = []
    for key in sorted(values):
        value = values[key]
        if isinstance(value, tuple):
            rendered = ", ".join(repr(float(v)) for v in value)
        elif value is None:
            rendered = "median"  # threshold is the one key that may be None
        elif isinstance(value, (float, np.floating)):
            rendered = repr(float(value))
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


# --- checkpoints ---


def load_model(path):
    """(model_name, params, metadata) of a checkpoint written by save_model."""
    record = _load_record(path, "model")
    with _fields(str(path)):
        return record["model"], np.array(record["params"]), record["metadata"]
