"""Independent reference implementations used by the tests.

Everything here is built from first principles with dense linear algebra on
the full 2^N space and deliberately avoids the package's own code paths:
operators are assembled from explicit Kronecker products, evolution uses a
dense matrix exponential, entropies come from a full outer-product partial
trace, and the free-field references use the single-particle correlation
matrix.  ``svd_entanglement_entropy`` keeps the per-state SVD of the
Schmidt blocks as the reference for the package's Gram eigenvalues batched
over states.  The package works on particle-number sectors; ``embed`` places a
sector state into the full space (at the basis states the package's
``Sector`` lists) so that it can be compared with these references.  The
circuit references simulate one gate at a time, ``format_config`` renders a
config mapping back to file text for the round-trip tests, and
``load_model`` reads back the checkpoints the CLI writes.
"""

from dataclasses import replace

import numpy as np
from scipy.linalg import expm

from scatterqml.circuits import CircuitError, Gate, apply_unitary, z_expectation
from scatterqml.observables import ObservableError, entanglement_entropy
from scatterqml.qcnn import (
    PARAMS_PER_CONV,
    PARAMS_PER_LAYER,
    PARAMS_PER_POOL,
    conv_block_gates,
    pool_block_gates,
)
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


def svd_entanglement_entropy(sector, state: np.ndarray, cut: int) -> float:
    """Entropy of sites {0..cut-1} of one sector state from the singular values
    of its Schmidt blocks, one SVD per block table."""
    svals = np.concatenate(
        [
            np.linalg.svd(state[ranks], compute_uv=False).ravel()
            for ranks in sector.schmidt_blocks(cut)
        ]
    )
    p = svals**2
    p = p[p > 1e-14]
    return float(-np.sum(p * np.log(p)))


def entropy_profile(sector, state: np.ndarray, vacuum_entropies: np.ndarray) -> np.ndarray:
    """Excess entropy at every cut 1..N-1 given precomputed vacuum entropies."""
    return np.array(
        [entanglement_entropy(sector, state, cut) for cut in range(1, sector.sites)]
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
# These build the encoding and QCNN gate programs here (conv and pool stages
# unfused) and run them one Gate at a time through the package's Gate matrices
# and apply_unitary (both checked against truth tables in test_circuits), so
# they are independent of the fused layer blocks, the environment-matrix
# gradient and the batched encoding they are compared with.


def zero_state(n_qubits, batch=1):
    state = np.zeros((batch, 1 << n_qubits), complex)
    state[:, 0] = 1.0
    return state


def count_cnots(gates):
    return sum(1 for g in gates if g.kind == "cnot")


def count_parameters(gates):
    return len({g.param for g in gates if g.param is not None})


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


def parameter_shift_gradient(model, states, labels):
    """Gradient of mean squared error via the two-point shift rule.

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
            rendered = "median" if key == "threshold" else "auto"
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
