"""Staggered lattice fermion model: Hamiltonian, modes, wave packets, vacuum.

The model is a one-dimensional staggered (Kogut-Susskind) fermion chain with
nearest-neighbour imaginary hopping i/2, alternating mass term and a
density-density coupling between neighbouring sites, mapped to qubits by the
Jordan-Wigner transformation with open boundaries.  Basis states are integers
whose bit n holds the occupation of site n.

The Hamiltonian conserves the particle number, so states live in one
particle-number sector (see ``Sector``): the vacuum and the scattering state
in the half-filling sector, the state between the two wave-packet operators
in the sector with one more particle.  A state is the vector of its sector's
amplitudes; no operator or state is ever built on the full 2^N space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh


class LatticeError(ValueError):
    """Invalid lattice configuration or operator application."""


MAX_SITES = 14  # largest lattice any test or benchmark covers
GROUND_STATE_RESIDUAL = 1e-9  # largest accepted |H v - E v| of the ground state
GROUND_STATE_MAXITER = 20000  # Lanczos iterations allowed to eigsh


def check_sites(sites: int) -> None:
    """Reject a site count the lattice cannot hold: it must be even, >= 4 and
    <= MAX_SITES."""
    if sites % 2 != 0 or sites < 4:
        raise LatticeError(f"sites must be even and >= 4, got {sites}")
    if sites > MAX_SITES:
        raise LatticeError(f"sites must be <= {MAX_SITES}, got {sites}")


@dataclass(frozen=True)
class LatticeModel:
    """Lattice size and couplings, in units of the lattice spacing."""

    sites: int
    mass: float
    coupling: float

    def __post_init__(self):
        check_sites(self.sites)
        if not (np.isfinite(self.mass) and np.isfinite(self.coupling)):
            raise LatticeError(
                f"mass and coupling must be finite, got {self.mass} and {self.coupling}"
            )


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian wave packet: species, position/momentum centre, momentum width."""

    species: str  # "fermion" | "antifermion"
    position_center: float
    momentum_center: float
    momentum_width: float

    def __post_init__(self):
        if self.species not in ("fermion", "antifermion"):
            raise LatticeError(f"unknown species {self.species!r}")
        if not (np.isfinite(self.position_center) and np.isfinite(self.momentum_width)):
            raise LatticeError("position_center and momentum_width must be finite")
        if self.momentum_width <= 0:
            raise LatticeError("momentum_width must be positive")
        if not (-np.pi < self.momentum_center <= np.pi):
            raise LatticeError("momentum_center outside the first Brillouin zone")


@dataclass(frozen=True, eq=False)
class Sector:
    """Basis of one particle-number sector: the bitstrings of `particles`
    occupied sites among `sites`, ranked in ascending order.

    A sector state is the vector of amplitudes over this basis.  Sectors are
    built once per (sites, particles) by ``number_sector`` and shared.
    """

    sites: int
    particles: int
    states: np.ndarray = field(repr=False)  # ascending bitstrings; position = rank

    @property
    def dimension(self) -> int:
        return self.states.size

    def index(self, bitstrings: np.ndarray) -> np.ndarray:
        """Ranks of bitstrings that belong to the sector."""
        return np.searchsorted(self.states, bitstrings)

    @functools.cached_property
    def occupations(self) -> np.ndarray:
        """(sites, dimension) matrix: entry (n, i) is the occupation of site n in state i."""
        return ((self.states >> np.arange(self.sites)[:, None]) & 1).astype(float)

    @functools.cached_property
    def mirror(self) -> np.ndarray:
        """Ranks of the site-mirrored basis states: ``state[sector.mirror]`` is
        the state with site n moved to site sites-1-n."""
        mirrored = np.zeros_like(self.states)
        for n in range(self.sites):
            mirrored |= ((self.states >> n) & 1) << (self.sites - 1 - n)
        return self.index(mirrored)


@functools.lru_cache(maxsize=None)
def number_sector(sites: int, particles: int) -> Sector:
    """The (cached) sector of `particles` fermions on `sites` sites."""
    if not 0 <= particles <= sites:
        raise LatticeError(f"{particles} particles do not fit on {sites} sites")
    states = np.arange(1 << sites, dtype=np.int64)
    return Sector(sites, particles, states[np.bitwise_count(states) == particles])


@dataclass
class SparseHamiltonian:
    """Sparse Hermitian Hamiltonian on the half-filling sector."""

    sector: Sector
    matrix: sp.csr_matrix

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def apply(self, psi):
        return self.matrix @ psi


def build_hamiltonian(model: LatticeModel) -> SparseHamiltonian:
    """Jordan-Wigner image of the staggered Hamiltonian with open boundaries,
    built directly on the half-filling sector.

    Hopping (i/2)(xi_{n+1}^dag xi_n - h.c.) carries no string sign on adjacent
    sites and keeps the particle number; mass and interaction terms are
    diagonal in the occupation basis.  The mass and hopping amplitudes are
    the entries of single_particle_matrix.
    """
    N = model.sites
    basis = number_sector(N, N // 2)
    states = basis.states
    occ = basis.occupations
    ranks = np.arange(basis.dimension)
    h = single_particle_matrix(model)

    diag = np.zeros(basis.dimension)
    for n in range(N):
        diag += h[n, n].real * occ[n]
    for n in range(N - 1):
        diag += model.coupling * (occ[n] * occ[n + 1])

    rows, cols, vals = [ranks], [ranks], [diag]
    for n in range(N - 1):
        # xi_{n+1}^dag xi_n : bit n set, bit n+1 clear
        mask = (occ[n] == 1) & (occ[n + 1] == 0)
        src = ranks[mask]
        dst = basis.index(states[mask] ^ (1 << n) ^ (1 << (n + 1)))
        rows += [dst, src]
        cols += [src, dst]
        vals += [np.full(src.shape, h[n + 1, n]), np.full(src.shape, h[n, n + 1])]

    H = sp.coo_matrix(
        (np.concatenate(vals).astype(complex), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dimension, basis.dimension),
    ).tocsr()
    return SparseHamiltonian(sector=basis, matrix=H)


def single_particle_matrix(model: LatticeModel) -> np.ndarray:
    """N x N quadratic (coupling-independent) part of the Hamiltonian."""
    N = model.sites
    h = np.zeros((N, N), complex)
    for n in range(N - 1):
        h[n + 1, n] = 0.5j
        h[n, n + 1] = -0.5j
    for n in range(N):
        h[n, n] = (-1) ** n * model.mass
    return h


@dataclass
class SingleParticleModes:
    """Eigenmodes of the quadratic single-particle matrix.

    Positive-energy modes define fermion orbitals, negative-energy ones the
    filled Dirac sea (antifermion orbitals).
    """

    energies: np.ndarray  # ascending
    vectors: np.ndarray  # orthonormal columns, matching energies

    @property
    def negative(self):
        return self.vectors[:, self.energies < 0]

    @property
    def positive(self):
        return self.vectors[:, self.energies > 0]


def free_modes(model: LatticeModel) -> SingleParticleModes:
    """Diagonalize the quadratic part of the Hamiltonian."""
    if model.mass <= 0:
        raise LatticeError("free_modes requires a positive mass")
    energies, vectors = np.linalg.eigh(single_particle_matrix(model))
    if np.min(np.abs(energies)) < 1e-10:
        raise LatticeError("zero single-particle energy: ambiguous particle/hole split")
    return SingleParticleModes(energies, vectors)


def momentum_coefficients(spec: WavepacketSpec, kgrid: np.ndarray) -> np.ndarray:
    """Normalized Gaussian momentum-space coefficients on a momentum grid."""
    phi = np.exp(-1j * kgrid * spec.position_center) * np.exp(
        -((kgrid - spec.momentum_center) ** 2) / (4 * spec.momentum_width**2)
    )
    return phi / np.linalg.norm(phi)


def gaussian_wavepacket(spec: WavepacketSpec, modes: SingleParticleModes) -> np.ndarray:
    """Position-space coefficients of a Gaussian wave packet, unit norm.

    The Gaussian momentum profile is Fourier-transformed to position space and
    projected onto the eigenspace of the matching species.  For the
    antifermion the packet describes the orbital removed from the Dirac sea:
    its orbital momentum centre sits at -(pi + mu_k), which folds back to the
    physical antifermion momentum mu_k in the reduced zone, and the returned
    coefficients are the conjugate of that orbital so that
    sum_n phi_n xi_n annihilates it.
    """
    N = modes.vectors.shape[0]
    if not (0 <= spec.position_center <= N - 1):
        raise LatticeError("position_center outside the lattice")
    kgrid = 2 * np.pi * np.arange(-N // 2, N // 2) / N

    if spec.species == "fermion":
        orbital_center = spec.momentum_center
        projector_basis = modes.positive
    else:
        orbital_center = -(np.pi + spec.momentum_center)
        if orbital_center <= -np.pi:
            orbital_center += 2 * np.pi
        projector_basis = modes.negative

    phi_k = momentum_coefficients(replace(spec, momentum_center=orbital_center), kgrid)
    raw = np.exp(1j * np.outer(np.arange(N), kgrid)) @ phi_k
    projected = projector_basis @ (projector_basis.conj().T @ raw)
    norm = np.linalg.norm(projected)
    if norm < 1e-8:
        raise LatticeError("wave packet has no weight in the requested species band")
    orbital = projected / norm
    return orbital.conj() if spec.species == "antifermion" else orbital


def ground_state(ham: SparseHamiltonian):
    """Ground state of the half-filling sector.

    Returns (sector amplitudes, energy).  Raises on non-convergence or
    degeneracy of the two lowest sector eigenvalues.
    """
    H = ham.matrix
    # deterministic start vector so repeated runs are bit-identical
    v0 = np.ones(ham.dimension) / np.sqrt(ham.dimension)
    vals, vecs = eigsh(H, k=2, which="SA", tol=0, maxiter=GROUND_STATE_MAXITER, v0=v0)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    if vals[1] - vals[0] < 1e-10:
        raise LatticeError("ground state degenerate within 1e-10")
    energy = vals[0]
    v = vecs[:, 0].astype(complex)
    pivot = np.argmax(np.abs(v))
    v *= np.exp(-1j * np.angle(v[pivot]))  # fix the global phase
    residual = np.linalg.norm(H @ v - energy * v)
    if residual > GROUND_STATE_RESIDUAL:
        raise LatticeError(
            f"ground-state residual {residual:.2e} above {GROUND_STATE_RESIDUAL:.0e}"
        )
    return v / np.linalg.norm(v), float(energy)


def apply_wavepacket_operator(
    basis: Sector, state: np.ndarray, coeffs: np.ndarray, species: str
) -> tuple[Sector, np.ndarray]:
    """Apply sum_n phi_n xi_n^dag (fermion) or sum_n phi_n xi_n (antifermion).

    The operator maps a state of `basis` to the sector with one particle more
    (fermion) or fewer (antifermion); returns (that sector, its amplitudes).
    Jordan-Wigner sign strings run over sites below the acted site.  The
    result is not renormalized; a norm below 1e-8 raises.
    """
    N = basis.sites
    if coeffs.shape != (N,):
        raise LatticeError("coefficient vector length does not match the state")
    if state.shape != (basis.dimension,):
        raise LatticeError("state length does not match its sector")
    create = species == "fermion"
    target = number_sector(N, basis.particles + (1 if create else -1))
    out = np.zeros(target.dimension, complex)
    for n in range(N):
        if coeffs[n] == 0:
            continue
        src = np.flatnonzero(((basis.states >> n) & 1) == (0 if create else 1))
        below = basis.states[src] & ((1 << n) - 1)
        sign = 1.0 - 2.0 * (np.bitwise_count(below) & 1)
        # each source state reaches a distinct target state for a fixed site
        out[target.index(basis.states[src] ^ (1 << n))] += coeffs[n] * sign * state[src]
    if np.linalg.norm(out) < 1e-8:
        raise LatticeError("wave-packet operator annihilates the state")
    return target, out


def prepare_scattering_state(
    ham: SparseHamiltonian,
    vacuum: np.ndarray,
    modes: SingleParticleModes,
    fermion: WavepacketSpec,
    antifermion: WavepacketSpec,
) -> np.ndarray:
    """Normalized scattering state: antifermion and fermion packets on the vacuum.

    The vacuum (ground_state of `ham`) and the result are half-filling sector
    states of `ham`; `modes` are the free_modes of its model.
    """
    sigma_x = 1.0 / (2.0 * min(fermion.momentum_width, antifermion.momentum_width))
    if abs(fermion.position_center - antifermion.position_center) < 4 * sigma_x:
        raise LatticeError("wave packets are not spatially separated")
    phi_c = gaussian_wavepacket(fermion, modes)
    phi_d = gaussian_wavepacket(antifermion, modes)
    basis, psi = apply_wavepacket_operator(ham.sector, vacuum, phi_c, "fermion")
    _, psi = apply_wavepacket_operator(basis, psi, phi_d, "antifermion")
    return psi / np.linalg.norm(psi)
