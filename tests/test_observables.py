import numpy as np
import pytest

from scatterqml.lattice import LatticeModel, build_hamiltonian, ground_state, number_sector
from scatterqml.observables import (
    ObservableError,
    entanglement_entropy,
    excess_density,
    excess_entropy,
    site_densities,
)

from oracles import (
    dense_entropy,
    dense_reduced_density,
    dense_site_densities,
    embed,
    entropy_profile,
    reduced_density_matrix,
    von_neumann_entropy,
)


def _random_state(rng, n_qubits):
    psi = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return psi / np.linalg.norm(psi)


def _random_sector_state(rng, sector):
    psi = rng.normal(size=sector.dimension) + 1j * rng.normal(size=sector.dimension)
    return psi / np.linalg.norm(psi)


def _basis_state(sector, bitstring):
    psi = np.zeros(sector.dimension, complex)
    psi[sector.index(bitstring)] = 1.0
    return psi


def test_site_densities_match_dense_operators(rng):
    sector = number_sector(6, 3)
    psi = _random_sector_state(rng, sector)
    ref = dense_site_densities(6, embed(sector, psi))
    assert np.abs(site_densities(sector, psi) - ref).max() < 1e-12


def test_excess_density_of_vacuum_is_zero():
    model = LatticeModel(sites=6, mass=0.3, coupling=0.4)
    ham = build_hamiltonian(model)
    vac, _ = ground_state(ham)
    assert np.abs(excess_density(ham.sector, vac, vac)).max() == 0.0


def test_reduced_density_matrix_matches_partial_trace_oracle(rng):
    psi = _random_state(rng, 6)
    for cut in (1, 3, 5):
        rho = reduced_density_matrix(psi, cut)
        ref = dense_reduced_density(psi, cut)
        assert np.abs(rho - ref).max() < 1e-12
        vals = np.linalg.eigvalsh(rho)
        assert vals.min() > -1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_product_state_has_zero_entropy():
    sector = number_sector(4, 2)
    psi = _basis_state(sector, 0b1010)
    for cut in (1, 2, 3):
        assert entanglement_entropy(sector, psi, cut) < 1e-14


def test_bell_and_ghz_cuts_give_ln2():
    pair = number_sector(2, 1)
    bell = (_basis_state(pair, 0b01) + _basis_state(pair, 0b10)) / np.sqrt(2)
    assert abs(entanglement_entropy(pair, bell, 1) - np.log(2)) < 1e-12
    sector = number_sector(4, 2)
    ghz = (_basis_state(sector, 0b0011) + _basis_state(sector, 0b1100)) / np.sqrt(2)
    assert abs(entanglement_entropy(sector, ghz, 2) - np.log(2)) < 1e-12
    rho = reduced_density_matrix(embed(sector, ghz), 2)
    assert abs(von_neumann_entropy(rho) - np.log(2)) < 1e-12


def test_left_right_symmetry(rng):
    sector = number_sector(8, 4)
    psi = _random_sector_state(rng, sector)
    full = embed(sector, psi)
    for cut in range(1, 8):
        left = entanglement_entropy(sector, psi, cut)
        # complementary block entropy via the svd of the transposed split
        right = von_neumann_entropy(
            np.einsum(
                "ij,kj->ik",
                full.reshape(1 << (8 - cut), 1 << cut),
                full.reshape(1 << (8 - cut), 1 << cut).conj(),
            )
        )
        assert abs(left - right) < 1e-10


def test_entropy_matches_dense_oracle(rng):
    sector = number_sector(6, 3)
    psi = _random_sector_state(rng, sector)
    full = embed(sector, psi)
    for cut in (1, 2, 3, 4, 5):
        assert abs(entanglement_entropy(sector, psi, cut) - dense_entropy(full, cut)) < 1e-10


def test_entropy_profile_and_excess(rng):
    model = LatticeModel(sites=6, mass=0.3, coupling=0.5)
    ham = build_hamiltonian(model)
    sector = ham.sector
    vac, _ = ground_state(ham)
    vac_entropies = np.array([entanglement_entropy(sector, vac, c) for c in range(1, 6)])
    profile = entropy_profile(sector, vac, vac_entropies)
    assert np.abs(profile).max() < 1e-14
    psi = _random_sector_state(rng, sector)
    for i, cut in enumerate(range(1, 6)):
        assert abs(
            entropy_profile(sector, psi, vac_entropies)[i]
            - excess_entropy(sector, psi, vac, cut)
        ) < 1e-12


def test_invalid_cut_raises(rng):
    sector = number_sector(4, 2)
    psi = _random_sector_state(rng, sector)
    with pytest.raises(ObservableError):
        entanglement_entropy(sector, psi, 0)
    with pytest.raises(ObservableError):
        entanglement_entropy(sector, psi, 4)


def test_state_outside_its_sector_raises(rng):
    psi = _random_state(rng, 4)  # a full-space vector, not a sector state
    with pytest.raises(ObservableError):
        entanglement_entropy(number_sector(4, 2), psi, 2)
    with pytest.raises(ObservableError):
        site_densities(number_sector(4, 2), psi)


def test_non_normalized_density_matrix_rejected():
    with pytest.raises(ObservableError):
        von_neumann_entropy(np.eye(2))
