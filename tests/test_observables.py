import re

import numpy as np
import pytest

from scatterqml.evolution import trajectory
from scatterqml.lattice import (
    LatticeModel,
    WavepacketSpec,
    build_hamiltonian,
    free_modes,
    ground_state,
    number_sector,
    prepare_scattering_state,
)
from scatterqml.observables import (
    ObservableError,
    entanglement_entropy,
    site_densities,
)

from oracles import (
    dense_entropy,
    dense_reduced_density,
    dense_site_densities,
    embed,
    entropy_profile,
    reduced_density_matrix,
    site_number_diagonals,
    svd_entanglement_entropy,
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


def test_reduced_density_matrix_matches_partial_trace_oracle(rng):
    psi = _random_state(rng, 6)
    for cut in (1, 3, 5):
        rho = reduced_density_matrix(psi, cut)
        ref = dense_reduced_density(psi, cut)
        assert np.abs(rho - ref).max() < 1e-12
        vals = np.linalg.eigvalsh(rho)
        assert vals.min() > -1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-12


# a log(0) or a negative Schmidt probability would raise a RuntimeWarning
@pytest.mark.filterwarnings("error")
def test_product_state_has_zero_entropy():
    sector = number_sector(4, 2)
    psi = _basis_state(sector, 0b1010)
    stack = np.array([psi, _basis_state(sector, 0b0011)])
    assert entanglement_entropy(sector, psi).max() < 1e-14
    assert np.abs(entanglement_entropy(sector, stack)).max() < 1e-14


@pytest.mark.filterwarnings("error")
def test_bell_and_ghz_cuts_give_ln2():
    pair = number_sector(2, 1)
    bell = (_basis_state(pair, 0b01) + _basis_state(pair, 0b10)) / np.sqrt(2)
    assert abs(entanglement_entropy(pair, bell)[0] - np.log(2)) < 1e-12
    stack = np.array([bell, _basis_state(pair, 0b01)])
    assert np.abs(entanglement_entropy(pair, stack)[:, 0] - [np.log(2), 0.0]).max() < 1e-12
    sector = number_sector(4, 2)
    ghz = (_basis_state(sector, 0b0011) + _basis_state(sector, 0b1100)) / np.sqrt(2)
    assert abs(entanglement_entropy(sector, ghz)[1] - np.log(2)) < 1e-12
    rho = reduced_density_matrix(embed(sector, ghz), 2)
    assert abs(von_neumann_entropy(rho) - np.log(2)) < 1e-12


@pytest.mark.parametrize("sites", (4, 6, 8))
def test_stacked_observables_match_per_state_oracles(rng, sites):
    sector = number_sector(sites, sites // 2)
    stack = np.array([_random_sector_state(rng, sector) for _ in range(5)])
    densities = site_densities(sector, stack)
    assert densities.shape == (5, sites)
    for psi, row in zip(stack, densities):
        assert np.abs(row - dense_site_densities(sites, embed(sector, psi))).max() < 1e-12
    profiles = entanglement_entropy(sector, stack)
    assert profiles.shape == (5, sites - 1)
    for cut in range(1, sites):
        entropies = profiles[:, cut - 1]
        svd = [svd_entanglement_entropy(sector, psi, cut) for psi in stack]
        assert np.abs(entropies - svd).max() < 1e-12
        dense = [dense_entropy(embed(sector, psi), cut) for psi in stack]
        assert np.abs(entropies - dense).max() < 1e-10


def _svd_profiles(sector, stack):
    cuts = range(1, sector.sites)
    return np.array([[svd_entanglement_entropy(sector, psi, c) for c in cuts] for psi in stack])


@pytest.mark.parametrize("sites", range(2, 13))
def test_profile_matches_per_cut_svd_in_every_sector(rng, sites):
    """Odd chains and fillings off half filling included: the chain's blocks
    may then be the larger side of a cut."""
    for particles in range(sites + 1):
        sector = number_sector(sites, particles)
        stack = np.array([_random_sector_state(rng, sector) for _ in range(3)])
        reference = _svd_profiles(sector, stack)
        assert np.abs(entanglement_entropy(sector, stack[0]) - reference[0]).max() < 1e-12
        assert np.abs(entanglement_entropy(sector, stack) - reference).max() < 1e-12


def test_profile_of_an_n14_chunk_matches_per_cut_svd(rng):
    sector = number_sector(14, 7)
    stack = np.array([_random_sector_state(rng, sector) for _ in range(16)])
    profiles = entanglement_entropy(sector, stack)
    assert profiles.shape == (16, 13)
    assert np.abs(profiles - _svd_profiles(sector, stack)).max() < 1e-12


def test_trajectory_stack_matches_per_state_oracles():
    """48 times of an N=12 collision, evaluated as one stack."""
    model = LatticeModel(sites=12, mass=0.4, coupling=0.6)
    ham = build_hamiltonian(model)
    sector = ham.sector
    vacuum, _ = ground_state(ham)
    fer = WavepacketSpec("fermion", 3.0, 0.9, 0.4)
    anti = WavepacketSpec("antifermion", 9.0, -0.9, 0.4)
    psi0 = prepare_scattering_state(ham, vacuum, free_modes(model), fer, anti)
    stack = np.concatenate([states for _, states in trajectory(ham, psi0, 0.5 * np.arange(1, 49))])
    occupations = site_number_diagonals(12)
    reference = np.array([occupations @ np.abs(embed(sector, psi)) ** 2 for psi in stack])
    assert np.abs(site_densities(sector, stack) - reference).max() < 1e-12
    profiles = entanglement_entropy(sector, stack)
    for cut in range(1, 12):
        svd = [svd_entanglement_entropy(sector, psi, cut) for psi in stack]
        assert np.abs(profiles[:, cut - 1] - svd).max() < 1e-12


def test_left_right_symmetry(rng):
    sector = number_sector(8, 4)
    psi = _random_sector_state(rng, sector)
    full = embed(sector, psi)
    profile = entanglement_entropy(sector, psi)
    for cut in range(1, 8):
        left = profile[cut - 1]
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
    profile = entanglement_entropy(sector, psi)
    for cut in (1, 2, 3, 4, 5):
        assert abs(profile[cut - 1] - dense_entropy(full, cut)) < 1e-10


def test_entropy_profile_and_excess(rng):
    model = LatticeModel(sites=6, mass=0.3, coupling=0.5)
    ham = build_hamiltonian(model)
    sector = ham.sector
    vac, _ = ground_state(ham)
    vac_entropies = entanglement_entropy(sector, vac)
    profile = entropy_profile(sector, vac, vac_entropies)
    assert np.abs(profile).max() < 1e-14
    psi = _random_sector_state(rng, sector)
    excess = entanglement_entropy(sector, psi) - vac_entropies
    assert excess.shape == (5,)
    assert np.abs(entropy_profile(sector, psi, vac_entropies) - excess).max() < 1e-12


def test_profile_has_one_column_per_cut(rng):
    sector = number_sector(4, 2)
    psi = _random_sector_state(rng, sector)
    assert entanglement_entropy(sector, psi).shape == (3,)
    assert entanglement_entropy(sector, np.array([psi, psi])).shape == (2, 3)
    assert entanglement_entropy(sector, psi[None]).shape == (1, 3)


def test_state_outside_its_sector_raises(rng):
    psi = _random_state(rng, 4)  # a full-space vector, not a sector state
    with pytest.raises(ObservableError):
        entanglement_entropy(number_sector(4, 2), psi)
    with pytest.raises(ObservableError):
        site_densities(number_sector(4, 2), psi)


def test_one_state_or_a_stack_of_states_is_accepted(rng):
    sector = number_sector(6, 3)
    stack = np.array([_random_sector_state(rng, sector) for _ in range(3)])
    assert site_densities(sector, stack[0]).shape == (6,)
    assert site_densities(sector, stack).shape == (3, 6)
    assert entanglement_entropy(sector, stack[0]).shape == (5,)
    assert entanglement_entropy(sector, stack).shape == (3, 5)


@pytest.mark.parametrize("shape", [(3, 21), (2, 3, 20), ()])
def test_other_state_shapes_raise_naming_the_shape(shape):
    sector = number_sector(6, 3)  # dimension 20
    states = np.ones(shape, complex)
    with pytest.raises(ObservableError, match=re.escape(str(shape))):
        site_densities(sector, states)
    with pytest.raises(ObservableError, match=re.escape(str(shape))):
        entanglement_entropy(sector, states)


def test_non_normalized_density_matrix_rejected():
    with pytest.raises(ObservableError):
        von_neumann_entropy(np.eye(2))
