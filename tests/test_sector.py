"""The particle-number sector backend against the dense full-space oracles."""

import numpy as np
import pytest

from scatterqml.lattice import (
    LatticeError,
    LatticeModel,
    apply_wavepacket_operator,
    build_hamiltonian,
    number_sector,
)
from scatterqml.observables import entanglement_entropy, site_densities

from oracles import (
    dense_entropy,
    dense_hamiltonian,
    dense_site_densities,
    embed,
    schmidt_blocks,
    sector_indices,
    site_annihilator,
)

SIZES = (4, 6, 8)


def _random_state(rng, sector):
    psi = rng.normal(size=sector.dimension) + 1j * rng.normal(size=sector.dimension)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("sites", SIZES)
def test_sector_basis_matches_number_operator(sites):
    for particles in range(sites + 1):
        sector = number_sector(sites, particles)
        assert np.array_equal(sector.states, sector_indices(sites, particles))
        assert np.array_equal(sector.index(sector.states), np.arange(sector.dimension))
    with pytest.raises(LatticeError):
        number_sector(sites, sites + 1)


@pytest.mark.parametrize("sites", SIZES)
def test_sector_hamiltonian_is_dense_hamiltonian_restricted(sites):
    mass, coupling = 0.35, 0.7
    ham = build_hamiltonian(LatticeModel(sites=sites, mass=mass, coupling=coupling))
    inside = sector_indices(sites, sites // 2)
    H_ref = dense_hamiltonian(sites, mass, coupling)[np.ix_(inside, inside)]
    assert np.abs(ham.matrix.toarray() - H_ref).max() < 1e-14


@pytest.mark.parametrize("sites", SIZES)
def test_wavepacket_operators_match_dense_ladder_products(rng, sites):
    half = number_sector(sites, sites // 2)
    psi = _random_state(rng, half)
    phi_c = rng.normal(size=sites) + 1j * rng.normal(size=sites)
    phi_d = rng.normal(size=sites) + 1j * rng.normal(size=sites)
    c = [site_annihilator(sites, n) for n in range(sites)]
    create = sum(phi_c[n] * c[n].conj().T for n in range(sites))
    annihilate = sum(phi_d[n] * c[n] for n in range(sites))

    above, created = apply_wavepacket_operator(half, psi, phi_c, "fermion")
    assert above.particles == sites // 2 + 1
    assert np.abs(embed(above, created) - create @ embed(half, psi)).max() < 1e-13

    back, pair = apply_wavepacket_operator(above, created, phi_d, "antifermion")
    assert back is half
    assert np.abs(embed(back, pair) - annihilate @ create @ embed(half, psi)).max() < 1e-13


@pytest.mark.parametrize("sites", SIZES)
def test_sector_observables_match_dense_oracles(rng, sites):
    sector = number_sector(sites, sites // 2)
    psi = _random_state(rng, sector)
    full = embed(sector, psi)
    assert np.abs(site_densities(sector, psi) - dense_site_densities(sites, full)).max() < 1e-12
    profile = entanglement_entropy(sector, psi)
    for cut in range(1, sites):
        assert abs(profile[cut - 1] - dense_entropy(full, cut)) < 1e-10


@pytest.mark.parametrize("sites", SIZES)
def test_schmidt_blocks_partition_the_sector(sites):
    sector = number_sector(sites, sites // 2)
    for cut in range(1, sites):
        stacks = schmidt_blocks(sector, cut)
        ranks = np.concatenate([stack.ravel() for stack in stacks])
        assert np.array_equal(np.sort(ranks), np.arange(sector.dimension))
        for grid in (grid for stack in stacks for grid in stack):
            left = sector.states[grid] & ((1 << cut) - 1)
            right = sector.states[grid] >> cut
            # one block: a fixed left particle number, and a product grid of
            # left and right configurations (either way round)
            assert len({int(x).bit_count() for x in left.ravel()}) == 1
            if not np.all(right == right[:, :1]):
                left, right = right, left
            assert np.all(right == right[:, :1]) and np.all(left == left[:1, :])


@pytest.mark.parametrize("sites, particles", [(4, 2), (7, 3), (8, 4)])
def test_mirror_reverses_the_sites(rng, sites, particles):
    sector = number_sector(sites, particles)
    assert np.array_equal(np.sort(sector.mirror), np.arange(sector.dimension))
    assert np.array_equal(sector.mirror[sector.mirror], np.arange(sector.dimension))
    psi = _random_state(rng, sector)
    mirrored = embed(sector, psi[sector.mirror]).reshape((2,) * sites)
    # the axes of the full-space tensor run from site sites-1 down to site 0
    assert np.array_equal(mirrored, embed(sector, psi).reshape((2,) * sites).transpose())
