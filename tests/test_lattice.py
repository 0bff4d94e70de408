import numpy as np
import pytest

from scatterqml.lattice import (
    LatticeError,
    LatticeModel,
    WavepacketSpec,
    apply_wavepacket_operator,
    build_hamiltonian,
    free_modes,
    gaussian_wavepacket,
    ground_state,
    momentum_coefficients,
    number_sector,
    prepare_scattering_state,
    single_particle_matrix,
)
from scatterqml.observables import site_densities

from oracles import (
    dense_ground_state,
    dense_hamiltonian,
    dominant_momenta,
    embed,
    ff_single_particle,
    sector_indices,
    total_number_expectation,
)


def test_model_validation():
    with pytest.raises(LatticeError):
        LatticeModel(sites=5, mass=0.1, coupling=0.1)
    with pytest.raises(LatticeError):
        LatticeModel(sites=2, mass=0.1, coupling=0.1)
    with pytest.raises(LatticeError):
        LatticeModel(sites=16, mass=0.1, coupling=0.1)


@pytest.mark.parametrize("field", ["mass", "coupling"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_model_rejects_non_finite_couplings(field, value):
    kwargs = {"sites": 8, "mass": 0.4, "coupling": 0.5, field: value}
    with pytest.raises(LatticeError, match="finite"):
        LatticeModel(**kwargs)


@pytest.mark.parametrize("field", ["position_center", "momentum_width"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_wavepacket_rejects_non_finite_inputs(field, value):
    kwargs = {"species": "fermion", "position_center": 2.0, "momentum_center": 0.9,
              "momentum_width": 0.4, field: value}
    with pytest.raises(LatticeError, match="finite"):
        WavepacketSpec(**kwargs)


@pytest.mark.parametrize("mass,coupling", [(0.0, 0.0), (0.7, 0.0), (0.3, 0.9)])
def test_hamiltonian_matches_dense_operator_construction(mass, coupling):
    model = LatticeModel(sites=6, mass=mass, coupling=coupling)
    H = build_hamiltonian(model).matrix.toarray()
    sector = sector_indices(6, 3)
    H_ref = dense_hamiltonian(6, mass, coupling)[np.ix_(sector, sector)]
    assert np.abs(H - H_ref).max() < 1e-12


def test_hamiltonian_is_hermitian_and_number_conserving():
    model = LatticeModel(sites=8, mass=0.4, coupling=0.6)
    ham = build_hamiltonian(model)
    H = ham.matrix
    assert np.abs((H - H.conj().T).toarray()).max() < 1e-14
    # the dense operator connects no half-filling state to another sector, so
    # the sector Hamiltonian is all of H acting on half-filling states
    inside = sector_indices(8, 4)
    outside = np.setdiff1d(np.arange(1 << 8), inside)
    assert np.abs(dense_hamiltonian(8, 0.4, 0.6)[np.ix_(outside, inside)]).max() == 0.0
    assert np.array_equal(ham.sector.states, inside)


def test_single_particle_two_site_eigenvalues():
    # 2x2 hopping-only block: eigenvalues +-1/2; with unit mass +-sqrt(5)/2
    h0 = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    assert np.allclose(np.linalg.eigvalsh(h0), [-0.5, 0.5], atol=1e-12)
    h1 = ff_single_particle(2, 1.0)
    ref = np.sqrt(5) / 2
    assert np.allclose(np.linalg.eigvalsh(h1), [-ref, ref], atol=1e-12)


def test_single_particle_dispersion():
    # bulk eigenvalues track +-sqrt(m^2 + sin^2 k) up to boundary effects
    model = LatticeModel(sites=14, mass=0.5, coupling=0.0)
    modes = free_modes(model)
    predicted = np.sign(modes.energies) * np.sqrt(
        model.mass**2 + np.sin(dominant_momenta(modes.vectors)) ** 2
    )
    assert np.abs(np.sort(predicted) - modes.energies).max() < 0.12


def test_free_modes_requires_positive_mass():
    with pytest.raises(LatticeError):
        free_modes(LatticeModel(sites=8, mass=0.0, coupling=0.0))


def test_momentum_coefficients_narrow_packet_peaks_on_grid():
    N = 12
    kgrid = 2 * np.pi * np.arange(-N // 2, N // 2) / N
    k_star = kgrid[8]
    spec = WavepacketSpec("fermion", 6.0, float(k_star), momentum_width=0.05)
    phi = momentum_coefficients(spec, kgrid)
    assert np.abs(phi[8]) ** 2 > 0.99


def test_ground_state_matches_dense_oracle():
    model = LatticeModel(sites=6, mass=0.4, coupling=0.5)
    ham = build_hamiltonian(model)
    psi, e0 = ground_state(ham)
    _, e_ref = dense_ground_state(6, 0.4, 0.5)
    assert abs(e0 - e_ref) < 1e-8
    assert abs(total_number_expectation(embed(ham.sector, psi)) - 3.0) < 1e-9


def test_free_ground_state_energy_is_sea_filling():
    model = LatticeModel(sites=8, mass=0.6, coupling=0.0)
    ham = build_hamiltonian(model)
    _, e0 = ground_state(ham)
    modes = free_modes(model)
    assert abs(e0 - modes.energies[modes.energies < 0].sum()) < 1e-8


def test_half_filling_sector_size():
    ham = build_hamiltonian(LatticeModel(sites=8, mass=0.3, coupling=0.2))
    from math import comb

    assert ham.dimension == sector_indices(8, 4).size == comb(8, 4)
    assert number_sector(8, 4) is ham.sector  # built once, then shared


def test_wavepacket_is_normalized_and_localized():
    model = LatticeModel(sites=12, mass=0.4, coupling=0.0)
    modes = free_modes(model)
    phi = gaussian_wavepacket(WavepacketSpec("fermion", 3.0, 0.9, 0.4), modes)
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-12
    weights = np.abs(phi) ** 2
    centroid = np.sum(np.arange(12) * weights)
    assert abs(centroid - 3.0) < 1.0


def test_fermion_packet_creation_weight_free_case():
    # for g=0 the packet lies in the positive band, so creating it on the
    # vacuum preserves the norm
    model = LatticeModel(sites=8, mass=0.5, coupling=0.0)
    ham = build_hamiltonian(model)
    vacuum, _ = ground_state(ham)
    modes = free_modes(model)
    phi = gaussian_wavepacket(WavepacketSpec("fermion", 2.0, 0.9, 0.7), modes)
    sector, created = apply_wavepacket_operator(ham.sector, vacuum, phi, "fermion")
    assert sector.particles == 5
    assert abs(np.linalg.norm(created) - 1.0) < 1e-9


def test_scattering_state_properties():
    model = LatticeModel(sites=10, mass=0.4, coupling=0.3)
    ham = build_hamiltonian(model)
    vacuum, _ = ground_state(ham)
    fer = WavepacketSpec("fermion", 2.0, 0.9, 0.6)
    anti = WavepacketSpec("antifermion", 7.0, -0.9, 0.6)
    psi = prepare_scattering_state(ham, vacuum, free_modes(model), fer, anti)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    # charge neutrality: one particle added, one removed
    excess = site_densities(ham.sector, psi) - site_densities(ham.sector, vacuum)
    assert abs(excess.sum()) < 1e-9
    assert abs(
        total_number_expectation(embed(ham.sector, psi))
        - total_number_expectation(embed(ham.sector, vacuum))
    ) < 1e-9


def test_scattering_state_rejects_overlapping_packets():
    model = LatticeModel(sites=8, mass=0.4, coupling=0.3)
    ham = build_hamiltonian(model)
    vacuum, _ = ground_state(ham)
    fer = WavepacketSpec("fermion", 3.0, 0.9, 0.4)
    anti = WavepacketSpec("antifermion", 5.0, -0.9, 0.4)
    with pytest.raises(LatticeError, match="not spatially separated"):
        prepare_scattering_state(ham, vacuum, free_modes(model), fer, anti)


def test_packets_counter_propagate():
    model = LatticeModel(sites=12, mass=0.3, coupling=0.0)
    ham = build_hamiltonian(model)
    vacuum, _ = ground_state(ham)
    fer = WavepacketSpec("fermion", 3.0, 0.9, 0.4)
    anti = WavepacketSpec("antifermion", 9.0, -0.9, 0.4)
    psi = prepare_scattering_state(ham, vacuum, free_modes(model), fer, anti)

    from scatterqml.evolution import krylov_expm

    def lump_centroids(state):
        d = site_densities(ham.sector, state) - site_densities(ham.sector, vacuum)
        pos = np.clip(d, 0, None)
        neg = np.clip(-d, 0, None)
        x = np.arange(12)
        return np.sum(x * pos) / pos.sum(), np.sum(x * neg) / neg.sum()

    c_plus_0, c_minus_0 = lump_centroids(psi)
    c_plus_t, c_minus_t = lump_centroids(krylov_expm(ham.apply, psi, [3.0])[0])
    assert c_plus_t > c_plus_0 + 0.5  # fermion lump moves right
    assert c_minus_t < c_minus_0 - 0.5  # hole lump moves left


def test_single_particle_matrix_matches_reference():
    model = LatticeModel(sites=10, mass=0.7, coupling=0.4)
    assert np.array_equal(single_particle_matrix(model), ff_single_particle(10, 0.7))
