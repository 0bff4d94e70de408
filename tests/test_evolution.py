import numpy as np
import pytest
import scipy.sparse as sp

from scatterqml.dataset import desk_sweep_config
from scatterqml.evolution import (
    TIME_CHUNK,
    EvolutionError,
    krylov_expm,
    trajectory,
)
from scatterqml.lattice import (
    LatticeModel,
    WavepacketSpec,
    build_hamiltonian,
    free_modes,
    ground_state,
    prepare_scattering_state,
)

from oracles import dense_evolve, dense_hamiltonian, embed, ff_single_particle


class _MatvecHam:
    def __init__(self, matrix):
        self.matrix = sp.csr_matrix(matrix)

    def apply(self, psi):
        return self.matrix @ psi


def test_two_site_step_matches_dense_expm():
    # smallest nontrivial chain: two sites, unit mass, free
    H = dense_hamiltonian(2, 1.0, 0.0)
    psi0 = np.zeros(4, complex)
    psi0[1] = 1.0  # site 0 occupied
    out = krylov_expm(_MatvecHam(H).apply, psi0, [0.7])[0]
    ref = dense_evolve(H, psi0, 0.7)
    assert np.abs(out - ref).max() < 1e-9


def _random_state(rng, ham):
    psi = rng.normal(size=ham.dimension) + 1j * rng.normal(size=ham.dimension)
    return psi / np.linalg.norm(psi)


def test_evolution_matches_dense_expm_random_state(rng):
    model = LatticeModel(sites=6, mass=0.3, coupling=0.8)
    ham = build_hamiltonian(model)
    psi = _random_state(rng, ham)
    out = krylov_expm(ham.apply, psi, [1.3])[0]
    ref = dense_evolve(dense_hamiltonian(6, 0.3, 0.8), embed(ham.sector, psi), 1.3)
    assert np.abs(embed(ham.sector, out) - ref).max() < 1e-9


def test_eigenstate_picks_up_pure_phase():
    model = LatticeModel(sites=6, mass=0.5, coupling=0.4)
    ham = build_hamiltonian(model)
    psi, e0 = ground_state(ham)
    out = krylov_expm(ham.apply, psi, [2.0])[0]
    assert np.abs(out - np.exp(-1j * e0 * 2.0) * psi).max() < 1e-8


def test_norm_preserved_over_many_steps(rng):
    model = LatticeModel(sites=8, mass=0.3, coupling=0.7)
    ham = build_hamiltonian(model)
    psi = _random_state(rng, ham)
    for _, states in trajectory(ham, psi, 0.5 * np.arange(1, 41)):
        pass
    assert abs(np.linalg.norm(states[-1]) - 1.0) < 1e-10


def test_trajectory_times_and_consistency(rng):
    model = LatticeModel(sites=6, mass=0.4, coupling=0.2)
    ham = build_hamiltonian(model)
    psi = _random_state(rng, ham)
    times = np.array([0.5, 1.0, 1.5])
    seen = list(trajectory(ham, psi, times))
    assert [list(chunk_times) for chunk_times, _ in seen] == [list(times)]
    assert seen[0][1].shape == (3, ham.dimension)
    direct = krylov_expm(ham.apply, psi, [1.5])[0]
    assert np.abs(seen[-1][1][-1] - direct).max() < 1e-9


def test_max_dim_failure_raises():
    # a single large time step with a tiny basis cap cannot converge
    h = ff_single_particle(12, 0.5)
    psi = np.zeros(12, complex)
    psi[0] = 1.0
    with pytest.raises(EvolutionError):
        krylov_expm(_MatvecHam(h).apply, psi, [500.0], tol=1e-14, max_dim=3)


def test_happy_breakdown_is_exact():
    # an eigenvector spans a one-dimensional Krylov space
    H = np.diag([0.3, -1.1, 2.0])
    psi = np.array([0.0, 1.0, 0.0], complex)
    out = krylov_expm(_MatvecHam(H).apply, psi, [0.9])[0]
    assert np.abs(out - np.exp(1.1j * 0.9) * psi).max() < 1e-14


@pytest.mark.parametrize("sites,dt", [
    (8, 0.5),
    (8, 4.0),
    (8, 30.0),
    # the Krylov dimension reaches the sector dimension, C(6, 3) = 20
    (6, 10.0),
    (6, 30.0),
])
def test_krylov_step_matches_dense_expm_on_sector_hamiltonian(rng, sites, dt):
    # long steps need many-dimensional Krylov spaces
    model = LatticeModel(sites=sites, mass=0.5, coupling=0.6)
    ham = build_hamiltonian(model)
    psi = _random_state(rng, ham)
    out = krylov_expm(ham.apply, psi, [dt])[0]
    ref = dense_evolve(dense_hamiltonian(sites, 0.5, 0.6), embed(ham.sector, psi), dt)
    assert np.abs(embed(ham.sector, out) - ref).max() < 1e-9


def test_non_hermitian_matvec_raises_instead_of_renormalising(rng):
    # without reorthogonalisation a non-Hermitian matvec spoils the basis,
    # and the norm of the assembled step shows it
    ham = build_hamiltonian(LatticeModel(sites=8, mass=0.5, coupling=0.6))
    anti_hermitian = 0.5j * ham.matrix.diagonal()
    psi = _random_state(rng, ham)
    with pytest.raises(EvolutionError, match="norm"):
        krylov_expm(lambda v: ham.apply(v) + anti_hermitian * v, psi, [1.0])


@pytest.mark.parametrize("times,index", [
    ([0.5, 1.0, 1.0, 1.5], 2),  # repeated
    ([0.5, 1.5, 1.0], 2),  # descending
    ([0.0, 0.5], 0),  # not positive
    ([-0.5, 0.5], 0),
    ([0.5, np.nan, 1.0], 1),
])
def test_trajectory_rejects_a_grid_that_is_not_positive_and_ascending(rng, times, index):
    ham = build_hamiltonian(LatticeModel(sites=4, mass=0.5, coupling=0.6))
    psi = _random_state(rng, ham)
    with pytest.raises(EvolutionError, match=rf"times\[{index}\]"):
        trajectory(ham, psi, np.array(times))


def _chunk_offsets():
    return 0.5 * np.arange(1, TIME_CHUNK + 1)  # 0.5 ... 8.0


def _assert_rows_match_dense(ham, sites, psi, rows, offsets):
    H = dense_hamiltonian(sites, 0.5, 0.6)
    full = embed(ham.sector, psi)
    for row, dt in zip(rows, offsets):
        assert np.abs(embed(ham.sector, row) - dense_evolve(H, full, dt)).max() < 1e-9


@pytest.mark.parametrize("sites", [6, 8])
def test_one_basis_serves_every_offset_of_a_chunk(rng, sites):
    ham = build_hamiltonian(LatticeModel(sites=sites, mass=0.5, coupling=0.6))
    psi = _random_state(rng, ham)
    offsets = _chunk_offsets()
    rows = krylov_expm(ham.apply, psi, offsets)
    assert rows.shape == (TIME_CHUNK, ham.dimension)
    _assert_rows_match_dense(ham, sites, psi, rows, offsets)


@pytest.mark.parametrize("sites,max_dim", [(6, 14), (8, 20)])
def test_full_basis_returns_the_converged_leading_offsets(rng, sites, max_dim):
    # a basis too small for the whole chunk, large enough for its start
    ham = build_hamiltonian(LatticeModel(sites=sites, mass=0.5, coupling=0.6))
    psi = _random_state(rng, ham)
    offsets = _chunk_offsets()
    rows = krylov_expm(ham.apply, psi, offsets, max_dim=max_dim)
    assert 1 <= len(rows) < TIME_CHUNK
    _assert_rows_match_dense(ham, sites, psi, rows, offsets)


def test_desk_event_trajectory_builds_one_basis_per_chunk():
    """The matvec count is deterministic.  One basis per recorded time took
    720 matvecs for this event's 48 times (677 on average over the 210 desk
    events); one basis per chunk must need at most half of that average.
    Each basis converges on its whole chunk, so trajectory yields 3 full
    stacks of TIME_CHUNK states."""
    config = desk_sweep_config()
    model = LatticeModel(
        sites=config.sites, mass=max(config.masses), coupling=max(config.couplings)
    )
    ham = build_hamiltonian(model)
    vacuum, _ = ground_state(ham)
    c, d = config.packet_positions
    fer = WavepacketSpec("fermion", c, config.fermion_momenta[0], config.momentum_width)
    anti = WavepacketSpec("antifermion", d, config.antifermion_momenta[0], config.momentum_width)
    psi0 = prepare_scattering_state(ham, vacuum, free_modes(model), fer, anti)
    calls = 0
    apply = ham.apply

    def counted(psi):
        nonlocal calls
        calls += 1
        return apply(psi)

    ham.apply = counted
    times = config.times
    assert len(times) == 48
    seen = list(trajectory(ham, psi0, times))
    assert [states.shape for _, states in seen] == [(TIME_CHUNK, ham.dimension)] * 3
    assert np.concatenate([chunk_times for chunk_times, _ in seen]).tolist() == list(times)
    assert calls <= 339
