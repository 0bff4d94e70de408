"""Acceptance gate: eight end-to-end criteria with pinned tolerances.

Each test prints one PASS/FAIL line.  Criteria 1-2 compare the production
sparse/Krylov path against dense and free-field references, 3-4 check
conserved quantities and entropy identities, 5-6 check gradients and
structural contracts, 7 reproduces the desk-scale experiment orderings and
8 checks byte-level determinism of the full pipeline.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from scatterqml.dataset import (
    SweepConfig,
    build_dataset,
    run_sweep,
)
from scatterqml.circuits import encode, sites
from scatterqml.cnn import CnnModel, cnn113, cnn51, cnn_backward, cnn_forward
from scatterqml.evolution import trajectory
from scatterqml.lattice import (
    LatticeModel,
    WavepacketSpec,
    build_hamiltonian,
    free_modes,
    gaussian_wavepacket,
    ground_state,
    number_sector,
    prepare_scattering_state,
)
from scatterqml.observables import entanglement_entropy, site_densities
from scatterqml.qcnn import CONV, POOL, QcnnModel, adjoint_gradient, qcnn_forward
from scatterqml.serialize import save_dataset, save_events, write_runs_csv
from scatterqml.train import TrainConfig, run_experiment, summarize

from conftest import tiny_sweep_config
from oracles import (
    build_program,
    count_cnots,
    count_parameters,
    dense_entropy,
    dense_evolve,
    dense_ground_state,
    dense_hamiltonian,
    dense_number_operator,
    dense_site_densities,
    embed,
    encoding_program,
    ff_block_entropy,
    ff_evolve_projector,
    ff_scattering_projector,
    ff_single_particle,
    ff_vacuum_projector,
    finite_difference_gradient,
    parameter_shift_gradient,
    table_cnots,
    table_parameters,
)


def _verdict(number, name, ok):
    print(f"ACCEPTANCE CRITERION {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_dense_oracle_equivalence():
    start = time.monotonic()
    N, mass, coupling = 6, 0.4, 0.5
    model = LatticeModel(sites=N, mass=mass, coupling=coupling)
    ham = build_hamiltonian(model)
    vacuum, e0 = ground_state(ham)
    _, e_ref = dense_ground_state(N, mass, coupling)
    ok = abs(e0 - e_ref) < 1e-8

    fer = WavepacketSpec("fermion", 1.0, 0.9, 0.8)
    anti = WavepacketSpec("antifermion", 5.0, -0.9, 0.8)
    psi = prepare_scattering_state(ham, vacuum, free_modes(model), fer, anti)
    sector = ham.sector
    H_dense = dense_hamiltonian(N, mass, coupling)
    psi_ref = embed(sector, psi)
    vacuum_ref = embed(sector, vacuum)
    for _, states in trajectory(ham, psi, [1.0, 2.0, 3.0]):
        for psi_k in states:
            psi_ref = dense_evolve(H_dense, psi_ref, 1.0)
            dens = site_densities(sector, psi_k) - site_densities(sector, vacuum)
            dens_ref = dense_site_densities(N, psi_ref) - dense_site_densities(N, vacuum_ref)
            ok = ok and np.abs(dens - dens_ref).max() < 1e-8
            profile = entanglement_entropy(sector, psi_k)
            for cut in range(1, N):
                ok = ok and abs(profile[cut - 1] - dense_entropy(psi_ref, cut)) < 1e-8
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _verdict(1, "physics oracle equivalence at N=6", ok)


def test_criterion_2_free_field_oracle():
    start = time.monotonic()
    N, mass = 12, 0.3
    model = LatticeModel(sites=N, mass=mass, coupling=0.0)
    ham = build_hamiltonian(model)
    vacuum, _ = ground_state(ham)
    modes = free_modes(model)
    fer = WavepacketSpec("fermion", 3.0, 0.9, 0.4)
    anti = WavepacketSpec("antifermion", 9.0, -0.9, 0.4)
    psi0 = prepare_scattering_state(ham, vacuum, modes, fer, anti)

    h = ff_single_particle(N, mass)
    P0 = ff_scattering_projector(
        h, gaussian_wavepacket(fer, modes), gaussian_wavepacket(anti, modes)
    )
    ok = True
    times = np.arange(1.0, 11.0)
    for chunk_times, states in trajectory(ham, psi0, times):
        for t, psi in zip(chunk_times, states):
            Pt = ff_evolve_projector(h, P0, t)
            dens = site_densities(ham.sector, psi)
            ok = ok and np.abs(dens - np.real(np.diag(Pt))).max() < 1e-8
            profile = entanglement_entropy(ham.sector, psi)
            for cut in range(1, N):
                ok = ok and abs(profile[cut - 1] - ff_block_entropy(Pt, cut)) < 1e-8
    # the vacuum itself must match the filled-sea correlation matrix
    Pvac = ff_vacuum_projector(h)
    ok = ok and np.abs(
        site_densities(ham.sector, vacuum) - np.real(np.diag(Pvac))
    ).max() < 1e-8
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _verdict(2, "free-field correlation-matrix oracle at N=12", ok)


def test_criterion_3_conservation_suite():
    rng = np.random.default_rng(20240817)
    number_op = dense_number_operator(8)

    def total_number(ham, psi):
        full = embed(ham.sector, psi)
        return float(np.real(np.vdot(full, number_op @ full)))

    ok = True
    for _ in range(10):
        mass = rng.uniform(0.1, 0.9)
        coupling = rng.uniform(0.0, 0.9)
        model = LatticeModel(sites=8, mass=mass, coupling=coupling)
        ham = build_hamiltonian(model)
        vacuum, _ = ground_state(ham)
        fer = WavepacketSpec("fermion", 2.0, 0.9, 0.7)
        anti = WavepacketSpec("antifermion", 6.0, -0.9, 0.7)
        psi = prepare_scattering_state(ham, vacuum, free_modes(model), fer, anti)
        energy0 = float(np.real(np.vdot(psi, ham.apply(psi))))
        number0 = total_number(ham, psi)
        for _, states in trajectory(ham, psi, 0.25 * np.arange(1, 101)):
            pass
        psi = states[-1]
        energy = float(np.real(np.vdot(psi, ham.apply(psi))))
        ok = ok and abs(np.linalg.norm(psi) - 1.0) < 1e-10
        ok = ok and abs(energy - energy0) / max(abs(energy0), 1.0) < 1e-8
        ok = ok and abs(total_number(ham, psi) - number0) < 1e-9
    _verdict(3, "norm/energy/number conservation over 100 steps x 10 draws", ok)


def test_criterion_4_entropy_identities_and_collision_entropy():
    ok = True
    # pure product state (half filling of four sites)
    four = number_sector(4, 2)
    basis = np.zeros(four.dimension, complex)
    basis[four.index(0b0101)] = 1.0
    ok = ok and bool(np.all(entanglement_entropy(four, basis) < 1e-12))
    # Bell pair across the central cut
    bell = np.zeros(four.dimension, complex)
    bell[four.index([0b0110, 0b1001])] = 1 / np.sqrt(2)
    ok = ok and abs(entanglement_entropy(four, bell)[1] - np.log(2)) < 1e-12
    # left/right block symmetry on a random half-filling state: the block
    # SVDs against the reshape-SVD of its full-space embedding
    rng = np.random.default_rng(7)
    eight = number_sector(8, 4)
    psi = rng.normal(size=eight.dimension) + 1j * rng.normal(size=eight.dimension)
    psi /= np.linalg.norm(psi)
    full = embed(eight, psi)
    profile = entanglement_entropy(eight, psi)
    for cut in range(1, 8):
        right = np.linalg.svd(full.reshape(1 << (8 - cut), 1 << cut),
                              compute_uv=False)
        p = right**2
        p = p[p > 1e-14]
        ok = ok and abs(profile[cut - 1] + np.sum(p * np.log(p))) < 1e-10

    # collision run: positive excess central entropy at the separation time
    cfg = SweepConfig(
        masses=(0.4,), couplings=(0.5,),
        fermion_momenta=(0.9,), antifermion_momenta=(-0.9,),
        sites=12,
    )
    event = run_sweep(cfg, workers=1)[0]
    ok = ok and event.error is None and event.t_star is not None
    ok = ok and event.delta_s_mid is not None and event.delta_s_mid > 0.0
    _verdict(4, "entropy identities and collision entropy growth", ok)


def test_criterion_5_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        model = QcnnModel(
            n_qubits=4, encoding="hee",
            params=rng.uniform(-np.pi, np.pi, 48),
        )
        angles = rng.uniform(0, np.pi, size=(2, 4))
        tree = sites(angles, 4, "hee")
        labels = rng.integers(0, 2, size=2).astype(float)
        grad = parameter_shift_gradient(model, encode(angles, 4, "hee"), labels)

        def qcnn_loss(params, tree=tree, labels=labels):
            m = QcnnModel(n_qubits=4, encoding="hee", params=params)
            return float(np.mean((qcnn_forward(m, tree) - labels) ** 2))

        fd = finite_difference_gradient(qcnn_loss, model.params, 1e-4)
        ok = ok and np.abs(grad - fd).max() < 1e-6
        ok = ok and np.abs(adjoint_gradient(model, tree, labels) - fd).max() < 1e-6

    checked = 0
    while checked < 100:
        factory = cnn51 if rng.random() < 0.5 else cnn113
        model = CnnModel.random(factory(), seed=int(rng.integers(1 << 31)))
        X = rng.uniform(0, 1, size=(4, 4))
        y = rng.integers(0, 2, size=4).astype(float)
        # redraw configurations with a ReLU pre-activation at its kink, where
        # central differences do not estimate the one-sided derivative
        from scatterqml.cnn import _forward_pass

        _, (_, _, z_conv, _, zs, _) = _forward_pass(model, X)
        margins = [np.abs(z_conv).min()] + [np.abs(z).min() for z in zs[:-1]]
        if min(margins) < 1e-3:
            continue
        checked += 1
        grad = cnn_backward(model, X, y)

        def cnn_loss(params, model=model, X=X, y=y):
            return float(np.mean((cnn_forward(replace(model, params=params), X) - y) ** 2))

        fd = finite_difference_gradient(cnn_loss, model.params, 1e-5)
        ok = ok and np.abs(grad - fd).max() / max(np.abs(fd).max(), 1.0) < 1e-6
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _verdict(5, "parameter-shift, adjoint and backprop gradients vs finite differences", ok)


def test_criterion_6_structural_contracts():
    ok = True
    for width, count in ((4, 48), (8, 72), (16, 96)):
        model = QcnnModel(n_qubits=width)
        gates, _ = build_program(model)
        ok = ok and model.n_parameters == count
        ok = ok and count_parameters(gates) == count
    ok = ok and len(set(table_parameters(CONV))) == 15 and table_cnots(CONV) == 3
    ok = ok and len(set(table_parameters(POOL))) == 9 and table_cnots(POOL) == 1
    ok = ok and cnn51().n_parameters == 51 and cnn113().n_parameters == 113
    ok = ok and count_cnots(encoding_program(8, "tpe")) == 0
    _verdict(6, "parameter counts 48/72/96, 15+3 / 9+1 blocks, CNN 51/113, TPE", ok)


@pytest.fixture(scope="module")
def desk_dataset(desk_events):
    return build_dataset(desk_events, 4)


def test_criterion_7_desk_scale_orderings(desk_dataset):
    start = time.monotonic()
    ds = desk_dataset
    ok = ds.labels.size >= 200
    ok = ok and ds.labels.sum() * 2 == ds.labels.size  # balanced

    rows = []
    for name in ("qcnn4-hee", "cnn51", "cnn113"):
        rows += run_experiment(ds, TrainConfig(model=name, runs=50, epochs=30)).rows()
    results = summarize(rows)
    for name, s in results.items():
        print(f"  {name}: mean {s.mean:.4f} sem {s.sem:.4f} ({s.runs} runs)")
    qcnn, small, large = (
        results["qcnn4-hee"], results["cnn51"], results["cnn113"],
    )
    ok = ok and qcnn.mean >= 0.90
    ok = ok and qcnn.mean >= small.mean - 0.02
    noise = 2.0 * np.hypot(small.sem, large.sem)
    ok = ok and large.mean <= small.mean + noise
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 4 * 3600.0
    _verdict(7, "desk-scale accuracy orderings over 50 runs", ok)


def test_criterion_8_pipeline_determinism(tmp_path):
    cfg = tiny_sweep_config()

    def run_pipeline(tag):
        events = run_sweep(cfg, workers=2)
        dataset = build_dataset(events, 4)
        rows = [
            row
            for m in ("qcnn4-hee", "cnn51")
            for row in run_experiment(
                dataset,
                TrainConfig(model=m, epochs=3, runs=2, batch_size=2),
                workers=2,
            ).rows()
        ]
        paths = {
            "events": tmp_path / f"events-{tag}.jsonl",
            "dataset": tmp_path / f"dataset-{tag}.json",
            "runs": tmp_path / f"runs-{tag}.csv",
        }
        save_events(paths["events"], cfg, events)
        save_dataset(paths["dataset"], dataset)
        write_runs_csv(paths["runs"], rows)
        return paths

    first = run_pipeline("a")
    second = run_pipeline("b")
    ok = all(
        first[key].read_bytes() == second[key].read_bytes() for key in first
    )
    _verdict(8, "byte-identical events, dataset and runs files on re-run", ok)
