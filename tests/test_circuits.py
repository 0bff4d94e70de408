import numpy as np
import pytest

from scatterqml.circuits import (
    CNOT,
    CircuitError,
    apply_unitary,
    encode,
    pair_environment,
    sites,
    statevector,
    z_expectation,
)

from oracles import (
    count_cnots,
    count_parameters,
    encoding_program,
    gate_encode,
    rx,
    ry,
    rz,
    zero_state,
)


def test_rotations_are_unitary_and_periodic(rng):
    for gate in (rx, ry, rz):
        theta = rng.uniform(-np.pi, np.pi)
        U = gate(theta)
        assert np.abs(U @ U.conj().T - np.eye(2)).max() < 1e-14
        assert np.abs(gate(theta + 4 * np.pi) - U).max() < 1e-12
        assert np.abs(gate(0.0) - np.eye(2)).max() < 1e-15


def test_apply_unitary_single_qubit_indexing():
    # X on qubit 1 of |00> gives |10> = index 2
    state = zero_state(2)
    X = np.array([[0, 1], [1, 0]], complex)
    out = apply_unitary(state, X, (1,))
    assert np.argmax(np.abs(out[0])) == 0b10


def test_cnot_truth_table():
    # control = first listed qubit
    for ctrl_val, tgt_val in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        idx = (ctrl_val << 1) | tgt_val
        state = np.zeros((1, 4), complex)
        state[0, idx] = 1.0
        out = apply_unitary(state, CNOT, (1, 0))
        expect = (ctrl_val << 1) | (tgt_val ^ ctrl_val)
        assert np.argmax(np.abs(out[0])) == expect


def test_apply_unitary_batch_consistency(rng):
    states = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
    U = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    batched = apply_unitary(states, U, (0, 2))
    for i in range(5):
        single = apply_unitary(states[i : i + 1], U, (0, 2))
        assert np.abs(batched[i] - single[0]).max() < 1e-12


def test_pair_environment_matches_unit_matrix_overlaps(rng):
    # E[i, j] = <bra| (|i><j| on the pair) |ket>, summed over the batch
    bra = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    ket = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    for qubits in ((0, 2), (2, 0), (1, 0)):
        env = pair_environment(bra, ket, qubits)
        for i in range(4):
            for j in range(4):
                unit = np.zeros((4, 4))
                unit[i, j] = 1.0
                overlap = np.sum(bra.conj() * apply_unitary(ket, unit, qubits))
                assert abs(env[i, j] - overlap) < 1e-12


def test_z_expectation():
    state = np.zeros((1, 4), complex)
    state[0, 0b01] = 1.0
    assert z_expectation(state, 0)[0] == -1.0
    assert z_expectation(state, 1)[0] == 1.0


def test_encoding_structure():
    hee = encoding_program(4, "hee")
    tpe = encoding_program(4, "tpe")
    assert count_cnots(tpe) == 0
    assert count_cnots(hee) == 6  # two repetitions of a 3-CNOT chain
    assert count_parameters(hee) == 4
    assert count_parameters(tpe) == 4
    with pytest.raises(CircuitError):
        encoding_program(4, "qubit")


def test_hee_zero_angles_is_all_zeros_state():
    out = encode(np.zeros((1, 4)), 4, "hee")
    assert out.dtype == np.float64  # Ry layers and CNOT permutations are real
    expect = np.zeros(16)
    expect[0] = 1.0
    assert np.abs(out[0] - expect).max() < 1e-14


def test_tpe_is_product_of_single_qubit_rotations(rng):
    angles = rng.uniform(0, np.pi, size=4)
    out = encode(angles, 4, "tpe")[0]
    single = [ry(a) @ np.array([1.0, 0.0]) for a in angles]
    # qubit 0 is the least significant index bit
    expect = np.kron(np.kron(single[3], single[2]), np.kron(single[1], single[0]))
    assert np.abs(out - expect).max() < 1e-13


def test_encode_validates_width(rng):
    with pytest.raises(CircuitError):
        encode(np.zeros((1, 3)), 4, "hee")
    with pytest.raises(CircuitError):
        encode(np.zeros((1, 4)), 4, "qubit")


@pytest.mark.parametrize("kind", ["hee", "tpe"])
@pytest.mark.parametrize("width", [4, 8, 16])
def test_batched_encode_matches_gate_by_gate(rng, width, kind):
    angles = rng.uniform(0, np.pi, size=(3, width))
    assert np.abs(encode(angles, width, kind) - gate_encode(angles, width, kind)).max() < 1e-12


@pytest.mark.parametrize("kind,bond", [("hee", 4), ("tpe", 1)])
def test_site_bond_is_the_schmidt_rank_of_every_cut(rng, kind, bond):
    # HEE is an exact matrix product state of bond 4 that no smaller bond
    # can hold; TPE is a product state
    n = 8
    tensors = sites(rng.uniform(0.1, np.pi - 0.1, size=(2, n)), n, kind)
    assert tensors.shape == (2, n, bond, 2, bond)
    for psi in statevector(tensors):
        for cut in range(1, n):
            singular = np.linalg.svd(psi.reshape(1 << (n - cut), 1 << cut), compute_uv=False)
            assert np.sum(singular > 1e-10) == min(bond, 1 << cut, 1 << (n - cut))
