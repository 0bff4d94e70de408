import numpy as np

from oracles import Gate, run_program, ry, zero_state


def test_run_program_shift_single_occurrence(rng):
    gates = [Gate("ry", (0,), param=0), Gate("ry", (0,), param=0)]
    params = np.array([0.3])
    state = zero_state(1)
    shifted = run_program(gates, state, params, shift_at=1, shift=np.pi / 2)
    # only the second occurrence is shifted
    expect = ry(0.3 + np.pi / 2) @ (ry(0.3) @ np.array([1.0, 0.0]))
    assert np.abs(shifted[0] - expect).max() < 1e-14
