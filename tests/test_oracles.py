import numpy as np

from scatterqml.circuits import encode
from scatterqml.qcnn import QcnnModel

from oracles import (
    Gate,
    parameter_shift_gradient,
    run_program,
    ry,
    serial_parameter_shift_gradient,
    zero_state,
)


def test_run_program_shift_single_occurrence(rng):
    gates = [Gate("ry", (0,), param=0), Gate("ry", (0,), param=0)]
    params = np.array([0.3])
    state = zero_state(1)
    shifted = run_program(gates, state, params, shift_at=1, shift=np.pi / 2)
    # only the second occurrence is shifted
    expect = ry(0.3 + np.pi / 2) @ (ry(0.3) @ np.array([1.0, 0.0]))
    assert np.abs(shifted[0] - expect).max() < 1e-14


def test_batched_parameter_shift_matches_one_program_per_shift():
    rng = np.random.default_rng(8)
    for width in (4, 8):
        model = QcnnModel.random(width, "hee", width + 1)
        states = encode(rng.uniform(0, np.pi, size=(2, width)), width, "hee")
        labels = np.array([1.0, 0.0])
        batched = parameter_shift_gradient(model, states, labels)
        serial = serial_parameter_shift_gradient(model, states, labels)
        assert np.abs(batched - serial).max() < 1e-14
