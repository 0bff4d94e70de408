import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scatterqml import dataset
from scatterqml.dataset import SweepConfig, desk_sweep_config, run_sweep


def tiny_sweep_config() -> SweepConfig:
    """Nine-event N=8 sweep, cheap enough for per-test pipelines."""
    return SweepConfig(
        masses=(0.2, 0.5, 0.8),
        couplings=(0.4, 0.6, 0.8),
        fermion_momenta=(0.9,),
        antifermion_momenta=(-0.9,),
        sites=8,
        time_horizon=16.0,
        momentum_width=0.7,
    )


@pytest.fixture(scope="session")
def tiny_events():
    return run_sweep(tiny_sweep_config(), workers=4)


@pytest.fixture(scope="session")
def desk_events():
    """The 210 N=12 events of the default desk sweep."""
    return run_sweep(desk_sweep_config())


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def two_blas_threads():
    """Each bundled OpenBLAS copy on two threads for the test, then as before."""
    controls = dataset._blas_thread_controls()
    assert controls, "no OpenBLAS thread control found: the pin would do nothing"
    saved = [get_threads() for get_threads, _ in controls]
    for _, set_threads in controls:
        set_threads(2)
    yield [get_threads() for get_threads, _ in controls]
    for (_, set_threads), count in zip(controls, saved):
        set_threads(count)
