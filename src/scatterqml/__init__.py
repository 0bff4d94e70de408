"""Fermion-scattering entanglement classification toolkit.

Physics backend (exact simulation of a staggered interacting fermion chain
in its particle-number sectors: states are amplitude vectors over a ranked
``Sector`` basis, evolved by a Lanczos propagator, with entropies from the
block-diagonal Schmidt matrices), dataset construction from scattering
trajectories, a small variational quantum circuit classifier with
convolution/pooling structure, classical CNN baselines, and a
training/experiment harness.
"""

from .lattice import (
    LatticeModel,
    Sector,
    SparseHamiltonian,
    SingleParticleModes,
    WavepacketSpec,
    build_hamiltonian,
    free_modes,
    gaussian_wavepacket,
    ground_state,
    apply_wavepacket_operator,
    number_sector,
    prepare_scattering_state,
)
from .evolution import trajectory
from .observables import (
    excess_density,
    entanglement_entropy,
    excess_entropy,
    site_densities,
)
from .dataset import (
    SweepConfig,
    DatasetConfig,
    ScatteringEvent,
    desk_sweep_config,
    run_sweep,
    build_dataset,
)
from .qcnn import QcnnModel
from .cnn import cnn51, cnn113
from .train import TrainConfig, run_experiment

__all__ = [
    "LatticeModel",
    "Sector",
    "SparseHamiltonian",
    "SingleParticleModes",
    "WavepacketSpec",
    "build_hamiltonian",
    "free_modes",
    "gaussian_wavepacket",
    "ground_state",
    "apply_wavepacket_operator",
    "number_sector",
    "prepare_scattering_state",
    "trajectory",
    "excess_density",
    "entanglement_entropy",
    "excess_entropy",
    "site_densities",
    "SweepConfig",
    "DatasetConfig",
    "ScatteringEvent",
    "desk_sweep_config",
    "run_sweep",
    "build_dataset",
    "QcnnModel",
    "cnn51",
    "cnn113",
    "TrainConfig",
    "run_experiment",
]

__version__ = "0.1.0"
