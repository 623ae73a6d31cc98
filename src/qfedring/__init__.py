"""Ring-federated training of a small variational circuit classifier.

Three interchangeable model kinds run through the same orchestration: a tiny
classical network, a two-qubit variational circuit with ordinary float
weights, and the same circuit with every weight held as a single-qubit state
that moves between clients by simulated teleportation.
"""

from .datagen import Dataset, dataset_checksum, dump_csv, make_circles, scale_and_split
from .fedring import (
    ClientState,
    RingSchedule,
    Transport,
    average_models,
    centralized_train,
    local_train,
    make_clients,
    partition,
    run_hubspoke,
    run_ring,
)
from .qweights import QuantumWeightStore, decode_angle, init_store, materialize, weight_gradient
from .statevec import StateVector
from .teleport import TeleportRecord, TransferError, teleport_state, teleport_weights
from .trainkit import ClassicalMlp, RoundMetrics, SgdOptimizer, evaluate, init_mlp
from .vqc import VqcModel, init_model

__all__ = [
    "ClassicalMlp",
    "ClientState",
    "Dataset",
    "QuantumWeightStore",
    "RingSchedule",
    "RoundMetrics",
    "SgdOptimizer",
    "StateVector",
    "TeleportRecord",
    "TransferError",
    "Transport",
    "VqcModel",
    "average_models",
    "centralized_train",
    "dataset_checksum",
    "decode_angle",
    "dump_csv",
    "evaluate",
    "init_mlp",
    "init_model",
    "init_store",
    "local_train",
    "make_circles",
    "make_clients",
    "materialize",
    "partition",
    "run_hubspoke",
    "run_ring",
    "scale_and_split",
    "teleport_state",
    "teleport_weights",
    "weight_gradient",
]

__version__ = "0.1.0"
