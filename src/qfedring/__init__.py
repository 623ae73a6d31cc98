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
from .statevec import GateOp, StateVector, apply_gate, expectation, zero_state
from .teleport import TeleportRecord, TransferError, bell_pair, teleport_state, teleport_weights
from .trainkit import (
    ClassicalMlp,
    RoundMetrics,
    SgdOptimizer,
    evaluate,
    init_mlp,
    loss_and_grad,
)
from .vqc import VqcModel, forward, gradient, init_model

__all__ = [
    "ClassicalMlp",
    "ClientState",
    "Dataset",
    "GateOp",
    "QuantumWeightStore",
    "RingSchedule",
    "RoundMetrics",
    "SgdOptimizer",
    "StateVector",
    "TeleportRecord",
    "TransferError",
    "Transport",
    "VqcModel",
    "apply_gate",
    "average_models",
    "bell_pair",
    "centralized_train",
    "dataset_checksum",
    "decode_angle",
    "dump_csv",
    "evaluate",
    "expectation",
    "forward",
    "gradient",
    "init_mlp",
    "init_model",
    "init_store",
    "local_train",
    "loss_and_grad",
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
    "zero_state",
]

__version__ = "0.1.0"
