"""Ring-federated training of a small variational circuit classifier.

Three interchangeable model kinds run through the same orchestration: a tiny
classical network, a two-qubit variational circuit with ordinary float
weights, and the same circuit with every weight held as a single-qubit state
that moves between clients by simulated teleportation.

Callers import from the modules (``qfedring.cli`` and so on); the three
initialisers below stay only because the benchmark job reads them from here.
"""

from .qweights import init_store
from .trainkit import init_mlp
from .vqc import init_model

__all__ = ["init_mlp", "init_model", "init_store"]
