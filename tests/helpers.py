"""Values and builders that several test modules share; a plain module, so
that no test imports ``conftest`` a second time under another name."""
import math

import numpy as np
from hypothesis import settings

from qfedring import qweights, trainkit, vqc
from qfedring.statevec import StateVector

# What the generator rule refuses: no stream, a seed, text, the legacy
# RandomState, which has the Generator's ``random`` method but is not one, and
# a bare bit generator, which a Generator wraps.
NOT_GENERATORS = [None, 5, "x", np.random.RandomState(0), np.random.PCG64(0)]


def generator_id(value) -> str:
    """How the generator rule's message shows a NOT_GENERATORS value, which is
    also its test id: the repr of None, a number or text, else the type's name
    (the repr of a RandomState or a bit generator holds its address)."""
    return repr(value) if value is None or isinstance(value, (int, str)) else type(value).__name__


def examples(count: int) -> int:
    """A property test's ``max_examples``: ``count`` scaled by the loaded
    profile's ``max_examples`` over hypothesis's default of 100, so ``count``
    under the ``tier1`` profile and ten times that under ``random``.  Read as
    the test module is imported, after ``--hypothesis-profile`` is loaded."""
    return count * settings.default.max_examples // 100


def random_state(rng, num_qubits):
    """Haar-ish random pure state, good enough for invariance tests."""
    raw = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, raw / np.linalg.norm(raw))


def make_model(kind: str, rng):
    """A fresh model of ``kind``, "mlp", "circuit" or "store", drawn from
    ``rng``: a circuit or a store has 2 layers, and a store gamma pi."""
    if kind == "mlp":
        return trainkit.init_mlp(rng)
    if kind == "circuit":
        return vqc.init_model(rng, 2)
    return qweights.init_store(rng, 2, math.pi)
