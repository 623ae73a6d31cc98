import numpy as np
import pytest
from hypothesis import settings

from qfedring import datagen

# Tier-1 draws a fixed example set per property test, derived from the test's
# own source, and replays nothing from a database, so every run of one commit
# tests the same inputs.  "random" draws fresh seeds and prints each failing
# example's blob; select it with ``pytest --hypothesis-profile random``, and
# add what it finds to its test as an @example.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("random", derandomize=False, database=None, print_blob=True)


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    # Loaded here, not at import: test modules import this file again as
    # tests.conftest, which must not undo --hypothesis-profile.  tryfirst runs
    # this before hypothesis's own pytest_configure, which loads that option.
    settings.load_profile("tier1")


# What the generator rule refuses: no stream, a seed, text, the legacy
# RandomState, which has the Generator's ``random`` method but is not one, and
# a bare bit generator, which a Generator wraps.
NOT_GENERATORS = [None, 5, "x", np.random.RandomState(0), np.random.PCG64(0)]


def generator_id(value) -> str:
    """How the generator rule's message shows a NOT_GENERATORS value, which is
    also its test id: the repr of None, a number or text, else the type's name
    (the repr of a RandomState or a bit generator holds its address)."""
    return repr(value) if value is None or isinstance(value, (int, str)) else type(value).__name__


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_dataset():
    """Small noisy circles split, shared across training tests."""
    features, labels = datagen.make_circles(200, noise=0.1, factor=0.5, seed=7)
    return datagen.scale_and_split(features, labels, 0.8, seed=8)


def random_state(rng, num_qubits):
    """Haar-ish random pure state, good enough for invariance tests."""
    from qfedring.statevec import StateVector

    raw = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, raw / np.linalg.norm(raw))
