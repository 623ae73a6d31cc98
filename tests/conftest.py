import numpy as np
import pytest
from hypothesis import settings

from qfedring import datagen

# Tier-1 draws a fixed example set per property test, derived from the test's
# own source, and replays nothing from a database, so every run of one commit
# tests the same inputs.  "random" draws fresh seeds, ten times as many
# examples (each test scales its count with ``tests.helpers.examples``), and
# prints each failing example's blob; select it with ``pytest
# --hypothesis-profile random``, and add what it finds to its test as an @example.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("random", derandomize=False, database=None, print_blob=True,
                          max_examples=1000)


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    # tryfirst runs this before hypothesis's own pytest_configure, which loads
    # --hypothesis-profile, so that option still wins over this default.
    settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_dataset():
    """Small noisy circles split, shared across training tests."""
    features, labels = datagen.make_circles(200, noise=0.1, factor=0.5, seed=7)
    return datagen.scale_and_split(features, labels, 0.8, seed=8)

