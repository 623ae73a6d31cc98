"""The two setting rules, ``datagen.check_count`` and ``datagen.check_positive``:
every entry point that takes a count or a rate refuses a bad one with the
rule's one message, and the config agrees with the rule on any value."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfedring import cli
from qfedring import datagen as dg
from qfedring import fedring as fr
from qfedring import qweights as qw
from qfedring import trainkit as tk
from qfedring import vqc
from tests.test_fedring import NOT_COUNTS

BAD_COUNTS = [*NOT_COUNTS, 0, -1]
BAD_RATES = [0, -1.0, math.nan, math.inf, -math.inf, True, "0.1", None]


def _client():
    feats, labels = dg.make_circles(8, 0.1, 0.5, seed=0)
    rng = np.random.default_rng(0)
    return fr.ClientState(0, feats, labels, tk.init_mlp(rng), rng, tk.SgdOptimizer(0.1))


def _config(field):
    return lambda v: cli.ExperimentConfig(model="qfl-quantum", **{field: v})


# (entry point, the name its message gives, a call that passes it the value)
COUNT_ENTRIES = [
    *((f"RingSchedule.{n}", n, lambda v, n=n: fr.RingSchedule(**{n: v}))
      for n in ("num_clients", "num_rounds", "local_epochs")),
    ("partition", "num_clients", lambda v: fr.partition(np.zeros((4, 2)), [0, 1, 0, 1], v, 0)),
    ("local_train.epochs", "epochs", lambda v: fr.local_train(_client(), v, 4)),
    ("local_train.batch_size", "batch_size", lambda v: fr.local_train(_client(), 1, v)),
    ("vqc.init_model", "num_layers", lambda v: vqc.init_model(np.random.default_rng(0), v)),
    ("qweights.init_store", "num_layers", lambda v: qw.init_store(np.random.default_rng(0), v)),
    ("RoundMetrics", "round_index", lambda v: tk.RoundMetrics(v, 0, 0.5, 0.5)),
    ("make_circles", "num_points", lambda v: dg.make_circles(v, 0.1, 0.5, seed=0)),
    *((f"ExperimentConfig.{n}", n, _config(n))
      for n in ("clients", "rounds", "local_epochs", "layers", "batch_size", "num_points")),
]
RATE_ENTRIES = [
    ("SgdOptimizer", "learning_rate", tk.SgdOptimizer),
    ("QuantumWeightStore", "gamma", lambda v: qw.QuantumWeightStore(np.zeros((1, 2, 3)), v)),
    ("qweights.init_store", "gamma", lambda v: qw.init_store(np.random.default_rng(0), gamma=v)),
    *((f"ExperimentConfig.{n}", n, _config(n)) for n in ("learning_rate", "gamma")),
]


def _cases(entries, values):
    """One case per entry and value; the config raises ConfigError, the library ValueError."""
    cases = []
    for entry, name, call in entries:
        error = cli.ConfigError if entry.startswith("ExperimentConfig") else ValueError
        cases += [pytest.param(name, call, v, error, id=f"{entry}-{v!r}") for v in values]
    return cases


@pytest.mark.parametrize("name, call, value, error", _cases(COUNT_ENTRIES, BAD_COUNTS))
def test_count_refused_by_the_one_rule(name, call, value, error):
    with pytest.raises(ValueError) as refused:
        call(value)
    assert type(refused.value) is error
    assert str(refused.value) == f"{name} must be an integer >= 1, got {value!r}"


@pytest.mark.parametrize("name, call, value, error", _cases(RATE_ENTRIES, BAD_RATES))
def test_rate_refused_by_the_one_rule(name, call, value, error):
    with pytest.raises(ValueError) as refused:
        call(value)
    assert type(refused.value) is error
    assert str(refused.value) == f"{name} must be positive and finite, got {value!r}"


# Ints stay within +-64: a larger count can be refused by another config rule
# (clients beyond the training samples, layers past the engine's cap).
SMALL_INTS = st.integers(-64, 64)
VALUES = st.one_of(
    SMALL_INTS,
    st.floats(),
    st.booleans(),
    SMALL_INTS.map(np.int64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
    st.text(max_size=4),
)
CONFIG_RULES = {
    "clients": "check_count",
    "rounds": "check_count",
    "local_epochs": "check_count",
    "layers": "check_count",
    "batch_size": "check_count",
    "learning_rate": "check_positive",
    "gamma": "check_positive",
}


def _refusal(call, error):
    """The message of the ``error`` ``call()`` raises, or None if it passes."""
    try:
        call()
    except error as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("field", CONFIG_RULES)
@settings(max_examples=150, deadline=None)
@given(value=VALUES)
def test_config_refuses_exactly_what_the_rule_refuses(field, value):
    rule = getattr(dg, CONFIG_RULES[field])
    want = _refusal(lambda: rule(value, field), ValueError)
    got = _refusal(lambda: cli.ExperimentConfig(model="qfl-quantum", **{field: value}),
                   cli.ConfigError)
    assert got == want
