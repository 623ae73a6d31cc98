"""The setting rules in ``datagen``: ``check_count`` (counts, and the seed
from 0), ``check_positive`` (rates), ``check_fraction`` (``factor`` and
``train_fraction``), the noise rule of ``check_circles`` and
``check_generator`` (the random stream of every sampled measurement).  Every
entry point that takes such a setting refuses a bad one with the rule's one
message, and the config agrees with the rule on any value."""
import importlib
import inspect
import math
import pkgutil
from dataclasses import is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfedring
from qfedring import cli
from qfedring import datagen as dg
from qfedring import fedring as fr
from qfedring import qweights as qw
from qfedring import statevec as sv
from qfedring import teleport as tp
from qfedring import trainkit as tk
from qfedring import vqc
from tests.helpers import NOT_GENERATORS, examples, generator_id
from tests.test_fedring import NOT_COUNTS

BAD_COUNTS = [*NOT_COUNTS, 0, -1]
BAD_RATES = [0, -1.0, math.nan, math.inf, -math.inf, True, "0.1", None]
NOT_REALS = [True, "0.5", None, math.nan, math.inf, -math.inf]
BAD_SEEDS = [*NOT_REALS, False, 1.5, -1]
BAD_NOISES = [*NOT_REALS, False, -0.1]
BAD_FRACTIONS = [*NOT_REALS, False, 0, 1, -0.5, 1.5]


def _client():
    feats, labels = dg.make_circles(8, 0.1, 0.5, seed=0)
    rng = np.random.default_rng(0)
    return fr.ClientState(0, feats, labels, tk.init_mlp(rng), rng, tk.SgdOptimizer(0.1))


def _centralized(rng):
    c = _client()
    return fr.centralized_train(
        c.model, c.features, c.labels, rng=rng, optimizer=c.optimizer, epochs=1, batch_size=4
    )


def _config(field):
    return lambda v: cli.ExperimentConfig(model="qfl-quantum", **{field: v})


def _split(fraction):
    return dg.scale_and_split(*dg.make_circles(8, 0.1, 0.5, seed=0), fraction, seed=0)


def _teleport_ring(channel_rng):
    feats, labels = dg.make_circles(8, 0.1, 0.5, seed=0)
    store = qw.init_store(np.random.default_rng(0), 2, math.pi)
    clients = fr.make_clients(
        feats, labels, 2, store, partition_seed=0, client_seed=0, learning_rate=0.02
    )
    schedule = fr.RingSchedule(2, 1, 1, fr.Transport.TELEPORT)
    return fr.run_ring(schedule, clients, feats, labels, batch_size=32, channel_rng=channel_rng)


# A valid one-round schedule; each count entry replaces one of its fields.
ONE_RING = dict(num_clients=1, num_rounds=1, local_epochs=1, transport=fr.Transport.CLASSICAL_COPY)

# (entry point, the name its message gives, a call that passes it the value)
COUNT_ENTRIES = [
    *((f"RingSchedule.{n}", n, lambda v, n=n: fr.RingSchedule(**{**ONE_RING, n: v}))
      for n in ("num_clients", "num_rounds", "local_epochs")),
    ("partition", "num_clients", lambda v: fr.partition(np.zeros((4, 2)), [0, 1, 0, 1], v, 0)),
    ("local_train.epochs", "epochs", lambda v: fr.local_train(_client(), v, 4)),
    ("local_train.batch_size", "batch_size", lambda v: fr.local_train(_client(), 1, v)),
    ("vqc.init_model", "num_layers", lambda v: vqc.init_model(np.random.default_rng(0), v)),
    ("qweights.init_store", "num_layers",
     lambda v: qw.init_store(np.random.default_rng(0), v, math.pi)),
    ("RoundMetrics", "round_index", lambda v: tk.RoundMetrics(v, 0, 0.5, 0.5)),
    ("make_circles", "num_points", lambda v: dg.make_circles(v, 0.1, 0.5, seed=0)),
    *((f"ExperimentConfig.{n}", n, _config(n))
      for n in ("clients", "rounds", "local_epochs", "layers", "batch_size", "num_points")),
]
RATE_ENTRIES = [
    ("SgdOptimizer", "learning_rate", tk.SgdOptimizer),
    ("QuantumWeightStore", "gamma", lambda v: qw.QuantumWeightStore(np.zeros((1, 2, 3)), v)),
    ("qweights.init_store", "gamma", lambda v: qw.init_store(np.random.default_rng(0), 2, v)),
    *((f"ExperimentConfig.{n}", n, _config(n)) for n in ("learning_rate", "gamma")),
]
SEED_ENTRIES = [
    ("ExperimentConfig.seed", "seed", _config("seed")),
    ("make_clients", "client_seed",
     lambda v: fr.make_clients(*dg.make_circles(8, 0.1, 0.5, seed=0), 2,
                               tk.init_mlp(np.random.default_rng(0)), partition_seed=0,
                               client_seed=v, learning_rate=0.02)),
]
NOISE_ENTRIES = [
    ("make_circles", "noise", lambda v: dg.make_circles(8, v, 0.5, seed=0)),
    ("ExperimentConfig.noise", "noise", _config("noise")),
]
FRACTION_ENTRIES = [
    ("make_circles", "factor", lambda v: dg.make_circles(8, 0.1, v, seed=0)),
    ("scale_and_split", "train_fraction", _split),
    ("train_split_size", "train_fraction", lambda v: dg.train_split_size(8, v)),
    *((f"ExperimentConfig.{n}", n, _config(n)) for n in ("factor", "train_fraction")),
]
# RX(0.3)|0> reads 1 with probability sin(0.15)^2, so a measurement would draw.
GENERATOR_ENTRIES = [
    ("teleport_state", "rng", lambda v: tp.teleport_state(qw.encode_weight(0.3), v)),
    ("teleport_weights", "rng",
     lambda v: tp.teleport_weights(qw.init_store(np.random.default_rng(0), 2, math.pi), v)),
    ("run_ring", "channel_rng", _teleport_ring),
    ("measure_qubits", "rng", lambda v: sv.measure_qubits(qw.encode_weight(0.3), [0], v)),
    ("local_train", "client 0's rng", lambda v: fr.local_train(replace(_client(), rng=v), 1, 4)),
    ("centralized_train", "client 0's rng", _centralized),
]


def _cases(entries, values, label=repr):
    """One case per entry and value; the config raises ConfigError, the library ValueError."""
    cases = []
    for entry, name, call in entries:
        error = cli.ConfigError if entry.startswith("ExperimentConfig") else ValueError
        cases += [pytest.param(name, call, v, error, id=f"{entry}-{label(v)}") for v in values]
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


@pytest.mark.parametrize("name, call, value, error", _cases(SEED_ENTRIES, BAD_SEEDS))
def test_seed_refused_by_the_count_rule(name, call, value, error):
    with pytest.raises(ValueError) as refused:
        call(value)
    assert type(refused.value) is error
    assert str(refused.value) == f"{name} must be an integer >= 0, got {value!r}"


@pytest.mark.parametrize("name, call, value, error", _cases(NOISE_ENTRIES, BAD_NOISES))
def test_noise_refused_by_its_rule(name, call, value, error):
    with pytest.raises(ValueError) as refused:
        call(value)
    assert type(refused.value) is error
    assert str(refused.value) == f"{name} must be a finite non-negative sigma, got {value!r}"


@pytest.mark.parametrize("name, call, value, error", _cases(FRACTION_ENTRIES, BAD_FRACTIONS))
def test_fraction_refused_by_the_one_rule(name, call, value, error):
    with pytest.raises(ValueError) as refused:
        call(value)
    assert type(refused.value) is error
    assert str(refused.value) == f"{name} must lie in (0, 1), got {value!r}"


@pytest.mark.parametrize(
    "name, call, value, error", _cases(GENERATOR_ENTRIES, NOT_GENERATORS, generator_id)
)
def test_generator_refused_by_the_one_rule(name, call, value, error):
    """The message shows the value by ``generator_id``'s rule, so it never holds an address."""
    with pytest.raises(ValueError) as refused:
        call(value)
    assert type(refused.value) is error
    assert str(refused.value) == f"{name} must be a numpy Generator, got {generator_id(value)}"
    assert "0x" not in str(refused.value)


@pytest.mark.parametrize(
    "field, value",
    [("seed", 0), ("seed", np.int64(2**40)), ("noise", 0), ("noise", np.float32(0.5)),
     ("factor", 1e-9), ("train_fraction", np.float64(0.5))],
)
def test_edge_values_pass(field, value):
    """The seed's minimum is 0 and noise may be 0; numpy scalars pass as Python numbers do."""
    assert getattr(_config(field)(value), field) == value


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
# Each field's rule as (value, name) -> None; noise and the split size are
# checked at the config's defaults of 1200 points and factor 0.5.
CONFIG_RULES = {
    **dict.fromkeys(("clients", "rounds", "local_epochs", "layers", "batch_size"), dg.check_count),
    "learning_rate": dg.check_positive,
    "gamma": dg.check_positive,
    "seed": lambda v, name: dg.check_count(v, name, minimum=0),
    "noise": lambda v, name: dg.check_circles(1200, v, 0.5),
    "factor": dg.check_fraction,
    "train_fraction": lambda v, name: dg.train_split_size(1200, v),
}


def _refusal(call, error):
    """The message of the ``error`` ``call()`` raises, or None if it passes."""
    try:
        call()
    except error as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("field", CONFIG_RULES)
@settings(max_examples=examples(150), deadline=None)
@given(value=VALUES)
def test_config_refuses_exactly_what_the_rule_refuses(field, value):
    want = _refusal(lambda: CONFIG_RULES[field](value, field), ValueError)
    # One client, so that no fraction the rule passes leaves too few training rows.
    values = {"model": "qfl-quantum", "clients": 1, field: value}
    got = _refusal(lambda: cli.ExperimentConfig(**values), cli.ConfigError)
    assert got == want


# Each experiment setting a library entry point takes, by the name it takes it under.
SETTING_PARAMETERS = {
    fr.RingSchedule: ("num_clients", "num_rounds", "local_epochs", "transport"),
    fr.make_clients: ("learning_rate",),
    fr.run_ring: ("batch_size",),
    fr.run_hubspoke: ("batch_size",),
    fr.centralized_train: ("batch_size",),
    vqc.init_model: ("num_layers",),
    qw.init_store: ("num_layers", "gamma"),
    qw.QuantumWeightStore: ("gamma",),
}


def test_only_the_config_gives_a_setting_a_default():
    # A library default would be a second copy of the config's, and one a
    # caller could fall back to unseen (a store built without gamma read pi).
    names = {name for params in SETTING_PARAMETERS.values() for name in params}
    taken, defaulted = set(), []
    for info in pkgutil.iter_modules(qfedring.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"qfedring.{info.name}")
        for obj in vars(module).values():
            kept = inspect.isfunction(obj) or inspect.isclass(obj) and is_dataclass(obj)
            if not kept or obj.__module__ != module.__name__ or obj is cli.ExperimentConfig:
                continue
            for param in inspect.signature(obj).parameters.values():
                if param.name in names:
                    taken.add((obj, param.name))
                    if param.default is not param.empty:
                        defaulted.append(f"{obj.__qualname__}({param.name}={param.default!r})")
    assert defaulted == []
    assert {(obj, name) for obj, params in SETTING_PARAMETERS.items() for name in params} <= taken
