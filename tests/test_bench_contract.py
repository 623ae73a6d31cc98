"""The benchmark's tracer (perfbench/spans.py) wraps qfedring functions by
module attribute; a binding it names that no longer exists, or that the
training step stops calling through its module, would break or blind the
traced benchmark run, so it fails here instead."""
import importlib
import importlib.util
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qfedring import fedring as fr
from qfedring import qweights as qw
from qfedring import teleport as tp
from qfedring import trainkit as tk
from qfedring import vqc

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = load_spans().SPAN_TARGETS
    assert targets
    missing = [
        (module, attr)
        for _, module, attr in targets
        if not callable(getattr(importlib.import_module(f"qfedring.{module}"), attr, None))
    ]
    assert missing == []
    # The tracer also counts states built by wrapping this method.
    assert callable(importlib.import_module("qfedring.statevec").StateVector.__post_init__)


# The bindings the tracer times per SGD step, by the model kind that calls them.
STEP_BINDINGS = {
    "mlp": ("trainkit.mlp_batch_grads", "trainkit.sgd_step_mlp", "trainkit.batch_loss_and_grad"),
    "circuit": ("vqc.gradient_batch", "trainkit.batch_loss_and_grad"),
    "store": (
        "vqc.gradient_batch",
        "trainkit.batch_loss_and_grad",
        "qweights.weight_gradient",
        "qweights.canonical_angles",
    ),
}


def count_calls(monkeypatch, names) -> Counter:
    """Rebind each ``module.attr`` name to a counting wrapper, as the tracer does."""
    calls = Counter()
    for name in names:
        module, attr = name.split(".")
        owner = importlib.import_module(f"qfedring.{module}")

        def counted(*args, _name=name, _original=getattr(owner, attr), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    return calls


@pytest.mark.parametrize("kind", sorted(STEP_BINDINGS))
def test_step_calls_each_traced_binding_once(monkeypatch, kind):
    """A training step must reach these names through their module attributes,
    as the tracer rebinds them; a method that bound one of them directly would
    read 0 calls in the traced run."""
    calls = count_calls(monkeypatch, set().union(*STEP_BINDINGS.values()))
    gen = np.random.default_rng(3)
    model = {
        "mlp": lambda: tk.init_mlp(gen),
        "circuit": lambda: vqc.init_model(gen, 2),
        "store": lambda: qw.init_store(gen, 2, math.pi),
    }[kind]()
    feats, labels = gen.uniform(0, math.pi, size=(23, 2)), gen.integers(0, 2, size=23)
    clients = fr.make_clients(
        feats[:20], labels[:20], 2, model, partition_seed=1, client_seed=2, learning_rate=0.02
    )
    schedule = fr.RingSchedule(2, 2, 2, fr.Transport.CLASSICAL_COPY)
    fr.run_ring(schedule, clients, feats[20:], labels[20:], batch_size=4)

    steps = 2 * 2 * sum(math.ceil(c.labels.size / 4) for c in clients)
    assert dict(calls) == {name: steps for name in STEP_BINDINGS[kind]}


# The bindings the tracer times once per teleported weight.  The benchmark
# counts one Bell outcome per ``teleport_state`` call, so a channel that moved
# several weights per call would under-count them.
CHANNEL_BINDINGS = (
    "teleport.teleport_state",
    "teleport.state_expectations",
    "teleport.decode_angle",
)


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_channel_calls_each_traced_binding_once_per_weight(monkeypatch, layers):
    calls = count_calls(monkeypatch, CHANNEL_BINDINGS)
    store = qw.init_store(np.random.default_rng(layers), num_layers=layers, gamma=math.pi)
    tp.teleport_weights(store, np.random.default_rng(0))
    assert dict(calls) == {name: 6 * layers for name in CHANNEL_BINDINGS}


def test_teleport_ring_calls_the_channel_bindings_per_hand_off(monkeypatch):
    # fedring.teleport_weights is the binding the tracer wraps for the hand-off.
    calls = count_calls(monkeypatch, CHANNEL_BINDINGS + ("fedring.teleport_weights",))
    gen = np.random.default_rng(5)
    store = qw.init_store(gen, num_layers=2, gamma=math.pi)
    feats, labels = gen.uniform(0, math.pi, size=(23, 2)), gen.integers(0, 2, size=23)
    clients = fr.make_clients(
        feats[:20], labels[:20], 3, store, partition_seed=1, client_seed=2, learning_rate=0.02
    )
    schedule = fr.RingSchedule(
        num_clients=3, num_rounds=2, local_epochs=1, transport=fr.Transport.TELEPORT
    )
    fr.run_ring(
        schedule, clients, feats[20:], labels[20:], batch_size=4,
        channel_rng=np.random.default_rng(6),
    )
    hand_offs = 3 * 2
    assert calls["fedring.teleport_weights"] == hand_offs
    assert {name: calls[name] for name in CHANNEL_BINDINGS} == {
        name: 12 * hand_offs for name in CHANNEL_BINDINGS
    }
