"""The benchmark's tracer (perfbench/spans.py) rebinds qfedring functions by
module attribute and counts from their positional arguments; a missing binding,
a call round the attribute or a call shape the counters cannot read would break
or blind the traced benchmark run, so every check here runs under that tracer."""
import contextlib
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from qfedring import fedring as fr
from qfedring import qweights as qw
from qfedring import trainkit as tk
from qfedring import vqc

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def traced():
    """Run the block under a fresh ``spans.Tracer``, installed, and yield it."""
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        tracer.remove()


def test_every_span_target_resolves():
    """Every wrapped binding exists, is rebound by install() and put back by remove()."""
    owners = [
        (importlib.import_module(f"qfedring.{module}"), attr)
        for _, module, attr in load_spans().SPAN_TARGETS
    ] + [(importlib.import_module("qfedring.statevec").StateVector, "__post_init__")]
    before = [getattr(owner, attr, None) for owner, attr in owners]
    assert all(map(callable, before))
    with traced():
        assert not any(getattr(o, a) is f for (o, a), f in zip(owners, before))
    assert all(getattr(o, a) is f for (o, a), f in zip(owners, before))


# The bindings the tracer times per SGD step, by the model kind that calls them.
STEP_BINDINGS = {
    "mlp": ("trainkit.mlp_batch_grads", "trainkit.sgd_step_mlp", "trainkit.batch_loss_and_grad"),
    "circuit": ("vqc.gradient_batch", "trainkit.batch_loss_and_grad"),
    "store": ("vqc.gradient_batch", "trainkit.batch_loss_and_grad",
              "qweights.weight_gradient", "qweights.canonical_angles"),
}
MODELS = {
    "mlp": tk.init_mlp,
    "circuit": lambda gen: vqc.init_model(gen, 2),
    "store": lambda gen: qw.init_store(gen, 2, math.pi),
}


@pytest.mark.parametrize("kind", sorted(STEP_BINDINGS))
def test_step_calls_each_traced_binding_once(kind):
    """A step calls its kind's bindings once, no other kind's; an evaluation, one forward pass."""
    gen = np.random.default_rng(3)
    model = MODELS[kind](gen)
    feats, labels = gen.uniform(0, math.pi, size=(23, 2)), gen.integers(0, 2, size=23)
    clients = fr.make_clients(feats[:20], labels[:20], 2, model, partition_seed=1,
                              client_seed=2, learning_rate=0.02)
    with traced() as tracer:
        fr.run_ring(fr.RingSchedule(2, 2, 2, fr.Transport.CLASSICAL_COPY),
                    clients, feats[20:], labels[20:], batch_size=4)
    got = tracer.layer_metrics()
    steps = got["fedring.sgd_steps"]
    assert steps == 2 * 2 * sum(math.ceil(c.labels.size / 4) for c in clients) > 0
    circuit = kind != "mlp"
    names = set().union(*STEP_BINDINGS.values())
    want = {f"{name}.calls": steps * (name in STEP_BINDINGS[kind]) for name in names}
    want.update({
        # Every train row once per epoch; two shifted circuits per parameter.
        "vqc.gradient_batch.rows": circuit * 2 * 2 * 20,
        "vqc.shifted_evals": circuit * steps * 2 * 12,
        "trainkit.evaluate.calls": 2,
        "vqc.forward_batch.calls": circuit * 2,
        "vqc.forward_batch.rows": circuit * 2 * 3,
        "qweights.materialize.calls": steps + 2 if kind == "store" else 0,
    })
    assert {name: got[name] for name in want} == want


# The bindings the tracer times once per teleported weight: it counts one Bell
# outcome per teleport_state call, so a call that moved several would under-count.
CHANNEL_BINDINGS = ("teleport.teleport_state", "teleport.state_expectations",
                    "teleport.decode_angle")


def check_channel(got, hand_offs, weights):
    """``hand_offs`` traced hand-offs of ``weights`` weights each, every one decoded."""
    moved = hand_offs * weights
    assert got["teleport.teleport_weights.calls"] == hand_offs
    calls = {name: got[f"{name}.calls"] for name in CHANNEL_BINDINGS}
    assert calls == dict.fromkeys(CHANNEL_BINDINGS, moved)
    bell = sum(got[f"teleport.bell.{m1}{m2}"] for m1 in "01" for m2 in "01")
    assert bell == got["teleport.weights_moved"] == moved
    assert got["teleport.min_fidelity"] >= 1 - 1e-12
    assert got["teleport.decode_ok_frac"] == 1


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_channel_calls_each_traced_binding_once_per_weight(layers):
    store = qw.init_store(np.random.default_rng(layers), num_layers=layers, gamma=math.pi)
    with traced() as tracer:
        # fedring.teleport_weights is the binding the tracer wraps for the hand-off.
        fr.teleport_weights(store, np.random.default_rng(0))
    check_channel(tracer.layer_metrics(), 1, 6 * layers)


def test_teleport_ring_calls_the_channel_bindings_per_hand_off():
    gen = np.random.default_rng(5)
    store = qw.init_store(gen, num_layers=2, gamma=math.pi)
    feats, labels = gen.uniform(0, math.pi, size=(23, 2)), gen.integers(0, 2, size=23)
    clients = fr.make_clients(feats[:20], labels[:20], 3, store, partition_seed=1,
                              client_seed=2, learning_rate=0.02)
    with traced() as tracer:
        fr.run_ring(fr.RingSchedule(3, 2, 1, fr.Transport.TELEPORT), clients, feats[20:],
                    labels[20:], batch_size=4, channel_rng=np.random.default_rng(6))
    check_channel(tracer.layer_metrics(), 3 * 2, 12)
