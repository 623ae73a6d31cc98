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


@pytest.mark.parametrize("kind", sorted(STEP_BINDINGS))
def test_step_calls_each_traced_binding_once(monkeypatch, kind):
    """A training step must reach these names through their module attributes,
    as the tracer rebinds them; a method that bound one of them directly would
    read 0 calls in the traced run."""
    calls = Counter()
    for name in set().union(*STEP_BINDINGS.values()):
        module, attr = name.split(".")
        owner = importlib.import_module(f"qfedring.{module}")

        def counted(*args, _name=name, _original=getattr(owner, attr), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    gen = np.random.default_rng(3)
    model = {"mlp": tk.init_mlp, "circuit": vqc.init_model, "store": qw.init_store}[kind](gen)
    feats, labels = gen.uniform(0, math.pi, size=(23, 2)), gen.integers(0, 2, size=23)
    clients = fr.make_clients(feats[:20], labels[:20], 2, model, partition_seed=1, client_seed=2)
    schedule = fr.RingSchedule(num_clients=2, num_rounds=2, local_epochs=2)
    fr.run_ring(schedule, clients, feats[20:], labels[20:], batch_size=4)

    steps = 2 * 2 * sum(math.ceil(c.labels.size / 4) for c in clients)
    assert dict(calls) == {name: steps for name in STEP_BINDINGS[kind]}
