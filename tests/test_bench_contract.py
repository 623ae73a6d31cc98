"""The benchmark's tracer (perfbench/spans.py) wraps qfedring functions by
module attribute; a binding it names that no longer exists would break the
traced benchmark run, so it fails here instead."""
import importlib
import importlib.util
from pathlib import Path

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
