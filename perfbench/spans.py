"""Timing spans and counters around qfedring's layers, for the traced run.

The tracer patches the module bindings that the training path looks up at
call time (``fedring.teleport_weights``, ``teleport.apply_gate``, ...), so no
file of the package changes.  Spans stay in memory as
``(name, start, end, parent, round)`` tuples until the job writes them out;
``remove`` puts every original binding back.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

# (metric prefix, qfedring module, attribute).  The statevec functions are
# imported by name into qweights and teleport, so those are the bindings the
# training path calls; both feed one metric.
SPAN_TARGETS = (
    ("fedring.run_ring", "fedring", "run_ring"),
    ("fedring.local_train", "fedring", "local_train"),
    ("fedring.make_clients", "fedring", "make_clients"),
    ("trainkit.mlp_batch_grads", "trainkit", "mlp_batch_grads"),
    ("trainkit.batch_loss_and_grad", "trainkit", "batch_loss_and_grad"),
    ("trainkit.sgd_step_mlp", "trainkit", "sgd_step_mlp"),
    ("trainkit.evaluate", "trainkit", "evaluate"),
    ("vqc.forward_batch", "vqc", "forward_batch"),
    ("vqc.gradient_batch", "vqc", "gradient_batch"),
    ("qweights.materialize", "qweights", "materialize"),
    ("qweights.weight_gradient", "qweights", "weight_gradient"),
    ("qweights.canonical_angles", "qweights", "canonical_angles"),
    ("teleport.teleport_weights", "fedring", "teleport_weights"),
    ("teleport.teleport_state", "teleport", "teleport_state"),
    ("teleport.encode_weight", "teleport", "encode_weight"),
    ("teleport.state_expectations", "teleport", "state_expectations"),
    ("teleport.decode_angle", "teleport", "decode_angle"),
    ("statevec.apply_gate", "qweights", "apply_gate"),
    ("statevec.apply_gate", "teleport", "apply_gate"),
    ("statevec.expectation", "qweights", "expectation"),
    ("statevec.measure_qubits", "teleport", "measure_qubits"),
    ("datagen.make_circles", "datagen", "make_circles"),
    ("datagen.scale_and_split", "datagen", "scale_and_split"),
    ("cli.build_dataset", "cli", "build_dataset"),
    ("cli.metrics_csv_text", "cli", "metrics_csv_text"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPAN_TARGETS))

# Counter name -> (unit, better).  vqc.shifted_evals is computed from the
# parameter count (two shifted circuits per parameter), not observed.
COUNTERS = {
    "statevec.states_built": ("count", "lower"),
    "vqc.forward_batch.rows": ("count", "higher"),
    "vqc.gradient_batch.rows": ("count", "higher"),
    "vqc.shifted_evals": ("count", "lower"),
    "fedring.sgd_steps": ("count", "higher"),
    "qweights.angles_wrapped": ("count", "lower"),
    "teleport.weights_moved": ("count", "higher"),
    "teleport.bell.00": ("count", "higher"),
    "teleport.bell.01": ("count", "higher"),
    "teleport.bell.10": ("count", "higher"),
    "teleport.bell.11": ("count", "higher"),
    "teleport.min_fidelity": ("fraction", "higher"),
    "teleport.max_decode_residual": ("abs", "lower"),
    "teleport.decode_ok_frac": ("fraction", "higher"),
    "trace.overhead_frac": ("fraction", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports, with (unit, better)."""
    units: dict[str, tuple[str, str]] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.ms"] = ("ms", "lower")
        units[f"{name}.self_ms"] = ("ms", "lower")
    units.update(COUNTERS)
    return units


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Installs the wrappers, collects spans and counters, and removes them."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self.round: int | None = 0
        self.min_fidelity = 1.0
        self.max_decode_residual = 0.0
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        after = {
            "vqc.forward_batch": self._count_forward,
            "vqc.gradient_batch": self._count_gradient,
            "fedring.local_train": self._count_steps,
            "qweights.canonical_angles": self._count_wrapped,
            "teleport.teleport_weights": self._count_moved,
            "teleport.teleport_state": self._count_outcome,
            "teleport.decode_angle": self._count_decode,
        }
        for name, module, attr in SPAN_TARGETS:
            owner = importlib.import_module(f"qfedring.{module}")
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr), after.get(name)))
        state_cls = importlib.import_module("qfedring.statevec").StateVector
        self._patch(state_cls, "__post_init__", self._count_wrapper(state_cls.__post_init__))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, original, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.round)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_wrapper(self, original):
        counters = self.counters

        @functools.wraps(original)
        def wrapper(state):
            counters["statevec.states_built"] += 1
            return original(state)

        return wrapper

    def _count_forward(self, args, result) -> None:
        self.counters["vqc.forward_batch.rows"] += len(args[1])

    def _count_gradient(self, args, result) -> None:
        self.counters["vqc.gradient_batch.rows"] += len(args[1])
        self.counters["vqc.shifted_evals"] += 2 * args[0].size

    def _count_steps(self, args, result) -> None:
        self.counters["fedring.sgd_steps"] += len(result)

    def _count_wrapped(self, args, result) -> None:
        self.counters["qweights.angles_wrapped"] += int((result != args[0]).sum())

    def _count_moved(self, args, result) -> None:
        self.counters["teleport.weights_moved"] += args[0].angles.size

    def _count_outcome(self, args, result) -> None:
        m1, m2 = result.bell_outcome
        self.counters[f"teleport.bell.{m1}{m2}"] += 1
        self.min_fidelity = min(self.min_fidelity, result.fidelity)

    def _count_decode(self, args, result) -> None:
        ez, ey = args
        self.max_decode_residual = max(self.max_decode_residual, abs(ez * ez + ey * ey - 1.0))
        self.counters["teleport.decode_ok"] += 1

    def layer_metrics(self) -> dict[str, float]:
        """Calls, total and self milliseconds per span name, plus the counters.

        trace.overhead_frac needs the untraced run, so the caller adds it.
        With no decode attempted, min_fidelity and decode_ok_frac read 1.0
        and max_decode_residual 0.0: nothing failed.
        """
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.ms"] = 0.0
            out[f"{name}.self_ms"] = 0.0
        for (name, start, end, *_), own in zip(self.spans, self_times(self.spans)):
            out[f"{name}.calls"] += 1
            out[f"{name}.ms"] += (end - start) * 1e3
            out[f"{name}.self_ms"] += own * 1e3
        for name, (unit, _) in COUNTERS.items():
            if unit == "count":
                out[name] = self.counters[name]
        decodes = out["teleport.decode_angle.calls"]
        out["teleport.min_fidelity"] = self.min_fidelity
        out["teleport.max_decode_residual"] = self.max_decode_residual
        out["teleport.decode_ok_frac"] = (
            self.counters["teleport.decode_ok"] / decodes if decodes else 1.0
        )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            for name, start, end, parent, round_index in self.spans:
                fh.write(json.dumps([name, start, end, parent, round_index]) + "\n")
