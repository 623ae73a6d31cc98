"""Tests of the benchmark's own machinery: run with ``python -m pytest perfbench``."""
from __future__ import annotations

import hashlib
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from job import SRC, WORKLOADS, cli_flags, run_job
from spans import SPAN_TARGETS, Tracer, per_layer_units, self_times

TINY = ["--num-points", "200"]
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _cli_sha(workload: str, seed: int, rounds: int, out: Path) -> str:
    from qfedring import cli

    assert cli.main([*cli_flags(workload, seed, rounds, TINY), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_round_jobs_reproduce_cli_csv(workload, tmp_path):
    result = run_job(workload, 5, rounds=3, extra=TINY)
    assert result["csv_sha256"] == _cli_sha(workload, 5, 3, tmp_path / "cli.csv")
    assert len(result["round_s"]) == 3


def _bindings():
    import qfedring.statevec

    found = {
        (module, attr): getattr(importlib.import_module(f"qfedring.{module}"), attr)
        for _, module, attr in SPAN_TARGETS
    }
    found[("statevec.StateVector", "__post_init__")] = qfedring.statevec.StateVector.__post_init__
    return found


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_removes_every_wrapper_and_keeps_the_csv(workload):
    plain = run_job(workload, 5, rounds=2, extra=TINY)
    before = _bindings()
    tracer = Tracer()
    traced = run_job(workload, 5, rounds=2, extra=TINY, tracer=tracer)
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    assert traced["csv_sha256"] == plain["csv_sha256"]
    layers = tracer.layer_metrics()
    assert layers["fedring.run_ring.calls"] == 2
    teleports = layers["teleport.teleport_weights.calls"]
    if workload == "teleport-handoff":
        assert teleports == 2 * 24
        assert layers["teleport.weights_moved"] == 12 * teleports
        assert sum(layers[f"teleport.bell.{b}"] for b in ("00", "01", "10", "11")) == 12 * teleports
        assert layers["teleport.min_fidelity"] > 1 - 1e-12
    else:
        assert teleports == 0


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("root", 0.0, 10.0, -1, 1),
        ("a", 1.0, 3.0, 0, 1),
        ("b", 2.0, 5.0, 0, 1),  # overlaps a: the union [1, 5] counts once
        ("c", 9.0, 12.0, 0, 1),  # clipped to the parent's end
        ("a.child", 1.5, 2.0, 1, 1),  # a grandchild does not touch root
        ("other", 20.0, 21.0, -1, 2),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 3.0, 3.0, 0.5, 1.0])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert [run.tail_percentile(n) for n in (19, 40, 100, 250, 1000, 10000)] == [
        50.0, 75.0, 90.0, 95.0, 99.0, 99.9,
    ]
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5


def test_benchmark_json_names_the_metrics_the_command_prints():
    spec = json.loads((SRC.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer_units()


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(SRC.parent / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(SRC.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlp-ring", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
