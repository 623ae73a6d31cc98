"""scripts/compare_base.py: the warning rules, driven on hand-built facts."""
import copy
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_base.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("compare_base", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def facts(script):
    """One side's facts, as ``facts`` and the benchmark pairs leave them."""
    return {
        "runs": {flags: {"bits": f"bits {i}", "csv": f"csv {i}"}
                 for i, flags in enumerate(script.RUNS)},
        "comparison": "comparison csv",
        "help": "usage: qfedring [-h]\n\noptions:\n  -h, --help\n",
        "refusals": {flags: "exit 2: error: bad" for flags in script.BAD_FLAGS},
        "modules": ["argparse", "qfedring", "qfedring.cli"],
        "lines": {"src": 2141, "tests": 5386, "scripts": 638},
        "kernel": "Core: SkylakeX",
        "timers": {name: "150 usec" for name in script.TIMERS},
        "bench": {workload: [{"samples_per_s": 1000.0, "round_ms.p50": 10.0}] * 2
                  for workload in script.WORKLOADS},
    }


def warnings(script, base, head):
    return [line for line in script.compare(base, head) if line.startswith("::warning::")]


def test_facts_compared_with_themselves_warn_on_nothing(script, facts):
    report = script.compare(facts, copy.deepcopy(facts))
    assert not [line for line in report if line.startswith("::warning::")]
    assert sum(line.endswith("(bits equal)") for line in report) == len(script.RUNS)


@pytest.mark.parametrize("index", range(5))
def test_a_changed_run_csv_warns_once_naming_the_run(script, facts, index):
    head = copy.deepcopy(facts)
    flags = script.RUNS[index]
    head["runs"][flags]["csv"] = "another csv"
    assert warnings(script, facts, head) == [
        f"::warning::{flags}: metrics CSV differs from the base commit"
    ]


def test_a_changed_comparison_csv_warns_once(script, facts):
    head = copy.deepcopy(facts)
    head["comparison"] = "another csv"
    assert warnings(script, facts, head) == [
        "::warning::qfedring --compare configs/*.cfg at 10 rounds: metrics CSV differs from the "
        "base commit"
    ]


def test_fingerprint_levels(script, facts):
    flags = script.RUNS[0]
    head = copy.deepcopy(facts)

    def level():
        line = next(line for line in script.compare(facts, head) if "fingerprint" in line)
        assert line.startswith(f"{flags}: fingerprint base bits 0 head ")
        return line.rsplit(" (", 1)[1].rstrip(")")

    assert level() == "bits equal"
    head["runs"][flags]["bits"] = "other bits"
    assert level() == "CSV equal, bits drifted"
    head["runs"][flags]["csv"] = "other csv"
    assert level() == "drifted"


@pytest.mark.parametrize("flags", ["--seed -1", '--config ""'])
def test_a_changed_refusal_warns_once_naming_the_flag_set(script, facts, flags):
    head = copy.deepcopy(facts)
    head["refusals"][flags] = "exit 0: "
    assert warnings(script, facts, head) == [
        f"::warning::{flags}: a bad flag set exits or reads differently"
    ]
    assert f"{flags}: base exit 2: error: bad head exit 0: " in script.compare(facts, head)


def test_a_module_only_the_head_loads_warns_once_naming_it(script, facts):
    head = copy.deepcopy(facts)
    head["modules"] = sorted([*facts["modules"], "numpy.ma"])
    assert warnings(script, facts, head) == [
        "::warning::a one-round teleport run loads numpy.ma at the head only"
    ]
    # A module the head no longer loads is no warning.
    assert warnings(script, head, facts) == []


def test_changed_help_warns_once_below_its_diff(script, facts):
    head = copy.deepcopy(facts)
    head["help"] = facts["help"].replace("--help", "--help, --usage")
    report = script.compare(facts, head)
    assert warnings(script, facts, head) == [
        "::warning::python -m qfedring --help differs from the base commit"
    ]
    assert "-  -h, --help" in report and "+  -h, --help, --usage" in report


@pytest.mark.parametrize("side", ["base", "head"])
def test_failed_runs_that_only_warn(script, facts, side):
    base, head = facts, copy.deepcopy(facts)
    failed = base if side == "base" else head
    failed["modules"] = None
    failed["timers"]["channel timer"] = None
    failed["bench"]["vqc-ring"][1] = None
    assert warnings(script, base, head) == [
        f"::warning::the {side} run for the module list failed",
        f"::warning::the {side} channel timer failed",
        "::warning::vqc-ring: the benchmark runs could not be compared",
    ]


@pytest.mark.parametrize("correct, failed, read", [
    (True, 0, True), (False, 0, False), (True, 1, False), (False, 2, False),
])
def test_a_benchmark_run_that_fails_its_own_gate_is_not_read(
        script, monkeypatch, correct, failed, read):
    # perfbench/run.py exits 0 either way; only its last line tells.
    metrics = {name: {"value": 5.0, "unit": ""} for name in script.BENCH_METRICS}
    line = json.dumps({"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics})
    done = subprocess.CompletedProcess([], 0, stdout=f"report\n{line}\n", stderr="")
    monkeypatch.setattr(script, "run", lambda *args, **kwargs: done)
    got = script.or_none(script.bench, Path("tree"), "vqc-ring")
    assert got == ({name: 5.0 for name in script.BENCH_METRICS} if read else None)


def test_the_printed_facts_warn_on_nothing(script, facts):
    head = copy.deepcopy(facts)
    head["lines"] = {"src": 2000, "tests": 6000, "scripts": 650}
    head["kernel"] = "Core: Haswell"
    head["timers"] = {name: "300 usec" for name in script.TIMERS}
    report = script.compare(facts, head)
    assert warnings(script, facts, head) == []
    assert "src/ Python lines: base 2141 head 2000" in report
    assert "scripts/ Python lines: base 638 head 650" in report
    assert "OPENBLAS_VERBOSE=2: base Core: SkylakeX head Core: Haswell" in report
    assert "evaluate timer, store: base 150 usec head 300 usec" in report


def test_every_timer_statement_runs(script):
    # The timers' setup and statements, run once on this checkout's package.
    scope = {}
    exec("\n".join(script.TIMER_SETUP), scope)
    for stmt in script.TIMERS.values():
        exec(stmt, scope)
    # One epoch of the 320-row shard steps 320 / 32 batches at the default size.
    epoch = eval(script.TIMERS["local_train epoch timer, mlp"], scope)
    assert len(epoch) == 320 // scope["config"].batch_size == 10


@pytest.mark.parametrize("name, worse", [("samples_per_s", 700.0), ("round_ms.p50", 13.0)])
def test_a_head_worse_in_one_pair_warns_on_nothing(script, facts, name, worse):
    head = copy.deepcopy(facts)
    head["bench"]["mlp-ring"][0] = {**facts["bench"]["mlp-ring"][0], name: worse}
    assert warnings(script, facts, head) == []


@pytest.mark.parametrize("name, worse, within", [
    ("samples_per_s", 700.0, 900.0), ("round_ms.p50", 13.0, 11.0),
])
def test_a_head_worse_in_both_pairs_past_the_bound_warns_once(script, facts, name, worse, within):
    head = copy.deepcopy(facts)
    run = facts["bench"]["teleport-handoff"][0]
    head["bench"]["teleport-handoff"] = [{**run, name: worse}] * 2
    assert warnings(script, facts, head) == [
        f"::warning::teleport-handoff {name} is worse at the head in both pairs, by 30% or more "
        "(bound 20%)"
    ]
    # Worse in both pairs, but by less than the bound.
    head["bench"]["teleport-handoff"] = [{**run, name: within}] * 2
    assert warnings(script, facts, head) == []


def test_main_takes_one_ref(script, capsys):
    assert script.main([]) == 2
    assert script.main(["HEAD", "HEAD~1"]) == 2
    assert capsys.readouterr().err == "usage: compare_base.py REF\n" * 2


def test_a_failed_fingerprint_run_raises_naming_the_command(script, tmp_path):
    package = tmp_path / "src" / "qfedring"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("raise ImportError('broken on purpose')\n")
    with pytest.raises(script.subprocess.CalledProcessError) as failed:
        script.facts(tmp_path)
    assert str(SCRIPT.parent / "fingerprint.py") in failed.value.cmd
    assert "broken on purpose" in failed.value.stderr
