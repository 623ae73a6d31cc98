"""scripts/compare_base.py: the warning rules and the benchmark verdict, driven
on hand-built facts and faked runs; nothing here times the package."""
import copy
import importlib.util
import json
import subprocess
import tarfile
from pathlib import Path

import numpy as np
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
        "pairs": {
            "timers": [{name: [40e-6, 26e-6] if name in script.FLOORS else [150e-6]
                        for name in script.TIMERS}] * 2,
            **{workload: [{**{name: 10.0 for name in script.BENCH_METRICS},
                           "samples_per_s": 1000.0}] * 2
               for workload in script.WORKLOADS},
        },
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
    failed["pairs"]["timers"][0] = {**failed["pairs"]["timers"][0], "channel timer": None}
    failed["pairs"]["vqc-ring"][1] = None
    assert warnings(script, base, head) == [
        f"::warning::the {side} run for the module list failed",
        f"::warning::the {side} channel timer failed",
        "::warning::vqc-ring: the benchmark runs could not be compared",
    ]


@pytest.mark.parametrize("side", ["base", "head"])
def test_a_failed_timer_run_warns_once_naming_the_side_and_the_timer(script, facts, side):
    base, head = facts, copy.deepcopy(facts)
    failed = base if side == "base" else head
    name = "SGD step timer, store"
    # The timer raised in both of the side's runs: one warning, not one per run.
    failed["pairs"]["timers"] = [{**run, name: None} for run in failed["pairs"]["timers"]]
    assert warnings(script, base, head) == [f"::warning::the {side} {name} failed"]
    assert f"{name}, {side}: failed" in script.compare(base, head)
    # A harness process that failed reads as None: each timer warns once.
    failed["pairs"]["timers"][1] = None
    assert warnings(script, base, head) == [
        f"::warning::the {side} {timer} failed" for timer in script.TIMERS
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
    called = []
    monkeypatch.setattr(script, "run", lambda *args, **kwargs: called.append(args) or done)
    got = script.or_none(script.bench, Path("tree"), "vqc-ring", 7)
    assert got == ({name: 5.0 for name in script.BENCH_METRICS} if read else None)
    assert called[0][-6:] == ("--workload", "vqc-ring", "--seconds", "7", "--trace", "0")


def test_the_printed_facts_warn_on_nothing(script, facts):
    head = copy.deepcopy(facts)
    head["lines"] = {"src": 2000, "tests": 6000, "scripts": 650}
    head["kernel"] = "Core: Haswell"
    head["pairs"]["timers"] = [{name: [step, 26e-6] if name in script.FLOORS else [300e-6]
                                for name in script.TIMERS} for step in (39e-6, 41e-6)]
    report = script.compare(facts, head)
    assert warnings(script, facts, head) == []
    # Each side's median and IQR over its runs, then the floor's, then the
    # median of each run's step / floor (39 / 26 and 41 / 26 at the head).
    assert ("SGD step timer, mlp, base: median 40 IQR 0 usec; floor median 26 IQR 0 usec; "
            "median step / floor 1.54") in report
    assert ("SGD step timer, mlp, head: median 40 IQR 1 usec; floor median 26 IQR 0 usec; "
            "median step / floor 1.54") in report
    assert "src/ Python lines: base 2141 head 2000" in report
    assert "scripts/ Python lines: base 638 head 650" in report
    assert "OPENBLAS_VERBOSE=2: base Core: SkylakeX head Core: Haswell" in report
    assert "evaluate timer, store, base: median 150 IQR 0 usec" in report
    assert "evaluate timer, store, head: median 300 IQR 0 usec" in report


def test_the_harness_times_each_step_beside_its_floor(script, monkeypatch, tmp_path):
    # One fresh process on toy statements: a timer without a floor reads as
    # [step], one with a floor as [step, floor], one that raises as None.
    monkeypatch.setattr(script, "TIMER_SETUP", ("x = 1",))
    monkeypatch.setattr(script, "FLOOR_SETUP", ("y = 2",))
    monkeypatch.setattr(script, "TIMERS", {"plain": "x + 1", "floored": "x * y", "raises": "1 / 0"})
    monkeypatch.setattr(script, "FLOORS", {"floored": "y", "raises": "y"})
    got = script.timers(tmp_path)
    assert list(got) == ["plain", "floored", "raises"] and got["raises"] is None
    assert [len(got["plain"]), len(got["floored"])] == [1, 2]
    assert all(0 < seconds < 1e-3 for seconds in got["plain"] + got["floored"])


def test_every_timer_statement_runs(script):
    # The timers' setup and statements, run once on this checkout's package.
    scope = {}
    exec("\n".join(script.TIMER_SETUP), scope)
    for stmt in script.TIMERS.values():
        exec(stmt, scope)
    # One epoch of the 320-row shard steps 320 / 32 batches at the default size.
    epoch = eval(script.TIMERS["local_train epoch timer, mlp"], scope)
    assert len(epoch) == 320 // scope["config"].batch_size == 10
    # Each floor does its step's arithmetic: the same losses and params, bit for bit.
    exec("\n".join(script.FLOOR_SETUP), scope)
    assert sorted(script.FLOORS) == [f"SGD step timer, {kind}" for kind in ("circuit", "mlp", "store")]
    for name, stmt in script.FLOORS.items():
        kind = name.rsplit(", ", 1)[1]
        losses, params = eval(stmt, scope)
        stepped = eval(script.TIMERS[name], scope)
        want = stepped.angles if kind == "store" else stepped.params
        assert params.tobytes() == want.tobytes()
        step_losses = eval(f"{kind}.loss_grad({kind}_rows, loss)[0]", scope)
        assert losses.tobytes() == step_losses.tobytes()
    # The store floor's wrap, on angles of which a step leaves some outside (-pi, pi].
    wide = np.random.default_rng(0).uniform(-4, 4, scope["store"].angles.shape)
    scope["store"] = type(scope["store"])(wide, scope["store"].gamma)
    name = "SGD step timer, store"
    params = eval(script.FLOORS[name], scope)[1]
    assert np.abs(params - wide).max() > 1 and np.abs(params).max() <= np.pi
    assert params.tobytes() == eval(script.TIMERS[name], scope).angles.tobytes()


@pytest.mark.parametrize("name, worse", [("samples_per_s", 700.0), ("round_ms.p50", 13.0)])
def test_a_head_worse_in_one_pair_warns_on_nothing(script, facts, name, worse):
    head = copy.deepcopy(facts)
    head["pairs"]["mlp-ring"][0] = {**facts["pairs"]["mlp-ring"][0], name: worse}
    assert warnings(script, facts, head) == []


@pytest.mark.parametrize("name, worse, within", [
    ("samples_per_s", 700.0, 900.0), ("round_ms.p50", 13.0, 11.0),
])
def test_a_head_worse_in_both_pairs_past_the_bound_warns_once(script, facts, name, worse, within):
    head = copy.deepcopy(facts)
    run = facts["pairs"]["teleport-handoff"][0]
    head["pairs"]["teleport-handoff"] = [{**run, name: worse}] * 2
    assert warnings(script, facts, head) == [
        f"::warning::teleport-handoff {name} at the head is worse by 30%, past the 20% bound"
    ]
    # Worse in both pairs, but by less than the bound.
    head["pairs"]["teleport-handoff"] = [{**run, name: within}] * 2
    assert warnings(script, facts, head) == []


def test_main_takes_one_ref(script, capsys):
    usage = "usage: compare_base.py [-h] [--pairs N] [--seconds S] REF\n"
    assert script.main([]) == 2
    assert script.main(["HEAD", "HEAD~1"]) == 2
    assert script.main(["HEAD", "--pairs", "1"]) == 2
    assert script.main(["HEAD", "--seconds", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count(usage) == 4
    assert "need --pairs >= 2 and --seconds >= 1, got 1 and 5" in err
    assert "need --pairs >= 2 and --seconds >= 1, got 2 and 0" in err


def test_pairs_alternate_which_side_runs_first(script, monkeypatch):
    calls = []

    def fake_bench(tree, workload, seconds):
        calls.append((tree, workload, seconds))
        return {"call": len(calls)}

    def fake_timers(tree):
        calls.append((tree, "timers", None))
        return {"call": len(calls)}

    monkeypatch.setattr(script, "bench", fake_bench)
    monkeypatch.setattr(script, "timers", fake_timers)
    got = script.pairs({"base": "B", "head": "H"}, 4, 20)
    # Base first in pairs 1 and 3, head first in pairs 2 and 4: the timer
    # harness runs first, then one workload after another, each alternating alike.
    order = ["B", "H", "H", "B", "B", "H", "H", "B"]
    jobs = ("timers", *script.WORKLOADS)
    assert calls == [(tree, job, None if job == "timers" else 20) for job in jobs for tree in order]
    assert [list(got[side]) for side in ("base", "head")] == [list(jobs)] * 2
    for start, job in enumerate(jobs):
        calls_before = 8 * start
        assert [run["call"] - calls_before for run in got["base"][job]] == [1, 4, 5, 8]
        assert [run["call"] - calls_before for run in got["head"][job]] == [2, 3, 6, 7]


# Ten base runs with median 102 and IQR 4 (quartiles 100 and 104, inclusive method).
BASE = [100.0] * 5 + [104.0] * 5


def nudged(delta, *lower):
    """BASE moved ``delta`` towards better, but 1 below its base in the pairs ``lower``."""
    return [b - 1 if i in lower else b + delta for i, b in enumerate(BASE)]


@pytest.mark.parametrize("head, outcome", [
    (nudged(10, 0), "gain holds: head better in 9 of 10 pairs (9 needed), median gain 10 "),
    (nudged(10, 0, 5), "no gain, within the 20% bound: head better in 8 of 10 pairs (9 needed), "
                       "median gain 8 "),
    (nudged(4), "no gain, within the 20% bound: head better in 10 of 10 pairs (9 needed), "
                "median gain 4 "),
    (nudged(4.01), "gain holds: head better in 10 of 10 pairs (9 needed), median gain 4.01 "),
], ids=["9 wins", "8 wins", "gain equal to the IQR", "gain just past the IQR"])
@pytest.mark.parametrize("name", ["samples_per_s", "round_ms.p50"])
def test_the_verdict_needs_nine_wins_in_ten_and_a_gain_past_the_iqr(script, name, head, outcome):
    # A lower-is-better metric reads the same runs mirrored about zero.
    sign = 1 if script.SPEC[name]["better"] == "higher" else -1
    base, head = [sign * b for b in BASE], [sign * h for h in head]
    lines = script.judge("mlp-ring", name, base, head)
    assert lines[1].startswith(f"mlp-ring {name} verdict: {outcome}")
    assert lines[1].endswith("against the base IQR 4")
    assert len(lines) == 2


def test_a_spread_wider_than_the_bound_is_unresolved(script):
    base = [50.0] * 5 + [150.0] * 5
    head = [b - 1 for b in base]
    verdict = script.judge("vqc-ring", "samples_per_s", base, head)[1]
    assert verdict.startswith("vqc-ring samples_per_s verdict: unresolved, an IQR is wider than "
                              "the 20% bound: head better in 0 of 10 pairs")


def test_a_failed_fingerprint_run_raises_naming_the_command(script, tmp_path):
    package = tmp_path / "src" / "qfedring"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("raise ImportError('broken on purpose')\n")
    with pytest.raises(script.subprocess.CalledProcessError) as failed:
        script.facts(tmp_path)
    assert str(SCRIPT.parent / "fingerprint.py") in failed.value.cmd
    assert "broken on purpose" in failed.value.stderr


def test_both_sides_run_from_sibling_copies(script, facts, monkeypatch, tmp_path):
    # git is faked: REF archives to one file, and the checkout lists two of its
    # own files, one of them deleted since.
    archive = tmp_path / "archive.tar"
    with tarfile.open(archive, "w") as tar:
        tar.add(SCRIPT, arcname="scripts/compare_base.py")
    listed = {"archive": archive.read_bytes(),
              "ls-files": b"scripts/compare_base.py\0src/qfedring/gone.py\0"}
    monkeypatch.setattr(script, "git", lambda command, *args: listed[command])
    seen = []

    def fake_facts(tree):
        files = sorted(str(path.relative_to(tree)) for path in tree.rglob("*") if path.is_file())
        seen.append(("facts", tree, files, (tree / "scripts" / "compare_base.py").read_bytes()))
        return copy.deepcopy(facts)

    def fake_pairs(trees, count, seconds):
        seen.append(("pairs", trees, count, seconds))
        return {side: facts["pairs"] for side in ("base", "head")}

    monkeypatch.setattr(script, "facts", fake_facts)
    monkeypatch.setattr(script, "pairs", fake_pairs)
    assert script.main(["REF", "--pairs", "3", "--seconds", "4"]) == 0
    (_, base, *base_got), (_, head, *head_got), (_, trees, count, seconds) = seen
    assert trees == {"base": base, "head": head} and (count, seconds) == (3, 4)
    assert (base.name, head.name) == ("base", "head") and base.parent == head.parent
    assert base_got == head_got == [["scripts/compare_base.py"], SCRIPT.read_bytes()]
    assert not base.parent.exists()  # the copies go when the comparison ends


def test_a_ref_git_cannot_archive_exits_2(script, monkeypatch):
    def refuse(*args):
        raise subprocess.CalledProcessError(128, ["git", *args])

    monkeypatch.setattr(script, "git", refuse)
    monkeypatch.setattr(script, "facts", lambda tree: pytest.fail("no facts without a tree"))
    assert script.main(["no-such-ref"]) == 2
