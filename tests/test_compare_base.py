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
        "runs": {flags: {"bits": f"bits {i}", "csv": f"csv {i}", "accuracy": 0.95,
                         "converged": 4}
                 for i, flags in enumerate(script.RUNS)},
        "defaults": {flags: {"bits": f"100-round bits {i}", "csv": f"100-round csv {i}",
                             "accuracy": 0.9714285714285714, "converged": 3}
                     for i, flags in enumerate(script.RUNS[:4])},
        "comparison": "comparison csv",
        "help": "usage: qfedring [-h]\n\noptions:\n  -h, --help\n",
        "refusals": {flags: "exit 2: error: bad" for flags in script.BAD_FLAGS},
        "modules": ["argparse", "qfedring", "qfedring.cli"],
        "lines": {"src": 2141, "tests": 5386, "scripts": 638},
        "kernel": "Core: SkylakeX",
        "machine": {"python": "3.11.7", "numpy": "2.4.6", "simd": ["X86_V2", "X86_V3"]},
        "pairs": {
            "timers": [{name: [40e-6, 26e-6] if name in script.FLOORS else [150e-6]
                        for name in script.TIMERS}] * 2,
            **{workload: [{**{name: 10.0 for name in script.BENCH_METRICS},
                           "samples_per_s": 1000.0, "host_speed": 1.25, "rounds_measured": 30,
                           "round_ms.tail_pct": 75.0, "final_accuracy": 0.971,
                           "convergence_round": 3, "csv_sha256": f"{workload} csv"}] * 2
               for workload in script.WORKLOADS},
        },
    }


def warnings(script, base, head):
    return [line for line in script.compare(base, head) if line.startswith("::warning::")]


def test_facts_compared_with_themselves_warn_on_nothing(script, facts):
    report = script.compare(facts, copy.deepcopy(facts))
    assert not [line for line in report if line.startswith("::warning::")]
    # The 10-round runs, then the four default 100-round runs.
    assert sum(line.endswith("(bits equal)") for line in report) == len(script.RUNS) + 4


@pytest.mark.parametrize("index", range(5))
def test_a_changed_run_csv_warns_once_naming_the_run(script, facts, index):
    head = copy.deepcopy(facts)
    flags = script.RUNS[index]
    head["runs"][flags]["csv"] = "another csv"
    assert warnings(script, facts, head) == [
        f"::warning::{flags}: metrics CSV differs from the base commit"
    ]


def test_a_changed_default_csv_warns_once_naming_the_run(script, facts):
    head = copy.deepcopy(facts)
    flags = script.RUNS[3]
    head["defaults"][flags].update(bits="other bits", csv="another csv")
    assert warnings(script, facts, head) == [
        f"::warning::{flags} at 100 rounds: metrics CSV differs from the base commit"
    ]
    assert (f"{flags} at 100 rounds: fingerprint base 100-round bits 3 head other bits (drifted)"
            in script.compare(facts, head))


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


def test_each_runs_accuracy_and_convergence_round_print_base_beside_head(script, facts):
    head = copy.deepcopy(facts)
    flags = script.RUNS[2]
    head["defaults"][flags].update(accuracy=0.9666666666666667, converged=5)
    report = script.compare(facts, head)
    assert (f"{flags} at 100 rounds: final accuracy base 0.9714285714285714 head "
            "0.9666666666666667, converged at round base 3 head 5") in report
    assert (f"{script.RUNS[0]}: final accuracy base 0.95 head 0.95, converged at round base 4 "
            "head 4") in report
    # A result line alone warns of nothing: the CSV, which holds every round, does.
    assert warnings(script, facts, head) == []


def test_fingerprints_reads_the_five_fields_of_each_line(script, tmp_path):
    root = SCRIPT.parents[1]
    got = script.fingerprints(root, tmp_path, "--model", "cfl", "--rounds", "2")
    (flags, run), = got.items()
    assert flags == "--model cfl --rounds 2"
    assert sorted(run) == ["accuracy", "bits", "converged", "csv"]
    assert len(run["bits"]) == len(run["csv"]) == 64
    assert isinstance(run["accuracy"], float) and 0.0 <= run["accuracy"] <= 1.0
    assert run["converged"] in (1, 2)


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
        script, monkeypatch, tmp_path, correct, failed, read):
    # perfbench/run.py exits 0 either way; only its last line tells.  The run's
    # host speed, rounds, tail percentile and results come from the detail
    # file it writes.
    metrics = {name: {"value": 5.0, "unit": ""} for name in script.BENCH_METRICS}
    line = json.dumps({"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics})
    done = subprocess.CompletedProcess([], 0, stdout=f"report\n{line}\n", stderr="")
    results = {"final_accuracy": 0.983, "convergence_round": 4, "csv_sha256": "78531199"}
    detail = {"host_speed": 0.9, "rounds_measured": 40, "round_ms.tail_pct": 75.0, "seed": 3,
              **results}
    (tmp_path / ".perfbench_out").mkdir()
    (tmp_path / ".perfbench_out" / "result-vqc-ring-s3-t0.json").write_text(json.dumps(detail))
    called = []
    monkeypatch.setattr(script, "run", lambda *args, **kwargs: called.append(args) or done)
    got = script.or_none(script.bench, tmp_path, "vqc-ring", 7, 3)
    want = {**{name: 5.0 for name in script.BENCH_METRICS},
            "host_speed": 0.9, "rounds_measured": 40, "round_ms.tail_pct": 75.0, **results}
    assert got == (want if read else None)
    assert called[0][-8:] == ("--seed", "3", "--workload", "vqc-ring", "--seconds", "7",
                              "--trace", "0")


def test_each_workload_prints_its_results_and_warns_once_on_a_changed_csv(script, facts):
    head = copy.deepcopy(facts)
    report = script.compare(facts, head)
    for workload in script.WORKLOADS:
        assert f"{workload} final_accuracy: base 0.971 head 0.971" in report
        assert f"{workload} convergence_round: base 3 head 3" in report
        assert f"{workload} csv_sha256: base {workload} csv head {workload} csv" in report
    # Another result at the head, in one run of two: both values print, and
    # the changed CSV warns once.
    head["pairs"]["vqc-ring"][1] = {**head["pairs"]["vqc-ring"][1], "final_accuracy": 0.983,
                                    "convergence_round": 4, "csv_sha256": "other csv"}
    report = script.compare(facts, head)
    assert "vqc-ring final_accuracy: base 0.971 head 0.971 0.983" in report
    assert "vqc-ring convergence_round: base 3 head 3 4" in report
    assert "vqc-ring csv_sha256: base vqc-ring csv head other csv vqc-ring csv" in report
    assert warnings(script, facts, head) == [
        "::warning::vqc-ring: the benchmark's metrics CSV differs from the base commit"]


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
    # Each floor does its step's arithmetic: the same losses and params, bit for
    # bit, from the package's own kernels, with none of their arithmetic written out.
    floors = "\n".join(script.FLOOR_SETUP)
    assert not [word for word in ("np.exp", "np.log", "np.mod", "atan2", "sqrt", "np.empty",
                                  "teleport._H") if word in floors]
    exec(floors, scope)
    steps = [f"SGD step timer, {kind}" for kind in ("circuit", "mlp", "store")]
    assert sorted(script.FLOORS) == sorted(["channel timer", *steps])
    for name in steps:
        stmt, kind = script.FLOORS[name], name.rsplit(", ", 1)[1]
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
    # The channel's floor moves the angles as teleport_weights does, bit for bit,
    # with the same channel draws, on stores with angles across (-pi, pi] whose
    # channel uses take every Bell outcome.
    name, outcomes = "channel timer", set()
    for seed in range(8):
        angles = np.random.default_rng(seed).uniform(-np.pi, np.pi, scope["store"].angles.shape)
        scope["store"] = type(scope["store"])(angles, scope["store"].gamma)
        scope["channel"] = np.random.default_rng(seed)
        moved = eval(script.TIMERS[name], scope).angles
        after = scope["channel"].bit_generator.state
        scope["channel"] = np.random.default_rng(seed)
        assert eval(script.FLOORS[name], scope).tobytes() == moved.tobytes()
        assert scope["channel"].bit_generator.state == after
        replay = np.random.default_rng(seed)
        for c0, c1 in scope["teleport"]._rx_carriers(angles).reshape(-1, 2).tolist():
            state = scope["teleport"]._qubit(c0, c1)
            outcomes.add(scope["teleport"].teleport_state(state, replay).bell_outcome)
    assert outcomes == {(0, 0), (0, 1), (1, 0), (1, 1)}


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
    usage = ("usage: compare_base.py [-h] [--pairs N] [--seconds S] [--seed K]\n"
             f"{'':23}[--bench-out DIR]\n{'':23}REF\n")
    assert script.main([]) == 2
    assert script.main(["HEAD", "HEAD~1"]) == 2
    assert script.main(["HEAD", "--pairs", "1"]) == 2
    assert script.main(["HEAD", "--seconds", "0"]) == 2
    # A negative seed used to pass here and fail every benchmark run later.
    assert script.main(["HEAD", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.count(usage) == 5
    assert "need --pairs >= 2, --seconds >= 1 and --seed >= 0, got 1, 5 and 42" in err
    assert "need --pairs >= 2, --seconds >= 1 and --seed >= 0, got 2, 0 and 42" in err
    assert "need --pairs >= 2, --seconds >= 1 and --seed >= 0, got 2, 5 and -1" in err


def test_pairs_alternate_which_side_runs_first(script, monkeypatch):
    calls = []

    def fake_bench(tree, workload, seconds, seed):
        calls.append((tree, workload, seconds))
        assert seed == 7
        return {"call": len(calls)}

    def fake_timers(tree):
        calls.append((tree, "timers", None))
        return {"call": len(calls)}

    monkeypatch.setattr(script, "bench", fake_bench)
    monkeypatch.setattr(script, "timers", fake_timers)
    got = script.pairs({"base": "B", "head": "H"}, 4, 20, 7)
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


@pytest.mark.parametrize("name", ["samples_per_s", "round_ms.p50"])
def test_two_winning_pairs_are_too_few_to_claim_a_gain(script, name):
    # Both pairs won, by far more than the base's IQR, but 2 pairs are not 10.
    sign = 1 if script.SPEC[name]["better"] == "higher" else -1
    base, head = [sign * 100.0, sign * 104.0], [sign * 150.0, sign * 154.0]
    assert script.judge("mlp-ring", name, base, head)[1] == (
        f"mlp-ring {name} verdict: too few pairs to claim a gain, 2 run and 10 needed: "
        "head better in 2 of 2 pairs (2 needed), median gain 50 against the base IQR 2"
    )


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

    def fake_pairs(trees, count, seconds, seed):
        seen.append(("pairs", trees, count, seconds))
        assert seed == 42
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


def fake_main_run(script, facts, monkeypatch, tmp_path):
    """``main`` with git, the facts and the pairs faked: the base is ``facts``,
    the head has other line counts, another machine and a faster mlp-ring."""
    monkeypatch.setattr(script, "checkouts", lambda ref, parent: {"base": "B", "head": "H"})
    monkeypatch.setattr(script, "git", lambda *args: b"0123abcd\n")
    head = copy.deepcopy(facts)
    head["lines"] = {"src": 2000, "tests": 6000, "scripts": 650}
    head["machine"] = {**facts["machine"], "numpy": "2.5.0"}
    head["defaults"][script.RUNS[0]]["bits"] = "other bits"
    runs = [{**facts["pairs"]["mlp-ring"][0], "samples_per_s": rate, "host_speed": speed}
            for rate, speed in ((1100.0, 0.75), (1200.0, 1.5))]
    head["pairs"]["mlp-ring"] = runs
    sides = {"B": facts, "H": head}
    monkeypatch.setattr(script, "facts", lambda tree: {k: v for k, v in sides[tree].items()
                                                       if k != "pairs"})
    monkeypatch.setattr(script, "pairs", lambda trees, count, seconds, seed: {
        side: sides[tree]["pairs"] for side, tree in trees.items()})
    return head


def test_bench_out_writes_each_sides_own_facts_as_sorted_key_json(
        script, facts, monkeypatch, tmp_path, capsys):
    head = fake_main_run(script, facts, monkeypatch, tmp_path)
    out = tmp_path / "bench" / "new"
    assert script.main(["REF", "--bench-out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["base.json", "head.json"]
    got = {}
    for side in ("base", "head"):
        text = (out / f"{side}.json").read_text()
        got[side] = json.loads(text)
        assert text == json.dumps(got[side], indent=1, sort_keys=True) + "\n"
        assert sorted(got[side]) == ["commit", "lines", "machine", "results", "verdicts",
                                     "workloads"]
        assert sorted(got[side]["workloads"]) == sorted(script.WORKLOADS)
        for record in got[side]["workloads"].values():
            assert sorted(record) == ["convergence_round", "csv_sha256", "final_accuracy",
                                      "metrics", "round_ms.tail_pct", "rounds_measured"]
            assert sorted(record["metrics"]) == sorted(script.BENCH_METRICS)
    base, new = got["base"], got["head"]
    assert (base["commit"], new["commit"]) == ("0123abcd", None)
    assert (base["lines"], new["lines"]) == (facts["lines"], head["lines"])
    assert base["machine"] == {**facts["machine"], "openblas": "Core: SkylakeX",
                               "host_speed": {w: [1.25, 1.25] for w in script.WORKLOADS}}
    assert new["machine"]["numpy"] == "2.5.0"
    assert new["machine"]["host_speed"]["mlp-ring"] == [0.75, 1.5]
    assert base["results"] == {"defaults": facts["defaults"], "comparison_csv": "comparison csv"}
    assert new["results"]["defaults"][script.RUNS[0]] == {
        "bits": "other bits", "csv": "100-round csv 0", "accuracy": 0.9714285714285714,
        "converged": 3}
    # Median and IQR over the side's runs; rounds and tail percentile as the runs read.
    assert base["workloads"]["mlp-ring"]["metrics"]["samples_per_s"] == {"median": 1000.0,
                                                                          "iqr": 0.0}
    assert new["workloads"]["mlp-ring"]["metrics"]["samples_per_s"] == {"median": 1150.0,
                                                                         "iqr": 50.0}
    assert new["workloads"]["mlp-ring"] == {**new["workloads"]["mlp-ring"],
                                            "rounds_measured": [30, 30],
                                            "round_ms.tail_pct": [75.0, 75.0],
                                            "final_accuracy": [0.971, 0.971],
                                            "convergence_round": [3, 3],
                                            "csv_sha256": ["mlp-ring csv"] * 2}
    # The verdicts are the head's, against the base, exactly as printed.
    printed = capsys.readouterr().out.splitlines()
    assert base["verdicts"] == []
    assert new["verdicts"] == [line for line in printed if " verdict: " in line]
    assert len(new["verdicts"]) == len(script.WORKLOADS) * len(script.BENCH_METRICS)


def test_bench_out_refuses_an_existing_file_before_any_run(
        script, facts, monkeypatch, tmp_path, capsys):
    fake_main_run(script, facts, monkeypatch, tmp_path)
    monkeypatch.setattr(script, "checkouts", lambda ref, parent: pytest.fail("no run"))
    (tmp_path / "head.json").write_text("kept\n")
    assert script.main(["REF", "--bench-out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: --bench-out would overwrite {tmp_path / 'head.json'}\n")
    assert (tmp_path / "head.json").read_text() == "kept\n"
    assert not (tmp_path / "base.json").exists()


def test_a_failed_benchmark_run_leaves_its_workload_null(script, facts):
    facts["pairs"]["vqc-ring"][1] = None
    record = script.bench_record(facts, [], None)
    assert record["workloads"]["vqc-ring"] is None
    assert record["machine"]["host_speed"]["vqc-ring"] == [1.25, None]
    assert record["workloads"]["mlp-ring"]["rounds_measured"] == [30, 30]
