#!/usr/bin/env python3
"""Set this checkout (the head) beside a base commit, fact by fact.

    python scripts/compare_base.py REF [--pairs N] [--seconds S] [--seed K] [--bench-out DIR]

Both sides run from fresh copies side by side in one temporary directory:
the base extracted with ``git archive REF``, the head copied from each file of
this checkout that git tracks or would add.  So where a tree sits is the same
for both, which ``peak_rss_mb`` reads.  Each fact comes from its side's own code,
but this checkout's ``scripts/fingerprint.py`` runs on both packages, as do
its ``configs/*.cfg``, each at 10 rounds, for the comparison CSV, and its
four default 100-round runs; each run's final accuracy and convergence round
print beside its fingerprint.  Prints the facts side by side, with a
``::warning::`` line for each that differs.  Then it runs N pairs (2 unless
given) of timer runs, each a fresh process timing every layer timer, and of
S-second (5 unless given) ``perfbench/run.py --trace 0 --seed K`` (42 unless
given) jobs per workload, the base first in odd pairs and the head first in
even ones.  A timer reads as each side's median and IQR, as does a step's or
the channel's check-free floor, with the median step / floor.  For each
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and IQR,
the head/base ratio, how many pairs the head won, and one verdict line: a gain
holds when at least 10 pairs ran, the head wins at least nine tenths of them
(9 of 10) and its median gain exceeds the base's IQR.  A metric whose IQR is
wider than its bound is unresolved, unless every head run beats every base
run; one whose median is worse by more than its bound warns.  Each workload's
final accuracy, convergence round and CSV sha256 print base beside head, with
a warning if the CSV differs.

With ``--bench-out DIR`` it also writes ``DIR/base.json`` and
``DIR/head.json``, one sorted-key JSON object per side (``bench_record``),
which a performance change commits as its ``BENCH_<n>.json``.  An existing
file is refused before any run.  Exits 1, naming the side and the command, if
a fingerprint, comparison or ``--help`` run fails, and 2 on bad arguments (a
negative ``--seed`` too) before any run, an existing ``--bench-out`` file, or
if git cannot archive REF or list this checkout; any other failed run is a
warning.
"""
import argparse
import difflib
import hashlib
import importlib.util
import json
import math
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(relative: str):
    """The module at ``relative`` in this checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location(Path(relative).stem, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sys.path.insert(0, str(ROOT / "src"))  # fingerprint.py imports this checkout's package
# At 10 rounds: fingerprint.py's four default runs, then the shape of the
# teleport-handoff benchmark workload, which perfbench/job.py declares.
RUNS = (*map(" ".join, load("scripts/fingerprint.py").DEFAULT_RUNS),
        " ".join(load("perfbench/job.py").WORKLOADS["teleport-handoff"]["flags"]))
COMPARISON = "qfedring --compare configs/*.cfg at 10 rounds"
# Each on a one-round cfl run in an empty directory of its own.
BAD_FLAGS = (
    "--seed -1", "--train-fraction 0.0001", "--noise -1", "--factor 1", "--clients 2000",
    "--num-points 5", "--model qfl-classical --layers 74",
    '--out ""', '--dump-dataset ""', '--config ""',
)
WORKLOADS = ("mlp-ring", "vqc-ring", "teleport-handoff")
# A gain is claimed from at least this many pairs, nine tenths of them won.
MIN_PAIRS = 10
# The benchmark's end-to-end metrics, each with its "better" direction and bound.
SPEC = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
BENCH_METRICS = tuple(SPEC)
# A new heavy import (numpy.ma once cost every run about 15 ms and 1 MB) shows
# as a module that only the head's one-round teleport run loads.
MODULES = """
import sys
import numpy
before = set(sys.modules)
from qfedring import cli
code = cli.main(sys.argv[1:])
print(*sorted(set(sys.modules) - before))
sys.exit(code)
"""
# The Python and numpy versions, and numpy's SIMD levels in use: its baseline,
# then each dispatch target this CPU has.
MACHINE = """
import json, platform
import numpy
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
have = umath.__cpu_features__
simd = [*umath.__cpu_baseline__, *(name for name in umath.__cpu_dispatch__ if have.get(name))]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__, "simd": simd}))
"""
# The timers' setup, and each timer's statement, all at the CLI's default
# settings, read from each side's own ``ExperimentConfig``: the channel on the
# 12-weight store, one SGD step as local_train runs it, on one batch of rows,
# the store's evaluation on the same rows, readout check included, and one
# local_train epoch of the MLP on a default-sized shard (960 training rows
# over 3 clients), whose batching a one-batch step timer cannot see.  A step
# reads the rows its model's ``prepare`` made once.
TIMER_SETUP = (
    "import numpy as np",
    "from qfedring import cli, fedring, qweights, teleport, trainkit, vqc",
    "config, gen = cli.ExperimentConfig(model='qfl-quantum'), np.random.default_rng",
    "mlp, circuit = trainkit.init_mlp(gen(1)), vqc.init_model(gen(1), config.layers)",
    "store = qweights.init_store(gen(1), config.layers, config.gamma)",
    "channel = np.random.default_rng(0)",
    "rows = np.random.default_rng(0).uniform(0, np.pi, (config.batch_size, 2))",
    "labels = np.arange(config.batch_size) % 2",
    "opt = trainkit.SgdOptimizer(config.learning_rate)",
    "loss = lambda logits: trainkit.batch_loss_and_grad(logits, labels)",
    "mlp_rows, circuit_rows, store_rows = (m.prepare(rows) for m in (mlp, circuit, store))",
    "shard = np.random.default_rng(0).uniform(0, np.pi, (320, 2)), np.arange(320) % 2",
    "client = fedring.ClientState(0, *shard, mlp, np.random.default_rng(0), opt)",
)
STEP = "{0}.step({0}.loss_grad({0}_rows, loss)[1] / labels.size, opt)"
TIMERS = {"channel timer": "teleport.teleport_weights(store, channel)",
          **{f"SGD step timer, {kind}": STEP.format(kind) for kind in ("mlp", "circuit", "store")},
          "evaluate timer, store": "trainkit.evaluate(store, rows, labels)",
          "local_train epoch timer, mlp": "fedring.local_train(client, 1, config.batch_size)"}
# Check-free floors: each step without its checks and per-step model values,
# on the package's own check-free kernels and the rows its model's ``prepare``
# made, plus the update p - lr * g, giving the step's losses and new params
# bit for bit; the channel's is ``teleport_weights`` without StateVectors,
# records or checks, giving its angles bit for bit.  Step and floor run in one
# process, so step / floor does not move with the host's speed; it bounds what
# a change that keeps the checks can win.
FLOOR_SETUP = (
    "def mlp_floor(params):\n"
    "    hid, w2, logits = trainkit._mlp_forward(params, mlp_rows)\n"
    "    losses, dlogits = trainkit._softmax_loss(logits, labels)\n"
    "    grad = trainkit._mlp_backward(mlp_rows, hid, w2, dlogits)\n"
    "    return losses, params - opt.learning_rate * (grad / labels.size)",
    "def circuit_pass(params, states):\n"
    "    out = vqc._expectations(params + vqc._shift_offsets(params.shape), states)\n"
    "    losses, up = trainkit._softmax_loss(out[0], labels)\n"
    "    return losses, vqc._shift_gradient(params, out, up)",
    "def circuit_floor(params):\n"
    "    losses, grad = circuit_pass(params, circuit_rows)\n"
    "    return losses, params - opt.learning_rate * (grad / labels.size)",
    "def store_floor(store):\n"
    "    losses, grad = circuit_pass(qweights.materialize(store), store_rows)\n"
    "    chained = qweights._chain(store.angles, store.gamma, grad / labels.size)\n"
    "    return losses, qweights._wrap(store.angles - opt.learning_rate * chained)",
    "def channel_floor(angles, rng):\n"
    "    out = []\n"
    "    for c0, c1 in teleport._rx_carriers(angles).reshape(-1, 2).tolist():\n"
    "        _, _, zero, one = teleport._register(c0, c1, rng, None)\n"
    "        out.append(qweights._decode(*qweights._z_y(zero, one)))\n"
    "    return np.array(out).reshape(angles.shape)",
)
FLOORS = {"channel timer": "channel_floor(store.angles, channel)",
          "SGD step timer, mlp": "mlp_floor(mlp.params)",
          "SGD step timer, circuit": "circuit_floor(circuit.params)",
          "SGD step timer, store": "store_floor(store)"}
# Times each of TIMERS in one process beside its floor in FLOORS, if any: 7
# alternating rounds of 200 loops each.  Prints each timer's best per-loop
# seconds, [step] or [step, floor], or null if it raised, as a JSON object.
HARNESS = """
import json, sys, timeit
scope = {}
exec(sys.argv[1], scope)
got, floors = {}, json.loads(sys.argv[3])
for name, stmt in json.loads(sys.argv[2]).items():
    try:
        timers = [timeit.Timer(s, globals=scope) for s in (stmt, floors.get(name)) if s]
        rounds = [[timer.timeit(200) for timer in timers] for _ in range(7)]
        got[name] = [min(times) / 200 for times in zip(*rounds)]
    except Exception:
        got[name] = None
print(json.dumps(got))
"""


def git(*args: str) -> bytes:
    """The output of ``git args`` in this checkout; CalledProcessError if git fails."""
    return subprocess.run(["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE,
                          check=True).stdout


def checkouts(ref: str, parent: Path) -> dict:
    """``{"base": tree, "head": tree}``, side by side under ``parent``: REF from
    ``git archive``, and a copy of each file of this checkout that git tracks or
    would add.  CalledProcessError if git cannot archive REF or list the files."""
    trees = {side: parent / side for side in ("base", "head")}
    archive = git("archive", ref)
    trees["base"].mkdir()
    subprocess.run(["tar", "-x", "-C", str(trees["base"])], input=archive, check=True)
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        source = ROOT / os.fsdecode(name)
        if name and source.is_file():  # a tracked file deleted in the checkout is left out
            target = trees["head"] / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return trees


def run(tree: Path, cwd, *args: str, check=True, **env) -> subprocess.CompletedProcess:
    """``python args`` on ``tree``'s package, with stdout and stderr captured."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), **env}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, check=check,
                          capture_output=True, text=True)


def or_none(collect, *args):
    """``collect(*args)``, or None if its run failed: for the facts that only warn."""
    try:
        return collect(*args)
    except (subprocess.CalledProcessError, ValueError, LookupError):
        return None


def fingerprints(tree: Path, cwd, *flags: str) -> dict:
    """``{flags: {"bits": fingerprint, "csv": sha256, "accuracy": final accuracy,
    "converged": convergence round}}`` of each run that this checkout's
    ``scripts/fingerprint.py`` prints for ``flags`` on ``tree``'s package."""
    out = run(tree, cwd, str(ROOT / "scripts" / "fingerprint.py"), *flags).stdout
    return {run_flags: {"bits": bits, "csv": csv, "accuracy": float(accuracy),
                        "converged": int(converged)}
            for bits, csv, accuracy, converged, run_flags in
            (line.split(None, 4) for line in out.splitlines())}


def facts(tree) -> dict:
    """Every fact but the paired runs', each from ``tree``'s own code.  A failed
    fingerprint, comparison or ``--help`` run raises CalledProcessError."""
    tree = Path(tree).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work, got = Path(tmp), {"runs": {}, "refusals": {}}
        for flags in RUNS:
            shape = fingerprints(tree, work, *shlex.split(flags), "--rounds", "10")
            (got["runs"][flags],) = shape.values()
        got["defaults"] = fingerprints(tree, work)
        names = sorted(path.name for path in (ROOT / "configs").glob("*.cfg"))
        for name in names:
            (work / name).write_text((ROOT / "configs" / name).read_text() + "rounds = 10\n")
        run(tree, work, "-m", "qfedring", "--compare", *names, "--out", "comparison.csv")
        got["comparison"] = hashlib.sha256((work / "comparison.csv").read_bytes()).hexdigest()
        got["help"] = run(tree, work, "-m", "qfedring", "--help").stdout
        for flags in BAD_FLAGS:
            args = ("-m", "qfedring", "--model", "cfl", "--rounds", "1", *shlex.split(flags))
            proc = run(tree, tempfile.mkdtemp(dir=work), *args, check=False)
            last = (proc.stderr.splitlines() or [""])[-1]
            got["refusals"][flags] = f"exit {proc.returncode}: {last}"
        modules = ("-c", MODULES, *shlex.split(RUNS[3]), "--rounds", "1")
        got["modules"] = or_none(lambda: run(tree, work, *modules).stdout.splitlines()[-1].split())
        got["lines"] = {name: sum(path.read_bytes().count(b"\n") for path in
                                  (tree / name).rglob("*.py")) for name in ("src", "tests", "scripts")}
        machine = run(tree, work, "-c", MACHINE, OPENBLAS_VERBOSE="2")
        got["machine"] = json.loads(machine.stdout)
        kernel = [line for line in machine.stderr.splitlines() if "Core:" in line]
        got["kernel"] = kernel[0] if kernel else None
        return got


# A benchmark run's results, which the report sets base beside head.
RESULTS = ("final_accuracy", "convergence_round", "csv_sha256")
# What a BENCH file keeps of a benchmark run besides its BENCH_METRICS, from
# the detail file that perfbench/run.py writes beside its output.
RUN_DETAIL = ("host_speed", "rounds_measured", "round_ms.tail_pct", *RESULTS)


def bench(tree: Path, workload: str, seconds: int, seed: int = 42) -> dict:
    """``BENCH_METRICS`` and ``RUN_DETAIL`` of one ``seconds``-long
    ``perfbench/run.py`` run of ``tree`` at ``seed``.  The run exits 0 even
    when a job's CSV differs from the CLI's, so a run that reports itself
    incorrect or failed raises ValueError."""
    args = ("--seed", str(seed), "--workload", workload, "--seconds", str(seconds), "--trace", "0")
    out = run(tree, tree, str(tree / "perfbench" / "run.py"), *args).stdout.splitlines()
    result = json.loads(out[-1])
    if not result["correct"] or result["failed"]:
        raise ValueError(f"{workload}: correct {result['correct']}, failed {result['failed']}")
    detail = tree / ".perfbench_out" / f"result-{workload}-s{seed}-t0.json"
    kept = json.loads(detail.read_text())
    return {**{name: result["metrics"][name]["value"] for name in BENCH_METRICS},
            **{name: kept[name] for name in RUN_DETAIL}}


def timers(tree: Path) -> dict:
    """One ``HARNESS`` run on ``tree``'s package, in a fresh process: ``{name:
    [step] or [step, floor] seconds per loop, or None if its statement raised}``."""
    setup = "\n".join((*TIMER_SETUP, *FLOOR_SETUP))
    args = ("-c", HARNESS, setup, json.dumps(TIMERS), json.dumps(FLOORS))
    return json.loads(run(tree, tree, *args).stdout)


def pairs(trees: dict, count: int, seconds: int, seed: int = 42) -> dict:
    """``count`` pairs of timer runs, then of benchmark runs per workload, the
    base first in odd pairs and the head first in even ones: ``{side:
    {"timers": [run, ...], workload: [run, ...]}}``, a failed run read as None."""
    got = {side: {job: [] for job in ("timers", *WORKLOADS)} for side in ("base", "head")}
    for job in got["base"]:
        for index in range(count):
            for side in ("base", "head") if index % 2 == 0 else ("head", "base"):
                got[side][job].append(or_none(timers, trees[side]) if job == "timers"
                                      else or_none(bench, trees[side], job, seconds, seed))
    return got


def median_iqr(values) -> tuple[float, float]:
    """The median and the distance between the quartiles (inclusive method)."""
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return mid, high - low


def usec(seconds) -> str:
    """The median and IQR of per-loop ``seconds``, in microseconds."""
    mid, iqr = median_iqr([value * 1e6 for value in seconds])
    return f"median {mid:.3g} IQR {iqr:.3g} usec"


def timer_lines(name: str, side: str, runs: list) -> list[str]:
    """Timer ``name`` over ``side``'s runs: the median and IQR of its step and,
    for a floored step, of its floor, with the median step / floor; or a
    warning if a run failed."""
    readings = [run and run[name] for run in runs]
    if None in readings:
        return [f"{name}, {side}: failed", f"::warning::the {side} {name} failed"]
    line = f"{name}, {side}: {usec(step for step, *_ in readings)}"
    if name in FLOORS:
        ratio = statistics.median(step / floor for step, floor in readings)
        line += f"; floor {usec(floor for _, floor in readings)}; median step / floor {ratio:.2f}"
    return [line]


def judge(workload: str, name: str, base: list, head: list) -> list[str]:
    """The report on metric ``name`` of ``workload`` over paired runs: each
    side's median and IQR with the head/base ratio, then the verdict, then a
    warning if the head is worse than the bound allows.  A gain holds when at
    least MIN_PAIRS pairs ran, the head wins at least nine tenths of them, ties
    counting for neither, and its median gain exceeds the base's IQR; with
    fewer pairs the verdict says that they are too few."""
    label, spec = f"{workload} {name}", SPEC[name]
    sign, bound = (1 if spec["better"] == "higher" else -1), spec["bound"]
    (b_med, b_iqr), (h_med, h_iqr) = median_iqr(base), median_iqr(head)
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    need, gain = math.ceil(0.9 * len(base)), sign * (h_med - b_med)
    every = min(sign * h for h in head) > max(sign * b for b in base)
    if wins >= need and gain > b_iqr:
        outcome = ("gain holds" if len(base) >= MIN_PAIRS else
                   f"too few pairs to claim a gain, {len(base)} run and {MIN_PAIRS} needed")
    elif max(b_iqr, h_iqr) > bound * abs(b_med) and not every:
        outcome = f"unresolved, an IQR is wider than the {bound:.0%} bound"
    elif -gain > bound * abs(b_med):
        outcome = f"worse by {-gain / abs(b_med):.0%}, past the {bound:.0%} bound"
    else:
        outcome = f"no gain, within the {bound:.0%} bound"
    out = [f"{label}: base median {b_med:.6g} IQR {b_iqr:.6g}; head median {h_med:.6g} "
           f"IQR {h_iqr:.6g}; head/base {h_med / b_med:.3f}",
           f"{label} verdict: {outcome}: head better in {wins} of {len(base)} pairs ({need} "
           f"needed), median gain {gain:.6g} against the base IQR {b_iqr:.6g}"]
    if outcome.startswith("worse"):
        out.append(f"::warning::{label} at the head is {outcome}")
    return out


def run_lines(base_runs: dict, head_runs: dict, rounds: str = "") -> list[str]:
    """Each run's CSV sha256, fingerprint with its result level, final accuracy
    and convergence round, base beside head, and a warning for each whose CSV
    differs; ``rounds`` follows its flags."""
    out = []
    for flags, h in head_runs.items():
        b, label = base_runs[flags], flags + rounds
        level = "bits equal" if b["bits"] == h["bits"] else "drifted"
        if level == "drifted" and b["csv"] == h["csv"]:
            level = "CSV equal, bits drifted"
        out.append(f"{label}: CSV base {b['csv']} head {h['csv']}")
        out.append(f"{label}: fingerprint base {b['bits']} head {h['bits']} ({level})")
        out.append(f"{label}: final accuracy base {b['accuracy']!r} head {h['accuracy']!r}, "
                   f"converged at round base {b['converged']} head {h['converged']}")
        if b["csv"] != h["csv"]:
            out.append(f"::warning::{label}: metrics CSV differs from the base commit")
    return out


def compare(base: dict, head: dict) -> list[str]:
    """The report, base beside head, with a ``::warning::`` line per fact that differs."""
    out = run_lines(base["runs"], head["runs"])
    out.extend(run_lines(base["defaults"], head["defaults"], " at 100 rounds"))
    out.append(f"{COMPARISON}: CSV base {base['comparison']} head {head['comparison']}")
    if base["comparison"] != head["comparison"]:
        out.append(f"::warning::{COMPARISON}: metrics CSV differs from the base commit")
    out.extend(difflib.unified_diff(base["help"].splitlines(), head["help"].splitlines(),
                                    "base --help", "head --help", lineterm=""))
    if base["help"] != head["help"]:
        out.append("::warning::python -m qfedring --help differs from the base commit")
    for flags, h in head["refusals"].items():
        b = base["refusals"].get(flags)
        out.append(f"{flags}: {h}" if b == h else f"{flags}: base {b} head {h}")
        if b != h:
            out.append(f"::warning::{flags}: a bad flag set exits or reads differently")
    for side, modules in (("base", base["modules"]), ("head", head["modules"])):
        out.append(f"{side} loads after import numpy: {modules and ' '.join(modules)}")
        if modules is None:
            out.append(f"::warning::the {side} run for the module list failed")
    if None not in (base["modules"], head["modules"]):
        for name in sorted(set(head["modules"]) - set(base["modules"])):
            out.append(f"::warning::a one-round teleport run loads {name} at the head only")
    for name, b in base["lines"].items():
        out.append(f"{name}/ Python lines: base {b} head {head['lines'][name]}")
    out.append(f"OPENBLAS_VERBOSE=2: base {base['kernel']} head {head['kernel']}")
    for name in TIMERS:
        for side, got in (("base", base), ("head", head)):
            out.extend(timer_lines(name, side, got["pairs"]["timers"]))
    for workload in WORKLOADS:
        b_runs, h_runs = base["pairs"][workload], head["pairs"][workload]
        if None in [*b_runs, *h_runs]:
            out.append(f"::warning::{workload}: the benchmark runs could not be compared")
            continue
        for name in RESULTS:
            b, h = (" ".join(sorted({str(run[name]) for run in runs})) for runs in (b_runs, h_runs))
            out.append(f"{workload} {name}: base {b} head {h}")
            if name == "csv_sha256" and b != h:
                out.append(f"::warning::{workload}: the benchmark's metrics CSV differs "
                           "from the base commit")
        for name in BENCH_METRICS:
            b, h = [run[name] for run in b_runs], [run[name] for run in h_runs]
            out.extend(judge(workload, name, b, h))
    return out


def bench_record(got: dict, verdicts: list[str], commit) -> dict:
    """One side's BENCH file from its facts ``got``: the machine, with each
    benchmark run's host-speed factor; per workload, the median and IQR of each
    end-to-end metric over the side's runs, with each run's ``rounds_measured``,
    the percentile that its ``round_ms.tail`` is and its ``RESULTS`` (null if a
    run failed); ``verdicts``, the head's against the base, so none in the
    base's file; the default fingerprints with their CSV sha256s, final
    accuracies and convergence rounds, and the comparison CSV's sha256; the
    line counts; and ``commit``, the base's commit or null for the checkout."""
    workloads, host_speed = {}, {}
    for workload in WORKLOADS:
        runs = got["pairs"][workload]
        host_speed[workload] = [run and run["host_speed"] for run in runs]
        if None in runs:
            workloads[workload] = None
            continue
        metrics = {}
        for name in BENCH_METRICS:
            mid, iqr = median_iqr([run[name] for run in runs])
            metrics[name] = {"median": mid, "iqr": iqr}
        workloads[workload] = {"metrics": metrics, **{
            name: [run[name] for run in runs] for name in RUN_DETAIL if name != "host_speed"}}
    return {
        "commit": commit,
        "machine": {**got["machine"], "openblas": got["kernel"], "host_speed": host_speed},
        "workloads": workloads,
        "verdicts": verdicts,
        "results": {"defaults": got["defaults"], "comparison_csv": got["comparison"]},
        "lines": got["lines"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="compare_base.py", description=__doc__.split("\n")[0])
    parser.add_argument("ref", metavar="REF", help="the base commit")
    parser.add_argument("--pairs", type=int, default=2, metavar="N",
                        help="pairs of timer runs and of runs per workload, at least 2 (default 2)")
    parser.add_argument("--seconds", type=int, default=5, metavar="S",
                        help="seconds per benchmark run, at least 1 (default 5)")
    parser.add_argument("--seed", type=int, default=42, metavar="K",
                        help="the benchmark runs' seed, at least 0 (default 42)")
    parser.add_argument("--bench-out", type=Path, metavar="DIR",
                        help="write each side's BENCH record to DIR/base.json and DIR/head.json")
    try:
        args = parser.parse_args(argv)
        if args.pairs < 2 or args.seconds < 1 or args.seed < 0:
            parser.error("need --pairs >= 2, --seconds >= 1 and --seed >= 0, got "
                         f"{args.pairs}, {args.seconds} and {args.seed}")
    except SystemExit as exc:  # argparse exits 2 on bad arguments, 0 after --help
        return exc.code
    sides = ("base", "head") if args.bench_out else ()
    outs = {side: args.bench_out / f"{side}.json" for side in sides}
    for path in outs.values():
        if path.exists():
            print(f"error: --bench-out would overwrite {path}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        try:
            trees = checkouts(args.ref, Path(tmp))
            base = git("rev-parse", "--verify", f"{args.ref}^{{commit}}") if outs else b""
            commits = {"base": base.decode().strip(), "head": None}
        except subprocess.CalledProcessError:
            return 2
        got = {}
        for side, tree in trees.items():
            try:
                got[side] = facts(tree)
            except subprocess.CalledProcessError as exc:
                failed = f"{side}: {shlex.join(exc.cmd)} exited {exc.returncode}"
                print(f"{exc.stderr}error: {failed}", file=sys.stderr)
                return 1
        for side, runs in pairs(trees, args.pairs, args.seconds, args.seed).items():
            got[side]["pairs"] = runs
    report = compare(got["base"], got["head"])
    print("\n".join(report))
    if outs:
        verdicts = {"base": [], "head": [line for line in report if " verdict: " in line]}
        args.bench_out.mkdir(parents=True, exist_ok=True)
        for side, path in outs.items():
            record = bench_record(got[side], verdicts[side], commits[side])
            with path.open("x") as out:
                out.write(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
