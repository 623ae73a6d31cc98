#!/usr/bin/env python3
"""Set this checkout (the head) beside a base commit, fact by fact.

    python scripts/compare_base.py REF [--pairs N] [--seconds S]

Both sides run from fresh copies side by side in one temporary directory:
the base extracted with ``git archive REF``, the head copied from each file of
this checkout that git tracks or would add.  So where a tree sits is the same
for both, which ``peak_rss_mb`` reads.  Each fact comes from its side's own code,
but this checkout's ``scripts/fingerprint.py`` runs on both packages, as do
its ``configs/*.cfg``, each at 10 rounds, for the comparison CSV.  Prints
the facts side by side, with a ``::warning::`` line for each that differs.
Then it runs N pairs (2 unless given) of S-second (5 unless given)
``perfbench/run.py --trace 0`` jobs per workload, the base first in odd pairs
and the head first in even ones.  For each end-to-end metric of
``BENCHMARK.json`` it prints each side's median and IQR, the head/base ratio,
how many pairs the head won, and one verdict line: a gain holds when the head
wins at least nine tenths of the pairs (9 of 10) and its median gain exceeds
the base's IQR.  A metric whose IQR is wider than its bound is unresolved,
unless every head run beats every base run; one whose median is worse by more
than its bound warns.  Exits 1, naming the side and the command, if a
fingerprint, comparison or ``--help`` run fails, and 2 on bad arguments or
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


def load_job():
    """``perfbench/job.py``, loaded by path: it declares the benchmark's workloads."""
    spec = importlib.util.spec_from_file_location("perfbench_job", ROOT / "perfbench" / "job.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# At 10 rounds; the last is the teleport-handoff benchmark workload's shape.
RUNS = (
    "--model cfl --transport copy",
    "--model qfl-classical --transport copy",
    "--model qfl-quantum --transport copy",
    "--model qfl-quantum --transport teleport",
    " ".join(load_job().WORKLOADS["teleport-handoff"]["flags"]),
)
COMPARISON = "qfedring --compare configs/*.cfg at 10 rounds"
# Each on a one-round cfl run in an empty directory of its own.
BAD_FLAGS = (
    "--seed -1", "--train-fraction 0.0001", "--noise -1", "--factor 1", "--clients 2000",
    "--num-points 5", "--model qfl-classical --layers 74",
    '--out ""', '--dump-dataset ""', '--config ""',
)
WORKLOADS = ("mlp-ring", "vqc-ring", "teleport-handoff")
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
# ``python -m timeit`` setup, and each timer's statement, all at the CLI's
# default settings, read from each side's own ``ExperimentConfig``: the channel
# on the 12-weight store, one SGD step as local_train runs it, on one batch of
# rows, the store's evaluation on the same rows, readout check included, and
# one local_train epoch of the MLP on a default-sized shard (960 training rows
# over 3 clients), whose batching a one-batch step timer cannot see.  A step
# reads the rows its model's ``prepare`` made once, where a model has one; a
# model without it (an older tree) read raw rows and encoded them each step.
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
    "prep = lambda model: model.prepare(rows) if hasattr(model, 'prepare') else rows",
    "mlp_rows, circuit_rows, store_rows = prep(mlp), prep(circuit), prep(store)",
    "shard = np.random.default_rng(0).uniform(0, np.pi, (320, 2)), np.arange(320) % 2",
    "client = fedring.ClientState(0, *shard, mlp, np.random.default_rng(0), opt)",
)
STEP = "{0}.step({0}.loss_grad({0}_rows, loss)[1] / labels.size, opt)"
TIMERS = {"channel timer": "teleport.teleport_weights(store, channel)",
          **{f"SGD step timer, {kind}": STEP.format(kind) for kind in ("mlp", "circuit", "store")},
          "evaluate timer, store": "trainkit.evaluate(store, rows, labels)",
          "local_train epoch timer, mlp": "fedring.local_train(client, 1, config.batch_size)"}
# Check-free floors: a step's arithmetic on raw arrays, with no check and no
# model value, giving the step's losses and new params bit for bit.  The
# circuit floor reads states encoded once in its setup, with the RX product
# written out, and runs the engine's own kernels (``_shift_offsets``,
# ``_layer_unitaries``, ``_readout_signs``, in every tree since the engine
# took its real block form).  The store floor reads gamma <Z> of its angles,
# runs the circuit floor's pass on that, chains the gradient back through the
# +shift and -shift angles, steps, and wraps the angles to (-pi, pi] as
# ``canonical_angles`` does.  A step and its floor are timed in one process
# (``PAIRED``), so step / floor does not move with the host's speed; it bounds
# what a change that keeps the checks can win.
FLOOR_SETUP = (
    "scale, offsets = trainkit.LOGIT_SCALE, np.arange(0, 2 * labels.size, 2)",
    "def raw_loss(scaled):\n"
    "    shifted = scaled - np.maximum(scaled[:, :1], scaled[:, 1:])\n"
    "    exps = np.exp(shifted)\n"
    "    totals = exps[:, 0] + exps[:, 1]\n"
    "    flat = labels + offsets\n"
    "    losses = np.log(totals) - shifted.take(flat)\n"
    "    dlogits = np.multiply(exps, scale / totals[:, None], out=exps)\n"
    "    dlogits.reshape(-1)[flat] -= scale\n"
    "    return losses, dlogits",
    "def floor(params):\n"
    "    w2 = params[12:20].reshape(4, 2)\n"
    "    hid = np.tanh(np.dot(rows, params[:8].reshape(2, 4)) + params[8:12])\n"
    "    losses, dlogits = raw_loss(scale * (np.dot(hid, w2) + params[20:]))\n"
    "    dpre = np.dot(dlogits, w2.T) * (1.0 - hid**2)\n"
    "    grad = np.empty(22)\n"
    "    np.dot(rows.T, dpre, out=grad[:8].reshape(2, 4))\n"
    "    np.add.reduce(dpre, axis=0, out=grad[8:12])\n"
    "    np.dot(hid.T, dlogits, out=grad[12:20].reshape(4, 2))\n"
    "    np.add.reduce(dlogits, axis=0, out=grad[20:])\n"
    "    return losses, params - opt.learning_rate * (grad / labels.size)",
    "carriers = np.empty((labels.size, 2, 2), dtype=complex)",
    "carriers[..., 0], carriers[..., 1] = np.cos(rows / 2), -1j * np.sin(rows / 2)",
    "states = (carriers[:, 0, :, None] * carriers[:, 1, None, :]).reshape(labels.size, 4)",
    "def circuit_pass(params):\n"
    "    u = vqc._layer_unitaries(params + vqc._shift_offsets(params.shape))\n"
    "    sets, layers, dim = u.shape[0], u.shape[1], u.shape[-1]\n"
    "    blocks = np.empty((layers, sets, dim, 2, dim), dtype=complex)\n"
    "    blocks[:, :, :, 0] = u.transpose(1, 0, 3, 2)\n"
    "    np.multiply(blocks[:, :, :, 0], 1j, out=blocks[:, :, :, 1])\n"
    "    psi = states.view(float)\n"
    "    for layer in blocks.view(float).reshape(layers, sets, 2 * dim, 2 * dim):\n"
    "        psi = psi @ layer\n"
    "    out = (psi * psi) @ vqc._readout_signs(2)\n"
    "    losses, dlogits = raw_loss(scale * out[0])\n"
    "    delta = vqc.SHIFT_COEFFICIENT * (out[1 : params.size + 1] - out[params.size + 1 :])\n"
    "    return losses, np.add.reduce(dlogits * delta, axis=(1, 2)).reshape(params.shape)",
    "def circuit_floor(params):\n"
    "    losses, grad = circuit_pass(params)\n"
    "    return losses, params - opt.learning_rate * (grad / labels.size)",
    "shift_pair = np.array([vqc.SHIFT, -vqc.SHIFT]).reshape(2, 1, 1, 1)",
    "def rx_z(angles):\n"
    "    c, s = np.cos(angles / 2), np.sin(angles / 2)\n"
    "    return c * c - s * s",
    "def store_floor(angles):\n"
    "    losses, grad = circuit_pass(store.gamma * rx_z(angles))\n"
    "    plus, minus = rx_z(angles + shift_pair)\n"
    "    chained = grad / labels.size * store.gamma * (vqc.SHIFT_COEFFICIENT * (plus - minus))\n"
    "    a = angles - opt.learning_rate * chained\n"
    "    if np.maximum.reduce(a, axis=None) <= np.pi and np.minimum.reduce(a, axis=None) > -np.pi:\n"
    "        return losses, a\n"
    "    wrapped = np.mod(a + np.pi, 2.0 * np.pi) - np.pi\n"
    "    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)\n"
    "    return losses, np.where((a > np.pi) | (a <= -np.pi), wrapped, a)",
)
FLOORS = {"SGD step timer, mlp": "floor(mlp.params)",
          "SGD step timer, circuit": "circuit_floor(circuit.params)",
          "SGD step timer, store": "store_floor(store.angles)"}
# Times a statement and its floor in one process: 7 alternating rounds of 200
# loops each; prints the best per-loop seconds of each as a JSON pair.
PAIRED = """
import json, sys, timeit
scope = {}
exec(sys.argv[1], scope)
step, floor = (timeit.Timer(stmt, globals=scope) for stmt in sys.argv[2:])
rounds = [(step.timeit(200), floor.timeit(200)) for _ in range(7)]
print(json.dumps([min(times) / 200 for times in zip(*rounds)]))
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


def facts(tree) -> dict:
    """Every fact but the benchmark's, each from ``tree``'s own code.  A failed
    fingerprint, comparison or ``--help`` run raises CalledProcessError."""
    tree = Path(tree).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work, got = Path(tmp), {"runs": {}, "refusals": {}, "timers": {}, "floors": {}}
        for flags in RUNS:
            args = (ROOT / "scripts" / "fingerprint.py", *shlex.split(flags), "--rounds", "10")
            bits, csv = run(tree, work, *map(str, args)).stdout.split()[:2]
            got["runs"][flags] = {"bits": bits, "csv": csv}
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
        numpy = run(tree, work, "-c", "import numpy", OPENBLAS_VERBOSE="2").stderr.splitlines()
        got["kernel"] = next((line for line in numpy if "Core:" in line), None)
        timeit = ("-m", "timeit", "-n", "200", "-r", "7", *(f"-s{line}" for line in TIMER_SETUP))
        for name, stmt in TIMERS.items():
            if name in FLOORS:
                setup = "\n".join((*TIMER_SETUP, *FLOOR_SETUP))
                paired = or_none(lambda: json.loads(
                    run(tree, work, "-c", PAIRED, setup, stmt, FLOORS[name]).stdout))
                got["floors"][name] = paired
                got["timers"][name] = paired and f"{paired[0] * 1e6:.3g} usec"
                continue
            timed = or_none(run, tree, work, *timeit, stmt)
            got["timers"][name] = timed and timed.stdout.split(" per loop")[0].split(": ")[-1]
        return got


def bench(tree: Path, workload: str, seconds: int) -> dict:
    """``BENCH_METRICS`` of one ``seconds``-long ``perfbench/run.py`` run of
    ``tree``.  The run exits 0 even when a job's CSV differs from the CLI's, so
    a run that reports itself incorrect or failed raises ValueError."""
    args = ("--workload", workload, "--seconds", str(seconds), "--trace", "0")
    out = run(tree, tree, str(tree / "perfbench" / "run.py"), *args).stdout.splitlines()
    result = json.loads(out[-1])
    if not result["correct"] or result["failed"]:
        raise ValueError(f"{workload}: correct {result['correct']}, failed {result['failed']}")
    return {name: result["metrics"][name]["value"] for name in BENCH_METRICS}


def pairs(trees: dict, count: int, seconds: int) -> dict:
    """``count`` pairs of benchmark runs per workload, the base first in odd
    pairs and the head first in even ones: ``{side: {workload: [run, ...]}}``,
    a failed run read as None."""
    got = {side: {workload: [] for workload in WORKLOADS} for side in ("base", "head")}
    for workload in WORKLOADS:
        for index in range(count):
            for side in ("base", "head") if index % 2 == 0 else ("head", "base"):
                got[side][workload].append(or_none(bench, trees[side], workload, seconds))
    return got


def median_iqr(values) -> tuple[float, float]:
    """The median and the distance between the quartiles (inclusive method)."""
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return mid, high - low


def judge(workload: str, name: str, base: list, head: list) -> list[str]:
    """The report on metric ``name`` of ``workload`` over paired runs: each
    side's median and IQR with the head/base ratio, then the verdict, then a
    warning if the head is worse than the bound allows.  A gain holds when the head wins at least nine tenths of the pairs, ties
    counting for neither, and its median gain exceeds the base's IQR."""
    label, spec = f"{workload} {name}", SPEC[name]
    sign, bound = (1 if spec["better"] == "higher" else -1), spec["bound"]
    (b_med, b_iqr), (h_med, h_iqr) = median_iqr(base), median_iqr(head)
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    need, gain = math.ceil(0.9 * len(base)), sign * (h_med - b_med)
    every = min(sign * h for h in head) > max(sign * b for b in base)
    if wins >= need and gain > b_iqr:
        outcome = "gain holds"
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


def compare(base: dict, head: dict) -> list[str]:
    """The report, base beside head, with a ``::warning::`` line per fact that differs."""
    out = []
    for flags, h in head["runs"].items():
        b = base["runs"][flags]
        level = "bits equal" if b["bits"] == h["bits"] else "drifted"
        if level == "drifted" and b["csv"] == h["csv"]:
            level = "CSV equal, bits drifted"
        out.append(f"{flags}: CSV base {b['csv']} head {h['csv']}")
        out.append(f"{flags}: fingerprint base {b['bits']} head {h['bits']} ({level})")
        if b["csv"] != h["csv"]:
            out.append(f"::warning::{flags}: metrics CSV differs from the base commit")
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
    for name, h in head["timers"].items():
        out.append(f"{name}: base {base['timers'][name]} head {h}")
        for side, value in (("base", base["timers"][name]), ("head", h)):
            if value is None:
                out.append(f"::warning::the {side} {name} failed")
        if name in FLOORS and None not in (base["floors"][name], head["floors"][name]):
            (b_step, b_floor), (h_step, h_floor) = base["floors"][name], head["floors"][name]
            out.append(f"{name}, check-free floor: base {b_floor * 1e6:.3g} usec head "
                       f"{h_floor * 1e6:.3g} usec; step / floor base {b_step / b_floor:.2f} "
                       f"head {h_step / h_floor:.2f}")
    for workload, runs in head["bench"].items():
        if None in [*base["bench"][workload], *runs]:
            out.append(f"::warning::{workload}: the benchmark runs could not be compared")
            continue
        for name in BENCH_METRICS:
            b, h = [run[name] for run in base["bench"][workload]], [run[name] for run in runs]
            out.extend(judge(workload, name, b, h))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="compare_base.py", description=__doc__.split("\n")[0])
    parser.add_argument("ref", metavar="REF", help="the base commit")
    parser.add_argument("--pairs", type=int, default=2, metavar="N",
                        help="benchmark pairs per workload, at least 2 (default 2)")
    parser.add_argument("--seconds", type=int, default=5, metavar="S",
                        help="seconds per benchmark run, at least 1 (default 5)")
    try:
        args = parser.parse_args(argv)
        if args.pairs < 2 or args.seconds < 1:
            parser.error(f"need --pairs >= 2 and --seconds >= 1, got {args.pairs} and {args.seconds}")
    except SystemExit as exc:  # argparse exits 2 on bad arguments, 0 after --help
        return exc.code
    with tempfile.TemporaryDirectory() as tmp:
        try:
            trees = checkouts(args.ref, Path(tmp))
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
        for side, runs in pairs(trees, args.pairs, args.seconds).items():
            got[side]["bench"] = runs
    print("\n".join(compare(got["base"], got["head"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
