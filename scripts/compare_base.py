#!/usr/bin/env python3
"""Set this checkout (the head) beside a base commit, fact by fact.

    python scripts/compare_base.py REF

Extracts REF with ``git archive``.  Each fact comes from its side's own code,
but this checkout's ``scripts/fingerprint.py`` runs on both packages, as do
its ``configs/*.cfg``, each at 10 rounds, for the comparison CSV.  Prints
the facts side by side, with a ``::warning::`` line for each that differs.
Exits 1, naming the side and the command, if a fingerprint, comparison or
``--help`` run fails, and 2 if git cannot archive REF; any other failed run
is a warning.
"""
import difflib
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# At 10 rounds; the last is the teleport-handoff benchmark workload's shape.
RUNS = (
    "--model cfl --transport copy",
    "--model qfl-classical --transport copy",
    "--model qfl-quantum --transport copy",
    "--model qfl-quantum --transport teleport",
    "--model qfl-quantum --transport teleport --clients 24 --local-epochs 1 --batch-size 64",
)
COMPARISON = "qfedring --compare configs/*.cfg at 10 rounds"
# Each on a one-round cfl run in an empty directory of its own.
BAD_FLAGS = (
    "--seed -1", "--train-fraction 0.0001", "--noise -1", "--factor 1", "--clients 2000",
    "--num-points 5", "--model qfl-classical --layers 74",
    '--out ""', '--dump-dataset ""', '--config ""',
)
WORKLOADS = ("mlp-ring", "vqc-ring", "teleport-handoff")
BENCH_METRICS = ("samples_per_s", "round_ms.p50")
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
# over 3 clients), whose batching a one-batch step timer cannot see.
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
    "shard = np.random.default_rng(0).uniform(0, np.pi, (320, 2)), np.arange(320) % 2",
    "client = fedring.ClientState(0, *shard, mlp, np.random.default_rng(0), opt)",
)
STEP = "{0}.step({0}.loss_grad(rows, loss)[1] / labels.size, opt)"
TIMERS = {"channel timer": "teleport.teleport_weights(store, channel)",
          **{f"SGD step timer, {kind}": STEP.format(kind) for kind in ("mlp", "circuit", "store")},
          "evaluate timer, store": "trainkit.evaluate(store, rows, labels)",
          "local_train epoch timer, mlp": "fedring.local_train(client, 1, config.batch_size)"}


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
        work, got = Path(tmp), {"runs": {}, "refusals": {}, "timers": {}}
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
                                  (tree / name).rglob("*.py")) for name in ("src", "tests")}
        numpy = run(tree, work, "-c", "import numpy", OPENBLAS_VERBOSE="2").stderr.splitlines()
        got["kernel"] = next((line for line in numpy if "Core:" in line), None)
        timeit = ("-m", "timeit", "-n", "200", "-r", "7", *(f"-s{line}" for line in TIMER_SETUP))
        for name, stmt in TIMERS.items():
            timed = or_none(run, tree, work, *timeit, stmt)
            got["timers"][name] = timed and timed.stdout.split(" per loop")[0].split(": ")[-1]
        return got


def bench(tree: Path, workload: str) -> dict:
    """``BENCH_METRICS`` of one 5 s ``perfbench/run.py`` run of ``tree``.  The
    run exits 0 even when a job's CSV differs from the CLI's, so a run that
    reports itself incorrect or failed raises ValueError."""
    args = ("--workload", workload, "--seconds", "5", "--trace", "0")
    out = run(tree, tree, str(tree / "perfbench" / "run.py"), *args).stdout.splitlines()
    result = json.loads(out[-1])
    if not result["correct"] or result["failed"]:
        raise ValueError(f"{workload}: correct {result['correct']}, failed {result['failed']}")
    return {name: result["metrics"][name]["value"] for name in BENCH_METRICS}


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
    # The head warns when it is worse in both pairs by more than the metric's bound.
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for workload, runs in head["bench"].items():
        pairs = list(zip(base["bench"][workload], runs))
        if None in [run for pair in pairs for run in pair]:
            out.append(f"::warning::{workload}: the benchmark runs could not be compared")
            continue
        for name in BENCH_METRICS:
            sign = -1 if spec[name]["better"] == "higher" else 1
            worse = min(sign * (h[name] - b[name]) / b[name] for b, h in pairs)
            out.append(f"{workload} {name}: " + "; ".join(
                f"base {b[name]:.1f} head {h[name]:.1f}" for b, h in pairs))
            if worse > spec[name]["bound"]:
                out.append(f"::warning::{workload} {name} is worse at the head in both pairs, by "
                           f"{worse:.0%} or more (bound {spec[name]['bound']:.0%})")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: compare_base.py REF", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": Path(tmp), "head": ROOT}
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0]],
                                 stdout=subprocess.PIPE)
        if archive.returncode != 0:
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        got = {}
        for side, tree in trees.items():
            try:
                got[side] = {**facts(tree), "bench": {}}
            except subprocess.CalledProcessError as exc:
                failed = f"{side}: {shlex.join(exc.cmd)} exited {exc.returncode}"
                print(f"{exc.stderr}error: {failed}", file=sys.stderr)
                return 1
        for workload in WORKLOADS:
            runs = [or_none(bench, trees[side], workload) for side in ("base", "head") * 2]
            got["base"]["bench"][workload], got["head"]["bench"][workload] = runs[::2], runs[1::2]
    print("\n".join(compare(got["base"], got["head"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
