"""Ring-round benchmark for qfedring.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload from the root of a source checkout.  Every job is a fresh
child process (see job.py) that trains the ring one round at a time through
the public API.  With ``--trace 0`` the jobs run untraced and the end-to-end
metrics are reported; with ``--trace 1`` one untraced and one traced job give
the per-layer metrics and the tracing overhead.  Either way the command also
runs the qfedring CLI once on the same flags, and a job fails the correctness
gate if it raises or its metrics-CSV bytes differ from the CLI's.

A human-readable report comes first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Details,
spans and the CLI's CSV land in .perfbench_out/ of the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from job import REF_NOMINAL_S, WORKLOADS, cli_flags
from spans import per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# Every child must finish inside this many seconds from the start, so the
# whole command ends within three minutes even if the program hangs.
DEADLINE_S = 170.0
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750, 500)
# The numbers a run reports with --trace 0, with their unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "round_ms.p50": "ms",
    "round_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    s = sorted(values)
    k = (len(s) - 1) * pct / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    for permille in TAIL_LADDER_PERMILLE:
        if count * (1000 - permille) >= 10 * 1000:
            return permille / 10
    return 50.0


def machine_info(numpy_version: str | None) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
    }


class Runner:
    """Starts the children one at a time, each under the shared deadline."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env["PYTHONHASHSEED"] = "0"
        # The matrices are at most 8x8; BLAS threads would only add noise.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def run(self, argv: list[str]) -> tuple[str | None, str]:
        """Run one child; returns (stdout, "") on success or (None, reason)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None, "deadline passed before start"
        try:
            proc = subprocess.run(
                [sys.executable, *argv],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        if proc.returncode != 0:
            return None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        return proc.stdout, ""

    def job(self, workload: str, seed: int, spans: Path | None = None) -> tuple[dict | None, str]:
        argv = [str(HERE / "job.py"), "--workload", workload, "--seed", str(seed)]
        if spans is not None:
            argv += ["--spans", str(spans)]
        out, why = self.run(argv)
        if out is None:
            return None, why
        return json.loads(out.strip().splitlines()[-1]), ""

    def cli_csv(self, workload: str, seed: int) -> tuple[str | None, str]:
        """sha256 of the CSV the qfedring CLI writes for one job's flags."""
        path = OUT_DIR / f"cli-{workload}-s{seed}.csv"
        rounds = WORKLOADS[workload]["rounds_per_job"]
        out, why = self.run(["-m", "qfedring", *cli_flags(workload, seed, rounds), "--out", str(path)])
        if out is None:
            return None, why
        return hashlib.sha256(path.read_bytes()).hexdigest(), ""


def job_count(workload: str, seconds: int) -> int:
    """Jobs that fill about ``seconds`` of rounds on the reference machine.

    The count depends only on the arguments, so parent and change measure
    the same rounds and the tail percentile keeps its meaning.
    """
    spec = WORKLOADS[workload]
    return max(3, round(seconds / (spec["rounds_per_job"] * spec["nominal_round_s"])))


def scaled_rounds(job: dict) -> list[float]:
    """Round seconds at the reference machine's speed (see job.REF_NOMINAL_S)."""
    return [t * REF_NOMINAL_S / ref for t, ref in zip(job["round_s"], job["round_ref_s"])]


def end_to_end(jobs: list[dict]) -> dict:
    rounds = [t for job in jobs for t in scaled_rounds(job)]
    raw = [t for job in jobs for t in job["round_s"]]
    samples = sum(job["samples_per_round"] * len(job["round_s"]) for job in jobs)
    tail_pct = tail_percentile(len(rounds))
    return {
        "setup_s": statistics.median(
            job["setup_s"] * REF_NOMINAL_S / job["setup_ref_s"] for job in jobs
        ),
        "samples_per_s": samples / sum(rounds),
        "round_ms.p50": percentile(rounds, 50.0) * 1e3,
        "round_ms.tail": percentile(rounds, tail_pct) * 1e3,
        "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in jobs),
        "raw_setup_s": statistics.median(job["setup_s"] for job in jobs),
        "raw_samples_per_s": samples / sum(raw),
        "raw_round_ms.p50": percentile(raw, 50.0) * 1e3,
        "raw_round_ms.tail": percentile(raw, tail_pct) * 1e3,
        "host_speed": statistics.median(
            REF_NOMINAL_S / ref for job in jobs for ref in job["round_ref_s"]
        ),
        "round_ms.tail_pct": tail_pct,
        "rounds_measured": len(rounds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qfedring ring-round benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qfedring" / "__init__.py").is_file():
        print(f"error: no qfedring source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner()
    spans_path = OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl"

    plain_count = 1 if args.trace else job_count(args.workload, args.seconds)
    runs: list[tuple[str, dict | None, str]] = []
    for _ in range(plain_count):
        runs.append(("plain", *runner.job(args.workload, args.seed)))
    if args.trace:
        runs.append(("traced", *runner.job(args.workload, args.seed, spans_path)))
    reference, why = runner.cli_csv(args.workload, args.seed)

    failures = [] if reference is not None else [f"cli: {why}"]
    for kind, result, why in runs:
        if result is None:
            failures.append(f"{kind} job: {why}")
        elif result["csv_sha256"] != reference:
            failures.append(f"{kind} job: CSV sha256 {result['csv_sha256'][:16]} != CLI {reference}")
    attempted = len(runs) + 1
    plain = [r for kind, r, _ in runs if kind == "plain" and r is not None]
    traced = [r for kind, r, _ in runs if kind == "traced" and r is not None]
    if not plain or (args.trace and not traced):
        for line in failures:
            print(f"error: {line}", file=sys.stderr)
        return 1

    spec = WORKLOADS[args.workload]
    machine = machine_info(plain[0]["numpy"])
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print(f"flags: {' '.join(cli_flags(args.workload, args.seed, spec['rounds_per_job']))}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"runs: {len(runs)} jobs x {spec['rounds_per_job']} one-round ring calls "
          f"+ 1 CLI reference; failed {len(failures)}/{attempted}")
    print(f"csv_sha256: {reference}")
    for line in failures:
        print(f"FAILED {line}")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine,
        "csv_sha256": reference,
        "failures": failures,
        "final_accuracy": plain[0]["final_accuracy"],
        "convergence_round": plain[0]["convergence_round"],
    }
    if args.trace:
        layers = dict(traced[0]["layers"])
        layers["trace.overhead_frac"] = (
            sum(scaled_rounds(traced[0])) / sum(scaled_rounds(plain[0])) - 1.0
        )
        round_ms = layers["fedring.run_ring.ms"]
        units = per_layer_units()
        print(f"{'per-layer metric':40} {'value':>14}  unit      share of run_ring")
        for name, (unit, _) in units.items():
            share = f"{100.0 * layers[name] / round_ms:6.1f}%" if unit == "ms" else ""
            print(f"{name:40} {layers[name]:14.6g}  {unit:9} {share}")
        print(f"(traced job of {spec['rounds_per_job']} rounds; spans in {spans_path.name})")
        metrics = {name: {"value": layers[name], "unit": units[name][0]} for name in units}
    else:
        e2e = end_to_end(plain)
        rounds = e2e["rounds_measured"]
        rows = [
            ("setup_s", e2e["setup_s"], "s", len(plain), "median over fresh processes"),
            ("samples_per_s", e2e["samples_per_s"], "1/s", rounds, "rounds"),
            ("round_ms.p50", e2e["round_ms.p50"], "ms", rounds, "rounds"),
            ("round_ms.tail", e2e["round_ms.tail"], "ms", rounds,
             f"rounds, p{e2e['round_ms.tail_pct']:g}"),
            ("final_accuracy", detail["final_accuracy"], "fraction", 1,
             f"round {spec['rounds_per_job']}, deterministic"),
            ("convergence_round", detail["convergence_round"], "round", 1, "deterministic"),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MB", len(plain), "median ru_maxrss"),
            ("failed_frac", len(failures) / attempted, "fraction", attempted, "runs"),
        ]
        print(f"{'metric':20} {'value':>12}  {'unit':9} {'samples':>7}  note")
        for name, value, unit, count, note in rows:
            print(f"{name:20} {value:12.6g}  {unit:9} {count:7d}  {note}")
        print(f"times are at reference speed; median host speed {e2e['host_speed']:.3f}; unscaled:",
              ", ".join(f"{k[4:]} {v:.6g}" for k, v in e2e.items() if k.startswith("raw_")))
        detail.update(e2e)
        detail.update({name: value for name, value, *_ in rows})
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    detail["metrics"] = metrics
    result_path = OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
