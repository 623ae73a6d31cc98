"""One benchmark job: set up a workload, drive the ring one round at a time,
and report the round timings and the metrics CSV rebuilt from the rounds.

``run.py`` starts each job in a fresh process so that import time, peak
memory and any tracing patches belong to that job alone:

    python3 perfbench/job.py --workload vqc-ring --seed 42 [--spans FILE]

It prints one JSON object.  With ``--spans`` the job runs traced and also
reports the per-layer metrics.  ``run_job`` is the same job in-process.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Each workload is a set of qfedring CLI flags on the default dataset (1200
# points, noise 0.1, factor 0.5, train fraction 0.8).  rounds_per_job is the
# length of one job, and so of the CSV the correctness gate compares;
# nominal_round_s (median round time on the reference machine) sizes how
# many jobs fill a run of --seconds.  mlp-ring runs 90 rounds a job so that a
# 20 s run measures 990 rounds and its tail is p95 with 49 rounds beyond it;
# at 1000 rounds it would be p99 resting on exactly ten, which on a shared
# host are its scheduling hiccups.
WORKLOADS = {
    "mlp-ring": {
        "flags": ["--model", "cfl"],
        "rounds_per_job": 90,
        "nominal_round_s": 0.020,
        "why": "cfl defaults: MLP gradients and the local_train dispatch are the round; "
        "no circuit, quantum-weight or teleport work, so circuit-side changes must not move it",
    },
    "vqc-ring": {
        "flags": ["--model", "qfl-classical"],
        "rounds_per_job": 10,
        "nominal_round_s": 0.45,
        "why": "qfl-classical defaults: vqc.gradient_batch is most of a round; qweights and "
        "teleport are never called, the bypass case for quantum-weight changes",
    },
    "teleport-handoff": {
        "flags": [
            "--model", "qfl-quantum", "--transport", "teleport",
            "--clients", "24", "--local-epochs", "1", "--batch-size", "64",
        ],
        "rounds_per_job": 20,
        "nominal_round_s": 0.26,
        "why": "qfl-quantum teleport, 24 clients, 1 epoch: one SGD step per visit then a "
        "12-weight teleport, so the hand-off and quantum-weight paths dominate",
    },
}


# Host speed on a shared machine drifts by tens of percent over seconds,
# equally for every process.  A fixed loop that shares no code with qfedring
# is timed right after set-up and again after every round.  run.py scales
# set-up by REF_NOMINAL_S over the first timing and each round by
# REF_NOMINAL_S over the mean of the two timings around it, which gives times
# at the reference machine's speed.  Timing the loop less often than every
# round lets one off timing mis-scale a block of rounds, which shows in the
# tail.
REF_NOMINAL_S = 0.0017


def reference_kernel_s(np) -> float:
    """Median seconds of three runs of a fixed loop of tiny numpy calls."""
    m = np.eye(4, dtype=complex) * 0.5
    times = []
    for _ in range(3):
        v = np.ones((32, 4), dtype=complex)
        start = time.perf_counter()
        for _ in range(300):
            v = (v @ m.T) * 2.0
            float(v.real.sum())
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def cli_flags(workload: str, seed: int, rounds: int, extra=()) -> list[str]:
    """The qfedring CLI flags that describe one job of ``workload``."""
    return [*WORKLOADS[workload]["flags"], "--rounds", str(rounds), "--seed", str(seed), *extra]


def run_job(workload: str, seed: int, *, rounds: int | None = None, extra=(), tracer=None) -> dict:
    """Set up, train ``rounds`` one-round ring calls, and rebuild the CSV.

    setup_s runs from before ``import qfedring`` to the start of the first
    round, so it covers import, build_dataset and make_clients only when the
    package is not yet imported.  A ``tracer`` is installed right after the
    import and removed before returning.
    """
    rounds = rounds or WORKLOADS[workload]["rounds_per_job"]
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np

    import qfedring
    from qfedring import cli, fedring

    if tracer is not None:
        tracer.install()
    try:
        config = cli.parse_config(cli_flags(workload, seed, rounds, extra))
        dataset = cli.build_dataset(config)
        init_rng = np.random.default_rng([config.seed, 3])
        if config.model == "cfl":
            model = qfedring.init_mlp(init_rng)
        elif config.model == "qfl-classical":
            model = qfedring.init_model(init_rng, num_layers=config.layers)
        else:
            model = qfedring.init_store(init_rng, num_layers=config.layers, gamma=config.gamma)
        clients = fedring.make_clients(
            dataset.train_features,
            dataset.train_labels,
            config.clients,
            model,
            partition_seed=[config.seed, 2],
            client_seed=config.seed,
            learning_rate=config.learning_rate,
        )
        schedule = fedring.RingSchedule(
            num_clients=config.clients,
            num_rounds=1,
            local_epochs=config.local_epochs,
            transport=fedring.Transport(config.transport),
        )
        channel = (
            np.random.default_rng([config.seed, 4]) if config.transport == "teleport" else None
        )
        setup_s = time.perf_counter() - start
        rows, round_s, ref_s = [], [], [reference_kernel_s(np)]
        for round_index in range(1, rounds + 1):
            if tracer is not None:
                tracer.round = round_index
            t0 = time.perf_counter()
            _, metrics = fedring.run_ring(
                schedule,
                clients,
                dataset.test_features,
                dataset.test_labels,
                batch_size=config.batch_size,
                channel_rng=channel,
            )
            round_s.append(time.perf_counter() - t0)
            ref_s.append(reference_kernel_s(np))
            rows.append(dataclasses.replace(metrics[0], round_index=round_index))
        if tracer is not None:
            tracer.round = None
        csv_text = cli.metrics_csv_text(rows)
    finally:
        if tracer is not None:
            tracer.remove()
    accuracies = [m.test_accuracy for m in rows]
    return {
        "setup_s": setup_s,
        "setup_ref_s": ref_s[0],
        "round_s": round_s,
        "round_ref_s": [(a + b) / 2 for a, b in zip(ref_s, ref_s[1:])],
        "samples_per_round": config.local_epochs * dataset.train_labels.size,
        "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
        "final_accuracy": accuracies[-1],
        "convergence_round": cli.convergence_round(accuracies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", help="run traced and write the spans here as JSON lines")
    args = parser.parse_args(argv)
    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
    result = run_job(args.workload, args.seed, tracer=tracer)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
