"""Collect the result files of benchmark runs into perfbench/baseline.json.

    python3 perfbench/baseline.py

Reads every ``.perfbench_out/result-*.json`` that ``run.py`` left in the
checkout: the untraced runs give the median and quartiles of each
end-to-end metric per workload, and the traced run of seed 42 gives the
per-layer table.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path

from job import WORKLOADS
from run import END_TO_END_UNITS, OUT_DIR

HERE = Path(__file__).resolve().parent

# Which end-to-end metric each layer metric should move, on which workload,
# written down before any optimisation is measured.
LAYER_MAP = [
    {
        "layer": ["vqc.gradient_batch.ms", "vqc.gradient_batch.self_ms"],
        "moves": ["samples_per_s", "round_ms.p50", "round_ms.tail"],
        "on": {"vqc-ring": "most of a round", "teleport-handoff": "about a quarter"},
        "not_on": ["mlp-ring"],
    },
    {
        "layer": ["qweights.materialize.ms", "qweights.weight_gradient.ms", "statevec.states_built"],
        "moves": ["samples_per_s"],
        "on": {"teleport-handoff": "quantum-weight read path"},
        "not_on": ["vqc-ring", "mlp-ring"],
    },
    {
        "layer": ["teleport.teleport_weights.ms", "teleport.teleport_state.ms",
                  "teleport.decode_angle.ms"],
        "moves": ["round_ms.p50", "round_ms.tail"],
        "on": {"teleport-handoff": "the hand-off, about half a round"},
        "not_on": ["vqc-ring", "mlp-ring"],
    },
    {
        "layer": ["fedring.local_train.self_ms", "fedring.run_ring.self_ms", "trainkit.*.ms"],
        "moves": ["samples_per_s"],
        "on": {"mlp-ring": "nearly the whole round"},
        "not_on": [],
        "small_share_on": ["vqc-ring", "teleport-handoff"],
    },
    {
        "layer": ["datagen.*.ms", "cli.build_dataset.ms", "fedring.make_clients.ms"],
        "moves": ["setup_s"],
        "on": {"mlp-ring": "setup", "vqc-ring": "setup", "teleport-handoff": "setup"},
        "not_on": [],
    },
    {
        "layer": ["teleport.bell.*", "teleport.min_fidelity", "teleport.max_decode_residual",
                  "teleport.decode_ok_frac"],
        "moves": [],
        "on": {},
        "not_on": ["mlp-ring", "vqc-ring", "teleport-handoff"],
        "note": "quality counters: with final_accuracy and convergence_round they must not "
        "move for any optimisation",
    },
]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def main() -> int:
    results = [json.loads(p.read_text()) for p in sorted(OUT_DIR.glob("result-*.json"))]
    machine = None
    workloads = {}
    for name, spec in WORKLOADS.items():
        plain = [r for r in results if r["workload"] == name and r["trace"] == 0]
        traced = [r for r in results if r["workload"] == name and r["trace"] == 1 and r["seed"] == 42]
        if plain:
            machine = plain[0]["machine"]
        workloads[name] = {
            "flags": spec["flags"],
            "rounds_per_job": spec["rounds_per_job"],
            "why": spec["why"],
            "end_to_end": {
                metric: {"unit": unit, **summarize([r["metrics"][metric]["value"] for r in plain])}
                for metric, unit in END_TO_END_UNITS.items()
            } if len(plain) >= 2 else {},
            "runs": [
                {key: r[key] for key in ("seed", "csv_sha256", "final_accuracy",
                                         "convergence_round", "failed_frac", "round_ms.tail_pct",
                                         "rounds_measured")}
                for r in sorted(plain, key=lambda r: r["seed"])
            ],
            "per_layer_seed42": {k: v["value"] for k, v in traced[0]["metrics"].items()}
            if traced else {},
        }
    out = {"machine": machine, "workloads": workloads, "layer_map": LAYER_MAP}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {HERE / 'baseline.json'} from {len(results)} result files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
