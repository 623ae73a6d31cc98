#!/usr/bin/env python3
"""Run the three-variant comparison on one shared dataset.

Writes a config file per variant (classical baseline, circuit classifier
with classical weights, circuit classifier with quantum-held weights moved
by teleportation), runs them through the compare mode, and leaves a single
combined CSV ready for plotting accuracy-versus-round curves.
"""
import argparse
import sys
from pathlib import Path

from qfedring.cli import main as cli_main

VARIANTS = {
    "cfl": {"model": "cfl"},
    "qfl-classical": {"model": "qfl-classical"},
    "qfl-quantum": {"model": "qfl-quantum", "transport": "teleport"},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out-dir", default="comparison", help="where configs and the CSV land")
    # Settings left unset are not written, so each run keeps ExperimentConfig's default.
    p.add_argument("--rounds", type=int)
    p.add_argument("--clients", type=int)
    p.add_argument("--local-epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--noise", type=float)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shared = {k: v for k, v in vars(args).items() if k != "out_dir" and v is not None}

    config_paths = []
    for name, settings in VARIANTS.items():
        lines = {**settings, **shared}
        path = out_dir / f"{name}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        config_paths.append(str(path))

    csv_path = out_dir / "comparison.csv"
    code = cli_main(["--compare", *config_paths, "--out", str(csv_path)])
    if code == 0:
        print(f"combined metrics: {csv_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
