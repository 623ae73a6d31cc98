#!/usr/bin/env python3
"""Run the three-variant comparison on one shared dataset.

Writes a config file per variant (classical baseline, circuit classifier
with classical weights, circuit classifier with quantum-held weights moved
by teleportation), runs them through the compare mode, and leaves a single
combined CSV ready for plotting accuracy-versus-round curves.  It writes no
file until every variant's settings pass, and exits as the CLI does.
"""
import argparse
import sys
from pathlib import Path

from qfedring.cli import _FIELD_TYPES, ConfigError, ExperimentConfig
from qfedring.cli import main as cli_main

VARIANTS = {
    "cfl": {"model": "cfl"},
    "qfl-classical": {"model": "qfl-classical"},
    "qfl-quantum": {"model": "qfl-quantum", "transport": "teleport"},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out-dir", default="comparison", help="where configs and the CSV land")
    # Each shared setting parses as its ExperimentConfig field; one left unset
    # is not written, so each run keeps ExperimentConfig's default.
    for name in ("rounds", "clients", "local_epochs", "seed", "noise"):
        p.add_argument("--" + name.replace("_", "-"), type=_FIELD_TYPES[name])
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    out_dir = Path(args.out_dir)
    shared = {k: v for k, v in vars(args).items() if k != "out_dir" and v is not None}
    variants = {name: {**settings, **shared} for name, settings in VARIANTS.items()}
    config_paths = []
    try:
        for name, lines in variants.items():
            ExperimentConfig(**lines)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, lines in variants.items():
            path = out_dir / f"{name}.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
            config_paths.append(str(path))
    except ConfigError as exc:
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: --out-dir {out_dir}: {exc}", file=sys.stderr)
        return 1

    csv_path = out_dir / "comparison.csv"
    code = cli_main(["--compare", *config_paths, "--out", str(csv_path)])
    if code == 0:
        print(f"combined metrics: {csv_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
