#!/usr/bin/env python3
"""Print the bit fingerprint of qfedring runs.

A fingerprint is the sha256 of the ``float.hex`` of every round's mean train
loss and test accuracy and of every final parameter (a quantum weight
store's angles).  The metrics CSV prints floats with ``%.9g``, so two runs
with equal CSVs agree to about ten digits; two runs with equal fingerprints
agree in every bit.

With no arguments it fingerprints the four default runs: ``cfl``,
``qfl-classical``, and ``qfl-quantum`` with copy and with teleport (100
rounds each).  Any arguments are ``python -m qfedring`` flags for one run::

    PYTHONPATH=src python scripts/fingerprint.py
    PYTHONPATH=src python scripts/fingerprint.py --model qfl-classical --rounds 10

Each line is ``<fingerprint>  <csv sha256>  <final accuracy>  <convergence
round>  <flags>``: the second field is the sha256 of the metrics CSV
``python -m qfedring`` writes for the same flags, so one training gives both,
then the last round's test accuracy (its ``repr``) and the round the CLI
reports the run converged at (``cli.convergence_round``).  Errors exit as the
CLI's do: ``error: <message>`` on stderr, with exit 2 for bad flags and 1 for
a run that fails.  Standard library and qfedring only.
"""
import hashlib
import sys

from qfedring import cli
from qfedring.qweights import QuantumWeightStore
from qfedring.teleport import TransferError

DEFAULT_RUNS = (
    ("--model", "cfl", "--transport", "copy"),
    ("--model", "qfl-classical", "--transport", "copy"),
    ("--model", "qfl-quantum", "--transport", "copy"),
    ("--model", "qfl-quantum", "--transport", "teleport"),
)


def final_values(model) -> list[float]:
    """The final model's trained numbers: a store's angles, else its params."""
    values = model.angles if isinstance(model, QuantumWeightStore) else model.params
    return [float(v) for v in values.flat]


def fingerprint(metrics, values) -> str:
    """sha256 of the hex of each round's (loss, accuracy), then of ``values``."""
    lines = [f"{float(m.mean_train_loss).hex()} {float(m.test_accuracy).hex()}" for m in metrics]
    lines.append(" ".join(float(v).hex() for v in values))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run(flags) -> tuple[list, list[float]]:
    """Train the run ``flags`` name; returns its per-round metrics and final values."""
    config = cli.parse_config(list(flags))
    if not isinstance(config, cli.ExperimentConfig):
        raise cli.ConfigError("fingerprint.py takes the flags of one run, not --compare")
    model, metrics, _ = cli.run_single(config, cli.build_dataset(config))
    return metrics, final_values(model)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for flags in [argv] if argv else DEFAULT_RUNS:
        try:
            metrics, values = run(flags)
        except (cli.ConfigError, TransferError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, cli.ConfigError) else 1
        csv_sha = hashlib.sha256(cli.metrics_csv_text(metrics).encode()).hexdigest()
        accuracies = [float(m.test_accuracy) for m in metrics]
        converged = cli.convergence_round(accuracies)
        print(f"{fingerprint(metrics, values)}  {csv_sha}  {accuracies[-1]!r}  {converged}  "
              f"{' '.join(flags)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
