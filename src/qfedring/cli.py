"""Command line entry point for running and comparing federated experiments.

Single-run mode trains one configuration and writes a per-round metrics CSV.
Compare mode loads several config files that must agree on the dataset,
trains each on the shared data, and writes one combined CSV tagged with the
dataset checksum.

Seed discipline: every random stream is derived from the experiment seed
with a fixed tag ([seed, 0] dataset, [seed, 1] split, [seed, 2] partition,
[seed, 3] model init, [seed, 4] teleport channel; client shuffles get their
own tagged streams).  Reruns of the same config therefore produce identical
metrics files byte for byte.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import datagen, fedring, qweights, trainkit, vqc
from .datagen import Dataset
from .fedring import RingSchedule, Transport
from .teleport import TransferError
from .trainkit import RoundMetrics

MODELS = ("cfl", "qfl-classical", "qfl-quantum")
TRANSPORTS = ("copy", "teleport")

METRICS_HEADER = "round,client,mean_train_loss,test_accuracy,wall_ms"
COMPARE_HEADER = "model,transport,round,client,mean_train_loss,test_accuracy,wall_ms,dataset_checksum"

CONVERGENCE_TOLERANCE = 0.02

# Fields a config file may set, with their parsers.
_FIELD_TYPES = {
    "model": str,
    "clients": int,
    "rounds": int,
    "local_epochs": int,
    "layers": int,
    "learning_rate": float,
    "batch_size": int,
    "gamma": float,
    "num_points": int,
    "noise": float,
    "factor": float,
    "train_fraction": float,
    "transport": str,
    "seed": int,
    "out": str,
    "dump_dataset": str,
}

# Settings that determine the generated dataset; compare mode requires these
# to agree across all configs.
DATASET_FIELDS = ("num_points", "noise", "factor", "train_fraction", "seed")


class ConfigError(ValueError):
    """Invalid flags, config file contents, or field combinations."""


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    clients: int = 3
    rounds: int = 100
    local_epochs: int = 5
    layers: int = 2
    learning_rate: float = 0.02
    batch_size: int = 32
    gamma: float = math.pi
    num_points: int = 1200
    noise: float = 0.1
    factor: float = 0.5
    train_fraction: float = 0.8
    transport: str = "copy"
    seed: int = 42
    out: str = "metrics.csv"
    dump_dataset: str | None = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.transport not in TRANSPORTS:
            raise ConfigError(f"transport must be one of {TRANSPORTS}, got {self.transport!r}")
        if self.transport == "teleport" and self.model != "qfl-quantum":
            raise ConfigError("transport=teleport only applies to model=qfl-quantum")
        for name in ("clients", "rounds", "local_epochs", "layers", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"gamma must be positive, got {self.gamma!r}")
        if self.num_points < 4:
            raise ConfigError(f"num_points must be >= 4, got {self.num_points}")
        if self.num_points % 2:
            raise ConfigError(
                f"num_points must be even to balance the classes, got {self.num_points}"
            )
        if self.noise < 0 or not math.isfinite(self.noise):
            raise ConfigError(f"noise must be a finite non-negative sigma, got {self.noise!r}")
        if not 0 < self.factor < 1:
            raise ConfigError(f"factor must lie in (0, 1), got {self.factor!r}")
        if not 0 < self.train_fraction < 1:
            raise ConfigError(f"train_fraction must lie in (0, 1), got {self.train_fraction!r}")
        # make_circles puts num_points // 2 samples in each class.
        train = 2 * datagen.class_train_size(self.num_points // 2, self.train_fraction)
        if train in (0, self.num_points):
            raise ConfigError(f"train_fraction={self.train_fraction!r} leaves a split empty")
        if self.clients > train:
            raise ConfigError(f"clients={self.clients} exceeds the {train} training samples")


@dataclass(frozen=True)
class CompareRequest:
    config_paths: tuple[str, ...]
    out: str


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qfedring", description="Ring-federated circuit classifier experiments")
    p.add_argument("--config", help="config file of key = value lines; flags override it")
    p.add_argument("--compare", nargs="+", metavar="CFG",
                   help="run several config files on a shared dataset and merge the metrics")
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--clients", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--local-epochs", type=int, dest="local_epochs")
    p.add_argument("--layers", type=int)
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--gamma", type=float)
    p.add_argument("--num-points", type=int, dest="num_points")
    p.add_argument("--noise", type=float)
    p.add_argument("--factor", type=float)
    p.add_argument("--train-fraction", type=float, dest="train_fraction")
    p.add_argument("--transport", choices=TRANSPORTS)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--dump-dataset", dest="dump_dataset")
    return p


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise ConfigError(message)


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            values[key] = _FIELD_TYPES[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def config_from_file(path: str) -> ExperimentConfig:
    values = _load_config_file(path)
    if "model" not in values:
        raise ConfigError(f"{path}: config file must set 'model'")
    return ExperimentConfig(**values)


def parse_config(argv) -> ExperimentConfig | CompareRequest:
    """Parse flags (and an optional config file) into a run or compare request."""
    ns = _build_parser().parse_args(list(argv))
    flag_values = {
        name: getattr(ns, name) for name in _FIELD_TYPES if getattr(ns, name) is not None
    }
    if ns.compare:
        if len(ns.compare) < 2:
            raise ConfigError("--compare needs at least two config files")
        extras = sorted(set(flag_values) - {"out"})
        if ns.config or extras:
            raise ConfigError("compare mode takes config files plus --out only")
        return CompareRequest(tuple(ns.compare), out=ns.out or "compare.csv")
    values = _load_config_file(ns.config) if ns.config else {}
    values.update(flag_values)
    if "model" not in values:
        raise ConfigError("--model is required (or set model in a config file)")
    return ExperimentConfig(**values)


def _format(value: float) -> str:
    return f"{value:.9g}"


def metrics_csv_text(metrics: list[RoundMetrics]) -> str:
    lines = [METRICS_HEADER]
    for m in metrics:
        lines.append(
            f"{m.round_index},{m.client_id},{_format(m.mean_train_loss)},"
            f"{_format(m.test_accuracy)},{_format(m.wall_ms)}"
        )
    return "\n".join(lines) + "\n"


def write_metrics_csv(path, metrics: list[RoundMetrics]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(metrics_csv_text(metrics))


def convergence_round(accuracies, tolerance: float = CONVERGENCE_TOLERANCE) -> int:
    """First round (1-based) whose accuracy is within ``tolerance`` of the final one."""
    accs = list(accuracies)
    if not accs:
        raise ValueError("no accuracies to scan")
    final = accs[-1]
    for index, acc in enumerate(accs, start=1):
        if abs(acc - final) <= tolerance:
            return index
    raise AssertionError("unreachable: the final round always qualifies")


def build_dataset(config: ExperimentConfig) -> Dataset:
    feats, labels = datagen.make_circles(
        config.num_points, config.noise, config.factor, [config.seed, 0]
    )
    return datagen.scale_and_split(feats, labels, config.train_fraction, [config.seed, 1])


def _init_model(config: ExperimentConfig):
    rng = np.random.default_rng([config.seed, 3])
    if config.model == "cfl":
        return trainkit.init_mlp(rng)
    if config.model == "qfl-classical":
        return vqc.init_model(rng, num_layers=config.layers)
    return qweights.init_store(rng, num_layers=config.layers, gamma=config.gamma)


def run_single(config: ExperimentConfig, dataset: Dataset):
    """Train one configuration; returns (final model, metrics, elapsed seconds)."""
    clients = fedring.make_clients(
        dataset.train_features,
        dataset.train_labels,
        config.clients,
        _init_model(config),
        partition_seed=[config.seed, 2],
        client_seed=config.seed,
        learning_rate=config.learning_rate,
    )
    schedule = RingSchedule(
        num_clients=config.clients,
        num_rounds=config.rounds,
        local_epochs=config.local_epochs,
        transport=Transport.CLASSICAL_COPY if config.transport == "copy" else Transport.TELEPORT,
    )
    channel = (
        np.random.default_rng([config.seed, 4]) if config.transport == "teleport" else None
    )
    start = time.perf_counter()
    model, metrics = fedring.run_ring(
        schedule,
        clients,
        dataset.test_features,
        dataset.test_labels,
        batch_size=config.batch_size,
        channel_rng=channel,
    )
    return model, metrics, time.perf_counter() - start


def _print_summary(config: ExperimentConfig, dataset: Dataset, metrics, elapsed: float) -> None:
    accs = [m.test_accuracy for m in metrics]
    print(
        f"model={config.model} transport={config.transport} seed={config.seed} "
        f"clients={config.clients} rounds={config.rounds} local_epochs={config.local_epochs}"
    )
    print(
        f"dataset: train={dataset.train_labels.size} test={dataset.test_labels.size} "
        f"clamped={dataset.num_clamped} checksum={datagen.dataset_checksum(dataset)[:16]}"
    )
    print(f"final_test_accuracy={_format(accs[-1])}")
    print(f"convergence_round={convergence_round(accs)}")
    print(f"elapsed_seconds={elapsed:.2f}")


def run_experiment(config: ExperimentConfig) -> int:
    dataset = build_dataset(config)
    if config.dump_dataset:
        datagen.dump_csv(dataset, config.dump_dataset)
        print(f"wrote {config.dump_dataset}")
    _, metrics, elapsed = run_single(config, dataset)
    write_metrics_csv(config.out, metrics)
    _print_summary(config, dataset, metrics, elapsed)
    print(f"wrote {config.out}")
    return 0


def compare(request: CompareRequest) -> int:
    configs = [config_from_file(p) for p in request.config_paths]
    first = configs[0]
    for path, config in zip(request.config_paths[1:], configs[1:]):
        for name in DATASET_FIELDS:
            if getattr(config, name) != getattr(first, name):
                raise ConfigError(
                    f"{path}: {name}={getattr(config, name)!r} does not match "
                    f"{request.config_paths[0]}'s {getattr(first, name)!r}; "
                    "compared runs must share the dataset"
                )
    dataset = build_dataset(first)
    checksum = datagen.dataset_checksum(dataset)
    lines = [COMPARE_HEADER]
    for path, config in zip(request.config_paths, configs):
        _, metrics, elapsed = run_single(config, dataset)
        for m in metrics:
            lines.append(
                f"{config.model},{config.transport},{m.round_index},{m.client_id},"
                f"{_format(m.mean_train_loss)},{_format(m.test_accuracy)},"
                f"{_format(m.wall_ms)},{checksum}"
            )
        _print_summary(config, dataset, metrics, elapsed)
    with open(request.out, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {request.out}")
    return 0


def main(argv=None) -> int:
    try:
        request = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if isinstance(request, CompareRequest):
            return compare(request)
        return run_experiment(request)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TransferError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
