"""Command line entry point for running and comparing federated experiments.

Single-run mode trains one configuration and writes a per-round metrics CSV.
Compare mode loads several config files that must agree on the dataset,
trains each on the shared data, and writes one combined CSV tagged with the
dataset checksum.

``ExperimentConfig`` declares every setting once: each of its fields is a
config-file key and a flag (``local_epochs`` is ``--local-epochs``), parsed
by the field's annotation.  Each setting passes its one ``datagen`` rule,
then three cross-field checks run: teleport needs ``qfl-quantum``, a
circuit's depth must pass ``vqc.fits_unitary_cap`` (``--layers`` above 73 is
refused), and ``clients`` may not exceed the training rows.  So a bad value
exits 2 before any data is built, as do a config file that cannot be read as
text, named by its path, an empty ``--config`` path, and an ``--out`` or
``--dump-dataset`` path that is empty or holds a NUL byte, named by its flag.

Seed discipline: every random stream is derived from the experiment seed
with a fixed tag ([seed, 0] dataset, [seed, 1] split, [seed, 2] partition,
[seed, 3] model init, [seed, 4] teleport channel; client shuffles get their
own tagged streams).  Reruns of the same config therefore produce identical
metrics files byte for byte.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import datagen, fedring, qweights, trainkit, vqc
from .datagen import Dataset, _format
from .fedring import RingSchedule, Transport
from .teleport import TransferError
from .trainkit import RoundMetrics

MODELS = ("cfl", "qfl-classical", "qfl-quantum")
TRANSPORTS = tuple(t.value for t in Transport)

METRICS_HEADER = "round,client,mean_train_loss,test_accuracy,wall_ms"
COMPARE_HEADER = "model,transport,round,client,mean_train_loss,test_accuracy,wall_ms,dataset_checksum"

CONVERGENCE_TOLERANCE = 0.02

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
        try:
            for name in ("clients", "rounds", "local_epochs", "layers", "batch_size"):
                datagen.check_count(getattr(self, name), name)
            datagen.check_positive(self.learning_rate, "learning_rate")
            datagen.check_positive(self.gamma, "gamma")
            datagen.check_circles(self.num_points, self.noise, self.factor)
            datagen.check_count(self.seed, "seed", minimum=0)
            train = datagen.train_split_size(self.num_points, self.train_fraction)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # A circuit's gradient step must fit the engine.
        fits = vqc.fits_unitary_cap(self.layers, vqc.NUM_QUBITS, shifted=True)
        if self.model != "cfl" and not fits:
            raise ConfigError(
                f"layers={self.layers} is too deep for a {self.model} circuit: its gradient "
                "would exceed the batched circuit engine's unitary cap"
            )
        if self.clients > train:
            raise ConfigError(f"clients={self.clients} exceeds the {train} training samples")


# Each setting's parser, read off its annotation: int, float, or else str.
_FIELD_TYPES = {
    name: hint if hint in (int, float) else str
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
}
_FIELD_CHOICES = {"model": MODELS, "transport": TRANSPORTS}


@dataclass(frozen=True)
class CompareRequest:
    config_paths: tuple[str, ...]
    out: str


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qfedring", description="Ring-federated circuit classifier experiments")
    p.add_argument("--config", help="config file of key = value lines; flags override it")
    p.add_argument("--compare", nargs="+", metavar="CFG",
                   help="run several config files on a shared dataset and merge the metrics")
    for name, parse in _FIELD_TYPES.items():
        flag = "--" + name.replace("_", "-")
        p.add_argument(flag, type=parse, choices=_FIELD_CHOICES.get(name))
    return p


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise ConfigError(message)


# A comment starts at a '#' that opens the line or follows whitespace, so a
# value such as run#1.csv reads the same in a file as after its flag.
_COMMENT = re.compile(r"(?:^|\s)#")


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            parsed = _FIELD_TYPES[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate setting {key!r}")
        values[key] = parsed
    return values


def config_from_file(path: str) -> ExperimentConfig:
    values = _load_config_file(path)
    if "model" not in values:
        raise ConfigError(f"{path}: config file must set 'model'")
    for key in ("out", "dump_dataset"):
        if key in values:
            raise ConfigError(f"{path}: compare mode writes only --out; remove {key!r}")
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(argv) -> ExperimentConfig | CompareRequest:
    """Parse flags (and an optional config file) into a run or compare request."""
    ns = _build_parser().parse_args(list(argv))
    flag_values = {
        name: getattr(ns, name) for name in _FIELD_TYPES if getattr(ns, name) is not None
    }
    if ns.compare:
        if len(ns.compare) < 2:
            raise ConfigError("--compare needs at least two config files")
        extras = ["--" + name.replace("_", "-") for name in sorted(set(flag_values) - {"out"})]
        if ns.config is not None or extras:
            refused = ", ".join((["--config"] if ns.config is not None else []) + extras)
            raise ConfigError(f"compare mode takes config files plus --out only, not {refused}; "
                              "each setting goes in its config file")
        out = "compare.csv" if ns.out is None else ns.out
        request = CompareRequest(tuple(ns.compare), out=out)
        _check_files([("--out", request.out)], [("--compare", p) for p in ns.compare])
        return request
    if ns.config == "":
        raise ConfigError("--config needs a file name, got an empty path")
    values = _load_config_file(ns.config) if ns.config is not None else {}
    values.update(flag_values)
    if "model" not in values:
        raise ConfigError("--model is required (or set model in a config file)")
    config = ExperimentConfig(**values)
    outputs = [("--out", config.out), ("--dump-dataset", config.dump_dataset)]
    _check_files(outputs, [("--config", ns.config)])
    return config


def _check_files(outputs, inputs) -> None:
    """Refuse an output path that is empty or holds a NUL byte, which no file
    name can, naming its flag, and an output that resolves to the same file
    as another output or an input, naming both;
    ``outputs`` and ``inputs`` are (flag, path) pairs and an unset (None)
    path is skipped.  Two inputs may be one file."""
    for flag, path in outputs:
        if path == "":
            raise ConfigError(f"{flag} needs a file name, got an empty path")
        if path and "\0" in path:
            raise ConfigError(f"{flag} {path!r}: a file name cannot hold a NUL byte")
    named = [(flag, path, True) for flag, path in outputs if path]
    named += [(flag, path, False) for flag, path in inputs if path]
    for i, (flag, path, written) in enumerate(named):
        for other, other_path, other_written in named[i + 1 :]:
            if (written or other_written) and Path(path).resolve() == Path(other_path).resolve():
                raise ConfigError(f"{flag} {path} and {other} {other_path} are the same file")


def _csv_row(m: RoundMetrics) -> str:
    """One round's metrics columns; wall_ms is always 0 so reruns match byte for byte."""
    loss, accuracy = _format(m.mean_train_loss), _format(m.test_accuracy)
    return f"{m.round_index},{m.client_id},{loss},{accuracy},0"


def metrics_csv_text(metrics: list[RoundMetrics]) -> str:
    return "\n".join([METRICS_HEADER, *map(_csv_row, metrics)]) + "\n"


def _check_writable(flag: str, path) -> None:
    """Raise the OSError that writing ``path`` would, naming ``flag``, before
    any data is built.  An existing file is opened for append, which does not
    change it; a new one is created exclusively and removed again, so a later
    failure leaves no empty file behind."""
    target = Path(path)
    try:
        if target.exists():
            open(target, "a").close()
        else:
            open(target, "x").close()
            target.unlink()
    except OSError as exc:
        raise OSError(f"{flag} {path}: {exc}") from exc


def write_metrics_csv(path, metrics: list[RoundMetrics]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(metrics_csv_text(metrics))


def convergence_round(accuracies) -> int:
    """First round (1-based) whose accuracy is within CONVERGENCE_TOLERANCE of the final one."""
    accs = list(accuracies)
    if not accs:
        raise ValueError("no accuracies to scan")
    final = accs[-1]
    if not math.isfinite(final):
        raise ValueError(f"the final accuracy must be finite, got {final}")
    return next(i for i, acc in enumerate(accs, 1) if abs(acc - final) <= CONVERGENCE_TOLERANCE)


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
        transport=Transport(config.transport),
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


def _print_summary(config: ExperimentConfig, dataset: Dataset, checksum: str, metrics,
                   elapsed: float) -> None:
    accs = [m.test_accuracy for m in metrics]
    print(
        f"model={config.model} transport={config.transport} seed={config.seed} "
        f"clients={config.clients} rounds={config.rounds} local_epochs={config.local_epochs}"
    )
    print(
        f"dataset: train={dataset.train_labels.size} test={dataset.test_labels.size} "
        f"clamped={dataset.num_clamped} checksum={checksum[:16]}"
    )
    print(f"final_test_accuracy={_format(accs[-1])}")
    print(f"convergence_round={convergence_round(accs)}")
    print(f"elapsed_seconds={elapsed:.2f}")


def run_experiment(config: ExperimentConfig) -> int:
    _check_writable("--out", config.out)
    if config.dump_dataset:
        _check_writable("--dump-dataset", config.dump_dataset)
    dataset = build_dataset(config)
    if config.dump_dataset:
        datagen.dump_csv(dataset, config.dump_dataset)
        print(f"wrote {config.dump_dataset}")
    _, metrics, elapsed = run_single(config, dataset)
    write_metrics_csv(config.out, metrics)
    _print_summary(config, dataset, datagen.dataset_checksum(dataset), metrics, elapsed)
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
    _check_writable("--out", request.out)
    dataset = build_dataset(first)
    checksum = datagen.dataset_checksum(dataset)
    lines = [COMPARE_HEADER]
    for path, config in zip(request.config_paths, configs):
        _, metrics, elapsed = run_single(config, dataset)
        prefix = f"{config.model},{config.transport}"
        lines.extend(f"{prefix},{_csv_row(m)},{checksum}" for m in metrics)
        _print_summary(config, dataset, checksum, metrics, elapsed)
    with open(request.out, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {request.out}")
    return 0


def main(argv=None) -> int:
    try:
        request = parse_config(sys.argv[1:] if argv is None else argv)
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
