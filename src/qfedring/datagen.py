"""Concentric-circles dataset: generation, stratified split, feature scaling.

Scaling maps each feature into [0, pi] using statistics of the training
split only; test features are clamped into that range and the number of
clamped values is kept on the dataset.  Serialization goes through one
canonical CSV form (9 significant digits, LF endings) that also backs the
dataset checksum, so two runs agree on the data iff their checksums match.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

SCALE_MAX = math.pi


@dataclass(frozen=True)
class Dataset:
    """Scaled train/test arrays plus the scaling metadata that produced them."""

    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    feature_min: np.ndarray | None = None
    feature_max: np.ndarray | None = None
    num_clamped: int = 0

    def __post_init__(self) -> None:
        for name in ("train_features", "test_features"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError(f"{name} must have shape (n, 2), got {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for name in ("train_labels", "test_labels"):
            arr = np.array(getattr(self, name), dtype=int)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
            if not np.all((arr == 0) | (arr == 1)):
                raise ValueError(f"{name} must contain only 0/1 labels")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.train_features.shape[0] != self.train_labels.shape[0]:
            raise ValueError("train features and labels disagree on length")
        if self.test_features.shape[0] != self.test_labels.shape[0]:
            raise ValueError("test features and labels disagree on length")
        if self.train_labels.size == 0 or self.test_labels.size == 0:
            raise ValueError("both splits must be non-empty")


def make_circles(
    num_points: int, noise: float, factor: float, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Two concentric circles: outer radius 1 is class 0, inner radius ``factor`` class 1.

    Points sit at evenly spaced angles with isotropic Gaussian jitter of
    standard deviation ``noise`` added to both coordinates.
    """
    if num_points < 4:
        raise ValueError(f"num_points must be >= 4, got {num_points}")
    if num_points % 2:
        raise ValueError(f"num_points must be even to balance the classes, got {num_points}")
    if noise < 0 or not math.isfinite(noise):
        raise ValueError(f"noise must be a finite non-negative sigma, got {noise!r}")
    if not 0 < factor < 1:
        raise ValueError(f"factor must lie in (0, 1), got {factor!r}")
    rng = np.random.default_rng(seed)
    n_outer = num_points // 2
    n_inner = num_points - n_outer
    outer_t = np.linspace(0.0, 2.0 * math.pi, n_outer, endpoint=False)
    inner_t = np.linspace(0.0, 2.0 * math.pi, n_inner, endpoint=False)
    xs = np.concatenate([np.cos(outer_t), factor * np.cos(inner_t)])
    ys = np.concatenate([np.sin(outer_t), factor * np.sin(inner_t)])
    features = np.stack([xs, ys], axis=1)
    if noise > 0:
        features = features + rng.normal(0.0, noise, size=features.shape)
    labels = np.concatenate([np.zeros(n_outer, dtype=int), np.ones(n_inner, dtype=int)])
    return features, labels


def class_train_size(class_size: int, train_fraction: float) -> int:
    """How many of one class's samples go to the training split."""
    return int(round(train_fraction * class_size))


def scale_and_split(features, labels, train_fraction: float, seed) -> Dataset:
    """Stratified shuffle/split, then min-max scale into [0, pi] from train stats.

    Each class is split at the same fraction (sizes differ by at most one
    across classes), so both splits stay balanced.  Test features falling
    outside the training range are clamped and counted.
    """
    feats = np.asarray(features, dtype=float)
    labs = np.asarray(labels, dtype=int)
    if feats.ndim != 2 or feats.shape[1] != 2 or feats.shape[0] != labs.shape[0]:
        raise ValueError(f"got features {feats.shape} against labels {labs.shape}")
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must lie in (0, 1), got {train_fraction!r}")
    classes = np.unique(labs)
    if not np.array_equal(classes, [0, 1]):
        raise ValueError(f"need both classes present, got labels {classes}")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls in (0, 1):
        idx = rng.permutation(np.flatnonzero(labs == cls))
        k = class_train_size(idx.size, train_fraction)
        train_parts.append(idx[:k])
        test_parts.append(idx[k:])
    train_idx = rng.permutation(np.concatenate(train_parts))
    test_idx = rng.permutation(np.concatenate(test_parts))
    if train_idx.size == 0 or test_idx.size == 0:
        raise ValueError("train_fraction leaves one side of the split empty")

    train_raw = feats[train_idx]
    lo = train_raw.min(axis=0)
    hi = train_raw.max(axis=0)
    if np.any(hi - lo <= 0):
        raise ValueError("a feature is constant on the training split; cannot scale")

    def rescale(block: np.ndarray) -> np.ndarray:
        return (block - lo) / (hi - lo) * SCALE_MAX

    train_scaled = rescale(train_raw)
    test_scaled = rescale(feats[test_idx])
    out_of_range = (test_scaled < 0.0) | (test_scaled > SCALE_MAX)
    test_scaled = np.clip(test_scaled, 0.0, SCALE_MAX)
    return Dataset(
        train_features=train_scaled,
        train_labels=labs[train_idx],
        test_features=test_scaled,
        test_labels=labs[test_idx],
        feature_min=lo,
        feature_max=hi,
        num_clamped=int(out_of_range.sum()),
    )


def _format(value: float) -> str:
    return f"{value:.9g}"


def csv_text(dataset: Dataset) -> str:
    """Canonical CSV serialization: header x1,x2,label,split, train rows first."""
    buf = io.StringIO()
    buf.write("x1,x2,label,split\n")
    for block, labels, split in (
        (dataset.train_features, dataset.train_labels, "train"),
        (dataset.test_features, dataset.test_labels, "test"),
    ):
        for row, label in zip(block, labels):
            buf.write(f"{_format(row[0])},{_format(row[1])},{int(label)},{split}\n")
    return buf.getvalue()


def dump_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(csv_text(dataset))


def load_csv(path) -> Dataset:
    """Rebuild a Dataset from dump_csv output (scaling metadata is not stored)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["x1", "x2", "label", "split"]:
            raise ValueError(f"unexpected header {header!r}")
        rows = {"train": ([], []), "test": ([], [])}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValueError(f"line {lineno}: expected 4 fields, got {len(row)}")
            x1, x2, label, split = row
            if split not in rows:
                raise ValueError(f"line {lineno}: unknown split {split!r}")
            rows[split][0].append([float(x1), float(x2)])
            rows[split][1].append(int(label))
    if not rows["train"][0] or not rows["test"][0]:
        raise ValueError("file must contain both train and test rows")
    return Dataset(
        train_features=np.array(rows["train"][0]),
        train_labels=np.array(rows["train"][1]),
        test_features=np.array(rows["test"][0]),
        test_labels=np.array(rows["test"][1]),
    )


def dataset_checksum(dataset: Dataset) -> str:
    """sha256 of the canonical CSV text; equal iff the serialized data is equal."""
    return hashlib.sha256(csv_text(dataset).encode("ascii")).hexdigest()
