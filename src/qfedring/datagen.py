"""Concentric-circles dataset (generation, split, scaling) and the input rules.

Scaling maps each feature into [0, pi] from training-split statistics only;
clamped test values are counted on the dataset.  One canonical CSV form (9
significant digits, LF endings) backs the dataset checksum, so two runs agree
on the data iff their checksums match.  Every count (clients, rounds, epochs,
layers, batch size, round index, ``num_points``, the seed from 0) goes through
``check_count``, every rate (learning rate, gamma) through ``check_positive``
and each fraction (``factor``, ``train_fraction``) through ``check_fraction``.
Every number array has one rule in two halves: ``as_floats`` (the dtype test
and the one float64 cast) and ``check_floats`` (``as_floats``, then finite).
Features, params, stored angles, a circuit gradient and a carrier's angle take
``check_floats``; the loss's logits, ``vqc.call_loss``'s upstream,
``SgdOptimizer.step`` and ``qweights.canonical_angles`` take ``as_floats``, as
their finiteness is checked where they lead (the logits bound, the next
model's constructor, the NaN wrapping branch).  Each owner adds only a shape
test.  A setting rule refuses a bad value (a bool, a wrong type, NaN or inf)
with a ``ValueError`` naming the setting, never a ``TypeError``; library
functions take any numpy seed.  Every random stream passes ``check_generator``:
``teleport_state`` unless forced, ``teleport_weights``, ``run_ring`` under
TELEPORT, ``measure_qubits`` and a client's own in ``fedring.ClientState``'s
constructor.
"""
from __future__ import annotations

import hashlib
import io
import math
import numbers
from dataclasses import dataclass

import numpy as np

SCALE_MAX = math.pi


@dataclass(frozen=True)
class Dataset:
    """Scaled train/test arrays and how many test values were clamped."""

    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    num_clamped: int = 0

    def __post_init__(self) -> None:
        for split in ("train", "test"):
            names = (f"{split}_features", f"{split}_labels")
            arrays = check_samples(*(getattr(self, name) for name in names), f"{split} split")
            for name, arr in zip(names, arrays):
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)


def check_count(value, name: str, minimum: int = 1) -> None:
    """Refuse all but an integer >= ``minimum`` (a bool or a float too), naming it ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_positive(value, name: str) -> None:
    """Refuse anything but a finite real > 0 (a bool or a string too), naming it ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_fraction(value, name: str) -> None:
    """Refuse anything but a real strictly inside (0, 1), naming it ``name``; a bool never is."""
    if not isinstance(value, numbers.Real) or not 0 < value < 1:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def check_generator(rng, name: str) -> None:
    """Refuse anything but a ``numpy.random.Generator``, naming it ``name``.  The
    message shows None, a number or text by its repr, anything else by its type."""
    if not isinstance(rng, np.random.Generator):
        plain = rng is None or isinstance(rng, (numbers.Number, str, bytes))
        shown = repr(rng) if plain else type(rng).__name__
        raise ValueError(f"{name} must be a numpy Generator, got {shown}")


def check_labels(labels, num_samples: int) -> np.ndarray:
    """The label rule: shape ``(num_samples,)``, every entry 0 or 1.  Ints,
    bools and integral floats pass and come back as a new int array."""
    y = np.asarray(labels)
    if y.shape != (num_samples,):
        raise ValueError(f"got labels of shape {y.shape} for {num_samples} samples")
    # Integers are all 0 or 1 iff their OR is, iff it shifts to 0.  As a Python
    # int, a uint64 OR shifts under numpy 1.x too, where uint64 >> int fails.
    kind = y.dtype.kind
    ints = kind in "iu" and not int(np.bitwise_or.reduce(y, axis=None)) >> 1
    if not (ints or kind in "bf" and ((y == 0) | (y == 1)).all()):
        raise ValueError("labels must be 0 or 1")
    return y.astype(int)


def as_floats(values, name: str) -> np.ndarray:
    """The number-array rule's cast: bool, int, uint or float ``values`` as a C-ordered
    float64 array, not copied if it is one.  Any other dtype (complex, text, bytes,
    object, ...) is refused by name rather than cast.  Errors call it ``name``."""
    a = np.asarray(values)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be bool, int or float numbers, got dtype {a.dtype}")
    return np.asarray(a, dtype=float, order="C")


def check_floats(values, name: str) -> np.ndarray:
    """The number-array rule: ``as_floats``, then every value finite."""
    a = as_floats(values, name)
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError(f"{name} must be finite")
    return a


def check_batch(features, width: int) -> np.ndarray:
    """The feature-batch rule: ``check_floats`` of shape ``(rows, width)``, rows >= 0."""
    feats = check_floats(features, "features")
    if feats.ndim != 2 or feats.shape[1] != width:
        raise ValueError(f"expected features of shape (batch, {width}), got {feats.shape}")
    return feats


def check_samples(features, labels, owner: str) -> tuple[np.ndarray, np.ndarray]:
    """The shard rule: ``check_batch`` features of width 2, one row per label,
    ``check_labels`` labels, at least one row.  New arrays; errors start with ``owner``."""
    try:
        feats = check_batch(np.array(features), 2)
        rows, shape = feats.shape[0], np.shape(labels)
        labs = check_labels(labels, rows) if shape[:1] == (rows,) else None
    except ValueError as exc:
        raise ValueError(f"{owner}: {exc}") from exc
    if labs is None:
        count = shape[0] if shape else "no"
        raise ValueError(f"{owner} has {rows} feature rows but {count} labels; lengths differ")
    if rows == 0:
        raise ValueError(f"{owner} has no samples; a shard must be non-empty")
    return feats, labs


def check_circles(num_points: int, noise: float, factor: float) -> None:
    """Raise ``ValueError`` naming the first ``make_circles`` argument out of range."""
    check_count(num_points, "num_points")
    if num_points < 4:
        raise ValueError(f"num_points must be >= 4, got {num_points}")
    if num_points % 2:
        raise ValueError(f"num_points must be even to balance the classes, got {num_points}")
    if isinstance(noise, bool) or not isinstance(noise, numbers.Real) or not 0 <= noise < math.inf:
        raise ValueError(f"noise must be a finite non-negative sigma, got {noise!r}")
    check_fraction(factor, "factor")


def make_circles(
    num_points: int, noise: float, factor: float, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Two concentric circles: outer radius 1 is class 0, inner radius ``factor`` class 1.

    Points sit at evenly spaced angles with isotropic Gaussian jitter of
    standard deviation ``noise`` added to both coordinates.  Jitter that takes a
    feature, or a feature's span, past the float range is refused.
    """
    check_circles(num_points, noise, factor)
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
        with np.errstate(over="ignore", invalid="ignore"):
            span = np.ptp(features, axis=0)
        if not np.isfinite(span).all():
            raise ValueError(f"noise={noise!r} jitters a feature or its span past the float range")
    labels = np.concatenate([np.zeros(n_outer, dtype=int), np.ones(n_inner, dtype=int)])
    return features, labels


def _class_train_size(class_size: int, train_fraction: float) -> int:
    """How many of one class's samples go to the training split."""
    return int(round(train_fraction * class_size))


def train_split_size(num_points: int, train_fraction: float) -> int:
    """How many rows ``scale_and_split`` puts in the training split of
    ``make_circles(num_points, ...)`` data, whose classes hold ``num_points // 2``
    samples each; a fraction that leaves either side empty is refused."""
    check_fraction(train_fraction, "train_fraction")
    train = 2 * _class_train_size(num_points // 2, train_fraction)
    if train in (0, num_points):
        raise ValueError(f"train_fraction={train_fraction!r} leaves a split empty")
    return train


def scale_and_split(features, labels, train_fraction: float, seed) -> Dataset:
    """Stratified shuffle/split, then min-max scale into [0, pi] from train stats.

    Both classes must be present.  Each class is split at the same fraction
    (sizes differ by at most one across classes), so both splits stay
    balanced.  Test features falling outside the training range are clamped
    and counted.
    """
    feats, labs = check_samples(features, labels, "the data")
    check_fraction(train_fraction, "train_fraction")
    # labs is a non-empty 0/1 array, so both classes are present iff min != max.
    if labs.min() == labs.max():
        raise ValueError(f"need both classes present, got only label {labs[0]}")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls in (0, 1):
        idx = rng.permutation(np.flatnonzero(labs == cls))
        k = _class_train_size(idx.size, train_fraction)
        train_parts.append(idx[:k])
        test_parts.append(idx[k:])
    train_idx = rng.permutation(np.concatenate(train_parts))
    test_idx = rng.permutation(np.concatenate(test_parts))
    if train_idx.size == 0 or test_idx.size == 0:
        raise ValueError("train_fraction leaves one side of the split empty")

    train_raw = feats[train_idx]
    lo = train_raw.min(axis=0)
    with np.errstate(over="ignore"):
        span = train_raw.max(axis=0) - lo
    if not np.isfinite(span).all():
        raise ValueError("a feature's span on the training split overflows; cannot scale")
    if np.any(span <= 0):
        raise ValueError("a feature is constant on the training split; cannot scale")

    def rescale(block: np.ndarray) -> np.ndarray:
        return (block - lo) / span * SCALE_MAX

    train_scaled = rescale(train_raw)
    test_scaled = rescale(feats[test_idx])
    out_of_range = (test_scaled < 0.0) | (test_scaled > SCALE_MAX)
    test_scaled = np.clip(test_scaled, 0.0, SCALE_MAX)
    return Dataset(
        train_features=train_scaled,
        train_labels=labs[train_idx],
        test_features=test_scaled,
        test_labels=labs[test_idx],
        num_clamped=int(out_of_range.sum()),
    )


def _format(value: float) -> str:
    """The one float format of every CSV the package writes: 9 significant digits."""
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


def dataset_checksum(dataset: Dataset) -> str:
    """sha256 of the canonical CSV text; equal iff the serialized data is equal."""
    return hashlib.sha256(csv_text(dataset).encode("ascii")).hexdigest()
