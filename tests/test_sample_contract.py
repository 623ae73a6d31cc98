"""One sample contract at every entry point that takes labels or a shard.

``datagen.check_labels`` and ``datagen.check_features`` are the rule: labels
of shape ``(n,)`` with every entry 0 or 1 (ints, bools and integral floats
pass and are used as integers), and features a finite 2-D float array with
one row per label.  Each entry point below gets the same inputs and must
reach the same verdict: an accepted form gives results bit-equal to the
integer labels, a rejected one raises a ``ValueError`` naming labels or
features.  ``partition`` moves labels without reading them (its own tests
tag rows with labels 0..n-1), so it takes part in the row and feature
contract only.
"""
import numpy as np
import pytest

from qfedring import datagen as dg
from qfedring import fedring as fr
from qfedring import qweights as qw
from qfedring import trainkit as tk
from qfedring import vqc

FEATS = np.random.default_rng(5).uniform(0, np.pi, size=(8, 2))
LOGITS = np.random.default_rng(6).normal(size=(8, 2))
INT = np.array([0, 1, 0, 1, 1, 0, 1, 0])


def _mlp():
    return tk.init_mlp(np.random.default_rng(0))


def _dataset(feats, labels):
    ds = dg.Dataset(
        train_features=feats, train_labels=labels, test_features=feats, test_labels=labels
    )
    return ds.train_features, ds.train_labels, ds.test_labels


def _scale_and_split(feats, labels):
    ds = dg.scale_and_split(feats, labels, 0.5, seed=3)
    return ds.train_features, ds.train_labels, ds.test_features, ds.test_labels


def _local_train(feats, labels):
    client = fr.ClientState(
        0, feats, labels, _mlp(), np.random.default_rng(1), tk.SgdOptimizer(0.05)
    )
    return fr.local_train(client, epochs=2, batch_size=3), client.model.params


def _centralized_train(feats, labels):
    model, losses = fr.centralized_train(
        _mlp(), feats, labels, rng=np.random.default_rng(1), optimizer=tk.SgdOptimizer(0.05),
        epochs=2, batch_size=3,
    )
    return losses, model.params


# name -> (call, the parts of the rule it applies)
ENTRY_POINTS = {
    "Dataset": (_dataset, {"values", "rows", "features"}),
    "scale_and_split": (_scale_and_split, {"values", "rows", "features"}),
    "partition": (lambda f, y: fr.partition(f, y, 2, seed=3), {"rows", "features"}),
    "local_train": (_local_train, {"values", "rows", "features"}),
    "centralized_train": (_centralized_train, {"values", "rows", "features"}),
    "evaluate": (lambda f, y: tk.evaluate(_mlp(), f, y), {"values", "rows", "features"}),
    "batch_loss_and_grad": (lambda f, y: tk.batch_loss_and_grad(LOGITS, y), {"values", "rows"}),
    "loss_and_grad": (
        lambda f, y: [tk.loss_and_grad(lg, label) for lg, label in zip(LOGITS, y)],
        {"values"},
    ),
}

_NAN_FEATS = FEATS.copy()
_NAN_FEATS[4, 1] = np.nan
_INF_FEATS = FEATS.copy()
_INF_FEATS[0, 0] = -np.inf

# name -> (part of the rule, features, labels, accepted)
CASES = {
    "int": ("values", FEATS, INT, True),
    "bool": ("values", FEATS, INT.astype(bool), True),
    "integral float": ("values", FEATS, INT.astype(float), True),
    "uint8": ("values", FEATS, INT.astype(np.uint8), True),
    "list": ("values", FEATS, INT.tolist(), True),
    "fraction": ("values", FEATS, np.where(INT == 0, 0.7, 1.0), False),
    "two": ("values", FEATS, np.where(INT == 1, 2, 0), False),
    "negative": ("values", FEATS, -INT, False),
    "nan label": ("values", FEATS, np.where(INT == 1, np.nan, 0.0), False),
    "text": ("values", FEATS, INT.astype(str), False),
    "column": ("values", FEATS, INT[:, None], False),
    "short": ("rows", FEATS, INT[:7], False),
    "long": ("rows", FEATS, np.append(INT, 1), False),
    "scalar": ("rows", FEATS, 1, False),
    "nan feature": ("features", _NAN_FEATS, INT, False),
    "inf feature": ("features", _INF_FEATS, INT, False),
    "1-D features": ("features", FEATS[:, 0], INT, False),
}


def _canon(result):
    """A form of ``result`` that is equal only when every bit and dtype is."""
    if isinstance(result, (list, tuple)):
        return tuple(_canon(r) for r in result)
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    return float(result).hex()


@pytest.mark.parametrize(
    "entry, case",
    [(e, c) for e, (_, parts) in ENTRY_POINTS.items() for c in CASES if CASES[c][0] in parts],
)
def test_same_verdict_at_every_entry_point(entry, case):
    call, _ = ENTRY_POINTS[entry]
    part, feats, labels, accepted = CASES[case]
    if accepted:
        assert _canon(call(feats, labels)) == _canon(call(FEATS, INT))
    else:
        with pytest.raises(ValueError, match="features" if part == "features" else "label"):
            call(feats, labels)


def test_check_labels_returns_a_new_integer_array():
    for labels in (INT, INT.astype(bool), INT.astype(float)):
        out = dg.check_labels(labels, 8)
        assert out.dtype == int and np.array_equal(out, INT)
        assert not np.shares_memory(out, labels)


def test_check_features_returns_a_new_float_array():
    ints = np.arange(16).reshape(8, 2)
    out = dg.check_features(ints, INT, "shard")
    assert out.dtype == float and np.array_equal(out, ints)
    out = dg.check_features(FEATS, INT, "shard")
    assert not np.shares_memory(out, FEATS)


def test_a_nan_feature_is_named_as_the_shard_s_features():
    # The MLP used to fail this one step later, as "logits must be finite".
    client = fr.ClientState(
        4, _NAN_FEATS, INT, _mlp(), np.random.default_rng(1), tk.SgdOptimizer(0.05)
    )
    with pytest.raises(ValueError, match="client 4 features must be finite and 2-D"):
        fr.local_train(client, epochs=1, batch_size=8)


@pytest.mark.parametrize("init", [tk.init_mlp, vqc.init_model, qw.init_store])
@pytest.mark.parametrize("case", ["nan feature", "inf feature"])
def test_evaluate_refuses_non_finite_features_for_every_kind(init, case):
    # An MLP used to score a NaN row as class 0; circuits refused it deeper down.
    _, feats, labels, _ = CASES[case]
    with pytest.raises(ValueError, match="features must be a finite 2-D batch"):
        tk.evaluate(init(np.random.default_rng(0)), feats, labels)
