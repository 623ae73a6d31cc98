"""One sample contract at every entry point that takes labels, a shard or a
feature batch.

A shard is checked by ``datagen.check_samples``: features pass
``datagen.check_batch`` at width 2 (bool, int, uint or float values, finite,
shape ``(rows, 2)``), there is
one row per label, labels pass ``datagen.check_labels`` (shape ``(n,)``,
every entry 0 or 1; ints, bools and integral floats pass and are used as
integers), and a shard has at least one row.  ``Dataset``,
``scale_and_split``, ``partition`` (so ``make_clients``) and ``local_train``
(so ``centralized_train``) call it.  Each entry point below gets the same
inputs and must reach the same verdict: an accepted form gives results
bit-equal to the integer labels, a rejected one raises a ``ValueError``
naming labels or features, or saying that the set is empty.  A model batch
may be empty: every model kind's ``logits`` and ``loss_grad`` take no labels
and apply ``datagen.check_batch`` with the model's width.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qfedring import datagen as dg
from qfedring import fedring as fr
from qfedring import qweights as qw
from qfedring import trainkit as tk
from qfedring import vqc
from tests import oracle

FEATS = np.random.default_rng(5).uniform(0, np.pi, size=(8, 2))
LOGITS = np.random.default_rng(6).normal(size=(8, 2))
INT = np.array([0, 1, 0, 1, 1, 0, 1, 0])


KINDS = {"mlp": tk.init_mlp, "vqc": vqc.init_model, "store": qw.init_store}


def _model(kind="mlp"):
    return KINDS[kind](np.random.default_rng(0))


def _logits(kind):
    return lambda f, y: _model(kind).logits(f)


def _loss_grad(kind):
    return lambda f, y: _model(kind).loss_grad(f, lambda lg: tk.batch_loss_and_grad(lg, y))


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
        0, feats, labels, _model(), np.random.default_rng(1), tk.SgdOptimizer(0.05)
    )
    return fr.local_train(client, epochs=2, batch_size=3), client.model.params


def _centralized_train(feats, labels):
    model, losses = fr.centralized_train(
        _model(), feats, labels, rng=np.random.default_rng(1), optimizer=tk.SgdOptimizer(0.05),
        epochs=2, batch_size=3,
    )
    return losses, model.params


def _make_clients(feats, labels):
    clients = fr.make_clients(feats, labels, 2, _model(), partition_seed=3, client_seed=1)
    return [(c.features, c.labels) for c in clients]


SHARD = {"values", "rows", "features", "width", "size"}

# name -> (call, the parts of the rule it applies)
ENTRY_POINTS = {
    "Dataset": (_dataset, SHARD),
    "scale_and_split": (_scale_and_split, SHARD),
    "partition": (lambda f, y: fr.partition(f, y, 2, seed=3), SHARD),
    "make_clients": (_make_clients, SHARD),
    "local_train": (_local_train, SHARD),
    "centralized_train": (_centralized_train, SHARD),
    "evaluate": (lambda f, y: tk.evaluate(_model(), f, y), SHARD),
    "batch_loss_and_grad": (lambda f, y: tk.batch_loss_and_grad(LOGITS, y), {"values", "rows"}),
    "loss_and_grad": (
        lambda f, y: [oracle.loss_and_grad(lg, label) for lg, label in zip(LOGITS, y)],
        {"values"},
    ),
    **{f"{kind} logits": (_logits(kind), {"features", "width"}) for kind in KINDS},
    **{f"{kind} loss_grad": (_loss_grad(kind), {"features", "width"}) for kind in KINDS},
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
    "float16": ("values", FEATS, INT.astype(np.float16), True),
    "fraction": ("values", FEATS, np.where(INT == 0, 0.7, 1.0), False),
    "two": ("values", FEATS, np.where(INT == 1, 2, 0), False),
    "negative": ("values", FEATS, -INT, False),
    "0..n-1": ("values", FEATS, np.arange(8), False),
    "nan label": ("values", FEATS, np.where(INT == 1, np.nan, 0.0), False),
    "text": ("values", FEATS, INT.astype(str), False),
    "int8 -1": ("values", FEATS, np.where(INT == 1, -1, 0).astype(np.int8), False),
    "int8 -128": ("values", FEATS, np.where(INT == 1, -128, 0).astype(np.int8), False),
    "uint8 255": ("values", FEATS, np.where(INT == 1, 255, 0).astype(np.uint8), False),
    "uint64 2**63": ("values", FEATS, INT.astype(np.uint64) << np.uint64(63), False),
    "int64 2**40": ("values", FEATS, np.where(INT == 1, 2**40, 0).astype(np.int64), False),
    "float16 0.5": ("values", FEATS, np.where(INT == 1, 0.5, 0).astype(np.float16), False),
    "complex": ("values", FEATS, INT.astype(complex), False),
    # Fractions equal 0 and 1, so only the dtype rule refuses them.
    "object": ("values", FEATS, np.array([Fraction(v) for v in INT], dtype=object), False),
    "column": ("values", FEATS, INT[:, None], False),
    "short": ("rows", FEATS, INT[:7], False),
    "long": ("rows", FEATS, np.append(INT, 1), False),
    "scalar": ("rows", FEATS, 1, False),
    "nan feature": ("features", _NAN_FEATS, INT, False),
    "inf feature": ("features", _INF_FEATS, INT, False),
    "1-D features": ("features", FEATS[:, 0], INT, False),
    "1-D row": ("features", FEATS[0], INT, False),
    "3-D features": ("features", FEATS[:, None, :], INT, False),
    "3 columns": ("width", np.column_stack([FEATS, FEATS[:, 0]]), INT, False),
    "feature list": ("features", FEATS.tolist(), INT, True),
    # A cast to float would drop the imaginary part or read text as numbers.
    "complex features": ("features", FEATS + 0j, INT, False),
    "complex in a list": ("features", [[1.0, 1j], *FEATS[1:].tolist()], INT, False),
    "text features": ("features", FEATS.astype(str), INT, False),
    "object features": ("features", FEATS.astype(object), INT, False),
    "empty": ("size", FEATS[:0], INT[:0], False),
}

# part of the rule -> what a refusal's message must name
NAMED = {
    "values": "label", "rows": "label", "features": "features", "width": "features", "size": "empty"
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
        with pytest.raises(ValueError, match=NAMED[part]):
            call(feats, labels)


def test_check_labels_returns_a_new_integer_array():
    for labels in (INT, INT.astype(bool), INT.astype(float)):
        out = dg.check_labels(labels, 8)
        assert out.dtype == int and np.array_equal(out, INT)
        assert not np.shares_memory(out, labels)


def test_check_batch_keeps_a_c_ordered_float_batch():
    # Every SGD step runs this check, so the common batch is not copied.
    assert dg.check_batch(FEATS, 2) is FEATS
    assert dg.check_batch(np.asfortranarray(FEATS), 2).flags.c_contiguous


LABEL_DTYPES = [np.int8, np.int64, np.uint8, np.uint64]
EDGE_LABELS = [-1, -128, 2, 255, 2**40, 2**63]


@st.composite
def integer_labels(draw):
    """0/1 integer labels, empty ones included, with up to three entries
    swapped for an edge value or any value of the dtype."""
    dtype = np.dtype(draw(st.sampled_from(LABEL_DTYPES)))
    info = np.iinfo(dtype)
    y = draw(hnp.arrays(dtype, st.integers(0, 12), elements=st.integers(0, 1)))
    edges = [v for v in EDGE_LABELS if info.min <= v <= info.max]
    odd = st.one_of(st.sampled_from(edges), st.integers(int(info.min), int(info.max)))
    if y.size:
        for index in draw(st.lists(st.integers(0, y.size - 1), max_size=3)):
            y[index] = draw(odd)
    return y


@settings(max_examples=300, deadline=None)
@given(y=integer_labels())
def test_check_labels_matches_the_elementwise_shift_rule(y):
    """One OR-reduction and one shift give the verdict and the output of
    shifting every label."""
    try:
        want = oracle.check_labels_reference(y, y.size)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            dg.check_labels(y, y.size)
        assert str(refused.value) == str(exc)
    else:
        got = dg.check_labels(y, y.size)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_check_samples_returns_new_arrays():
    ints = np.arange(16).reshape(8, 2)
    feats, labels = dg.check_samples(ints, INT.astype(bool), "shard")
    assert feats.dtype == float and np.array_equal(feats, ints)
    assert labels.dtype == int and np.array_equal(labels, INT)
    feats, labels = dg.check_samples(FEATS, INT, "shard")
    assert not np.shares_memory(feats, FEATS) and not np.shares_memory(labels, INT)


@pytest.mark.parametrize(
    "case, message",
    [
        ("3 columns", r"the data: expected features of shape \(batch, 2\), got \(8, 3\)"),
        ("0..n-1", "the data: labels must be 0 or 1"),
        ("empty", "the data has no samples; a shard must be non-empty"),
    ],
)
def test_make_clients_refuses_a_bad_shard_before_any_client_exists(case, message):
    # The first two used to pass make_clients and fail at client 0, epoch 1, step 1.
    _, feats, labels, _ = CASES[case]
    with pytest.raises(ValueError, match=message):
        fr.make_clients(feats, labels, 2, _model(), partition_seed=3, client_seed=1)


def test_a_nan_feature_is_named_as_the_shard_s_features():
    # The MLP used to fail this one step later, as "logits must be finite".
    client = fr.ClientState(
        4, _NAN_FEATS, INT, _model(), np.random.default_rng(1), tk.SgdOptimizer(0.05)
    )
    with pytest.raises(ValueError, match="client 4: features must be finite"):
        fr.local_train(client, epochs=1, batch_size=8)


@pytest.mark.parametrize("init", KINDS.values())
@pytest.mark.parametrize("case", ["nan feature", "inf feature"])
def test_evaluate_refuses_non_finite_features_for_every_kind(init, case):
    # An MLP used to score a NaN row as class 0; circuits refused it deeper down.
    _, feats, labels, _ = CASES[case]
    with pytest.raises(ValueError, match="features must be finite"):
        tk.evaluate(init(np.random.default_rng(0)), feats, labels)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", [(1, 2), (8,)])
def test_a_wrong_shaped_upstream_is_named_for_every_kind(kind, shape):
    # The upstream is named for every kind, not left to fail inside numpy's matmul.
    model = _model(kind)
    with pytest.raises(ValueError, match=r"upstream must have shape \(8, 2\)"):
        model.loss_grad(FEATS, lambda logits: (np.zeros(len(logits)), np.zeros(shape)))


@pytest.mark.parametrize("kind", KINDS)
def test_zero_rows_give_empty_scores_and_a_zero_gradient_for_every_kind(kind):
    # An empty batch is a valid batch for every kind, the circuit encoder included.
    model = _model(kind)
    empty = np.zeros((0, 2))
    assert model.logits(empty).shape == (0, 2)
    losses, grad = model.loss_grad(empty, lambda lg: tk.batch_loss_and_grad(lg, INT[:0]))
    params = model.angles if kind == "store" else model.params
    assert losses.shape == (0,)
    assert grad.shape == params.shape and not grad.any()
