"""Loss head, optimizer, and baseline network checks against finite
differences and closed-form values."""
import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from qfedring import qweights as qw
from qfedring import trainkit as tk
from qfedring import vqc
from tests import oracle
from tests.helpers import examples

FINITE = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


_BOUND = tk._LOGIT_BOUND
_LOGIT = st.one_of(
    st.sampled_from([0.0, -0.0, _BOUND, -_BOUND, 1e-3, -1e-3, 1e3, -1e3]),
    st.floats(-1e3, 1e3),
    st.floats(-_BOUND, _BOUND),
)
# Ways to spoil a valid batch that both functions must refuse alike.
_BAD_LOGITS = {"nan": np.nan, "-inf": -np.inf, "past the bound": np.nextafter(_BOUND, np.inf)}
_BAD_LABELS = {"label 2": 2, "label -1": -1, "label 0.5": 0.5}
_SPOILS = [*_BAD_LOGITS, *_BAD_LABELS, "short labels", "3 columns", "1-D logits"]


def _strided_view(a):
    """``a``'s values as every other row and column of a larger array."""
    every_other = (slice(None, None, 2),) * a.ndim
    big = np.zeros(tuple(2 * n for n in a.shape))
    big[every_other] = a
    return big[every_other]


# Memory layouts of the same (B, 2) array; no result may depend on them.
_LAYOUTS = {
    "C": np.ascontiguousarray,
    "Fortran": np.asfortranarray,
    "transposed view": lambda a: np.ascontiguousarray(a.T).T,
    "reversed rows": lambda a: np.ascontiguousarray(a[::-1])[::-1],
    "strided view": _strided_view,
}


def _spoil(logits, labels, how):
    if how in _BAD_LOGITS:
        logits[-1, 1] = _BAD_LOGITS[how]
    elif how in _BAD_LABELS:
        labels = np.append(labels[1:], _BAD_LABELS[how])
    elif how == "short labels":
        labels = labels[1:]
    elif how == "3 columns":
        logits = np.column_stack([logits, logits[:, 0]])
    else:
        logits = logits[:, 0]
    return logits, labels


@st.composite
def _loss_inputs(draw):
    """Logits (B, 2) with B in 0..70, tied rows, signed zeros and values at
    the bound, in any ``_LAYOUTS`` memory layout, labels
    as int, bool, uint8 or integral float, and at most one spoil that one
    function or both must refuse.  Every logit is drawn on its own (no fill
    value), so a last-bit change shows within a few examples."""
    spoil = draw(st.sampled_from([None, *_SPOILS]))
    rows = draw(st.integers(0 if spoil is None else 1, 70))
    logits = draw(hnp.arrays(float, (rows, 2), elements=_LOGIT, fill=st.nothing()))
    tied = draw(hnp.arrays(bool, rows))
    logits[tied, 1] = logits[tied, 0]
    labels = draw(hnp.arrays(int, rows, elements=st.integers(0, 1)))
    labels = labels.astype(draw(st.sampled_from([int, bool, np.uint8, float])))
    if spoil is not None:
        logits, labels = _spoil(logits, labels, spoil)
    return _LAYOUTS[draw(st.sampled_from(list(_LAYOUTS)))](logits), labels


def _loss_outcome(loss, logits, labels):
    try:
        losses, dlogits = loss(logits, labels)
    except ValueError as exc:
        return "refused", str(exc)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in (losses, dlogits))


class TestLoss:
    def test_equal_logits_cost_ln2(self):
        loss, _ = oracle.loss_and_grad([0.3, 0.3], 0)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_confidence_costs_little(self):
        loss, _ = oracle.loss_and_grad([1.0, -1.0], 0)
        assert loss < 1e-4

    def test_stable_under_huge_scores(self):
        loss, grad = oracle.loss_and_grad([100.0, -100.0], 1)
        assert math.isfinite(loss) and loss == pytest.approx(200.0 * tk.LOGIT_SCALE, rel=1e-9)
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self, rng):
        eps = 1e-7
        for _ in range(20):
            logits = rng.normal(size=2)
            label = int(rng.integers(2))
            _, grad = oracle.loss_and_grad(logits, label)
            for j in range(2):
                bumped = np.array(logits)
                bumped[j] += eps
                up, _ = oracle.loss_and_grad(bumped, label)
                bumped[j] -= 2 * eps
                down, _ = oracle.loss_and_grad(bumped, label)
                assert grad[j] == pytest.approx((up - down) / (2 * eps), abs=1e-5)

    def test_gradient_closed_form(self):
        # Two-class softmax: dlogits[wrong] = scale * sigmoid(-scale * margin).
        scale, margin = tk.LOGIT_SCALE, 0.2
        _, grad = oracle.loss_and_grad([0.1, -0.1], 0)
        p_wrong = 1 / (1 + math.exp(scale * margin))
        assert grad[1] == pytest.approx(scale * p_wrong, abs=1e-12)
        assert grad[0] == pytest.approx(-scale * p_wrong, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="two logits"):
            oracle.loss_and_grad([1.0, 2.0, 3.0], 0)
        with pytest.raises(ValueError, match="finite"):
            oracle.loss_and_grad([np.nan, 0.0], 0)
        with pytest.raises(ValueError, match="label"):
            oracle.loss_and_grad([0.0, 0.0], 2)

    def test_batch_matches_scalar(self, rng):
        logits = rng.normal(size=(10, 2))
        labels = rng.integers(0, 2, size=10)
        losses, grads = tk.batch_loss_and_grad(logits, labels)
        for i in range(10):
            want_loss, want_grad = oracle.loss_and_grad(logits[i], int(labels[i]))
            assert losses[i] == pytest.approx(want_loss, abs=1e-12)
            assert_allclose(grads[i], want_grad, atol=1e-12)

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="labels"):
            tk.batch_loss_and_grad(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="labels"):
            tk.batch_loss_and_grad(np.zeros((2, 2)), np.array([0, 5]))

    @pytest.mark.parametrize("size", [1e308, 2.2e307, np.inf])
    def test_overflowing_logits_are_refused(self, size):
        # 1e308 used to give a NaN loss and 2.2e307 an inf one, each with
        # numpy RuntimeWarnings: the scaling or the max-shift overflowed.
        refused = "logits must be finite and of magnitude at most"
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(ValueError, match=refused):
                tk.batch_loss_and_grad([[size, -size]], [1])
            with pytest.raises(ValueError, match=refused):
                oracle.loss_and_grad([size, -size], 1)

    def test_largest_accepted_logits_give_a_finite_loss(self):
        edge = tk._LOGIT_BOUND
        with np.errstate(over="raise", invalid="raise"):
            losses, grads = tk.batch_loss_and_grad([[edge, -edge], [-edge, edge]], [1, 1])
            loss, grad = oracle.loss_and_grad([edge, -edge], 1)
        assert np.all(np.isfinite(losses)) and np.all(np.isfinite(grads))
        assert math.isfinite(loss) and np.all(np.isfinite(grad))
        with pytest.raises(ValueError, match="logits"):
            tk.batch_loss_and_grad([[np.nextafter(edge, np.inf), 0.0]], [0])

    def test_empty_batch_has_no_losses(self):
        losses, grads = tk.batch_loss_and_grad(np.zeros((0, 2)), np.zeros(0, dtype=int))
        assert losses.shape == (0,) and grads.shape == (0, 2)

    @settings(max_examples=examples(60), deadline=None)
    @given(a=FINITE, b=FINITE, label=st.integers(0, 1))
    def test_loss_nonnegative_and_finite(self, a, b, label):
        loss, grad = oracle.loss_and_grad([a, b], label)
        assert loss >= -1e-12
        assert np.all(np.isfinite(grad))

    @settings(max_examples=examples(300), deadline=None)
    @given(case=_loss_inputs())
    def test_batch_is_bit_equal_to_the_reference(self, case):
        # The package's loss must give the same bytes as the form it was
        # first written in, and refuse the same inputs with the same message.
        logits, labels = case
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = _loss_outcome(tk.batch_loss_and_grad, logits, labels)
            want = _loss_outcome(oracle.batch_loss_reference, logits, labels)
        assert got == want


class TestRowOffsets:
    @pytest.mark.parametrize("rows", [0, 1, 5, 32])
    def test_one_cached_read_only_table_per_batch_size(self, rows):
        # Every loss call at a batch size shares this table, so no caller may write it.
        offsets = tk._row_offsets(rows)
        assert offsets is tk._row_offsets(rows)
        assert not offsets.flags.writeable
        assert np.array_equal(offsets, np.arange(0, 2 * rows, 2))


class TestOptimizer:
    def test_step_formula(self):
        opt = tk.SgdOptimizer(learning_rate=0.25)
        out = opt.step(np.array([1.0, 2.0]), np.array([4.0, -4.0]))
        assert_allclose(out, [0.0, 3.0])

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="learning_rate"):
            tk.SgdOptimizer(learning_rate=0.0)
        with pytest.raises(ValueError, match="learning_rate"):
            tk.SgdOptimizer(learning_rate=float("inf"))


def mlp_from(w1, b1, w2, b2):
    return tk.ClassicalMlp(np.concatenate([w1, b1, w2, b2], axis=None))


class TestMlp:
    def test_parameter_count(self, rng):
        assert tk.init_mlp(rng).params.shape == (22,) == (tk.MLP_PARAMS,)

    def test_flat_layout(self):
        # w1 (2, 4) row-major, then b1, then w2 (4, 2) row-major, then b2,
        # written out by hand here: each block moves the logits as its role says.
        params = np.arange(22.0) / 40.0
        x = np.array([[0.3, -1.1], [2.0, 0.5]])
        w1, b1 = params[:8].reshape(2, 4), params[8:12]
        w2, b2 = params[12:20].reshape(4, 2), params[20:]
        want = np.tanh(x @ w1 + b1) @ w2 + b2
        assert_allclose(tk.ClassicalMlp(params).logits(x), want, atol=1e-15)

    def test_params_is_the_only_field(self):
        # params is stored once, read-only; no view of a block is kept beside it.
        assert [f.name for f in dataclasses.fields(tk.ClassicalMlp)] == ["params"]
        mlp = tk.ClassicalMlp(np.arange(22.0))
        for name in ("w1", "b1", "w2", "b2"):
            assert not hasattr(mlp, name)
        with pytest.raises(AttributeError):  # the frozen dataclass refuses assignment
            mlp.params = np.zeros(22)
        with pytest.raises(ValueError, match="read-only"):
            mlp.params[0] = 1.0
        assert np.array_equal(mlp.params, np.arange(22.0))

    def test_init_draws_weights_in_order(self):
        # The same numbers in the same order as drawing w1, then w2, by hand.
        gen = np.random.default_rng(9)
        w1 = gen.normal(0.0, 1.0 / math.sqrt(2), size=(2, 4))
        w2 = gen.normal(0.0, 0.5, size=(4, 2))
        mlp = tk.init_mlp(np.random.default_rng(9))
        assert np.array_equal(mlp.params, mlp_from(w1, np.zeros(4), w2, np.zeros(2)).params)

    def test_validation(self):
        with pytest.raises(ValueError, match="params must have shape"):
            tk.ClassicalMlp(np.zeros(21))
        with pytest.raises(ValueError, match="params must have shape"):
            tk.ClassicalMlp(np.zeros((2, 11)))
        with pytest.raises(ValueError, match="finite"):
            tk.ClassicalMlp(np.full(22, np.nan))

    def test_zero_weights_give_zero_logits(self):
        model = tk.ClassicalMlp(np.zeros(22))
        assert_allclose(model.logits(np.array([[1.0, 2.0]])), [[0.0, 0.0]])

    def test_gradients_match_finite_differences(self, rng):
        model = tk.init_mlp(rng)
        feats = rng.normal(size=2)
        label = 1
        _, grad = oracle.mlp_forward_backward(model.params, feats, label)
        assert grad.shape == (22,)
        eps = 1e-6
        for i in range(22):
            params = np.array(model.params)
            params[i] += eps
            up, _ = oracle.mlp_forward_backward(params, feats, label)
            params[i] -= 2 * eps
            down, _ = oracle.mlp_forward_backward(params, feats, label)
            assert grad[i] == pytest.approx((up - down) / (2 * eps), abs=1e-5)

    def test_batch_grads_are_means_of_singles(self, rng):
        model = tk.init_mlp(rng)
        feats = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        losses, grad = model.loss_grad(feats, lambda lg: tk.batch_loss_and_grad(lg, labels))
        singles = [
            oracle.mlp_forward_backward(model.params, feats[i], int(labels[i])) for i in range(6)
        ]
        assert_allclose(losses, [s[0] for s in singles], atol=1e-12)
        # loss_grad returns the batch sum; a step applies the mean.
        assert_allclose(grad / 6, np.mean([s[1] for s in singles], axis=0), atol=1e-12)

    def test_sgd_step_applies_everywhere(self, rng):
        model = tk.init_mlp(rng)
        labels = np.array([0, 1, 0, 1])
        _, grad = tk.mlp_batch_grads(
            model, rng.normal(size=(4, 2)), lambda lg: tk.batch_loss_and_grad(lg, labels)
        )
        opt = tk.SgdOptimizer(learning_rate=0.5)
        stepped = model.step(grad, opt)
        assert_allclose(stepped.params, model.params - 0.5 * grad, atol=1e-15)
        assert np.array_equal(tk.sgd_step_mlp(model, grad, opt).params, stepped.params)

    @pytest.mark.parametrize("up_layout", list(_LAYOUTS))
    @pytest.mark.parametrize("feat_layout", list(_LAYOUTS))
    def test_batch_is_bit_equal_to_the_reference_in_any_layout(self, feat_layout, up_layout):
        # Losses, gradient and logits for features and an upstream in any
        # memory layout must be the reference's bytes on C-ordered copies.
        rng = np.random.default_rng(19)
        model = mlp_from(*(rng.normal(size=n) for n in [(2, 4), 4, (4, 2), 2]))
        lay_feats, lay_up = _LAYOUTS[feat_layout], _LAYOUTS[up_layout]
        differ = []
        for rows in range(131):
            feats = rng.uniform(0.0, np.pi, size=(rows, 2))
            labels = rng.integers(0, 2, size=rows)

            def loss(logits):
                return tk.batch_loss_and_grad(logits, labels)

            def laid_out_loss(logits):
                losses, dlogits = loss(logits)
                return losses, lay_up(dlogits)

            x = lay_feats(feats)
            got = (model.logits(x), *tk.mlp_batch_grads(model, x, laid_out_loss))
            want = oracle.mlp_batch_reference(model.params, feats, loss)
            as_bytes = [[(a.dtype, a.shape, a.tobytes()) for a in r] for r in (got, want)]
            if as_bytes[0] != as_bytes[1]:
                differ.append(rows)
        assert differ == []

    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_batch_grads_writes_a_fresh_gradient_each_call(self, rng, rows):
        # The gradient blocks are written in place into a new array: nothing the
        # caller holds (params, features, the last gradient) is aliased or written.
        model = tk.init_mlp(rng)
        big = rng.uniform(0.0, np.pi, size=(rows + 3, 2))
        big.flags.writeable = False
        # A row slice, as local_train passes; read-only, so a write into it would raise.
        feats, labels = big[1 : rows + 1], rng.integers(0, 2, size=rows)

        def loss(logits):
            return tk.batch_loss_and_grad(logits, labels)

        before, grads = big.tobytes(), [tk.mlp_batch_grads(model, feats, loss)[1] for _ in range(2)]
        first = grads[0].copy()
        _, want = tk.mlp_batch_grads(model, feats.copy(), loss)
        assert big.tobytes() == before
        for grad in grads:
            assert grad.shape == (22,) and grad.dtype == float
            assert grad.flags.writeable and grad.flags.c_contiguous and grad.flags.owndata
            assert grad.tobytes() == want.tobytes()
            for held in (model.params, big):
                assert not np.shares_memory(grad, held)
        assert not np.shares_memory(grads[0], grads[1])
        grads[1][:] = np.nan  # the caller may write a gradient; the last one keeps its values
        assert grads[0].tobytes() == first.tobytes()

    def test_hidden_unit_permutation_symmetry(self, rng):
        # Relabeling hidden units (and their fan-in/fan-out weights) cannot
        # change the function the network computes.
        model = mlp_from(
            rng.normal(size=(2, 4)), rng.normal(size=4), rng.normal(size=(4, 2)), rng.normal(size=2)
        )
        perm = np.array([2, 0, 3, 1])
        w1, b1, w2, b2 = oracle.mlp_arrays(model.params)
        permuted = mlp_from(w1[:, perm], b1[perm], w2[perm, :], b2)
        batch = rng.normal(size=(8, 2))
        assert_allclose(permuted.logits(batch), model.logits(batch), atol=1e-12)


class TestModelDispatch:
    def test_logits_for_each_kind(self, rng):
        # Each row against the single-sample oracle of its kind; a store reads
        # as the gate-by-gate circuit on its materialized parameters.
        feats = rng.uniform(0, math.pi, size=(5, 2))
        mlp, circuit = tk.init_mlp(rng), vqc.init_model(rng, 2)
        store = qw.init_store(rng, 2, math.pi)
        stored_circuit = vqc.VqcModel(qw.materialize(store))
        w1, b1, w2, b2 = oracle.mlp_arrays(mlp.params)
        for model, reference in [
            (mlp, lambda x: np.tanh(x @ w1 + b1) @ w2 + b2),
            (circuit, lambda x: oracle.forward(circuit, x)),
            (store, lambda x: oracle.forward(stored_circuit, x)),
        ]:
            batched = model.logits(model.prepare(feats))
            assert batched.shape == (5, 2)
            for i in range(5):
                assert_allclose(batched[i], reference(feats[i]), atol=1e-12)

    def test_batch_matches_single(self, rng):
        # A row's scores do not depend on the rest of the batch.
        feats = rng.uniform(0, math.pi, size=(5, 2))
        for model in (tk.init_mlp(rng), vqc.init_model(rng, 2), qw.init_store(rng, 2, math.pi)):
            batched = model.logits(model.prepare(feats))
            for i in range(5):
                alone = model.logits(model.prepare(feats[i : i + 1]))
                assert_allclose(batched[i], alone[0], atol=1e-12)
            with pytest.raises(ValueError, match="batch"):
                tk.evaluate(model, feats[0], np.array([0, 1]))

    @pytest.mark.parametrize("kind, wrong, message", [
        ("mlp", np.ones(21), "params must have shape (22,), got (21,)"),
        ("circuit", np.ones((2, 3)), "params must have shape (layers, qubits, 3), got (2, 3)"),
    ], ids=["mlp", "circuit"])
    def test_step_builds_a_checked_read_only_copy(self, rng, kind, wrong, message):
        # A step's model goes through the kind's one params rule, as the
        # constructor's does: the optimizer's result is checked, and comes back
        # as a read-only copy even when the caller keeps the array
        # (QuantumWeightStore's step: test_step_keeps_gamma_and_checks_angles).
        model = tk.init_mlp(rng) if kind == "mlp" else vqc.init_model(rng, 2)
        grad = rng.normal(size=model.params.shape)
        stepped = model.step(grad, tk.SgdOptimizer(0.1))
        assert type(stepped) is type(model)
        assert not stepped.params.flags.writeable
        assert stepped.params.tobytes() == (model.params - 0.1 * grad).tobytes()
        kept = np.ones(model.params.shape)
        copied = model.step(grad, SimpleNamespace(step=lambda params, g: kept))
        assert np.array_equal(copied.params, kept) and not np.shares_memory(copied.params, kept)
        assert not copied.params.flags.writeable and kept.flags.writeable
        for bad, match in ((np.full(model.params.shape, np.nan), "params must be finite"),
                           (wrong, message)):
            with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
                model.step(grad, SimpleNamespace(step=lambda params, g, bad=bad: bad))

    def test_evaluate_trivials(self, rng):
        model = vqc.VqcModel(np.zeros((1, 2, 3)))
        feats = np.array([[0.0, 0.0], [0.1, 0.1]])
        # Zero circuit gives equal logits; argmax resolves to class 0.
        assert tk.evaluate(model, feats, np.array([0, 0])) == 1.0
        assert tk.evaluate(model, feats, np.array([1, 1])) == 0.0
        assert tk.evaluate(model, feats, np.array([0, 1])) == 0.5

    def test_evaluate_rejects_empty(self, rng):
        with pytest.raises(ValueError, match="empty"):
            tk.evaluate(vqc.init_model(rng, 2), np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_evaluate_rejects_label_count_mismatch(self, rng):
        # One label against five rows used to broadcast and score 1.0.
        feats = rng.uniform(0, math.pi, size=(5, 2))
        for model in (tk.init_mlp(rng), vqc.init_model(rng, 2), qw.init_store(rng, 2, math.pi)):
            with pytest.raises(ValueError, match="labels of shape \\(1,\\) for 5 samples"):
                tk.evaluate(model, feats, np.array([1]))
            with pytest.raises(ValueError, match="labels of shape \\(6,\\) for 5 samples"):
                tk.evaluate(model, feats, np.zeros(6, dtype=int))

    def test_evaluate_rejects_labels_outside_0_1(self, rng):
        # Labels of 2 used to score 0.0 without complaint.
        feats = rng.uniform(0, math.pi, size=(5, 2))
        for bad in (np.full(5, 2), np.array([0, 1, 0, 1, -1])):
            with pytest.raises(ValueError, match="labels must be 0 or 1"):
                tk.evaluate(tk.init_mlp(rng), feats, bad)


class TestRoundMetrics:
    def test_validation(self):
        with pytest.raises(ValueError, match="round_index"):
            tk.RoundMetrics(0, 0, 0.5, 0.9)
        with pytest.raises(ValueError, match="finite"):
            tk.RoundMetrics(1, 0, float("nan"), 0.9)
        with pytest.raises(ValueError, match="test_accuracy"):
            tk.RoundMetrics(1, 0, 0.5, 1.5)
