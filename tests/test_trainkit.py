"""Loss head, optimizer, and baseline network checks against finite
differences and closed-form values."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfedring import qweights as qw
from qfedring import trainkit as tk
from qfedring import vqc

FINITE = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


class TestLoss:
    def test_equal_logits_cost_ln2(self):
        for scale in (1.0, tk.LOGIT_SCALE, 20.0):
            loss, _ = tk.loss_and_grad([0.3, 0.3], 0, scale=scale)
            assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_confidence_costs_little(self):
        loss, _ = tk.loss_and_grad([1.0, -1.0], 0)
        assert loss < 1e-4

    def test_stable_under_huge_scores(self):
        loss, grad = tk.loss_and_grad([100.0, -100.0], 1, scale=1.0)
        assert math.isfinite(loss) and loss == pytest.approx(200.0, rel=1e-9)
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self, rng):
        eps = 1e-7
        for _ in range(20):
            logits = rng.normal(size=2)
            label = int(rng.integers(2))
            _, grad = tk.loss_and_grad(logits, label)
            for j in range(2):
                bumped = np.array(logits)
                bumped[j] += eps
                up, _ = tk.loss_and_grad(bumped, label)
                bumped[j] -= 2 * eps
                down, _ = tk.loss_and_grad(bumped, label)
                assert grad[j] == pytest.approx((up - down) / (2 * eps), abs=1e-5)

    def test_gradient_closed_form(self):
        # Two-class softmax: dlogits[wrong] = scale * sigmoid(-scale * margin).
        for scale in (1.0, tk.LOGIT_SCALE):
            _, grad = tk.loss_and_grad([0.1, -0.1], 0, scale=scale)
            margin = 0.2
            p_wrong = 1 / (1 + math.exp(scale * margin))
            assert grad[1] == pytest.approx(scale * p_wrong, abs=1e-12)
            assert grad[0] == pytest.approx(-scale * p_wrong, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="two logits"):
            tk.loss_and_grad([1.0, 2.0, 3.0], 0)
        with pytest.raises(ValueError, match="finite"):
            tk.loss_and_grad([np.nan, 0.0], 0)
        with pytest.raises(ValueError, match="label"):
            tk.loss_and_grad([0.0, 0.0], 2)

    def test_batch_matches_scalar(self, rng):
        logits = rng.normal(size=(10, 2))
        labels = rng.integers(0, 2, size=10)
        losses, grads = tk.batch_loss_and_grad(logits, labels)
        for i in range(10):
            want_loss, want_grad = tk.loss_and_grad(logits[i], int(labels[i]))
            assert losses[i] == pytest.approx(want_loss, abs=1e-12)
            assert_allclose(grads[i], want_grad, atol=1e-12)

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="labels"):
            tk.batch_loss_and_grad(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="labels"):
            tk.batch_loss_and_grad(np.zeros((2, 2)), np.array([0, 5]))

    @settings(max_examples=60, deadline=None)
    @given(a=FINITE, b=FINITE, label=st.integers(0, 1))
    def test_loss_nonnegative_and_finite(self, a, b, label):
        loss, grad = tk.loss_and_grad([a, b], label)
        assert loss >= -1e-12
        assert np.all(np.isfinite(grad))


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


class TestMlp:
    def test_parameter_count(self, rng):
        assert tk.init_mlp(rng).num_params() == 22

    def test_validation(self):
        with pytest.raises(ValueError, match="w1"):
            tk.ClassicalMlp(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            tk.ClassicalMlp(
                np.full((2, 4), np.nan), np.zeros(4), np.zeros((4, 2)), np.zeros(2)
            )

    def test_zero_weights_give_zero_logits(self):
        model = tk.ClassicalMlp(np.zeros((2, 4)), np.zeros(4), np.zeros((4, 2)), np.zeros(2))
        assert_allclose(tk.mlp_logits(model, np.array([1.0, 2.0])), [0.0, 0.0])

    def test_gradients_match_finite_differences(self, rng):
        model = tk.init_mlp(rng)
        feats = rng.normal(size=2)
        label = 1
        _, grads = tk.mlp_forward_backward(model, feats, label)
        eps = 1e-6
        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(model, name)
            got = getattr(grads, name)
            for idx in np.ndindex(*arr.shape):
                fields = {
                    n: np.array(getattr(model, n)) for n in ("w1", "b1", "w2", "b2")
                }
                fields[name][idx] += eps
                up, _ = tk.mlp_forward_backward(tk.ClassicalMlp(**fields), feats, label)
                fields[name][idx] -= 2 * eps
                down, _ = tk.mlp_forward_backward(tk.ClassicalMlp(**fields), feats, label)
                assert got[idx] == pytest.approx((up - down) / (2 * eps), abs=1e-5)

    def test_batch_grads_are_means_of_singles(self, rng):
        model = tk.init_mlp(rng)
        feats = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        losses, grads = tk.mlp_batch_grads(model, feats, labels)
        singles = [tk.mlp_forward_backward(model, feats[i], int(labels[i])) for i in range(6)]
        assert_allclose(losses, [s[0] for s in singles], atol=1e-12)
        for name in ("w1", "b1", "w2", "b2"):
            mean = np.mean([getattr(s[1], name) for s in singles], axis=0)
            assert_allclose(getattr(grads, name), mean, atol=1e-12)

    def test_sgd_step_applies_everywhere(self, rng):
        model = tk.init_mlp(rng)
        _, grads = tk.mlp_batch_grads(model, rng.normal(size=(4, 2)), np.array([0, 1, 0, 1]))
        opt = tk.SgdOptimizer(learning_rate=0.5)
        stepped = tk.sgd_step_mlp(model, grads, opt)
        for name in ("w1", "b1", "w2", "b2"):
            assert_allclose(
                getattr(stepped, name),
                getattr(model, name) - 0.5 * getattr(grads, name),
                atol=1e-15,
            )

    def test_hidden_unit_permutation_symmetry(self, rng):
        # Relabeling hidden units (and their fan-in/fan-out weights) cannot
        # change the function the network computes.
        model = tk.ClassicalMlp(
            rng.normal(size=(2, 4)), rng.normal(size=4), rng.normal(size=(4, 2)), rng.normal(size=2)
        )
        perm = np.array([2, 0, 3, 1])
        permuted = tk.ClassicalMlp(
            model.w1[:, perm], model.b1[perm], model.w2[perm, :], model.b2
        )
        batch = rng.normal(size=(8, 2))
        assert_allclose(
            tk.mlp_logits(permuted, batch), tk.mlp_logits(model, batch), atol=1e-12
        )


class TestModelDispatch:
    def test_logits_for_each_kind(self, rng):
        # Each row against the single-sample oracle of its kind; a store reads
        # as the gate-by-gate circuit on its materialized parameters.
        feats = rng.uniform(0, math.pi, size=(5, 2))
        mlp, circuit, store = tk.init_mlp(rng), vqc.init_model(rng), qw.init_store(rng)
        stored_circuit = vqc.VqcModel(qw.materialize(store))
        for model, oracle in [
            (mlp, lambda x: tk.mlp_logits(mlp, x)),
            (circuit, lambda x: vqc.forward(circuit, x)),
            (store, lambda x: vqc.forward(stored_circuit, x)),
        ]:
            batched = tk.model_logits_batch(model, feats)
            assert batched.shape == (5, 2)
            for i in range(5):
                assert_allclose(batched[i], oracle(feats[i]), atol=1e-12)

    def test_batch_matches_single(self, rng):
        # A row's scores do not depend on the rest of the batch.
        feats = rng.uniform(0, math.pi, size=(5, 2))
        for model in (tk.init_mlp(rng), vqc.init_model(rng), qw.init_store(rng)):
            batched = tk.model_logits_batch(model, feats)
            for i in range(5):
                alone = tk.model_logits_batch(model, feats[i : i + 1])
                assert_allclose(batched[i], alone[0], atol=1e-12)
            with pytest.raises(ValueError, match="batch"):
                tk.model_logits_batch(model, feats[0])

    def test_evaluate_trivials(self, rng):
        model = vqc.VqcModel(np.zeros((1, 2, 3)))
        feats = np.array([[0.0, 0.0], [0.1, 0.1]])
        # Zero circuit gives equal logits; argmax resolves to class 0.
        assert tk.evaluate(model, feats, np.array([0, 0])) == 1.0
        assert tk.evaluate(model, feats, np.array([1, 1])) == 0.0
        assert tk.evaluate(model, feats, np.array([0, 1])) == 0.5

    def test_evaluate_rejects_empty(self, rng):
        with pytest.raises(ValueError, match="empty"):
            tk.evaluate(vqc.init_model(rng), np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestRoundMetrics:
    def test_validation(self):
        with pytest.raises(ValueError, match="round_index"):
            tk.RoundMetrics(0, 0, 0.5, 0.9)
        with pytest.raises(ValueError, match="finite"):
            tk.RoundMetrics(1, 0, float("nan"), 0.9)
        with pytest.raises(ValueError, match="test_accuracy"):
            tk.RoundMetrics(1, 0, 0.5, 1.5)
