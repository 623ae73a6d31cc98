"""Circuit classifier checks: shift-rule gradients against finite differences,
the batched engine pinned to the gate-by-gate reference."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfedring import statevec as sv
from qfedring import vqc

ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False, allow_infinity=False)


def fd_gradient(model, features, upstream, eps=1e-6):
    """Central finite differences of upstream . forward, parameter by parameter."""
    grads = np.zeros_like(model.params)
    for idx in np.ndindex(*model.params.shape):
        plus = np.array(model.params)
        minus = np.array(model.params)
        plus[idx] += eps
        minus[idx] -= eps
        f_plus = upstream @ vqc.forward(model.with_params(plus), features)
        f_minus = upstream @ vqc.forward(model.with_params(minus), features)
        grads[idx] = (f_plus - f_minus) / (2 * eps)
    return grads


def random_model(rng, num_layers=2, num_qubits=2, scale=math.pi):
    params = rng.uniform(-scale, scale, size=(num_layers, num_qubits, 3))
    return vqc.VqcModel(params, num_qubits=num_qubits)


class TestModel:
    def test_shift_rule_defaults(self):
        assert vqc.SHIFT_RULE.shift == pytest.approx(math.pi / 2)
        assert vqc.SHIFT_RULE.coefficient == pytest.approx(0.5)

    def test_init_model_bounds(self, rng):
        model = vqc.init_model(rng, num_layers=4, num_qubits=2)
        assert model.params.shape == (4, 2, 3)
        assert np.all(np.abs(model.params) <= math.pi / 4)
        assert model.num_layers == 4

    def test_init_model_rejects_no_layers(self, rng):
        with pytest.raises(ValueError, match="num_layers"):
            vqc.init_model(rng, num_layers=0)

    def test_model_validation(self):
        with pytest.raises(ValueError, match="shape"):
            vqc.VqcModel(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="shape"):
            vqc.VqcModel(np.zeros((1, 3, 3)), num_qubits=2)
        with pytest.raises(ValueError, match="finite"):
            vqc.VqcModel(np.full((1, 2, 3), np.nan))

    def test_params_frozen(self, rng):
        model = vqc.init_model(rng)
        with pytest.raises(ValueError):
            model.params[0, 0, 0] = 1.0

    def test_with_params_returns_new_model(self, rng):
        model = vqc.init_model(rng)
        other = model.with_params(np.zeros((2, 2, 3)))
        assert other is not model
        assert np.all(other.params == 0)
        assert model.params[0, 0, 0] != 0 or np.any(model.params != 0)

    def test_encoder_spec_rejects_unknown(self):
        with pytest.raises(ValueError, match="encoder"):
            vqc.EncoderSpec("AMPLITUDE")

    def test_entangler_pairs(self):
        assert vqc.entangler_pairs(2) == [(0, 1), (1, 0)]
        assert vqc.entangler_pairs(3) == [(0, 1), (1, 2), (2, 0)]
        assert vqc.entangler_pairs(1) == []


class TestForward:
    def test_zero_everything_gives_plus_one_logits(self):
        model = vqc.VqcModel(np.zeros((2, 2, 3)))
        assert_allclose(vqc.forward(model, [0.0, 0.0]), [1.0, 1.0], atol=1e-15)

    def test_encode_rx_amplitudes(self, rng):
        model = vqc.init_model(rng)
        state = vqc.encode(model, [math.pi, 0.0])
        assert_allclose(state.amplitudes, [0, 0, -1j, 0], atol=1e-15)

    def test_encode_expectation_is_cosine(self, rng):
        model = vqc.init_model(rng)
        for x in rng.uniform(0, math.pi, 10):
            state = vqc.encode(model, [x, 0.5])
            assert sv.expectation(state, sv.pauli_z(0)) == pytest.approx(math.cos(x))
            assert sv.expectation(state, sv.pauli_z(1)) == pytest.approx(math.cos(0.5))

    def test_theta_pi_flips_readout(self):
        params = np.zeros((1, 2, 3))
        params[0, 0, 1] = math.pi  # RY(pi) on qubit 0
        model = vqc.VqcModel(params)
        assert_allclose(vqc.forward(model, [0.0, 0.0]), [-1.0, 1.0], atol=1e-12)

    def test_forward_rejects_bad_features(self, rng):
        model = vqc.init_model(rng)
        with pytest.raises(ValueError, match="features"):
            vqc.forward(model, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            vqc.forward(model, [np.nan, 0.0])

    @settings(max_examples=40, deadline=None)
    @given(x1=ANGLES, x2=ANGLES, seed=st.integers(0, 2**31 - 1))
    def test_logits_bounded(self, x1, x2, seed):
        model = random_model(np.random.default_rng(seed))
        logits = vqc.forward(model, [x1, x2])
        assert np.all(np.abs(logits) <= 1 + 1e-9)


class TestGradient:
    def test_matches_finite_differences(self, rng):
        for _ in range(5):
            model = random_model(rng)
            features = rng.uniform(0, math.pi, 2)
            upstream = rng.normal(size=2)
            got = vqc.gradient(model, features, upstream)
            want = fd_gradient(model, features, upstream)
            assert_allclose(got, want, atol=1e-7)

    def test_three_layer_model(self, rng):
        model = random_model(rng, num_layers=3)
        features = rng.uniform(0, math.pi, 2)
        upstream = rng.normal(size=2)
        assert_allclose(
            vqc.gradient(model, features, upstream),
            fd_gradient(model, features, upstream),
            atol=1e-7,
        )

    def test_final_layer_omega_gradients_vanish(self, rng):
        """The last rotation on each qubit ends with RZ, which commutes with the
        Z readout, so those angles never receive gradient."""
        for _ in range(10):
            model = random_model(rng)
            features = rng.uniform(0, math.pi, 2)
            upstream = rng.normal(size=2)
            grads = vqc.gradient(model, features, upstream)
            assert_allclose(grads[-1, :, 2], 0.0, atol=1e-12)

    def test_final_layer_phi_gradients_generically_nonzero(self, rng):
        largest = 0.0
        for _ in range(10):
            model = random_model(rng)
            features = rng.uniform(0, math.pi, 2)
            grads = vqc.gradient(model, features, np.array([1.0, -1.0]))
            largest = max(largest, np.max(np.abs(grads[-1, :, 0])))
        assert largest > 0.01

    def test_two_forward_evaluations_per_parameter(self, rng, monkeypatch):
        model = random_model(rng)
        calls = []
        real_forward = vqc.forward
        monkeypatch.setattr(
            vqc, "forward", lambda m, f: calls.append(1) or real_forward(m, f)
        )
        vqc.gradient(model, [0.3, 0.7], [1.0, 0.0])
        assert len(calls) == 2 * model.params.size

    def test_rejects_bad_upstream(self, rng):
        model = vqc.init_model(rng)
        with pytest.raises(ValueError, match="upstream"):
            vqc.gradient(model, [0.1, 0.2], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            vqc.gradient(model, [0.1, 0.2], [np.inf, 0.0])

    def test_zero_circuit_is_stationary(self):
        model = vqc.VqcModel(np.zeros((1, 2, 3)))
        grads = vqc.gradient(model, [0.0, 0.0], [1.0, 0.0])
        assert grads[0, 0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_linear_in_upstream(self, rng):
        model = random_model(rng)
        features = rng.uniform(0, math.pi, 2)
        upstream = rng.normal(size=2)
        base = vqc.gradient(model, features, upstream)
        assert_allclose(
            vqc.gradient(model, features, 3.5 * upstream), 3.5 * base, atol=1e-12
        )

    def test_forward_deterministic_bitwise(self, rng):
        model = random_model(rng)
        features = rng.uniform(0, math.pi, 2)
        assert np.array_equal(
            vqc.forward(model, features), vqc.forward(model, features)
        )


class TestBatchedPath:
    def test_forward_batch_matches_reference(self, rng):
        model = random_model(rng, num_layers=3)
        feats = rng.uniform(0, math.pi, size=(16, 2))
        batched = vqc.forward_batch(model.params, feats)
        for row, x in zip(batched, feats):
            assert_allclose(row, vqc.forward(model, x), atol=1e-12)

    def test_gradient_batch_matches_summed_reference(self, rng):
        model = random_model(rng)
        feats = rng.uniform(0, math.pi, size=(8, 2))
        upstream = rng.normal(size=(8, 2))
        batched = vqc.gradient_batch(model.params, feats, upstream)
        summed = np.zeros_like(model.params)
        for x, up in zip(feats, upstream):
            summed += vqc.gradient(model, x, up)
        assert_allclose(batched, summed, atol=1e-12)

    def test_batch_path_validation(self, rng):
        model = random_model(rng)
        with pytest.raises(ValueError, match="batch"):
            vqc.forward_batch(model.params, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="params"):
            vqc.forward_batch(np.zeros((1, 3, 3)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="upstream"):
            vqc.gradient_batch(model.params, np.zeros((4, 2)), np.zeros((3, 2)))

    def test_single_row_batch(self, rng):
        model = random_model(rng)
        x = rng.uniform(0, math.pi, 2)
        assert_allclose(
            vqc.forward_batch(model.params, x[None, :])[0],
            vqc.forward(model, x),
            atol=1e-12,
        )

    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_engine_matches_gate_by_gate(self, rng, num_qubits, num_layers, batch):
        model = random_model(rng, num_layers=num_layers, num_qubits=num_qubits)
        feats = rng.uniform(0, math.pi, size=(batch, num_qubits))
        upstream = rng.normal(size=(batch, num_qubits))
        batched = vqc.forward_batch(model.params, feats)
        assert batched.shape == (batch, num_qubits)
        for row, x in zip(batched, feats):
            assert_allclose(row, vqc.forward(model, x), atol=1e-12)
        summed = np.zeros_like(model.params)
        for x, up in zip(feats, upstream):
            summed += vqc.gradient(model, x, up)
        assert_allclose(vqc.gradient_batch(model.params, feats, upstream), summed, atol=1e-12)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_entangler_permutation_matches_cnot_gates(self, num_qubits):
        """Sending each basis state through the CNOT ring gate by gate lands on
        the basis state the engine's permutation names; one qubit has no
        pairs, so its permutation is the identity."""
        image = vqc._entangler_image(num_qubits)
        for b in range(2**num_qubits):
            amps = np.zeros(2**num_qubits, dtype=complex)
            amps[b] = 1.0
            state = sv.StateVector(num_qubits, amps)
            for control, target in vqc.entangler_pairs(num_qubits):
                state = sv.apply_gate(state, sv.cnot(control, target))
            assert np.flatnonzero(state.amplitudes) == [image[b]]
        if num_qubits == 1:
            assert list(image) == [0, 1]

    def test_oversized_params_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="params"):
                vqc.gradient_batch(np.zeros((1, 9, 3)), np.zeros((2, 9)), np.zeros((2, 9)))
            with pytest.raises(ValueError, match="params"):
                vqc.forward_batch(np.zeros((1, 11, 3)), np.zeros((2, 11)))
            with pytest.raises(ValueError, match="params"):
                vqc.gradient_batch(np.zeros((500, 2, 3)), np.zeros((2, 2)), np.zeros((2, 2)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
