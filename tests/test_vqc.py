"""Circuit classifier checks: shift-rule gradients against finite differences,
the batched engine pinned to the gate-by-gate reference."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfedring import qweights as qw
from qfedring import statevec as sv
from qfedring import trainkit as tk
from qfedring import vqc
from tests import oracle
from tests.helpers import examples

ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False, allow_infinity=False)


def fd_gradient(model, features, upstream, eps=1e-6):
    """Central finite differences of upstream . forward, parameter by parameter."""
    grads = np.zeros_like(model.params)
    for idx in np.ndindex(*model.params.shape):
        plus = np.array(model.params)
        minus = np.array(model.params)
        plus[idx] += eps
        minus[idx] -= eps
        f_plus = upstream @ oracle.forward(vqc.VqcModel(plus), features)
        f_minus = upstream @ oracle.forward(vqc.VqcModel(minus), features)
        grads[idx] = (f_plus - f_minus) / (2 * eps)
    return grads


def random_model(rng, num_layers=2, num_qubits=2, scale=math.pi):
    params = rng.uniform(-scale, scale, size=(num_layers, num_qubits, 3))
    return vqc.VqcModel(params)


def two_call_step(params, states, labels):
    """The step gradient_batch fuses, as two engine calls: forward_batch, the
    loss, then the +shift/-shift contraction of the 2P shifted sets."""
    losses, upstream = tk.batch_loss_and_grad(vqc.forward_batch(params, states), labels)
    p = np.asarray(params, dtype=float)
    shifts = vqc.SHIFT * np.eye(p.size).reshape(p.size, *p.shape)
    out = vqc._expectations(np.concatenate([p + shifts, p - shifts]), states)
    delta = vqc.SHIFT_COEFFICIENT * (out[: p.size] - out[p.size :])
    return losses, np.sum(upstream * delta, axis=(1, 2)).reshape(p.shape)


class TestModel:
    def test_shift_rule_defaults(self):
        assert vqc.SHIFT == pytest.approx(math.pi / 2)
        assert vqc.SHIFT_COEFFICIENT == pytest.approx(0.5)
        assert vqc.NUM_QUBITS == 2

    def test_init_model_bounds(self, rng):
        model = vqc.init_model(rng, num_layers=4)
        assert model.params.shape == (4, 2, 3)
        assert np.all(np.abs(model.params) <= math.pi / 4)

    def test_init_model_rejects_no_layers(self, rng):
        with pytest.raises(ValueError, match="num_layers"):
            vqc.init_model(rng, num_layers=0)

    def test_model_validation(self):
        for shape in [(2, 3), (1, 2, 2), (0, 2, 3), (1, 0, 3)]:
            with pytest.raises(ValueError, match="shape"):
                vqc.VqcModel(np.zeros(shape))
        with pytest.raises(ValueError, match="finite"):
            vqc.VqcModel(np.full((1, 2, 3), np.nan))
        # The qubit count is read off the params, as on the quantum weight store.
        assert vqc.VqcModel(np.zeros((1, 3, 3))).num_qubits == 3

    def test_params_frozen(self, rng):
        model = vqc.init_model(rng, 2)
        with pytest.raises(ValueError):
            model.params[0, 0, 0] = 1.0

    def test_entangler_pairs(self):
        assert vqc.entangler_pairs(2) == [(0, 1), (1, 0)]
        assert vqc.entangler_pairs(3) == [(0, 1), (1, 2), (2, 0)]
        assert vqc.entangler_pairs(1) == []


class TestForward:
    def test_zero_everything_gives_plus_one_logits(self):
        model = vqc.VqcModel(np.zeros((2, 2, 3)))
        assert_allclose(oracle.forward(model, [0.0, 0.0]), [1.0, 1.0], atol=1e-15)

    def test_encode_rx_amplitudes(self, rng):
        model = vqc.init_model(rng, 2)
        state = oracle.encode(model, [math.pi, 0.0])
        assert_allclose(state.amplitudes, [0, 0, -1j, 0], atol=1e-15)

    def test_encode_expectation_is_cosine(self, rng):
        model = vqc.init_model(rng, 2)
        for x in rng.uniform(0, math.pi, 10):
            state = oracle.encode(model, [x, 0.5])
            assert sv.expectation(state, 0) == pytest.approx(math.cos(x))
            assert sv.expectation(state, 1) == pytest.approx(math.cos(0.5))

    def test_theta_pi_flips_readout(self):
        params = np.zeros((1, 2, 3))
        params[0, 0, 1] = math.pi  # RY(pi) on qubit 0
        model = vqc.VqcModel(params)
        assert_allclose(oracle.forward(model, [0.0, 0.0]), [-1.0, 1.0], atol=1e-12)

    def test_forward_rejects_bad_features(self, rng):
        model = vqc.init_model(rng, 2)
        with pytest.raises(ValueError, match="features"):
            oracle.forward(model, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            oracle.forward(model, [np.nan, 0.0])

    @settings(max_examples=examples(40), deadline=None)
    @given(x1=ANGLES, x2=ANGLES, seed=st.integers(0, 2**31 - 1))
    def test_logits_bounded(self, x1, x2, seed):
        model = random_model(np.random.default_rng(seed))
        logits = oracle.forward(model, [x1, x2])
        assert np.all(np.abs(logits) <= 1 + 1e-9)


class TestGradient:
    def test_matches_finite_differences(self, rng):
        for _ in range(5):
            model = random_model(rng)
            features = rng.uniform(0, math.pi, 2)
            upstream = rng.normal(size=2)
            got = oracle.gradient(model, features, upstream)
            want = fd_gradient(model, features, upstream)
            assert_allclose(got, want, atol=1e-7)

    def test_three_layer_model(self, rng):
        model = random_model(rng, num_layers=3)
        features = rng.uniform(0, math.pi, 2)
        upstream = rng.normal(size=2)
        assert_allclose(
            oracle.gradient(model, features, upstream),
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
            grads = oracle.gradient(model, features, upstream)
            assert_allclose(grads[-1, :, 2], 0.0, atol=1e-12)

    def test_final_layer_phi_gradients_generically_nonzero(self, rng):
        largest = 0.0
        for _ in range(10):
            model = random_model(rng)
            features = rng.uniform(0, math.pi, 2)
            grads = oracle.gradient(model, features, np.array([1.0, -1.0]))
            largest = max(largest, np.max(np.abs(grads[-1, :, 0])))
        assert largest > 0.01

    def test_two_forward_evaluations_per_parameter(self, rng, monkeypatch):
        model = random_model(rng)
        calls = []
        real_forward = oracle.forward
        monkeypatch.setattr(
            oracle, "forward", lambda m, f: calls.append(1) or real_forward(m, f)
        )
        oracle.gradient(model, [0.3, 0.7], [1.0, 0.0])
        assert len(calls) == 2 * model.params.size

    def test_rejects_bad_upstream(self, rng):
        model = vqc.init_model(rng, 2)
        with pytest.raises(ValueError, match="upstream"):
            oracle.gradient(model, [0.1, 0.2], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            oracle.gradient(model, [0.1, 0.2], [np.inf, 0.0])

    def test_zero_circuit_is_stationary(self):
        model = vqc.VqcModel(np.zeros((1, 2, 3)))
        grads = oracle.gradient(model, [0.0, 0.0], [1.0, 0.0])
        assert grads[0, 0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_linear_in_upstream(self, rng):
        model = random_model(rng)
        features = rng.uniform(0, math.pi, 2)
        upstream = rng.normal(size=2)
        base = oracle.gradient(model, features, upstream)
        assert_allclose(
            oracle.gradient(model, features, 3.5 * upstream), 3.5 * base, atol=1e-12
        )

    def test_forward_deterministic_bitwise(self, rng):
        model = random_model(rng)
        features = rng.uniform(0, math.pi, 2)
        assert np.array_equal(
            oracle.forward(model, features), oracle.forward(model, features)
        )


class TestEncode:
    """``encode`` is the one map from features to the engine's states, and the
    engine refuses by name anything that is not such states."""

    @pytest.mark.parametrize("rows", [0, 1, 7, 32, 320])
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_rows_are_encoded_independently(self, num_qubits, rows):
        """A slice or a gather of an encoded shard is bit for bit the encoding
        of those rows alone, signed zeros included: local_train encodes its
        shard once and slices every batch from it."""
        gen = np.random.default_rng(10 * rows + num_qubits)
        feats = gen.uniform(-math.pi, 2 * math.pi, size=(rows, num_qubits))
        feats.flat[::5], feats.flat[1::7], feats.flat[2::11] = 0.0, -0.0, math.pi
        shard = vqc.encode(feats, num_qubits)
        assert shard.dtype == complex and shard.shape == (rows, 2**num_qubits)
        parts = [slice(None), slice(0, 0), slice(0, 1), slice(rows // 3, rows),
                 slice(1, max(rows - 1, 1)), slice(None, None, 2)]
        order = gen.permutation(rows)
        parts += [order[start : start + 32] for start in range(0, rows, 32)]
        for part in parts:
            assert vqc.encode(feats[part], num_qubits).tobytes() == shard[part].tobytes()

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_matches_the_gate_built_state_with_unit_norm(self, rng, num_qubits):
        model = random_model(rng, num_qubits=num_qubits)
        feats = rng.uniform(0, math.pi, size=(6, num_qubits))
        states = vqc.encode(feats, num_qubits)
        for row, x in zip(states, feats):
            assert_allclose(row, oracle.encode(model, x).amplitudes, atol=1e-15)
        assert np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1).max() <= 4 * np.finfo(float).eps

    def test_refuses_a_qubit_count_that_is_not_a_count(self):
        with pytest.raises(ValueError, match="num_qubits"):
            vqc.encode(np.zeros((3, 0)), 0)

    STATES = vqc.encode(np.random.default_rng(4).uniform(0, math.pi, size=(5, 2)), 2)

    @pytest.mark.parametrize("bad, message", [
        (STATES.real, r"states must be complex128 \(rows, 4\), got float64 \(5, 4\)"),
        (np.random.default_rng(4).uniform(0, math.pi, size=(5, 2)),
         r"states must be complex128 \(rows, 4\), got float64 \(5, 2\)"),
        (STATES[:, :2], r"states must be complex128 \(rows, 4\), got complex128 \(5, 2\)"),
        (np.hstack([STATES, STATES]),
         r"states must be complex128 \(rows, 4\), got complex128 \(5, 8\)"),
        (STATES[0], r"states must be complex128 \(rows, 4\), got complex128 \(4,\)"),
        (STATES.astype(np.complex64),
         r"states must be complex128 \(rows, 4\), got complex64 \(5, 4\)"),
        (np.where(np.arange(4) == 3, complex(math.nan, 0), STATES), "states must be finite"),
        (np.where(np.arange(4) == 1, complex(0, math.inf), STATES), "states must be finite"),
    ], ids=["float", "features", "narrow", "wide", "one row", "complex64", "nan", "inf"])
    def test_the_states_rule_refuses_by_name(self, rng, bad, message):
        params = random_model(rng).params
        with pytest.raises(ValueError, match=f"^{message}$"):
            vqc.forward_batch(params, bad)
        with pytest.raises(ValueError, match=f"^{message}$"):
            vqc.gradient_batch(params, bad, lambda out: (None, np.ones_like(out)))

    def test_the_states_rule_takes_any_memory_order(self, rng):
        params = random_model(rng).params
        want = vqc.forward_batch(params, self.STATES)
        assert vqc.forward_batch(params, np.asfortranarray(self.STATES)).tobytes() == want.tobytes()
        assert vqc.forward_batch(params, self.STATES.tolist()).tobytes() == want.tobytes()


class TestBatchedPath:
    def test_forward_batch_matches_reference(self, rng):
        model = random_model(rng, num_layers=3)
        feats = rng.uniform(0, math.pi, size=(16, 2))
        batched = vqc.forward_batch(model.params, vqc.encode(feats, 2))
        for row, x in zip(batched, feats):
            assert_allclose(row, oracle.forward(model, x), atol=1e-12)

    def test_gradient_batch_matches_summed_reference(self, rng):
        model = random_model(rng)
        feats = rng.uniform(0, math.pi, size=(8, 2))
        upstream = rng.normal(size=(8, 2))
        _, batched = vqc.gradient_batch(
            model.params, vqc.encode(feats, 2), lambda _: (None, upstream)
        )
        summed = np.zeros_like(model.params)
        for x, up in zip(feats, upstream):
            summed += oracle.gradient(model, x, up)
        assert_allclose(batched, summed, atol=1e-12)

    def test_batch_path_validation(self, rng):
        model = random_model(rng)
        with pytest.raises(ValueError, match="batch"):
            vqc.encode(np.zeros((4, 3)), 2)
        with pytest.raises(ValueError, match=r"features of shape \(batch, 3\), got \(4, 2\)"):
            vqc.encode(np.zeros((4, 2)), 3)
        for shape in [(3, 2), (4,), (2, 4), (4, 3)]:
            with pytest.raises(ValueError, match="upstream"):
                vqc.gradient_batch(
                    model.params, vqc.encode(np.zeros((4, 2)), 2), lambda _: (None, np.zeros(shape))
                )
        # Refused by encode(), the one way in to the engine, not turned into NaN logits.
        for bad in (math.nan, math.inf, -math.inf):
            feats = np.array([[0.3, 0.1], [bad, 0.0]])
            with pytest.raises(ValueError, match="features must be finite"):
                vqc.encode(feats, 2)

    def test_single_row_batch(self, rng):
        model = random_model(rng)
        x = rng.uniform(0, math.pi, 2)
        assert_allclose(
            vqc.forward_batch(model.params, vqc.encode(x[None, :], 2))[0],
            oracle.forward(model, x),
            atol=1e-12,
        )

    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_engine_matches_gate_by_gate(self, rng, num_qubits, num_layers, batch):
        model = random_model(rng, num_layers=num_layers, num_qubits=num_qubits)
        feats = rng.uniform(0, math.pi, size=(batch, num_qubits))
        upstream = rng.normal(size=(batch, num_qubits))
        states = vqc.encode(feats, num_qubits)
        batched = vqc.forward_batch(model.params, states)
        assert batched.shape == (batch, num_qubits)
        for row, x in zip(batched, feats):
            assert_allclose(row, oracle.forward(model, x), atol=1e-12)
        summed = np.zeros_like(model.params)
        for x, up in zip(feats, upstream):
            summed += oracle.gradient(model, x, up)
        _, batched_grad = vqc.gradient_batch(model.params, states, lambda _: (None, upstream))
        assert_allclose(batched_grad, summed, atol=1e-12)

    @pytest.mark.parametrize(
        "num_qubits, pairs",
        [pytest.param(n, tuple(vqc.entangler_pairs(n)), id=str(n)) for n in (1, 2, 3)]
        + [pytest.param(3, ((0, 1),), id="teleport")],
    )
    def test_entangler_permutation_matches_cnot_gates(self, num_qubits, pairs):
        """Sending each basis state through the CNOTs gate by gate lands on the
        basis state the shared map names: the engine's CNOT ring (one qubit
        has no pairs, so its map is the identity) and CNOT(0 -> 1) on three
        qubits, which the teleport tests' numpy register form uses."""
        image = sv._cnot_image(num_qubits, pairs)
        for b in range(2**num_qubits):
            amps = np.zeros(2**num_qubits, dtype=complex)
            amps[b] = 1.0
            state = sv.StateVector(num_qubits, amps)
            for control, target in pairs:
                state = sv.apply_gate(state, *oracle.cnot(control, target))
            assert np.flatnonzero(state.amplitudes) == [image[b]]
        if num_qubits == 1:
            assert list(image) == [0, 1]

    def test_oversized_params_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="params"):
                vqc.gradient_batch(np.zeros((1, 9, 3)), np.zeros((2, 2**9), complex),
                                   lambda _: (None, np.zeros((2, 9))))
            with pytest.raises(ValueError, match="params"):
                vqc.forward_batch(np.zeros((1, 11, 3)), np.zeros((2, 2**11), complex))
            with pytest.raises(ValueError, match="params"):
                vqc.gradient_batch(np.zeros((500, 2, 3)), np.zeros((2, 4), complex),
                                   lambda _: (None, np.zeros((2, 2))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_largest_gradient_pass_memory(self):
        """The largest gradients the cap admits, the 7-qubit one-layer circuit
        and the 73-layer two-qubit one, peak at 33 and 53 MiB of numpy
        allocations (the complex engine they replaced peaked at 21.6 and
        54.7 MiB); the real block forms may cost at most twice that."""
        for shape, complex_mib in (((1, 7, 3), 21.6), ((73, 2, 3), 54.7)):
            up, states = np.zeros((4, shape[1])), vqc.encode(np.zeros((4, shape[1])), shape[1])
            tracemalloc.start()
            try:
                vqc.gradient_batch(np.zeros(shape), states, lambda _: (None, up))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * complex_mib * (1 << 20), shape

    def test_cap_counts_the_unshifted_set(self):
        """A gradient pass holds 2P + 1 sets; the deepest two-qubit circuit and
        the widest one-layer circuit that fit are the same as with 2P."""
        assert vqc.fits_unitary_cap(73, 2, shifted=True)
        assert not vqc.fits_unitary_cap(74, 2, shifted=True)
        assert vqc.fits_unitary_cap(1, 7, shifted=True)
        assert not vqc.fits_unitary_cap(1, 8, shifted=True)

    @pytest.mark.parametrize("kind", ["circuit", "store"])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_bit_equal_to_two_call_step(self, kind, num_layers):
        rng = np.random.default_rng(1234)
        for batch in range(1, 41):
            if kind == "circuit":
                params = random_model(rng, num_layers=num_layers).params
            else:
                params = qw.materialize(qw.init_store(rng, num_layers=num_layers, gamma=math.pi))
            states = vqc.encode(rng.uniform(0, math.pi, size=(batch, 2)), 2)
            labels = rng.integers(0, 2, size=batch)
            want_losses, want_grad = two_call_step(params, states, labels)
            losses, grad = vqc.gradient_batch(
                params, states, lambda logits: tk.batch_loss_and_grad(logits, labels)
            )
            assert np.array_equal(losses, want_losses)
            assert np.array_equal(grad, want_grad)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_each_set_in_a_pass_matches_its_own_product(self, num_qubits):
        """Every layer is a per-set (B, 2d) @ (2d, 2d) product, layer 0 from
        the shared states, so each of a gradient pass's 1 + 2P sets
        gives the same bits in the pass as on its own, at every qubit count."""
        rng = np.random.default_rng(99)
        for num_layers in (1, 2, 3):
            for batch in range(1, 41):
                params = rng.uniform(-math.pi, math.pi, size=(num_layers, num_qubits, 3))
                feats = rng.uniform(0, math.pi, size=(batch, num_qubits))
                states = vqc.encode(feats, num_qubits)
                angles = params + vqc._shift_offsets(params.shape)
                together = vqc._expectations(angles, states)
                for s in range(angles.shape[0]):
                    alone = vqc._expectations(angles[s : s + 1], states)[0]
                    assert np.array_equal(together[s], alone)

    def test_rotation_build_matches_gate_built_rot(self):
        """Each qubit's ROT from one sine matches RZ(omega) RY(theta) RZ(phi)
        built gate by gate to 2 * eps * (1 + max |angle|): the arguments
        h +- a are rounded before the sine, so the error grows with the angle
        (measured up to 0.8 * eps * (1 + max |angle|) for |angle| up to 1e3;
        runs stay at |angle| below about 5)."""
        rng = np.random.default_rng(3)
        for scale in (1, 10, 100, 1e3):
            angles = rng.uniform(-scale, scale, size=(2000, 3))
            got = vqc._layer_unitaries(angles[:, None, None, :])[:, 0]
            want = np.array([oracle.rot_matrix(*a) for a in angles])
            assert np.abs(got - want).max() <= 2 * np.finfo(float).eps * (1 + scale)

    @pytest.mark.parametrize("shape", [(1, 1, 3), (2, 2, 3), (3, 2, 3), (1, 3, 3)])
    def test_shift_offsets_match_eye_construction(self, shape):
        size = math.prod(shape)
        shifts = vqc.SHIFT * np.eye(size).reshape(size, *shape)
        offsets = vqc._shift_offsets(shape)
        assert np.array_equal(offsets, np.concatenate([np.zeros((1, *shape)), shifts, -shifts]))
        # Adding them reproduces the sets built from p itself, signed zeros included.
        p = np.random.default_rng(5).uniform(-math.pi, math.pi, size=shape)
        p.flat[:2] = [0.0, -0.0]
        want = np.concatenate([p[None], p + shifts, p - shifts])
        assert np.array_equal((p + offsets).view(np.uint64), want.view(np.uint64))

    def test_cached_constants_are_read_only(self):
        offsets = vqc._shift_offsets((2, 2, 3))
        assert offsets is vqc._shift_offsets((2, 2, 3))
        signs = sv._z_signs(2)
        assert signs is sv._z_signs(2)
        image = sv._cnot_image(2, ((0, 1), (1, 0)))
        assert image is sv._cnot_image(2, ((0, 1), (1, 0)))
        readout = vqc._readout_signs(2)
        assert readout is vqc._readout_signs(2)
        assert np.array_equal(readout[::2], signs.T) and np.array_equal(readout[1::2], signs.T)
        for cached in (offsets, signs, image, readout):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.0

    def test_loss_called_once_with_unshifted_logits(self, rng):
        model = random_model(rng, num_layers=2)
        states = vqc.encode(rng.uniform(0, math.pi, size=(9, 2)), 2)
        labels = rng.integers(0, 2, size=9)
        seen = []

        def loss(logits):
            seen.append(np.array(logits))
            return tk.batch_loss_and_grad(logits, labels)

        vqc.gradient_batch(model.params, states, loss)
        assert len(seen) == 1
        assert np.array_equal(seen[0], vqc.forward_batch(model.params, states))
