"""Quantum weight store checks: carrier-state readout against closed-form
cosines, angle-chain gradients against finite differences."""
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from qfedring import cli
from qfedring import qweights as qw
from qfedring import statevec as sv
from qfedring import trainkit as tk
from qfedring import vqc
from qfedring.vqc import SHIFT, SHIFT_COEFFICIENT
from tests import oracle
from tests.helpers import examples

ANGLES = st.floats(-3 * math.pi, 3 * math.pi, allow_nan=False, allow_infinity=False)


# Any finite angle, with the ones where cos and sin of a/2 are exact or
# extreme drawn often: signed zeros, the quarter and half turns, subnormals
# and magnitudes near the float range.
EDGE_ANGLES = [0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, 2 * math.pi,
               5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300, 1e300, -1e300]
ANY_ANGLE = st.one_of(
    st.sampled_from(EDGE_ANGLES), st.floats(allow_nan=False, allow_infinity=False)
)
STORE_SHAPES = st.one_of(
    st.just(()),
    st.integers(0, 12).map(lambda n: (n,)),
    st.integers(1, 3).map(lambda layers: (2, layers, 2, 3)),
)


def oracle_angles(rng) -> np.ndarray:
    """Store-shaped angles: in-branch, out-of-branch and the branch edges."""
    inside = rng.uniform(-math.pi, math.pi, 18)
    above = rng.uniform(math.pi, 5 * math.pi, 6)
    below = rng.uniform(-5 * math.pi, -math.pi, 6)
    edges = [math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 0.0, 2 * math.pi]
    return np.concatenate([inside, above, below, edges]).reshape(6, 2, 3)


class TestStore:
    def test_init_store_window(self, rng):
        store = qw.init_store(rng, num_layers=3, gamma=math.pi)
        assert store.angles.shape == (3, 2, 3)
        lo = qw.ANGLE_INIT_CENTER - qw.ANGLE_INIT_HALF_WIDTH
        hi = qw.ANGLE_INIT_CENTER + qw.ANGLE_INIT_HALF_WIDTH
        assert np.all(store.angles >= lo) and np.all(store.angles <= hi)
        assert store.gamma == pytest.approx(math.pi)

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            qw.QuantumWeightStore(np.zeros((2, 3)), math.pi)
        with pytest.raises(ValueError, match="finite"):
            qw.QuantumWeightStore(np.full((1, 2, 3), np.inf), math.pi)
        with pytest.raises(ValueError, match="gamma"):
            qw.QuantumWeightStore(np.zeros((1, 2, 3)), gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            qw.QuantumWeightStore(np.zeros((1, 2, 3)), gamma=-1.0)

    def test_angles_frozen(self, rng):
        store = qw.init_store(rng, 2, math.pi)
        with pytest.raises(ValueError):
            store.angles[0, 0, 0] = 1.0

    def test_step_keeps_gamma_and_checks_angles(self, rng):
        # A step's store comes from the constructor: the checked gamma is
        # handed on as it is, and the new angles are checked as any store's
        # are, and come back as a read-only copy.
        store = qw.init_store(rng, 2, math.pi * (1 + 2**-52))
        grad = rng.normal(size=store.angles.shape)
        stepped = store.step(grad, tk.SgdOptimizer(0.1))
        assert type(stepped) is qw.QuantumWeightStore
        assert stepped.gamma is store.gamma
        assert not stepped.angles.flags.writeable
        want = qw.canonical_angles(store.angles - 0.1 * qw.weight_gradient(store, grad))
        assert stepped.angles.tobytes() == want.tobytes()
        angles = np.ones((2, 2, 3))
        copied = store.step(grad, SimpleNamespace(step=lambda params, g: angles))
        assert np.array_equal(copied.angles, angles) and copied.angles is not angles
        for bad, match in ((np.full((2, 2, 3), np.nan), "angles must be finite"),
                           (np.ones((2, 3)), "angles must have shape")):
            with pytest.raises(ValueError, match=match):
                store.step(grad, SimpleNamespace(step=lambda params, g, bad=bad: bad))


class TestReadout:
    def test_materialize_is_gamma_cosine(self, rng):
        store = qw.init_store(rng, 2, math.pi)
        assert_allclose(qw.materialize(store), math.pi * np.cos(store.angles), atol=1e-12)

    def test_materialize_respects_gamma(self, rng):
        angles = rng.uniform(-math.pi, math.pi, size=(1, 2, 3))
        one = qw.materialize(qw.QuantumWeightStore(angles, gamma=1.0))
        two = qw.materialize(qw.QuantumWeightStore(angles, gamma=2.0))
        assert_allclose(two, 2.0 * one, atol=1e-12)

    def test_encode_weight_amplitudes(self):
        state = qw.encode_weight(math.pi / 3)
        assert_allclose(
            state.amplitudes,
            [math.cos(math.pi / 6), -1j * math.sin(math.pi / 6)],
            atol=1e-15,
        )

    @pytest.mark.parametrize(
        "angle", [np.array([0.3]), [0.1, 0.2], np.zeros((2, 2))], ids=["(1,)", "list", "(2, 2)"]
    )
    def test_encode_weight_refuses_a_non_scalar_angle(self, angle):
        message = f"angle must be a single number, got shape {np.shape(angle)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qw.encode_weight(angle)

    def test_state_expectations_closed_form(self, rng):
        for a in rng.uniform(-math.pi, math.pi, 20):
            ez, ey = qw.state_expectations(qw.encode_weight(a))
            assert ez == pytest.approx(math.cos(a), abs=1e-12)
            assert ey == pytest.approx(-math.sin(a), abs=1e-12)

    def test_state_expectations_rejects_two_qubits(self):
        with pytest.raises(ValueError, match="single-qubit"):
            qw.state_expectations(oracle.zero_state(2))

    @settings(max_examples=examples(50), deadline=None)
    @given(a=ANGLES, gamma=st.floats(0.5, 4.0))
    def test_materialized_values_bounded_by_gamma(self, a, gamma):
        store = qw.QuantumWeightStore(np.full((1, 2, 3), a), gamma=gamma)
        values = qw.materialize(store)
        assert np.all(np.abs(values) <= gamma + 1e-12)


class TestRxZ:
    @settings(max_examples=examples(300), deadline=None)
    @given(a=hnp.arrays(float, STORE_SHAPES, elements=ANY_ANGLE, fill=st.nothing()))
    def test_bit_equal_to_the_carrier_readout(self, a):
        """cos(a/2)^2 - sin(a/2)^2 gives the same bits as |c0|^2 - |c1|^2 of
        the carrier amplitudes, in any shape."""
        got = qw._rx_z(a)
        want = oracle._z_expectation(sv._rx_carriers(a))
        assert np.shape(got) == np.shape(want) == a.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestGateByGateOracle:
    """The array readout against the simulator, to within an ulp or so of pi."""

    @pytest.mark.parametrize("gamma", [1.0, math.pi])
    def test_materialize(self, rng, gamma):
        store = qw.QuantumWeightStore(oracle_angles(rng), gamma=gamma)
        want = gamma * np.vectorize(oracle.rx_z)(store.angles)
        assert_allclose(qw.materialize(store), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("gamma", [1.0, math.pi])
    def test_weight_gradient(self, rng, gamma):
        store = qw.QuantumWeightStore(oracle_angles(rng), gamma=gamma)
        cg = rng.normal(size=store.angles.shape)
        ref = np.vectorize(oracle.rx_z)
        inner = SHIFT_COEFFICIENT * (
            ref(store.angles + SHIFT) - ref(store.angles - SHIFT)
        )
        assert_allclose(qw.weight_gradient(store, cg), cg * gamma * inner, rtol=0, atol=1e-15)

    def test_encode_weight_and_readout(self, rng):
        y_basis = oracle.rx(0, math.pi / 2)
        for a in oracle_angles(rng).reshape(-1):
            gates = sv.apply_gate(oracle.zero_state(1), *oracle.rx(0, a))
            carrier = qw.encode_weight(a)
            assert_allclose(carrier.amplitudes, gates.amplitudes, rtol=0, atol=1e-15)
            ez, ey = qw.state_expectations(carrier)
            assert ez == pytest.approx(sv.expectation(gates, 0), rel=0, abs=1e-15)
            want_y = sv.expectation(sv.apply_gate(gates, *y_basis), 0)
            assert ey == pytest.approx(want_y, rel=0, abs=1e-15)


class TestGradient:
    def test_weight_gradient_matches_finite_differences(self, rng):
        store = qw.init_store(rng, 2, math.pi)
        cg = rng.normal(size=store.angles.shape)
        got = qw.weight_gradient(store, cg)
        eps = 1e-6
        want = np.zeros_like(store.angles)
        for idx in np.ndindex(*store.angles.shape):
            plus = np.array(store.angles)
            minus = np.array(store.angles)
            plus[idx] += eps
            minus[idx] -= eps
            vp = qw.materialize(qw.QuantumWeightStore(plus, store.gamma))[idx]
            vm = qw.materialize(qw.QuantumWeightStore(minus, store.gamma))[idx]
            want[idx] = cg[idx] * (vp - vm) / (2 * eps)
        assert_allclose(got, want, atol=1e-7)

    def test_weight_gradient_is_minus_gamma_sine(self, rng):
        store = qw.init_store(rng, 2, math.pi)
        ones = np.ones_like(store.angles)
        assert_allclose(
            qw.weight_gradient(store, ones),
            -math.pi * np.sin(store.angles),
            atol=1e-12,
        )

    def test_one_carrier_pass_is_bit_equal_to_two(self):
        """Both shifted carriers from one array give the bits that evaluating
        the +shift and -shift carriers separately gives."""
        rng = np.random.default_rng(2024)
        for _ in range(200):
            layers, qubits = rng.integers(1, 4, size=2)
            store = qw.QuantumWeightStore(
                rng.uniform(-4, 4, size=(layers, qubits, 3)), gamma=rng.uniform(0.5, 4)
            )
            cg = rng.normal(size=store.angles.shape)
            plus = oracle._z_expectation(sv._rx_carriers(store.angles + SHIFT))
            minus = oracle._z_expectation(sv._rx_carriers(store.angles - SHIFT))
            want = cg * store.gamma * (SHIFT_COEFFICIENT * (plus - minus))
            assert np.array_equal(qw.weight_gradient(store, cg), want)

    @pytest.mark.parametrize("seed", range(4))
    def test_store_step_moves_the_circuit_gamma_squared_sine_squared_as_far(self, seed):
        """At the default settings, a store step moves materialize(store) by
        gamma^2 sin^2(a) times what a circuit step at the same rate moves the
        same parameters, both along the same circuit gradient g.

        The store step moves a by delta = lr * gamma * sin(a) * g, so
        p = gamma * cos(a) moves by -lr * gamma^2 sin^2(a) * g, with a Taylor
        remainder of at most gamma * delta^2 / 2; the circuit step moves p by
        -lr * g.  The quotient's bound is that remainder over lr * |g|, plus
        16 ulps of gamma over lr * |g| for the rounding of the two
        materializations, the angle step and the circuit step.  Entries whose
        circuit gradient is zero up to rounding are skipped: exactly the last
        layer's omega, which commutes with the Pauli-Z readout."""
        config = cli.ExperimentConfig("qfl-quantum")
        lr, gamma = config.learning_rate, config.gamma
        rng = np.random.default_rng(seed)
        store = qw.init_store(rng, config.layers, gamma)
        feats = rng.uniform(0, math.pi, size=(config.batch_size, 2))
        labels = rng.integers(0, 2, size=config.batch_size)
        _, grad = store.loss_grad(
            store.prepare(feats), lambda lg: tk.batch_loss_and_grad(lg, labels)
        )
        g = grad / config.batch_size  # the step local_train takes
        opt = tk.SgdOptimizer(lr)
        params = qw.materialize(store)
        store_moved = qw.materialize(store.step(g, opt)) - params
        circuit_moved = vqc.VqcModel(params).step(g, opt).params - params

        zero = np.abs(g) <= 1e-12 * np.abs(g).max()
        assert np.argwhere(zero).tolist() == [[config.layers - 1, q, 2] for q in range(2)]
        sin2 = np.sin(store.angles[~zero]) ** 2
        step = lr * np.abs(g[~zero])
        want = gamma**2 * sin2
        bound = gamma**3 * sin2 * step / 2 + 16 * np.finfo(float).eps * gamma * (1 + want) / step
        got = store_moved[~zero] / circuit_moved[~zero]
        assert np.all(np.abs(got - want) <= bound), (got, want, bound)

    def test_weight_gradient_validation(self, rng):
        store = qw.init_store(rng, 2, math.pi)
        with pytest.raises(ValueError, match="shape"):
            qw.weight_gradient(store, np.zeros((1, 1, 3)))
        with pytest.raises(ValueError, match="finite"):
            qw.weight_gradient(store, np.full(store.angles.shape, np.nan))


class TestDecode:
    def test_round_trip_principal_branch(self, rng):
        for a in rng.uniform(-math.pi + 1e-6, math.pi, 50):
            ez, ey = qw.state_expectations(qw.encode_weight(a))
            assert qw.decode_angle(ez, ey) == pytest.approx(a, abs=1e-12)

    def test_minus_pi_maps_to_pi(self):
        ez, ey = qw.state_expectations(qw.encode_weight(-math.pi))
        assert qw.decode_angle(ez, ey) == pytest.approx(math.pi)

    def test_reference_pairs(self):
        assert qw.decode_angle(1.0, 0.0) == 0.0
        assert qw.decode_angle(0.0, -1.0) == pytest.approx(math.pi / 2)
        assert qw.decode_angle(-1.0, 0.0) == pytest.approx(math.pi)

    def test_rejects_impure_pair(self):
        with pytest.raises(ValueError, match="unit circle"):
            qw.decode_angle(0.5, 0.5)
        with pytest.raises(ValueError, match="unit circle"):
            qw.decode_angle(0.0, 0.0)

    @pytest.mark.parametrize(
        "ez, ey", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan), (math.inf, 0.0)]
    )
    def test_rejects_non_finite_pair(self, ez, ey):
        # NaN fails every comparison, so the gate must accept only residuals <= tol.
        with pytest.raises(ValueError, match="unit circle"):
            qw.decode_angle(ez, ey)

    def test_accepts_tiny_numerical_drift(self):
        ez = math.cos(0.7) + 1e-9
        ey = -math.sin(0.7)
        assert qw.decode_angle(ez, ey) == pytest.approx(0.7, abs=1e-6)


IN_BRANCH = st.floats(-math.pi, math.pi, exclude_min=True)
BRANCH_EDGES = [math.pi, -math.pi, 0.0, -0.0, math.nextafter(math.pi, math.inf),
                math.nextafter(-math.pi, math.inf), math.nextafter(-math.pi, -math.inf),
                3 * math.pi, -3 * math.pi, 1e300, -1e300, math.nan]


@st.composite
def wrap_arrays(draw):
    """In-branch angles of a store's shapes with up to three entries set to a
    branch edge, its neighbours, a far turn, NaN or any angle up to 3 pi."""
    a = draw(hnp.arrays(float, STORE_SHAPES, elements=IN_BRANCH, fill=st.nothing()))
    if a.size:
        flat = a.reshape(-1)
        for index in draw(st.lists(st.integers(0, a.size - 1), max_size=3)):
            flat[index] = draw(st.one_of(st.sampled_from(BRANCH_EDGES), ANGLES))
    return a


class TestCanonicalAngles:
    def test_in_branch_is_bitwise_identity(self, rng):
        a = rng.uniform(-math.pi + 1e-9, math.pi, size=(2, 2, 3))
        out = qw.canonical_angles(a)
        assert np.all(out == a)
        assert out is a  # the documented alias of an in-branch float64 array

    @settings(max_examples=examples(300), deadline=None)
    @given(a=wrap_arrays())
    def test_bit_equal_to_the_mod_where_form(self, a):
        """The early return for in-branch arrays changes no bit, NaN included."""
        got = qw.canonical_angles(a)
        want = oracle.canonical_angles_reference(a)
        assert got.shape == want.shape == a.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_wraps_out_of_branch(self):
        assert qw.canonical_angles(np.array([3 * math.pi / 2]))[0] == pytest.approx(
            -math.pi / 2
        )
        assert qw.canonical_angles(np.array([-3 * math.pi / 2]))[0] == pytest.approx(
            math.pi / 2
        )

    def test_boundary_convention(self):
        out = qw.canonical_angles(np.array([math.pi, -math.pi]))
        assert out[0] == math.pi
        assert out[1] == pytest.approx(math.pi)

    @settings(max_examples=examples(100), deadline=None)
    @given(a=ANGLES)
    def test_wrapping_preserves_carrier_state(self, a):
        wrapped = float(qw.canonical_angles(np.array([a]))[0])
        assert -math.pi < wrapped <= math.pi + 1e-12
        ez0, ey0 = qw.state_expectations(qw.encode_weight(a))
        ez1, ey1 = qw.state_expectations(qw.encode_weight(wrapped))
        assert ez1 == pytest.approx(ez0, abs=1e-9)
        assert ey1 == pytest.approx(ey0, abs=1e-9)

    def test_matches_decode_branch(self, rng):
        """Wrapped angles land exactly where the carrier-state decoder puts them."""
        for a in rng.uniform(-3 * math.pi, 3 * math.pi, 30):
            wrapped = float(qw.canonical_angles(np.array([a]))[0])
            ez, ey = qw.state_expectations(qw.encode_weight(a))
            assert wrapped == pytest.approx(qw.decode_angle(ez, ey), abs=1e-9)
