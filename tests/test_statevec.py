"""Simulator checks against brute-force linear algebra oracles."""
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfedring import statevec as sv
from tests import oracle
from tests.helpers import examples, random_state

ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False, allow_infinity=False)


def oracle_apply(amps, gate, num_qubits):
    """Apply a ``(matrix, *qubits)`` gate by explicit basis-index bookkeeping,
    independent of the tensor-reshape path under test: each basis state |j>
    sends amplitude matrix[row, col] * amps[j] to the basis state whose gate
    qubits read ``row``, where ``col`` is what they read in j."""
    matrix, *qubits = gate
    k = len(qubits)
    out = np.zeros_like(amps)
    for j in range(2**num_qubits):
        bits = [(j >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        col = sum(bits[q] << (k - 1 - i) for i, q in enumerate(qubits))
        for row in range(2**k):
            new_bits = list(bits)
            for i, q in enumerate(qubits):
                new_bits[q] = (row >> (k - 1 - i)) & 1
            idx = sum(b << (num_qubits - 1 - q) for q, b in enumerate(new_bits))
            out[idx] += matrix[row, col] * amps[j]
    return out


def random_unitary(rng, dim):
    """A Haar-ish random unitary: Q of the QR of a complex Gaussian matrix."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def random_gate(rng, num_qubits):
    kinds = ["RX", "ROT", "CNOT", "H", "X", "Z"]
    if num_qubits < 2:
        kinds.remove("CNOT")
    kind = rng.choice(kinds)
    target = int(rng.integers(num_qubits))
    if kind == "RX":
        return oracle.rx(target, rng.uniform(-np.pi, np.pi))
    if kind == "ROT":
        return oracle.rot(target, *rng.uniform(-np.pi, np.pi, 3))
    if kind == "CNOT":
        control = int(rng.integers(num_qubits))
        while control == target:
            control = int(rng.integers(num_qubits))
        return oracle.cnot(control, target)
    return {"H": oracle.h, "X": oracle.x, "Z": oracle.z}[kind](target)


class TestStateVector:
    def test_zero_state(self):
        s = oracle.zero_state(1)
        assert_allclose(s.amplitudes, [1, 0])
        s3 = oracle.zero_state(3)
        assert s3.amplitudes[0] == 1 and np.count_nonzero(s3.amplitudes) == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            sv.StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            sv.StateVector(2, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            oracle.zero_state(0)
        with pytest.raises(ValueError):
            oracle.zero_state(sv.MAX_QUBITS + 1)

    def test_num_qubits_must_be_an_int(self):
        # True == 1 and 1.0 == 1, but a register has a whole number of qubits.
        for bad in (True, 1.0, "1"):
            message = f"num_qubits must be in [1, {sv.MAX_QUBITS}], got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                sv.StateVector(bad, np.array([1.0, 0.0]))

    def test_amplitudes_frozen(self):
        s = oracle.zero_state(2)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.5

    @pytest.mark.parametrize(
        "bad",
        [complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0),
         complex(-math.inf, 0), complex(0, math.inf), complex(0, -math.inf)],
    )
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            sv.StateVector(1, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="must be finite"):
            sv.StateVector(2, np.array([bad, 0, 0, 0]))

    def test_overflowing_norm_is_not_normalized(self):
        # Finite amplitudes whose squares overflow are a norm error, not a finiteness one.
        for amps in ([1e200, 0], [0, 1e200j], [1e155, 1e155]):
            with pytest.raises(ValueError, match="not normalized"):
                sv.StateVector(1, np.array(amps, dtype=complex))

    def test_norm_tolerance_edge(self):
        with pytest.raises(ValueError, match="not normalized"):
            sv.StateVector(1, np.array([1.0 + 2e-10, 0.0]))
        with pytest.raises(ValueError, match="not normalized"):
            sv.StateVector(1, np.array([0.0, 1j * (1.0 - 2e-10)]))
        assert sv.StateVector(1, np.array([1.0 + 5e-11, 0.0])).num_qubits == 1
        assert sv.StateVector(1, np.array([0.0, 1j * (1.0 - 5e-11)])).num_qubits == 1

    @pytest.mark.parametrize(
        "given",
        [["1", "0"], [b"1", b"0"], np.array(["1", "0"]), np.array([1, 0], dtype=object),
         np.array([1 + 0j, 0j], dtype=object)],
        ids=["str", "bytes", "str-array", "object-int", "object-complex"],
    )
    def test_refuses_non_number_amplitudes(self, given):
        # Text would otherwise be parsed as numbers; named, not cast.
        kind = np.asarray(given).dtype
        message = f"amplitudes must be bool, int, float or complex numbers, got dtype {kind}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sv.StateVector(1, given)

    @pytest.mark.parametrize("amps", [[1 + 0j, 0j], [1.0, 0.0], [1, 0], [True, False]])
    def test_number_amplitudes_pass_bit_equal(self, amps):
        state = sv.StateVector(1, amps)
        assert state.amplitudes.tobytes() == np.array([1, 0], dtype=complex).tobytes()

    def test_tensor_product_is_kron_bitwise(self, rng):
        for na in (1, 2):
            for nb in (1, 2):
                a, b = random_state(rng, na), random_state(rng, nb)
                joint = oracle.tensor_product(a, b).amplitudes
                kron = np.kron(a.amplitudes, b.amplitudes)
                assert np.array_equal(joint.view(float), kron.view(float))

    def test_tensor_product_ordering(self):
        one = sv.apply_gate(oracle.zero_state(1), *oracle.x(0))
        joint = oracle.tensor_product(one, oracle.zero_state(1))
        # first factor occupies the high bit: |1> (x) |0> = |10>
        assert_allclose(joint.amplitudes, [0, 0, 1, 0])


# Two amplitudes, and the error the amplitude rule gives them (None: they pass).
NAN, INF = math.nan, math.inf
QUBIT_CASES = [
    *[(bad, 0j, "must be finite") for bad in (complex(NAN, 0), complex(INF, 0), complex(-INF, 0))],
    *[(0j, bad, "must be finite") for bad in (complex(0, NAN), complex(0, INF), complex(0, -INF))],
    (complex(INF, 0), complex(NAN, 0), "must be finite"),
    (complex(1 + 2e-10, 0), 0j, "not normalized"),
    (0j, complex(0, 1 - 2e-10), "not normalized"),
    (complex(1 + 5e-11, 0), 0j, None),
    (0j, complex(0, 1 - 5e-11), None),
    # Finite amplitudes whose squares overflow: a norm error, not a finiteness one.
    (complex(1e200, 0), 0j, "not normalized"),
    (0j, complex(0, 1e200), "not normalized"),
    (complex(1e155, 0), complex(1e155, 0), "not normalized"),
    (complex(0.6, -0.0), complex(-0.0, 0.8), None),
]


class TestQubit:
    """``_qubit`` is StateVector(1, ...) on two Python complex amplitudes."""

    @pytest.mark.parametrize("c0, c1, error", QUBIT_CASES)
    def test_refuses_and_passes_as_the_constructor(self, c0, c1, error):
        def outcome(build):
            try:
                state = build()
            except Exception as exc:  # noqa: BLE001  (the type and text are compared)
                return type(exc), str(exc)
            assert type(state) is sv.StateVector and state.num_qubits == 1
            assert not state.amplitudes.flags.writeable
            return state.amplitudes.dtype, state.amplitudes.tobytes()

        got = outcome(lambda: sv._qubit(c0, c1))
        assert got == outcome(lambda: sv.StateVector(1, [c0, c1]))
        if error is None:
            assert got[0] == np.dtype(complex)
        else:
            assert got[0] is ValueError and error in got[1]


class TestGates:
    def test_gate_matrices_unitary(self, rng):
        for _ in range(50):
            m = random_gate(rng, 3)[0]
            assert_allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=1e-12)

    def test_rx_matrix_values(self):
        m, target = oracle.rx(0, math.pi)
        assert_allclose(m, [[0, -1j], [-1j, 0]], atol=1e-15)
        assert target == 0

    def test_rot_is_rz_ry_rz(self):
        phi, theta, omega = 0.3, -1.1, 2.2
        rz = lambda a: np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])
        ry = np.array(
            [[math.cos(theta / 2), -math.sin(theta / 2)], [math.sin(theta / 2), math.cos(theta / 2)]]
        )
        expected = rz(omega) @ ry @ rz(phi)
        assert_allclose(oracle.rot(0, phi, theta, omega)[0], expected, atol=1e-15)

    @pytest.mark.parametrize(
        "matrix, qubits, message",
        [
            (np.eye(2), (-1,), "gate qubit -1 out of range for 3-qubit state"),
            (np.eye(2), (3,), "gate qubit 3 out of range for 3-qubit state"),
            (np.eye(4), (1, 1), "gate targets must be distinct, got (1, 1)"),
            (np.eye(2), (), "a gate acts on at least one qubit"),
            (np.eye(4), (0,), "a 1-qubit gate takes a (2, 2) matrix, got shape (4, 4)"),
            (np.eye(2), (0, 1), "a 2-qubit gate takes a (4, 4) matrix, got shape (2, 2)"),
            (np.eye(4)[:2], (0,), "a 1-qubit gate takes a (2, 2) matrix, got shape (2, 4)"),
        ],
        ids=["below", "above", "repeated", "none", "too-few-qubits", "too-many-qubits",
             "not-square"],
    )
    def test_apply_refuses_a_bad_gate(self, matrix, qubits, message):
        with pytest.raises(ValueError) as refused:
            sv.apply_gate(oracle.zero_state(3), matrix, *qubits)
        assert str(refused.value) == message

    def test_apply_matches_oracle(self, rng):
        for num_qubits in (1, 2, 3, 4):
            state = random_state(rng, num_qubits)
            for _ in range(20):
                g = random_gate(rng, num_qubits)
                got = sv.apply_gate(state, *g)
                want = oracle_apply(state.amplitudes, g, num_qubits)
                assert_allclose(got.amplitudes, want, atol=1e-12)
                state = got

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_any_width_matches_oracle(self, rng, num_qubits):
        # Every ordered choice of qubits, so the high bit of the matrix index
        # lands on each qubit and the moved axes come in every order.
        state = random_state(rng, num_qubits)
        for k in range(1, num_qubits + 1):
            for qubits in itertools.permutations(range(num_qubits), k):
                gate = (random_unitary(rng, 2**k), *qubits)
                got = sv.apply_gate(state, *gate).amplitudes
                assert_allclose(got, oracle_apply(state.amplitudes, gate, num_qubits), atol=1e-12)

    def test_one_qubit_gates_keep_their_bits(self, rng):
        # A one-qubit gate is the moved array times U.T, the product the
        # gate-built references' pinned bits were made with.
        state = random_state(rng, 3)
        for q in range(3):
            u = random_unitary(rng, 2)
            t = np.moveaxis(state.amplitudes.reshape(2, 2, 2), q, -1) @ u.T
            want = np.moveaxis(t, -1, q).reshape(-1)
            assert sv.apply_gate(state, u, q).amplitudes.tobytes() == want.tobytes()

    def test_apply_leaves_input_untouched(self, rng):
        state = random_state(rng, 2)
        before = state.amplitudes.copy()
        sv.apply_gate(state, *oracle.h(0))
        assert_allclose(state.amplitudes, before)

    def test_bad_targets_rejected(self):
        s = oracle.zero_state(2)
        with pytest.raises(ValueError, match="out of range"):
            sv.apply_gate(s, *oracle.h(2))
        with pytest.raises(ValueError, match="out of range"):
            sv.apply_gate(s, *oracle.cnot(3, 0))

    @given(a=ANGLES, b=ANGLES)
    @settings(max_examples=examples(40), deadline=None)
    def test_rx_composition(self, a, b):
        s = sv.apply_gate(sv.apply_gate(oracle.zero_state(1), *oracle.rx(0, a)), *oracle.rx(0, b))
        direct = sv.apply_gate(oracle.zero_state(1), *oracle.rx(0, a + b))
        assert_allclose(s.amplitudes, direct.amplitudes, atol=1e-9)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
    @settings(max_examples=examples(30), deadline=None)
    def test_norm_preserved(self, seed, n):
        rng = np.random.default_rng(seed)
        state = random_state(rng, n)
        for _ in range(10):
            state = sv.apply_gate(state, *(random_gate(rng, n) if n > 1 else oracle.h(0)))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10

    def test_h_self_inverse(self, rng):
        state = random_state(rng, 3)
        back = sv.apply_gate(sv.apply_gate(state, *oracle.h(1)), *oracle.h(1))
        assert oracle.fidelity(state, back) == pytest.approx(1.0, abs=1e-12)


class TestExpectation:
    def oracle(self, state, target):
        total = 0.0
        n = state.num_qubits
        for j, amp in enumerate(state.amplitudes):
            bit = (j >> (n - 1 - target)) & 1
            total += (1 - 2 * bit) * abs(amp) ** 2
        return total

    def test_matches_oracle(self, rng):
        for n in (1, 2, 3):
            state = random_state(rng, n)
            for q in range(n):
                got = sv.expectation(state, q)
                assert got == pytest.approx(self.oracle(state, q), abs=1e-12)

    def test_basis_states(self):
        assert sv.expectation(oracle.zero_state(2), 0) == 1.0
        flipped = sv.apply_gate(oracle.zero_state(2), *oracle.x(1))
        assert sv.expectation(flipped, 1) == -1.0
        assert sv.expectation(flipped, 0) == 1.0

    def test_rx_gives_cos(self):
        for a in np.linspace(-3, 3, 13):
            s = sv.apply_gate(oracle.zero_state(1), *oracle.rx(0, a))
            assert sv.expectation(s, 0) == pytest.approx(math.cos(a), abs=1e-12)

    def test_observable_validation(self):
        for target in (1, -1):
            with pytest.raises(ValueError, match="observable target qubit .* out of range"):
                sv.expectation(oracle.zero_state(1), target)


def oracle_collapse(amps, num_qubits, targets, outcomes):
    """Joint probability and post-state of forcing ``outcomes`` on ``targets``,
    by enumerating the basis indices whose target bits match."""
    match = [
        all((j >> (num_qubits - 1 - q)) & 1 == b for q, b in zip(targets, outcomes))
        for j in range(2**num_qubits)
    ]
    joint = sum(abs(a) ** 2 for a, keep in zip(amps, match) if keep)
    post = np.array([a / math.sqrt(joint) if keep else 0 for a, keep in zip(amps, match)])
    return joint, post


def ordered_target_lists(num_qubits):
    for k in range(num_qubits + 1):
        yield from itertools.permutations(range(num_qubits), k)


class TestMeasurement:
    def test_deterministic_on_basis_state(self, rng):
        outcomes, post = sv.measure_qubits(oracle.zero_state(3), [0, 1, 2], rng)
        assert outcomes == [0, 0, 0]
        assert_allclose(post.amplitudes, oracle.zero_state(3).amplitudes)

    def test_never_samples_zero_probability(self):
        # rng.random() == p1 would pick outcome 0 anyway; a zero-amplitude
        # branch must never appear no matter the draw
        state = sv.apply_gate(oracle.zero_state(1), *oracle.x(0))
        for seed in range(50):
            outcomes, _ = sv.measure_qubits(state, [0], np.random.default_rng(seed))
            assert outcomes == [1]

    def test_born_frequencies(self):
        # RX(2*pi/3)|0>: p(0) = cos^2(pi/3) = 1/4
        state = sv.apply_gate(oracle.zero_state(1), *oracle.rx(0, 2 * math.pi / 3))
        rng = np.random.default_rng(99)
        zeros = sum(
            sv.measure_qubits(state, [0], rng)[0][0] == 0 for _ in range(10_000)
        )
        assert zeros / 10_000 == pytest.approx(0.25, abs=0.02)

    def test_post_state_collapsed(self, rng):
        state = sv.apply_gate(oracle.zero_state(2), *oracle.h(0))
        outcomes, post = sv.measure_qubits(state, [0], rng)
        # measuring the control of a superposition pins the bit
        assert sv.expectation(post, 0) == pytest.approx(1.0 - 2.0 * outcomes[0])

    def test_duplicate_targets_rejected(self, rng):
        with pytest.raises(ValueError, match="distinct"):
            sv.measure_qubits(oracle.zero_state(2), [0, 0], rng)

    def test_collapse_probability_product(self, rng):
        state = random_state(rng, 3)
        prob, post = oracle.collapse_qubits(state, [0, 2], [1, 0])
        marginal = sum(
            abs(a) ** 2
            for j, a in enumerate(state.amplitudes)
            if (j >> 2) & 1 == 1 and j & 1 == 0
        )
        assert prob == pytest.approx(marginal, abs=1e-12)
        assert abs(np.linalg.norm(post.amplitudes) - 1.0) < 1e-10

    def test_collapse_rejects_impossible_branch(self):
        with pytest.raises(ValueError, match="probability"):
            oracle.collapse_qubits(oracle.zero_state(1), [0], [1])

    def test_measurement_reproducible(self):
        state = sv.apply_gate(oracle.zero_state(2), *oracle.h(0))
        state = sv.apply_gate(state, *oracle.h(1))
        a = [sv.measure_qubits(state, [0, 1], np.random.default_rng(5))[0] for _ in range(20)]
        b = [sv.measure_qubits(state, [0, 1], np.random.default_rng(5))[0] for _ in range(20)]
        assert a == b

    def test_certain_bits_take_no_draw(self):
        # Basis states never reach the rng: every bit is certain.
        for state in (oracle.zero_state(3), sv.apply_gate(oracle.zero_state(2), *oracle.x(1))):
            rng = np.random.default_rng(8)
            before = rng.bit_generator.state
            sv.measure_qubits(state, list(range(state.num_qubits)), rng)
            assert rng.bit_generator.state == before

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_kernel_matches_enumerated_oracle(self, rng, num_qubits):
        for targets in ordered_target_lists(num_qubits):
            state = random_state(rng, num_qubits)
            bits, measured = sv.measure_qubits(state, list(targets), rng)
            joint, post = oracle_collapse(state.amplitudes, num_qubits, targets, bits)
            assert_allclose(measured.amplitudes, post, rtol=0, atol=1e-12)
            # Forcing the drawn bits replays the same arithmetic exactly.
            prob, forced = oracle.collapse_qubits(state, list(targets), bits)
            assert np.array_equal(forced.amplitudes, measured.amplitudes)
            assert prob == pytest.approx(joint, rel=0, abs=1e-12)
            for outcome in itertools.product((0, 1), repeat=len(targets)):
                joint, post = oracle_collapse(state.amplitudes, num_qubits, targets, outcome)
                prob, forced = oracle.collapse_qubits(state, list(targets), list(outcome))
                assert prob == pytest.approx(joint, rel=0, abs=1e-12)
                assert_allclose(forced.amplitudes, post, rtol=0, atol=1e-12)

    def test_collapse_validation(self):
        state = oracle.zero_state(2)
        with pytest.raises(ValueError, match="pair up"):
            oracle.collapse_qubits(state, [0, 1], [0])
        with pytest.raises(ValueError, match="0 or 1"):
            oracle.collapse_qubits(state, [0], [2])
        with pytest.raises(ValueError, match="distinct"):
            oracle.collapse_qubits(state, [1, 1], [0, 0])
        with pytest.raises(ValueError, match="collapse qubit 2 out of range"):
            oracle.collapse_qubits(state, [2], [0])
