"""Teleportation checks: exact recovery on every measurement branch, uniform
branch statistics, whole-store round trips."""
import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfedring import qweights as qw
from qfedring import statevec as sv
from qfedring import teleport as tp
from qfedring import trainkit as tk
from qfedring import vqc
from tests import oracle
from tests.conftest import NOT_GENERATORS, generator_id, random_state

OUTCOMES = [(0, 0), (0, 1), (1, 0), (1, 1)]


def reference_register(message):
    """Sender's side gate by gate: message (x) Bell pair, CNOT(0 -> 1), H(0)."""
    reg = oracle.tensor_product(message, oracle.bell_pair())
    reg = sv.apply_gate(reg, *oracle.cnot(0, 1))
    return sv.apply_gate(reg, *oracle.h(0))


def reference_receiver(reg, outcome):
    """Receiver's side gate by gate: collapse, then X and Z fix-ups on qubit 2."""
    m1, m2 = outcome
    _, reg = oracle.collapse_qubits(reg, [0, 1], [m1, m2])
    if m2:
        reg = sv.apply_gate(reg, *oracle.x(2))
    if m1:
        reg = sv.apply_gate(reg, *oracle.z(2))
    return reg.amplitudes.reshape(2, 2, 2)[m1, m2, :]


def numpy_register(message):
    """The register in numpy: outer product, CNOT index map, one 2x4 matmul."""
    joint = np.multiply.outer(message.amplitudes, np.array([tp._B, 0j, 0j, tp._B])).ravel()
    return (sv._H @ joint[sv._cnot_image(3, ((0, 1),))].reshape(2, 4)).ravel()


def numpy_readout(amps):
    """(<Z>, <Y>) through the array readout and the RX(pi/2) matmul."""
    y_basis = amps @ sv._rx_matrix(math.pi / 2).T
    return float(oracle._z_expectation(amps)), float(oracle._z_expectation(y_basis))


def replay_channel(message, pick):
    """One channel use on numpy arrays: register, measurement, fix-ups, readout."""
    (m1, m2), _, amps = sv._born_measure(numpy_register(message).tolist(), 3, (0, 1), pick)
    base = 4 * m1 + 2 * m2
    zero, one = amps[base], amps[base + 1]
    if m2:
        zero, one = one, zero
    if m1:
        one = -one
    recovered = np.array([zero, one])
    return (m1, m2), recovered, numpy_readout(recovered)


def recording(pick, seen):
    """``pick``, appending each (qubit, p1) it is handed to ``seen``."""

    def recorded(q, p1):
        seen.append((q, p1))
        return pick(q, p1)

    return recorded


def forced_with_probabilities(message, outcome, monkeypatch):
    """``teleport_state`` forced to ``outcome``, and the (qubit, p1) pairs it
    handed ``_forcing_rule``'s pick, in call order."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(
            tp, "_forcing_rule", lambda targets, outcomes: recording(
                sv._forcing_rule(targets, outcomes), seen
            )
        )
        record = tp.teleport_state(message, force_outcome=outcome)
    return record, seen


def replay_weights(store, rng):
    """``teleport_weights`` one weight at a time through the numpy forms."""
    out = np.empty_like(store.angles)
    for slot in np.ndindex(store.angles.shape):
        message = qw.encode_weight(float(store.angles[slot]))
        _, _, readout = replay_channel(message, lambda q, p1: sv._sample(rng, p1))
        out[slot] = qw.decode_angle(*readout)
    return out


def float_bits(values):
    return np.array(values, dtype=float).tobytes()


def oracle_messages(rng):
    basis = [oracle.zero_state(1), sv.apply_gate(oracle.zero_state(1), *oracle.x(0))]
    carriers = [qw.encode_weight(a) for a in (0.0, math.pi, -math.pi, 2.5)]
    return basis + carriers + [random_state(rng, 1) for _ in range(20)]


class TestBellPair:
    def test_amplitudes(self):
        s = oracle.bell_pair()
        r = 1 / math.sqrt(2)
        assert_allclose(s.amplitudes, [r, 0, 0, r], atol=1e-15)

    def test_channel_constant_is_bell_pair_bit_for_bit(self):
        # _B is the pair's |00> and |11> amplitude bit for bit; |01> and |10>
        # are zero (their sign depends on the BLAS kernel and reaches no product).
        assert type(tp._B) is complex
        pair = oracle.bell_pair().amplitudes
        assert np.array([tp._B, tp._B]).tobytes() == pair[[0, 3]].tobytes()
        assert np.array_equal(pair[[1, 2]], [0, 0])


class TestTeleportState:
    def test_all_branches_recover_exactly(self, rng):
        for _ in range(25):
            message = random_state(rng, 1)
            for outcome in OUTCOMES:
                record = tp.teleport_state(message, force_outcome=outcome)
                assert record.bell_outcome == outcome
                assert record.fidelity == pytest.approx(1.0, abs=1e-12)
                # Fidelity ignores global phase; amplitudes should match up to one.
                amps = record.recovered_state.amplitudes
                ref = message.amplitudes
                j = int(np.argmax(np.abs(ref)))
                phase = amps[j] / ref[j]
                assert_allclose(amps, phase * ref, atol=1e-12)
                assert abs(abs(phase) - 1) < 1e-12

    def test_forced_branches_match_gate_by_gate(self, rng):
        for message in oracle_messages(rng):
            reg = reference_register(message)
            for outcome in OUTCOMES:
                record = tp.teleport_state(message, force_outcome=outcome)
                want = reference_receiver(reg, outcome)
                assert_allclose(record.recovered_state.amplitudes, want, rtol=0, atol=1e-15)
                assert record.fidelity == pytest.approx(
                    oracle.fidelity(message, sv.StateVector(1, want)), rel=0, abs=1e-15
                )

    def test_sampled_outcome_matches_gate_by_gate(self, rng):
        # Same seed, same register: measure_qubits must draw the same bits.
        for seed, message in enumerate(oracle_messages(rng)):
            record = tp.teleport_state(message, rng=np.random.default_rng(seed))
            reg = reference_register(message)
            bits, _ = sv.measure_qubits(reg, [0, 1], np.random.default_rng(seed))
            assert record.bell_outcome == tuple(bits)
            want = reference_receiver(reg, record.bell_outcome)
            assert_allclose(record.recovered_state.amplitudes, want, rtol=0, atol=1e-15)

    def test_sampled_outcomes_recover(self, rng):
        for _ in range(20):
            message = random_state(rng, 1)
            record = tp.teleport_state(message, rng=rng)
            assert record.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_outcome_frequencies_uniform(self, rng):
        message = sv.apply_gate(oracle.zero_state(1), *oracle.rx(0, 1.1))
        counts = {o: 0 for o in OUTCOMES}
        trials = 4000
        for _ in range(trials):
            counts[tp.teleport_state(message, rng=rng).bell_outcome] += 1
        for o in OUTCOMES:
            assert counts[o] / trials == pytest.approx(0.25, abs=0.03)

    def test_requires_single_qubit(self, rng):
        with pytest.raises(ValueError, match="one qubit"):
            tp.teleport_state(oracle.zero_state(2), rng=rng)

    def test_requires_rng_or_outcome(self):
        with pytest.raises(ValueError, match="rng"):
            tp.teleport_state(oracle.zero_state(1))

    @pytest.mark.parametrize("bit", [True, False, 1.0, 0.0, "1", None])
    def test_refuses_a_forced_bit_that_is_not_an_int(self, bit):
        with pytest.raises(ValueError) as refused:
            tp.teleport_state(qw.encode_weight(0.3), force_outcome=(bit, 0))
        assert str(refused.value) == f"outcome bits must be 0 or 1, got {bit!r}"

    @pytest.mark.parametrize("bit", [0, 1, np.int64(1)])
    def test_records_a_forced_int_bit_as_an_int(self, bit):
        record = tp.teleport_state(qw.encode_weight(0.3), force_outcome=(bit, 0))
        assert record.bell_outcome == (bit, 0)
        assert type(record.bell_outcome[0]) is int

    def test_basis_state_roundtrip(self, rng):
        record = tp.teleport_state(oracle.zero_state(1), rng=rng)
        assert record.fidelity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_sampled_call_takes_exactly_two_draws(self, seed):
        # Each Bell bit is near 1/2 for any message, so both are drawn.
        message = qw.encode_weight(0.4 * seed - 1.3)
        channel = np.random.default_rng(seed)
        tp.teleport_state(message, rng=channel)
        twin = np.random.default_rng(seed)
        twin.random()
        twin.random()
        assert channel.bit_generator.state == twin.bit_generator.state

    def test_forced_call_takes_no_draw(self):
        channel = np.random.default_rng(3)
        before = channel.bit_generator.state
        tp.teleport_state(qw.encode_weight(0.8), rng=channel, force_outcome=(1, 0))
        assert channel.bit_generator.state == before

    def test_forced_call_needs_no_rng(self, monkeypatch):
        # A forced call never reaches the generator rule or a draw, so it
        # gives the same record with no rng as with one.
        monkeypatch.setattr(tp, "_sample", lambda channel, p1: pytest.fail("a forced call drew"))
        message = qw.encode_weight(0.8)
        bare = tp.teleport_state(message, force_outcome=(1, 0))
        given = tp.teleport_state(message, rng=np.random.default_rng(3), force_outcome=(1, 0))
        assert bare.bell_outcome == given.bell_outcome == (1, 0)
        amps = [r.recovered_state.amplitudes.tobytes() for r in (bare, given)]
        assert amps[0] == amps[1]

    def test_deterministic_per_seed(self):
        message = sv.apply_gate(oracle.zero_state(1), *oracle.rx(0, 0.9))
        a = tp.teleport_state(message, rng=np.random.default_rng(17))
        b = tp.teleport_state(message, rng=np.random.default_rng(17))
        assert a.bell_outcome == b.bell_outcome
        assert np.array_equal(a.recovered_state.amplitudes, b.recovered_state.amplitudes)


class TestScalarChannelIsBitEqual:
    """The channel on Python scalars against its numpy form, every bit,
    signed zeros included (angle 0 leaves zeros in the register)."""

    def messages(self, rng):
        edges = np.array([0.0, -0.0, math.pi, -math.pi, math.pi / 2, 1e-300])
        carriers = [sv.StateVector(1, c) for c in sv._rx_carriers(edges)]
        # Every sign of zero in either part of either amplitude: a sum of two
        # -0.0 products is -0.0 unless it starts from 0j, as the matmul's does.
        parts = [
            complex(*p)
            for size in (0.6, 0.8)
            for p in itertools.product((size, -size), (0.0, -0.0))
        ]
        parts += [complex(p.imag, p.real) for p in parts]
        signed_zeros = [
            sv.StateVector(1, [c0, c1])
            for c0, c1 in itertools.product(parts, parts)
            if abs(abs(c0) ** 2 + abs(c1) ** 2 - 1) < 1e-12
        ]
        return oracle_messages(rng) + carriers + signed_zeros

    def test_register_matches_numpy_on_every_branch(self, rng, monkeypatch):
        # The register itself is never built whole, so its bits are read
        # through what the measurement sees: the two probabilities handed to
        # the pick, the outcome bits and the recovered amplitudes.
        for message in self.messages(rng):
            for outcome in OUTCOMES:
                record, seen = forced_with_probabilities(message, outcome, monkeypatch)
                want = []
                pick = recording(sv._forcing_rule((0, 1), outcome), want)
                bits, recovered, readout = replay_channel(message, pick)
                assert [q for q, _ in seen] == [0, 1]
                assert float_bits([p1 for _, p1 in seen]) == float_bits([p1 for _, p1 in want])
                assert record.bell_outcome == tuple(bits)
                assert record.recovered_state.amplitudes.tobytes() == recovered.tobytes()
                assert float_bits(qw.state_expectations(record.recovered_state)) == float_bits(
                    readout
                )

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_store_matches_per_weight_replay(self, layers, seed):
        gen = np.random.default_rng(seed)
        angles = gen.uniform(-math.pi, math.pi, size=(layers, 2, 3))
        angles.reshape(-1)[: 2 * layers] = [0.0, math.pi] * layers
        store = qw.QuantumWeightStore(angles, math.pi)
        channel, twin = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
        moved = tp.teleport_weights(store, channel)
        assert moved.angles.tobytes() == replay_weights(store, twin).tobytes()
        assert channel.bit_generator.state == twin.bit_generator.state


class TestTeleportWeights:
    def test_round_trip_preserves_angles(self, rng):
        store = qw.init_store(rng, 2, math.pi)
        moved = tp.teleport_weights(store, rng)
        assert_allclose(moved.angles, store.angles, atol=1e-9)
        assert moved.gamma == store.gamma

    def test_round_trip_outside_init_window(self, rng):
        angles = rng.uniform(-math.pi + 1e-3, math.pi - 1e-3, size=(2, 2, 3))
        store = qw.QuantumWeightStore(angles, math.pi)
        moved = tp.teleport_weights(store, rng)
        assert_allclose(moved.angles, angles, atol=1e-9)

    def test_materialized_values_survive_transfer(self, rng):
        store = qw.init_store(rng, 2, math.pi)
        moved = tp.teleport_weights(store, rng)
        assert_allclose(qw.materialize(moved), qw.materialize(store), atol=1e-9)

    def test_zero_angle_store_is_nearly_exact(self, rng):
        # A zero angle encodes |0>, whose readout is (1, 0) up to the channel's
        # 1/sqrt(2) arithmetic, so recovery error stays at the last-bit level.
        store = qw.QuantumWeightStore(np.zeros((1, 2, 3)), math.pi)
        moved = tp.teleport_weights(store, rng)
        assert_allclose(moved.angles, store.angles, atol=1e-13)

    def test_one_channel_use_per_weight(self, rng, monkeypatch):
        store = qw.init_store(rng, num_layers=1, gamma=math.pi)  # shape (1, 2, 3): six weights
        calls = {"n": 0}
        real = tp.teleport_state

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(tp, "teleport_state", counting)
        tp.teleport_weights(store, rng)
        assert calls["n"] == store.angles.size == 6

    def test_two_channel_draws_per_weight(self, rng):
        store = qw.init_store(rng, num_layers=3, gamma=math.pi)  # 18 weights
        channel = np.random.default_rng(99)
        tp.teleport_weights(store, channel)
        twin = np.random.default_rng(99)
        twin.random(2 * store.angles.size)
        assert channel.random() == twin.random()

    def test_store_transfer_deterministic_per_seed(self, rng):
        store = qw.init_store(rng, 2, math.pi)
        a = tp.teleport_weights(store, np.random.default_rng(23))
        b = tp.teleport_weights(store, np.random.default_rng(23))
        assert np.array_equal(a.angles, b.angles)

    def test_transfer_error_names_weight(self, rng, monkeypatch):
        store = qw.init_store(rng, 2, math.pi)
        calls = {"n": 0}
        real = tp.state_expectations

        def corrupt(state):
            calls["n"] += 1
            if calls["n"] == 5:  # fifth weight in (layer, qubit, k) order
                return 0.3, 0.3
            return real(state)

        monkeypatch.setattr(tp, "state_expectations", corrupt)
        with pytest.raises(tp.TransferError) as excinfo:
            tp.teleport_weights(store, rng)
        assert excinfo.value.weight_index == (0, 1, 1)
        assert "layer=0" in str(excinfo.value)

    @pytest.mark.parametrize("slot", [0, 4, 11])
    def test_channel_failure_names_its_weight(self, rng, monkeypatch, slot):
        store = qw.init_store(rng, 2, math.pi)  # shape (2, 2, 3)
        calls = {"n": 0}
        real = tp.teleport_state

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == slot + 1:
                raise ValueError("register lost its norm")
            return real(*args, **kwargs)

        monkeypatch.setattr(tp, "teleport_state", flaky)
        with pytest.raises(tp.TransferError, match="register lost its norm") as excinfo:
            tp.teleport_weights(store, rng)
        want = tuple(int(i) for i in np.unravel_index(slot, store.angles.shape))
        assert excinfo.value.weight_index == want
        assert all(type(i) is int for i in excinfo.value.weight_index)
        assert "(layer={}, qubit={}, k={})".format(*want) in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_hand_off_keeps_gamma_and_checks_angles(self, rng, monkeypatch):
        # The moved store comes from the constructor, as a step's does.
        store = qw.init_store(rng, 2, math.pi * (1 + 2**-52))
        moved = tp.teleport_weights(store, rng)
        assert type(moved) is qw.QuantumWeightStore
        assert moved.gamma is store.gamma
        assert not moved.angles.flags.writeable
        monkeypatch.setattr(tp, "decode_angle", lambda expect_z, expect_y: math.nan)
        with pytest.raises(ValueError, match="angles must be finite"):
            tp.teleport_weights(store, rng)

    @pytest.mark.parametrize("bad", NOT_GENERATORS, ids=generator_id)
    def test_refuses_a_non_generator_before_any_carrier_or_draw(self, rng, monkeypatch, bad):
        # A bad rng is the caller's fault, not a weight's: a ValueError naming
        # it, not a TransferError, and no carrier is built or draw made first.
        calls = []
        monkeypatch.setattr(tp, "_rx_carriers", lambda angles: calls.append("carriers"))
        monkeypatch.setattr(tp, "_sample", lambda channel, p1: calls.append("draw"))
        with pytest.raises(ValueError, match="^rng must be a numpy Generator") as excinfo:
            tp.teleport_weights(qw.init_store(rng, 2, math.pi), bad)
        assert type(excinfo.value) is ValueError
        assert calls == []

    @pytest.mark.parametrize("kind", ["mlp", "circuit"])
    def test_refuses_a_model_that_is_not_a_store_before_any_carrier_or_draw(
            self, rng, monkeypatch, kind):
        # Only a store holds its weights as angles; another kind is named in
        # a TypeError, as trainkit.check_readout names it, before any work.
        model = tk.init_mlp(rng) if kind == "mlp" else vqc.init_model(rng, 2)
        channel = np.random.default_rng(5)
        before = channel.bit_generator.state
        calls = []
        monkeypatch.setattr(tp, "_rx_carriers", lambda angles: calls.append("carriers"))
        want = f"^teleport_weights moves a QuantumWeightStore, got {type(model).__name__}$"
        with pytest.raises(TypeError, match=want):
            tp.teleport_weights(model, channel)
        assert calls == []
        assert channel.bit_generator.state == before

    def test_transfer_error_is_runtime_error(self):
        assert issubclass(tp.TransferError, RuntimeError)
        err = tp.TransferError("boom", weight_index=(1, 0, 2))
        assert err.weight_index == (1, 0, 2)

    def test_transfer_error_survives_pickle_and_copy(self):
        # weight_index has no default, so a round trip must hand it back.
        err = tp.TransferError("weight (layer=1, qubit=0, k=2) failed", (1, 0, 2))
        for back in (pickle.loads(pickle.dumps(err)), copy.copy(err)):
            assert type(back) is tp.TransferError
            assert str(back) == "weight (layer=1, qubit=0, k=2) failed"
            assert back.weight_index == (1, 0, 2)
