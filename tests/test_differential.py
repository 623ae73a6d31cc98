"""Whole training runs against an oracle replay.

``local_train`` and ``run_ring`` run the batched paths: the circuit engine,
the vectorized loss and the MLP's batch gradient.  Here the same runs are
replayed from the single-sample references in ``tests/oracle.py`` instead:
the gate-by-gate ``forward``/``gradient``, ``loss_and_grad`` and
``mlp_forward_backward`` per row, ``SgdOptimizer.step``, a stored weight's
<Z> read gate by gate (``rx_z``), and the same client and channel rng
streams.  Parameters and losses must agree
to 1e-12 and every rng must end in the same state.

The shapes are drawn small (the oracle simulates every shifted circuit of
every row gate by gate), with explicit examples for batch size 1, a short
last batch, three layers, four clients and the teleport transport.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfedring import fedring as fr
from qfedring import qweights as qw
from qfedring import trainkit as tk
from qfedring import vqc
from qfedring.teleport import teleport_weights
from tests import oracle
from tests.helpers import examples

TOL = 1e-12
KINDS = ("mlp", "circuit", "store")


def _z_all(angles: np.ndarray) -> np.ndarray:
    return np.array([oracle.rx_z(a) for a in angles.reshape(-1)]).reshape(angles.shape)


def _held(kind: str, model) -> np.ndarray:
    """The values a model holds and SGD moves, as one array."""
    return model.angles if kind == "store" else model.params


def _circuit_params(kind: str, held: np.ndarray, gamma: float) -> np.ndarray:
    return gamma * _z_all(held) if kind == "store" else held


def _oracle_logits(kind: str, held: np.ndarray, gamma: float, x: np.ndarray) -> np.ndarray:
    if kind == "mlp":
        w1, b1, w2, b2 = oracle.mlp_arrays(held)
        return np.tanh(x @ w1 + b1) @ w2 + b2
    return oracle.forward(vqc.VqcModel(_circuit_params(kind, held, gamma)), x)


def _oracle_step(kind, held, gamma, feats, labels, opt):
    """One mini-batch step from per-row oracles: (mean loss, new held values)."""
    losses, grads = [], []
    circuit = None if kind == "mlp" else vqc.VqcModel(_circuit_params(kind, held, gamma))
    for x, y in zip(feats, labels):
        if kind == "mlp":
            loss, grad = oracle.mlp_forward_backward(held, x, int(y))
        else:
            loss, upstream = oracle.loss_and_grad(oracle.forward(circuit, x), int(y))
            grad = oracle.gradient(circuit, x, upstream)
        losses.append(loss)
        grads.append(grad)
    grad = np.sum(grads, axis=0) / len(labels)
    if kind == "store":
        shifted = _z_all(held + vqc.SHIFT) - _z_all(held - vqc.SHIFT)
        grad = grad * gamma * (vqc.SHIFT_COEFFICIENT * shifted)
        return float(np.mean(losses)), qw.canonical_angles(opt.step(held, grad))
    return float(np.mean(losses)), opt.step(held, grad)


def _oracle_local(kind, held, gamma, feats, labels, rng, opt, epochs, batch_size):
    losses = []
    for _ in range(epochs):
        order = rng.permutation(labels.shape[0])
        for start in range(0, labels.shape[0], batch_size):
            idx = order[start : start + batch_size]
            loss, held = _oracle_step(kind, held, gamma, feats[idx], labels[idx], opt)
            losses.append(loss)
    return losses, held


def _setup(kind, layers, num_rows, seed):
    gen = np.random.default_rng(seed)
    model = {
        "mlp": lambda: tk.init_mlp(gen),
        "circuit": lambda: vqc.init_model(gen, num_layers=layers),
        "store": lambda: qw.init_store(gen, num_layers=layers, gamma=math.pi),
    }[kind]()
    feats = gen.uniform(0.0, math.pi, size=(num_rows + 5, 2))
    labels = gen.integers(0, 2, size=num_rows + 5)
    return model, feats[:num_rows], labels[:num_rows], feats[num_rows:], labels[num_rows:]


SHAPES = dict(
    kind=st.sampled_from(KINDS),
    layers=st.integers(1, 3),
    epochs=st.integers(1, 2),
    batch_size=st.integers(1, 4),
    learning_rate=st.sampled_from([0.02, 0.05]),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=examples(8), deadline=None)
@given(num_rows=st.integers(1, 5), **SHAPES)
@example(kind="circuit", layers=3, epochs=2, batch_size=2, learning_rate=0.05, seed=1, num_rows=5)
@example(kind="store", layers=2, epochs=1, batch_size=1, learning_rate=0.05, seed=2, num_rows=3)
@example(kind="mlp", layers=1, epochs=2, batch_size=3, learning_rate=0.05, seed=3, num_rows=5)
def test_local_train_replays_oracle(
    kind, layers, epochs, batch_size, learning_rate, seed, num_rows
):
    model, feats, labels, _, _ = _setup(kind, layers, num_rows, seed)
    opt = tk.SgdOptimizer(learning_rate)
    client = fr.ClientState(0, feats, labels, model, np.random.default_rng([seed, 7]), opt)
    losses = fr.local_train(client, epochs, batch_size)

    oracle_rng = np.random.default_rng([seed, 7])
    want_losses, want = _oracle_local(
        kind, _held(kind, model), getattr(model, "gamma", 1.0),
        feats, labels, oracle_rng, opt, epochs, batch_size,
    )
    assert len(losses) == len(want_losses) == epochs * math.ceil(num_rows / batch_size)
    assert_allclose(losses, want_losses, rtol=0, atol=TOL)
    assert_allclose(_held(kind, client.model), want, rtol=0, atol=TOL)
    assert client.rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=examples(8), deadline=None)
@given(
    clients=st.integers(1, 4),
    rows_per_client=st.integers(1, 2),
    rounds=st.integers(1, 2),
    teleport=st.booleans(),
    **SHAPES,
)
@example(kind="store", teleport=True, layers=1, clients=4, rows_per_client=2, rounds=2,
         epochs=1, batch_size=1, learning_rate=0.05, seed=4)
@example(kind="store", teleport=True, layers=3, clients=1, rows_per_client=2, rounds=2,
         epochs=1, batch_size=2, learning_rate=0.05, seed=5)
@example(kind="mlp", teleport=False, layers=1, clients=3, rows_per_client=2, rounds=2,
         epochs=2, batch_size=4, learning_rate=0.05, seed=6)
def test_run_ring_replays_oracle(
    kind, layers, clients, rows_per_client, rounds, teleport, epochs, batch_size,
    learning_rate, seed,
):
    teleport = teleport and kind == "store"
    transport = fr.Transport.TELEPORT if teleport else fr.Transport.CLASSICAL_COPY
    model, feats, labels, test_feats, test_labels = _setup(
        kind, layers, clients * rows_per_client + seed % 2, seed
    )
    ring = fr.make_clients(
        feats, labels, clients, model,
        partition_seed=seed, client_seed=seed, learning_rate=learning_rate,
    )
    schedule = fr.RingSchedule(clients, rounds, epochs, transport)
    channel = np.random.default_rng([seed, 4])
    _, metrics = fr.run_ring(
        schedule, ring, test_feats, test_labels, batch_size=batch_size, channel_rng=channel
    )

    gamma = getattr(model, "gamma", 1.0)
    opt = tk.SgdOptimizer(learning_rate)
    rngs = [np.random.default_rng([seed, fr._CLIENT_STREAM, cid]) for cid in range(clients)]
    oracle_channel = np.random.default_rng([seed, 4])
    held = [_held(kind, model)] * clients
    for round_index, row in enumerate(metrics, start=1):
        round_losses = []
        for sender, c in enumerate(ring):
            losses, held[sender] = _oracle_local(
                kind, held[sender], gamma, c.features, c.labels, rngs[sender], opt,
                epochs, batch_size,
            )
            round_losses.extend(losses)
            sent = held[sender]
            if teleport:
                sent = teleport_weights(qw.QuantumWeightStore(sent, gamma), oracle_channel).angles
            held[(sender + 1) % clients] = sent
        scores = [_oracle_logits(kind, held[-1], gamma, x) for x in test_feats]
        accuracy = float(np.mean(np.argmax(scores, axis=1) == test_labels))
        assert row.round_index == round_index and row.client_id == clients - 1
        assert abs(row.mean_train_loss - float(np.mean(round_losses))) <= TOL
        assert row.test_accuracy == accuracy
    assert len(metrics) == rounds
    for c, want in zip(ring, held):
        assert_allclose(_held(kind, c.model), want, rtol=0, atol=TOL)
    for c, oracle_rng in zip(ring, rngs):
        assert c.rng.bit_generator.state == oracle_rng.bit_generator.state
    assert channel.bit_generator.state == oracle_channel.bit_generator.state


def test_tier1_loads_the_derandomized_profile(request):
    # Every property test of a Tier-1 run draws the same examples and replays
    # none from a database, unless --hypothesis-profile asks for another profile.
    tier1 = settings.get_profile("tier1")
    assert tier1.derandomize is True and tier1.database is None
    asked = request.config.getoption("--hypothesis-profile") or "tier1"
    assert settings.get_current_profile_name() == asked
    assert settings.default.derandomize is settings.get_profile(asked).derandomize
    assert settings.default.database is settings.get_profile(asked).database
    # A test's own @settings takes what it does not set from the loaded profile,
    # and scales its example count by the profile's: as written under tier1,
    # ten times that under random.
    assert settings.get_profile("tier1").max_examples == 100
    assert settings.get_profile("random").max_examples == 1000
    for test in (test_local_train_replays_oracle, test_run_ring_replays_oracle):
        own = test._hypothesis_internal_use_settings
        assert own.derandomize is settings.default.derandomize
        assert own.max_examples == 8 * settings.default.max_examples // 100
