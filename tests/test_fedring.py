"""Federated orchestration checks: partitioning, a hand-computed SGD step,
ring hand-offs, hub-spoke averaging, and centralized equivalence."""
import copy
import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfedring import cli
from qfedring import datagen as dg
from qfedring import fedring as fr
from qfedring import qweights as qw
from qfedring import trainkit as tk
from qfedring import vqc
from qfedring.teleport import TransferError
from tests.conftest import NOT_GENERATORS, generator_id
from tests.test_bench_contract import traced


# Counts that are not integers >= 1: a fraction, an integral float, bools
# (True would quietly count as 1) and a string.
NOT_COUNTS = [2.5, 1.0, np.float64(3.0), True, False, "3"]


def count_refusal(name, value) -> str:
    return re.escape(f"{name} must be an integer >= 1, got {value!r}")


def small_shard(n=24, seed=11):
    feats, labels = dg.make_circles(n * 2, noise=0.1, factor=0.5, seed=seed)
    ds = dg.scale_and_split(feats, labels, train_fraction=0.5, seed=seed + 1)
    return ds.train_features, ds.train_labels, ds.test_features, ds.test_labels


class TestPartition:
    # Rows are tagged by their first feature; labels are the tag's parity, so
    # a shard's labels must still match its rows.
    def test_sizes_within_one_and_cover_everything(self):
        tags = np.arange(10)
        feats = np.column_stack([tags, np.zeros(10)])
        shards = fr.partition(feats, tags % 2, 3, seed=0)
        sizes = [s[1].size for s in shards]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        seen = np.sort(np.concatenate([s[0][:, 0] for s in shards]))
        assert np.array_equal(seen, tags)
        for fx, fy in shards:
            assert np.array_equal(fy, fx[:, 0].astype(int) % 2)

    def test_divisible_counts_split_evenly(self):
        feats = np.zeros((960, 2))
        labels = np.arange(960) % 2
        shards = fr.partition(feats, labels, 3, seed=0)
        assert [s[1].size for s in shards] == [320, 320, 320]

    def test_deterministic_per_seed(self):
        feats = np.arange(40, dtype=float).reshape(20, 2)
        labels = np.arange(20) % 2
        a = fr.partition(feats, labels, 4, seed=7)
        b = fr.partition(feats, labels, 4, seed=7)
        c = fr.partition(feats, labels, 4, seed=8)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa[0], sb[0])
        assert any(not np.array_equal(sa[0], sc[0]) for sa, sc in zip(a, c))

    def test_validation(self):
        feats = np.zeros((4, 2))
        labels = np.zeros(4, dtype=int)
        with pytest.raises(ValueError, match="num_clients"):
            fr.partition(feats, labels, 0, seed=0)
        with pytest.raises(ValueError, match="cannot split"):
            fr.partition(feats, labels, 5, seed=0)
        with pytest.raises(ValueError, match="length"):
            fr.partition(feats, np.zeros(3, dtype=int), 2, seed=0)

    def test_num_clients_must_be_an_integer(self):
        feats, labels = np.zeros((4, 2)), np.zeros(4, dtype=int)
        for bad in NOT_COUNTS:
            with pytest.raises(ValueError, match=count_refusal("num_clients", bad)):
                fr.partition(feats, labels, bad, seed=0)
        assert len(fr.partition(feats, labels, np.int64(2), seed=0)) == 2


class TestMakeClients:
    def test_clients_share_init_and_own_rngs(self, rng):
        fx, fy, _, _ = small_shard()
        model = vqc.init_model(rng, 2)
        clients = fr.make_clients(
            fx, fy, 3, model, partition_seed=1, client_seed=42, learning_rate=0.05
        )
        assert [c.client_id for c in clients] == [0, 1, 2]
        assert all(c.model is model for c in clients)
        assert clients[0].optimizer.learning_rate == 0.05
        assert all(c.optimizer is clients[0].optimizer for c in clients)  # built once
        draws = [c.rng.integers(1 << 30) for c in clients]
        assert len(set(draws)) == 3  # distinct per-client streams

    @pytest.mark.parametrize("num_qubits", [1, 3])
    @pytest.mark.parametrize("kind", ["circuit", "store"])
    def test_circuits_need_two_qubits(self, rng, kind, num_qubits):
        # The loss takes two class scores and the readout gives one per qubit,
        # so any other width must fail here, not deep inside the first step.
        fx, fy, _, _ = small_shard()
        if kind == "circuit":
            model = vqc.VqcModel(np.zeros((2, num_qubits, 3)))
        else:
            model = qw.QuantumWeightStore(np.full((2, num_qubits, 3), math.pi / 2), math.pi)
        with pytest.raises(ValueError, match="num_qubits must be 2.*one class score per qubit"):
            fr.make_clients(fx, fy, 2, model, partition_seed=1, client_seed=2, learning_rate=0.02)
        with pytest.raises(ValueError, match="num_qubits must be 2.*one class score per qubit"):
            fr.centralized_train(
                model, fx, fy, rng=rng, optimizer=tk.SgdOptimizer(0.02), epochs=1, batch_size=32
            )
        # Evaluation takes the same rule: on rows of the circuit's own width
        # it used to score argmax over one or three scores.
        rows = np.zeros((4, num_qubits))
        with pytest.raises(ValueError, match="num_qubits must be 2.*one class score per qubit"):
            tk.evaluate(model, rows, np.arange(4) % 2)

    @pytest.mark.parametrize("kind", ["mlp", "circuit", "store"])
    def test_two_score_models_still_evaluate(self, rng, kind):
        _, _, tx, ty = small_shard()
        model = {
            "mlp": lambda: tk.init_mlp(rng),
            "circuit": lambda: vqc.init_model(rng, 2),
            "store": lambda: qw.init_store(rng, 2, math.pi),
        }[kind]()
        want = float(np.mean(np.argmax(model.logits(tx), axis=1) == ty))
        assert tk.evaluate(model, tx, ty) == want

    def test_rejects_unknown_model(self, rng):
        # The readout rule is the one place an unknown kind is named, before
        # any data is split or scored.
        fx, fy, _, _ = small_shard()
        with pytest.raises(TypeError, match="unsupported model type object"):
            fr.make_clients(
                fx, fy, 2, object(), partition_seed=1, client_seed=2, learning_rate=0.02
            )
        with pytest.raises(TypeError, match="unsupported model type object"):
            fr.centralized_train(
                object(), fx, fy, rng=rng, optimizer=tk.SgdOptimizer(0.02), epochs=1, batch_size=32
            )
        with pytest.raises(TypeError, match="unsupported model type object"):
            tk.evaluate(object(), fx, fy)


class TestLocalTrain:
    def expected_single_batch_update(self, model, feats, labels, order, lr):
        """Replay one whole-set batch step by hand, in the permuted order."""
        fx, fy = feats[order], labels[order]
        n = fy.size
        if isinstance(model, vqc.VqcModel):
            logits = vqc.forward_batch(model.params, fx)
            _, dlogits = tk.batch_loss_and_grad(logits, fy)
            _, grad = vqc.gradient_batch(model.params, fx, lambda _: (None, dlogits))
            grad = grad / n
            return model.params - lr * grad
        if isinstance(model, qw.QuantumWeightStore):
            eff = qw.materialize(model)
            logits = vqc.forward_batch(eff, fx)
            _, dlogits = tk.batch_loss_and_grad(logits, fy)
            _, circuit_grad = vqc.gradient_batch(eff, fx, lambda _: (None, dlogits))
            circuit_grad = circuit_grad / n
            angle_grad = qw.weight_gradient(model, circuit_grad)
            return qw.canonical_angles(model.angles - lr * angle_grad)
        _, grad = tk.mlp_batch_grads(model, fx, lambda lg: tk.batch_loss_and_grad(lg, fy))
        grad = grad / n
        return model.params - lr * grad

    @pytest.mark.parametrize("kind", ["circuit", "store", "mlp"])
    def test_one_step_matches_hand_computation(self, rng, kind):
        fx, fy, _, _ = small_shard()
        init = {
            "circuit": lambda: vqc.init_model(rng, 2),
            "store": lambda: qw.init_store(rng, 2, math.pi),
            "mlp": lambda: tk.init_mlp(rng),
        }[kind]()
        lr = 0.05
        client = fr.ClientState(
            client_id=0,
            features=fx,
            labels=fy,
            model=init,
            rng=np.random.default_rng(123),
            optimizer=tk.SgdOptimizer(lr),
        )
        order = np.random.default_rng(123).permutation(fy.size)
        want = self.expected_single_batch_update(init, fx, fy, order, lr)
        losses = fr.local_train(client, epochs=1, batch_size=fy.size)
        assert len(losses) == 1
        held = client.model.angles if kind == "store" else client.model.params
        assert np.array_equal(held, want)

    @pytest.mark.parametrize("kind", ["circuit", "store", "mlp"])
    def test_epochs_replay_bit_for_bit_with_a_short_last_batch(self, rng, kind):
        # 23 rows in batches of 5 end each epoch on 3 rows.  The replay gathers
        # each batch's rows and labels through its own slice of the permutation.
        fx, fy, _, _ = small_shard()
        fx, fy = fx[:23], fy[:23]
        model = {
            "circuit": lambda: vqc.init_model(rng, 2),
            "store": lambda: qw.init_store(rng, 2, math.pi),
            "mlp": lambda: tk.init_mlp(rng),
        }[kind]()
        opt = tk.SgdOptimizer(0.05)
        client = fr.ClientState(0, fx, fy, model, np.random.default_rng(31), opt)
        replay_rng, want_losses = np.random.default_rng(31), []
        for _ in range(3):
            order = replay_rng.permutation(fy.size)
            for start in range(0, fy.size, 5):
                idx = order[start : start + 5]
                batch, grad = model.loss_grad(
                    fx[idx], lambda logits: tk.batch_loss_and_grad(logits, fy[idx])
                )
                model = model.step(grad / idx.size, opt)
                want_losses.append(float(np.add.reduce(batch) / batch.size))
        losses = fr.local_train(client, epochs=3, batch_size=5)
        assert losses == want_losses and len(losses) == 3 * 5
        held = "angles" if kind == "store" else "params"
        assert getattr(client.model, held).tobytes() == getattr(model, held).tobytes()
        assert client.rng.bit_generator.state == replay_rng.bit_generator.state

    def test_batch_count(self, rng):
        fx, fy, _, _ = small_shard()
        client = fr.ClientState(
            0, fx, fy, vqc.init_model(rng, 2), np.random.default_rng(0), tk.SgdOptimizer(0.02)
        )
        losses = fr.local_train(client, epochs=3, batch_size=10)
        assert len(losses) == 3 * math.ceil(fy.size / 10)

    @pytest.mark.parametrize("kind", ["circuit", "store", "mlp"])
    def test_loss_decreases_on_separable_clusters(self, rng, kind):
        gen = np.random.default_rng(5)
        class0 = gen.normal([0.5, 0.5], 0.1, size=(16, 2))
        class1 = gen.normal([2.5, 2.5], 0.1, size=(16, 2))
        feats = np.vstack([class0, class1])
        labels = np.repeat([0, 1], 16)
        init = {
            "circuit": lambda: vqc.init_model(rng, 2),
            "store": lambda: qw.init_store(rng, 2, math.pi),
            "mlp": lambda: tk.init_mlp(rng),
        }[kind]()
        client = fr.ClientState(
            0, feats, labels, init, np.random.default_rng(1), tk.SgdOptimizer(0.02)
        )
        losses = fr.local_train(client, epochs=50, batch_size=labels.size)
        assert len(losses) == 50
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("num_labels", [8, 12])
    def test_rejects_features_and_labels_of_different_lengths(self, rng, num_labels):
        # Training used to run on the shorter of the two without complaint.
        feats = rng.uniform(0, math.pi, size=(10, 2))
        labels = rng.integers(0, 2, size=num_labels)
        message = f"client 0 has 10 feature rows but {num_labels} labels"
        with pytest.raises(ValueError, match=message):
            fr.centralized_train(
                tk.init_mlp(rng), feats, labels, rng=rng, optimizer=tk.SgdOptimizer(0.02), epochs=1,
                batch_size=32,
            )
        client = fr.ClientState(
            3, feats, labels, vqc.init_model(rng, 2), np.random.default_rng(0),
            tk.SgdOptimizer(0.02),
        )
        with pytest.raises(ValueError, match="client 3 has 10 feature rows"):
            fr.local_train(client, epochs=1, batch_size=4)

    def test_validation(self, rng):
        fx, fy, _, _ = small_shard()
        client = fr.ClientState(
            0, fx, fy, vqc.init_model(rng, 2), np.random.default_rng(0), tk.SgdOptimizer(0.02)
        )
        with pytest.raises(ValueError, match="epochs"):
            fr.local_train(client, epochs=0, batch_size=8)
        with pytest.raises(ValueError, match="batch_size"):
            fr.local_train(client, epochs=1, batch_size=0)
        empty = fr.ClientState(
            1,
            np.zeros((0, 2)),
            np.zeros(0, dtype=int),
            vqc.init_model(rng, 2),
            np.random.default_rng(0),
            tk.SgdOptimizer(0.02),
        )
        with pytest.raises(ValueError, match="client 1 has no samples"):
            fr.local_train(empty, epochs=1, batch_size=8)

    @pytest.mark.parametrize("name", ["epochs", "batch_size"])
    def test_counts_must_be_integers(self, rng, name):
        fx, fy, _, _ = small_shard()
        model = vqc.init_model(rng, 2)
        client = fr.ClientState(0, fx, fy, model, np.random.default_rng(0), tk.SgdOptimizer(0.02))
        for bad in NOT_COUNTS:
            with pytest.raises(ValueError, match=count_refusal(name, bad)):
                fr.local_train(client, **{"epochs": 1, "batch_size": 8, name: bad})
        # Refused before any step: the model and the client's rng are untouched.
        assert client.model is model
        assert client.rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def snapshot(clients):
    """Every client's model bytes and the state of each stream that is a Generator."""
    return [
        (c.model.params.tobytes(),
         c.rng.bit_generator.state if isinstance(c.rng, np.random.Generator) else None)
        for c in clients
    ]


# A client field local_train cannot use, and the end of the message that refuses it.
BAD_FIELDS = [
    pytest.param("rng", None, "rng must be a numpy Generator, got None", id="rng-None"),
    pytest.param("rng", np.random.RandomState(0), "rng must be a numpy Generator, got RandomState",
                 id="rng-RandomState"),
    pytest.param("optimizer", 0.02, "optimizer must be an SgdOptimizer, got float", id="optimizer-float"),
    pytest.param("optimizer", None, "optimizer must be an SgdOptimizer, got NoneType",
                 id="optimizer-None"),
]
TRAINING_PATHS = {
    "local_train": lambda clients, tx, ty: fr.local_train(clients[0], 1, 8),
    "run_ring": lambda clients, tx, ty: fr.run_ring(
        fr.RingSchedule(3, 1, 1, fr.Transport.CLASSICAL_COPY), clients, tx, ty, batch_size=32
    ),
    "run_hubspoke": lambda clients, tx, ty: fr.run_hubspoke(
        fr.RingSchedule(3, 1, 1, fr.Transport.CLASSICAL_COPY), clients, tx, ty, batch_size=32
    ),
    "centralized_train": lambda clients, tx, ty: fr.centralized_train(
        clients[0].model, clients[0].features, clients[0].labels,
        rng=clients[0].rng, optimizer=clients[0].optimizer, epochs=1,
        batch_size=32,
    ),
}


class TestClientRefusals:
    """A client's stream and optimizer are refused by rule, with a ValueError
    naming the client and the field, before any step on every training path."""

    @pytest.mark.parametrize("path", sorted(TRAINING_PATHS))
    @pytest.mark.parametrize("field, bad, message", BAD_FIELDS)
    def test_refused_before_any_step(self, path, field, bad, message):
        fx, fy, tx, ty = small_shard()
        model = tk.init_mlp(np.random.default_rng(0))
        clients = fr.make_clients(
            fx, fy, 3, model, partition_seed=1, client_seed=2, learning_rate=0.02
        )
        setattr(clients[0], field, bad)
        before = snapshot(clients)
        with pytest.raises(ValueError) as refused:
            TRAINING_PATHS[path](clients, tx, ty)
        assert str(refused.value) == f"client 0's {message}"
        assert snapshot(clients) == before

    def test_the_ring_names_the_client_that_holds_it(self, rng):
        # Refused before any client trains: clients 0 and 1 are untouched too.
        fx, fy, tx, ty = small_shard()
        model = tk.init_mlp(rng)
        for path in ("run_ring", "run_hubspoke"):
            clients = fr.make_clients(
                fx, fy, 3, model, partition_seed=1, client_seed=2, learning_rate=0.02
            )
            clients[2].optimizer = 0.02
            before = snapshot(clients)
            with pytest.raises(ValueError, match="^client 2's optimizer must be an SgdOptimizer"):
                TRAINING_PATHS[path](clients, tx, ty)
            assert snapshot(clients) == before, path


class TestSchedule:
    def test_transport_values(self):
        assert fr.Transport.CLASSICAL_COPY.value == "copy"
        assert fr.Transport.TELEPORT.value == "teleport"

    def test_validation(self):
        with pytest.raises(ValueError, match="num_clients"):
            fr.RingSchedule(0, 1, 1, fr.Transport.CLASSICAL_COPY)
        with pytest.raises(ValueError, match="num_rounds"):
            fr.RingSchedule(1, 0, 1, fr.Transport.CLASSICAL_COPY)
        with pytest.raises(ValueError, match="local_epochs"):
            fr.RingSchedule(1, 1, 0, fr.Transport.CLASSICAL_COPY)
        with pytest.raises(ValueError, match="transport"):
            fr.RingSchedule(1, 1, 1, "copy")

    @pytest.mark.parametrize("name", ["num_clients", "num_rounds", "local_epochs"])
    def test_counts_must_be_integers(self, name):
        fields = dict(num_clients=1, num_rounds=1, local_epochs=1, 
                      transport=fr.Transport.CLASSICAL_COPY)
        for bad in NOT_COUNTS:
            with pytest.raises(ValueError, match=count_refusal(name, bad)):
                fr.RingSchedule(**{**fields, name: bad})
        assert getattr(fr.RingSchedule(**{**fields, name: np.int64(2)}), name) == 2


class TestRunRing:
    def test_metrics_shape_and_final_handoff(self, rng):
        fx, fy, tx, ty = small_shard()
        clients = fr.make_clients(
            fx, fy, 2, vqc.init_model(rng, 2), partition_seed=1, client_seed=2, learning_rate=0.02
        )
        schedule = fr.RingSchedule(2, 3, 1, fr.Transport.CLASSICAL_COPY)
        model, metrics = fr.run_ring(schedule, clients, tx, ty, batch_size=8)
        assert [m.round_index for m in metrics] == [1, 2, 3]
        assert all(m.client_id == 1 for m in metrics)
        # The last client hands its model to client 0 at the end of each round.
        assert clients[0].model is model

    def test_receiver_trains_on_received_model(self, rng):
        """With two clients and one round, client 1 must start from client 0's
        trained parameters, not from the shared init."""
        fx, fy, tx, ty = small_shard(n=32)
        init = vqc.init_model(rng, 2)
        clients = fr.make_clients(
            fx, fy, 2, init, partition_seed=3, client_seed=4, learning_rate=0.02
        )
        schedule = fr.RingSchedule(2, 1, 1, fr.Transport.CLASSICAL_COPY)
        fr.run_ring(schedule, clients, tx, ty, batch_size=64)

        # Replay: client 0 alone from init, then client 1 from client 0's result.
        c0 = fr.ClientState(
            0,
            clients[0].features,
            clients[0].labels,
            init,
            np.random.default_rng([4, fr._CLIENT_STREAM, 0]),
            tk.SgdOptimizer(0.02),
        )
        fr.local_train(c0, epochs=1, batch_size=64)
        c1 = fr.ClientState(
            1,
            clients[1].features,
            clients[1].labels,
            c0.model,
            np.random.default_rng([4, fr._CLIENT_STREAM, 1]),
            tk.SgdOptimizer(0.02),
        )
        fr.local_train(c1, epochs=1, batch_size=64)
        assert np.array_equal(clients[1].model.params, c1.model.params)

    def test_client_validation(self, rng):
        fx, fy, tx, ty = small_shard()
        clients = fr.make_clients(
            fx, fy, 2, vqc.init_model(rng, 2), partition_seed=1, client_seed=2, learning_rate=0.02
        )
        three = fr.RingSchedule(3, 1, 5, fr.Transport.CLASSICAL_COPY)
        with pytest.raises(ValueError, match="expects 3 clients"):
            fr.run_ring(three, clients, tx, ty, batch_size=32)
        schedule = fr.RingSchedule(2, 1, 5, fr.Transport.CLASSICAL_COPY)
        swapped = [clients[1], clients[0]]
        with pytest.raises(ValueError, match="ordered"):
            fr.run_ring(schedule, swapped, tx, ty, batch_size=32)
        mixed = fr.make_clients(
            fx, fy, 2, vqc.init_model(rng, 2), partition_seed=1, client_seed=2, learning_rate=0.02
        )
        mixed[1].model = tk.init_mlp(rng)
        with pytest.raises(ValueError, match="one model kind"):
            fr.run_ring(schedule, mixed, tx, ty, batch_size=32)

    def test_teleport_requires_store_and_rng(self, rng):
        fx, fy, tx, ty = small_shard()
        schedule = fr.RingSchedule(2, 1, 5, fr.Transport.TELEPORT)
        circuit_clients = fr.make_clients(
            fx, fy, 2, vqc.init_model(rng, 2), partition_seed=1, client_seed=2, learning_rate=0.02
        )
        with pytest.raises(ValueError, match="quantum weight stores"):
            fr.run_ring(
                schedule, circuit_clients, tx, ty, batch_size=32,
                channel_rng=np.random.default_rng(0),
            )
        store_clients = fr.make_clients(
            fx, fy, 2, qw.init_store(rng, 2, math.pi), partition_seed=1, client_seed=2,
            learning_rate=0.02,
        )
        with pytest.raises(ValueError, match="^channel_rng must be a numpy Generator"):
            fr.run_ring(schedule, store_clients, tx, ty, batch_size=32)

    @pytest.mark.parametrize("bad", NOT_GENERATORS, ids=generator_id)
    def test_teleport_refuses_a_bad_channel_rng_before_any_client_trains(self, rng, bad):
        fx, fy, tx, ty = small_shard()
        store = qw.init_store(rng, 2, math.pi)
        clients = fr.make_clients(
            fx, fy, 2, store, partition_seed=1, client_seed=2, learning_rate=0.02
        )
        streams = [c.rng.bit_generator.state for c in clients]
        schedule = fr.RingSchedule(2, 1, 5, fr.Transport.TELEPORT)
        with pytest.raises(ValueError, match="^channel_rng must be a numpy Generator"):
            fr.run_ring(schedule, clients, tx, ty, channel_rng=bad, batch_size=32)
        assert all(c.model is store for c in clients)
        assert [c.rng.bit_generator.state for c in clients] == streams

    def test_failed_hand_off_names_its_round_sender_and_weight(self, rng, monkeypatch):
        # The fifth hand-off of a three-client ring is round 2's, from client 1.
        fx, fy, tx, ty = small_shard()
        clients = fr.make_clients(
            fx, fy, 3, qw.init_store(rng, 2, math.pi), partition_seed=1, client_seed=2,
            learning_rate=0.02,
        )
        real, calls = fr.teleport_weights, []

        def flaky(model, channel_rng):
            calls.append(model)
            if len(calls) == 5:
                raise TransferError("decode residual above the purity gate", (1, 0, 2))
            return real(model, channel_rng)

        monkeypatch.setattr(fr, "teleport_weights", flaky)
        schedule = fr.RingSchedule(3, 2, 1, fr.Transport.TELEPORT)
        with pytest.raises(TransferError) as failed:
            fr.run_ring(
                schedule, clients, tx, ty, channel_rng=np.random.default_rng(0), batch_size=32
            )
        assert str(failed.value) == "round 2, client 1 -> decode residual above the purity gate"
        assert failed.value.weight_index == (1, 0, 2)
        assert isinstance(failed.value.__cause__, TransferError)
        # The receiver keeps the model it had; the sender's is not handed on.
        assert clients[1].model is calls[-1] and clients[2].model is not calls[-1]

    @pytest.mark.parametrize("loop", [fr.run_ring, fr.run_hubspoke])
    def test_each_loop_evaluates_through_the_module_once_per_round(self, rng, loop):
        # The tracer times trainkit.evaluate by rebinding the module attribute.
        fx, fy, tx, ty = small_shard()
        clients = fr.make_clients(
            fx, fy, 2, tk.init_mlp(rng), partition_seed=1, client_seed=2, learning_rate=0.02
        )
        schedule = fr.RingSchedule(2, 3, 1, fr.Transport.CLASSICAL_COPY)
        with traced() as tracer:
            _, metrics = loop(schedule, clients, tx, ty, batch_size=8)
        assert tracer.layer_metrics()["trainkit.evaluate.calls"] == 3
        assert [m.round_index for m in metrics] == [1, 2, 3]

    def test_teleport_matches_copy(self, rng):
        """The teleport transport reproduces plain copying to float precision."""
        fx, fy, tx, ty = small_shard(n=32)
        init = qw.init_store(rng, 2, math.pi)
        runs = {}
        for transport in (fr.Transport.CLASSICAL_COPY, fr.Transport.TELEPORT):
            clients = fr.make_clients(
                fx, fy, 2, init, partition_seed=3, client_seed=4, learning_rate=0.02
            )
            schedule = fr.RingSchedule(
                num_clients=2, num_rounds=2, local_epochs=1, transport=transport
            )
            model, metrics = fr.run_ring(
                schedule,
                clients,
                tx,
                ty,
                batch_size=16,
                channel_rng=np.random.default_rng(99),
            )
            runs[transport] = (model, metrics)
        copy_model, copy_metrics = runs[fr.Transport.CLASSICAL_COPY]
        tele_model, tele_metrics = runs[fr.Transport.TELEPORT]
        assert_allclose(tele_model.angles, copy_model.angles, atol=1e-9)
        for a, b in zip(copy_metrics, tele_metrics):
            assert b.mean_train_loss == pytest.approx(a.mean_train_loss, abs=1e-9)
            assert b.test_accuracy == pytest.approx(a.test_accuracy, abs=1e-9)


class TestCentralizedEquivalence:
    @pytest.mark.parametrize("kind", ["circuit", "store", "mlp"])
    def test_one_client_ring_is_centralized(self, rng, kind):
        fx, fy, tx, ty = small_shard(n=32)
        init = {
            "circuit": lambda: vqc.init_model(rng, 2),
            "store": lambda: qw.init_store(rng, 2, math.pi),
            "mlp": lambda: tk.init_mlp(rng),
        }[kind]()
        clients = fr.make_clients(
            fx, fy, 1, init, partition_seed=5, client_seed=6, learning_rate=0.02
        )
        schedule = fr.RingSchedule(1, 3, 2, fr.Transport.CLASSICAL_COPY)
        ring_model, _ = fr.run_ring(schedule, clients, tx, ty, batch_size=8)

        central_model, _ = fr.centralized_train(
            init,
            clients[0].features,
            clients[0].labels,
            rng=np.random.default_rng([6, fr._CLIENT_STREAM, 0]),
            optimizer=tk.SgdOptimizer(0.02),
            epochs=6,
            batch_size=8,
        )
        if kind == "store":
            assert np.array_equal(ring_model.angles, central_model.angles)
        else:
            assert np.array_equal(ring_model.params, central_model.params)


class TestAveraging:
    def test_fsum_mean_simple(self):
        arrays = [np.array([1.0, 2.0]), np.array([3.0, 6.0])]
        assert_allclose(fr._fsum_mean(arrays), [2.0, 4.0], atol=0)

    def test_average_models_permutation_invariant_bitwise(self, rng):
        models = [vqc.init_model(np.random.default_rng(s), 2) for s in range(5)]
        base = fr.average_models(models)
        for perm_seed in range(3):
            order = np.random.default_rng(perm_seed).permutation(5)
            permuted = fr.average_models([models[i] for i in order])
            assert np.array_equal(base.params, permuted.params)

    def test_average_models_mlp(self, rng):
        models = [tk.init_mlp(np.random.default_rng(s)) for s in range(3)]
        avg = fr.average_models(models)
        assert isinstance(avg, tk.ClassicalMlp)
        want = np.mean([m.params for m in models], axis=0)
        assert_allclose(avg.params, want, atol=1e-15)

    def test_average_models_validation(self, rng):
        with pytest.raises(ValueError, match="nothing"):
            fr.average_models([])
        with pytest.raises(ValueError, match="one kind"):
            fr.average_models([vqc.init_model(rng, 2), tk.init_mlp(rng)])
        with pytest.raises(TypeError, match="average"):
            fr.average_models([qw.init_store(rng, 2, math.pi), qw.init_store(rng, 2, math.pi)])

    def test_average_models_names_both_shapes(self):
        # Used to fail inside numpy as "all input arrays must have the same shape".
        models = [vqc.VqcModel(np.zeros((layers, 2, 3))) for layers in (2, 1)]
        with pytest.raises(ValueError, match=r"shape, got \[\(1, 2, 3\), \(2, 2, 3\)\]"):
            fr.average_models(models)


class TestHubSpoke:
    def test_matches_independent_training_plus_average(self, rng):
        fx, fy, tx, ty = small_shard(n=48)
        init = vqc.init_model(rng, 2)
        clients = fr.make_clients(
            fx, fy, 3, init, partition_seed=7, client_seed=8, learning_rate=0.02
        )
        schedule = fr.RingSchedule(3, 1, 2, fr.Transport.CLASSICAL_COPY)
        global_model, metrics = fr.run_hubspoke(schedule, clients, tx, ty, batch_size=8)

        trained = []
        for cid in range(3):
            c = fr.ClientState(
                cid,
                clients[cid].features,
                clients[cid].labels,
                init,
                np.random.default_rng([8, fr._CLIENT_STREAM, cid]),
                tk.SgdOptimizer(0.02),
            )
            fr.local_train(c, epochs=2, batch_size=8)
            trained.append(c.model)
        want = fr.average_models(trained)
        assert np.array_equal(global_model.params, want.params)
        assert metrics[0].client_id == -1

    @pytest.mark.parametrize("kind", ["circuit", "mlp"])
    def test_one_client_hub_is_centralized(self, rng, kind):
        # Averaging a single model is exact, so K=1 hub-spoke must replay
        # centralized training bit for bit, one round per pair of epochs.
        fx, fy, tx, ty = small_shard(n=32)
        init = {
            "circuit": lambda: vqc.init_model(rng, 2),
            "mlp": lambda: tk.init_mlp(rng),
        }[kind]()
        clients = fr.make_clients(
            fx, fy, 1, init, partition_seed=5, client_seed=9, learning_rate=0.02
        )
        schedule = fr.RingSchedule(1, 3, 2, fr.Transport.CLASSICAL_COPY)
        hub_model, _ = fr.run_hubspoke(schedule, clients, tx, ty, batch_size=8)

        central_model, _ = fr.centralized_train(
            init,
            clients[0].features,
            clients[0].labels,
            rng=np.random.default_rng([9, fr._CLIENT_STREAM, 0]),
            optimizer=tk.SgdOptimizer(0.02),
            epochs=6,
            batch_size=8,
        )
        assert np.array_equal(hub_model.params, central_model.params)

    def test_rejects_stores_and_teleport(self, rng):
        fx, fy, tx, ty = small_shard()
        store_clients = fr.make_clients(
            fx, fy, 2, qw.init_store(rng, 2, math.pi), partition_seed=1, client_seed=2,
            learning_rate=0.02,
        )
        with pytest.raises(TypeError, match="quantum-held"):
            fr.run_hubspoke(
                fr.RingSchedule(2, 1, 5, fr.Transport.CLASSICAL_COPY), store_clients, tx, ty,
                batch_size=32,
            )
        clients = fr.make_clients(
            fx, fy, 2, vqc.init_model(rng, 2), partition_seed=1, client_seed=2, learning_rate=0.02
        )
        with pytest.raises(ValueError, match="CLASSICAL_COPY"):
            fr.run_hubspoke(
                fr.RingSchedule(2, 1, 5, fr.Transport.TELEPORT),
                clients,
                tx,
                ty,
                batch_size=32,
            )


class TestSeed7Probe:
    """Seed 7 of the hand-off shape reads about 0.5 at every round end, yet
    the model handed round the ring is good for most of each round: the last
    client's step sends it back to one class, and the metrics evaluate only
    that model, as the protocol does.  This replays the rounds, evaluating
    after every client, until the run itself can report per-hand-off accuracy.

    A store step moves the circuit about gamma^2 sin^2(a) times as far as a
    circuit step at the same rate (``qweights``).  The replay also repeats
    each round's last step on a twin of that client, with a copy of its rng
    (so the same batch) and the rate divided by the median of that factor
    over the store's angles before the step."""

    @pytest.fixture(scope="class")
    def replay(self):
        config = cli.ExperimentConfig(
            model="qfl-quantum", clients=24, rounds=25, local_epochs=1, batch_size=64, seed=7
        )
        dataset = cli.build_dataset(config)
        _, metrics, _ = cli.run_single(config, dataset)
        clients = fr.make_clients(
            dataset.train_features,
            dataset.train_labels,
            config.clients,
            cli._init_model(config),
            partition_seed=[7, 2],
            client_seed=7,
            learning_rate=0.02,
        )
        per_client, matched = [], []
        for _ in range(config.rounds):
            accuracies = []
            for sender, client in enumerate(clients):
                if sender == config.clients - 1:
                    store = client.model
                    factor = np.median(store.gamma**2 * np.sin(store.angles) ** 2)
                    twin = dataclasses.replace(
                        client,
                        rng=copy.deepcopy(client.rng),
                        optimizer=tk.SgdOptimizer(config.learning_rate / float(factor)),
                    )
                    fr.local_train(twin, config.local_epochs, config.batch_size)
                    matched.append(
                        tk.evaluate(twin.model, dataset.test_features, dataset.test_labels)
                    )
                fr.local_train(client, config.local_epochs, config.batch_size)
                clients[(sender + 1) % config.clients].model = client.model
                accuracies.append(
                    tk.evaluate(client.model, dataset.test_features, dataset.test_labels)
                )
            per_client.append(accuracies)
        return metrics, per_client, matched

    def test_round_end_accuracy_hides_a_good_model_mid_round(self, replay):
        metrics, per_client, _ = replay
        # The replay is faithful: its round ends are the run's own metrics.
        assert [acc[-1] for acc in per_client] == [m.test_accuracy for m in metrics]
        for accuracies in per_client[1:]:
            assert max(accuracies) >= 0.95 and accuracies[-1] <= 0.6

    def test_a_matched_rate_last_step_improves_the_model(self, replay):
        # The model the last client receives is the one its predecessor was
        # evaluated on; the matched-rate step leaves it better in every round.
        _, per_client, matched = replay
        before = [accuracies[-2] for accuracies in per_client]
        assert all(m > b for m, b in zip(matched, before, strict=True))
