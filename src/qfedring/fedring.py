"""Federated orchestration: sequential ring training and a hub-spoke baseline.

In the ring, clients train in a fixed order; each hands its model to the next
client, either by value (CLASSICAL_COPY) or by teleporting every stored angle
(TELEPORT, quantum weight stores only).  After the last client of a round the
model it just trained is evaluated on the held-out set.

Each client owns a private rng for batch shuffling; the teleport channel uses
its own rng so the two transports consume identical client streams and stay
comparable run for run.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import qweights, trainkit, vqc
from .qweights import QuantumWeightStore
from .teleport import TransferError, teleport_weights
from .trainkit import ClassicalMlp, Model, RoundMetrics, SgdOptimizer
from .vqc import VqcModel

# Namespace for per-client rng streams, kept clear of caller-side seed tags.
_CLIENT_STREAM = 101


class Transport(enum.Enum):
    CLASSICAL_COPY = "copy"
    TELEPORT = "teleport"


@dataclass(frozen=True)
class RingSchedule:
    num_clients: int = 3
    num_rounds: int = 100
    local_epochs: int = 5
    transport: Transport = Transport.CLASSICAL_COPY

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {self.num_rounds}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if not isinstance(self.transport, Transport):
            raise ValueError(f"transport must be a Transport, got {self.transport!r}")


@dataclass
class ClientState:
    """One participant: its data shard, current model, rng, and optimizer."""

    client_id: int
    features: np.ndarray
    labels: np.ndarray
    model: Model
    rng: np.random.Generator
    optimizer: SgdOptimizer


def partition(features, labels, num_clients: int, seed) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffle once (seeded) and split into contiguous shards of size within one."""
    feats = np.asarray(features, dtype=float)
    labs = np.asarray(labels)
    if feats.shape[0] != labs.shape[0]:
        raise ValueError("features and labels disagree on length")
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if num_clients > labs.shape[0]:
        raise ValueError(f"cannot split {labs.shape[0]} samples across {num_clients} clients")
    order = np.random.default_rng(seed).permutation(labs.shape[0])
    return [(feats[chunk], labs[chunk]) for chunk in np.array_split(order, num_clients)]


def make_clients(
    features,
    labels,
    num_clients: int,
    model: Model,
    *,
    partition_seed,
    client_seed: int,
    learning_rate: float = 0.02,
) -> list[ClientState]:
    """Partition the data and stand up clients that all start from ``model``."""
    shards = partition(features, labels, num_clients, partition_seed)
    return [
        ClientState(
            client_id=cid,
            features=fx,
            labels=fy,
            model=model,
            rng=np.random.default_rng([client_seed, _CLIENT_STREAM, cid]),
            optimizer=SgdOptimizer(learning_rate),
        )
        for cid, (fx, fy) in enumerate(shards)
    ]


def _batch_step(model: Model, feats: np.ndarray, labs: np.ndarray, opt: SgdOptimizer):
    """One SGD step on one mini-batch; returns (mean loss, updated model)."""
    if isinstance(model, ClassicalMlp):
        losses, grads = trainkit.mlp_batch_grads(model, feats, labs)
        return float(losses.mean()), trainkit.sgd_step_mlp(model, grads, opt)
    if isinstance(model, VqcModel):
        losses, dlogits = trainkit.batch_loss_and_grad(vqc.forward_batch(model.params, feats), labs)
        grad = vqc.gradient_batch(model.params, feats, dlogits) / feats.shape[0]
        return float(losses.mean()), model.with_params(opt.step(model.params, grad))
    if isinstance(model, QuantumWeightStore):
        eff = qweights.materialize(model)
        losses, dlogits = trainkit.batch_loss_and_grad(vqc.forward_batch(eff, feats), labs)
        circuit_grad = vqc.gradient_batch(eff, feats, dlogits) / feats.shape[0]
        angle_grad = qweights.weight_gradient(model, circuit_grad)
        new_angles = qweights.canonical_angles(opt.step(model.angles, angle_grad))
        return float(losses.mean()), model.with_angles(new_angles)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def local_train(client: ClientState, epochs: int, batch_size: int) -> list[float]:
    """Run local epochs of mini-batch SGD in place; returns per-batch mean losses.

    Batch order is a fresh permutation per epoch from the client's own rng,
    so a client's stream depends only on how many epochs it has run.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = client.labels.shape[0]
    if n == 0:
        raise ValueError(f"client {client.client_id} has no data")
    losses: list[float] = []
    for _ in range(epochs):
        order = client.rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss, client.model = _batch_step(
                client.model, client.features[idx], client.labels[idx], client.optimizer
            )
            losses.append(loss)
    return losses


def _transfer(model: Model, transport: Transport, channel_rng, round_index: int, sender: int):
    if transport is Transport.CLASSICAL_COPY:
        return model
    try:
        return teleport_weights(model, channel_rng)
    except TransferError as exc:
        raise TransferError(
            f"round {round_index}, client {sender} -> {exc}", exc.weight_index
        ) from exc


def _check_clients(clients: list[ClientState], num_clients: int) -> type:
    if len(clients) != num_clients:
        raise ValueError(f"schedule expects {num_clients} clients, got {len(clients)}")
    if [c.client_id for c in clients] != list(range(num_clients)):
        raise ValueError("clients must be ordered with ids 0..K-1")
    kinds = {type(c.model) for c in clients}
    if len(kinds) != 1:
        raise ValueError(f"clients must share one model kind, got {sorted(k.__name__ for k in kinds)}")
    return kinds.pop()


def run_ring(
    schedule: RingSchedule,
    clients: list[ClientState],
    test_features,
    test_labels,
    *,
    batch_size: int = 32,
    channel_rng: np.random.Generator | None = None,
) -> tuple[Model, list[RoundMetrics]]:
    """Train around the ring for the scheduled rounds.

    Per round: each client trains locally then hands its model to the next
    one (the hand-off replaces the receiver's model); the round's metrics
    evaluate the last client's freshly trained parameters.  Returns that
    model after the final round along with all per-round metrics.
    """
    kind = _check_clients(clients, schedule.num_clients)
    if schedule.transport is Transport.TELEPORT:
        if kind is not QuantumWeightStore:
            raise ValueError("TELEPORT transport requires quantum weight stores")
        if channel_rng is None:
            raise ValueError("TELEPORT transport requires a channel rng")
    metrics: list[RoundMetrics] = []
    for round_index in range(1, schedule.num_rounds + 1):
        round_losses: list[float] = []
        for sender in range(schedule.num_clients):
            client = clients[sender]
            round_losses.extend(local_train(client, schedule.local_epochs, batch_size))
            receiver = clients[(sender + 1) % schedule.num_clients]
            receiver.model = _transfer(
                client.model, schedule.transport, channel_rng, round_index, sender
            )
        last = clients[schedule.num_clients - 1]
        metrics.append(
            RoundMetrics(
                round_index=round_index,
                client_id=last.client_id,
                mean_train_loss=float(np.mean(round_losses)),
                test_accuracy=trainkit.evaluate(last.model, test_features, test_labels),
            )
        )
    return clients[schedule.num_clients - 1].model, metrics


def _fsum_mean(arrays: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean whose value does not depend on the argument order."""
    shape = arrays[0].shape
    stack = np.stack([np.asarray(a, dtype=float).reshape(-1) for a in arrays])
    means = np.array([math.fsum(col) for col in stack.T]) / len(arrays)
    return means.reshape(shape)


def average_models(models: list[Model]) -> Model:
    """Elementwise parameter mean; defined only for classically held parameters."""
    if not models:
        raise ValueError("nothing to average")
    kinds = {type(m) for m in models}
    if len(kinds) != 1:
        raise ValueError("models must share one kind")
    first = models[0]
    if isinstance(first, VqcModel):
        return first.with_params(_fsum_mean([m.params for m in models]))
    if isinstance(first, ClassicalMlp):
        return ClassicalMlp(
            _fsum_mean([m.w1 for m in models]),
            _fsum_mean([m.b1 for m in models]),
            _fsum_mean([m.w2 for m in models]),
            _fsum_mean([m.b2 for m in models]),
        )
    raise TypeError(f"cannot average models of type {type(first).__name__}")


def run_hubspoke(
    schedule: RingSchedule,
    clients: list[ClientState],
    test_features,
    test_labels,
    *,
    batch_size: int = 32,
) -> tuple[Model, list[RoundMetrics]]:
    """Baseline: every client trains from the current global model in parallel,
    then the hub replaces it with the elementwise average.

    Metrics rows carry client_id -1 (the aggregate).  Only models whose
    parameters live as plain floats can be averaged, so quantum weight
    stores are rejected up front.
    """
    kind = _check_clients(clients, schedule.num_clients)
    if kind is QuantumWeightStore:
        raise TypeError("hub-spoke averaging is undefined for quantum-held weights")
    if schedule.transport is not Transport.CLASSICAL_COPY:
        raise ValueError("hub-spoke supports only the CLASSICAL_COPY transport")
    global_model = clients[0].model
    metrics: list[RoundMetrics] = []
    for round_index in range(1, schedule.num_rounds + 1):
        round_losses: list[float] = []
        for client in clients:
            client.model = global_model
            round_losses.extend(local_train(client, schedule.local_epochs, batch_size))
        global_model = average_models([c.model for c in clients])
        metrics.append(
            RoundMetrics(
                round_index=round_index,
                client_id=-1,
                mean_train_loss=float(np.mean(round_losses)),
                test_accuracy=trainkit.evaluate(global_model, test_features, test_labels),
            )
        )
    return global_model, metrics


def centralized_train(
    model: Model,
    features,
    labels,
    *,
    rng: np.random.Generator,
    optimizer: SgdOptimizer,
    epochs: int,
    batch_size: int = 32,
) -> tuple[Model, list[float]]:
    """Single-worker training through the same code path as a lone client.

    A one-client ring over R rounds of E epochs reproduces this exactly
    (same rng consumption, same updates) with epochs = R * E.
    """
    feats = np.asarray(features, dtype=float)
    labs = np.asarray(labels)
    client = ClientState(0, feats, labs, model, rng, optimizer)
    losses = local_train(client, epochs, batch_size)
    return client.model, losses
