"""Federated orchestration: sequential ring training and a hub-spoke baseline.

In the ring, clients train in a fixed order, and ``run_ring`` itself hands
each model on: by value (CLASSICAL_COPY) or through ``teleport_weights``
(TELEPORT, quantum weight stores only).  After the last client of a round the
model it just trained is evaluated on the held-out set; both loops build that
row with ``_round_row``.  Every model kind takes the same SGD step:
``loss_grad`` on the batch, then ``step`` by the mean, on a shard
``local_train`` checked once per call with ``datagen``'s rule.  ``partition``
checks the whole data with that rule, so ``make_clients`` refuses a bad shard
before any client exists.

Each client owns a private rng for batch shuffling, and all share one
``SgdOptimizer``; the teleport channel uses its own rng so the two transports
consume identical client streams and stay comparable run for run.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import datagen, trainkit
from .qweights import QuantumWeightStore
from .teleport import TransferError, teleport_weights
from .trainkit import Model, RoundMetrics, SgdOptimizer, check_readout

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
        for name in ("num_clients", "num_rounds", "local_epochs"):
            datagen.check_count(getattr(self, name), name)
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
    feats, labs = datagen.check_samples(features, labels, "the data")
    datagen.check_count(num_clients, "num_clients")
    if num_clients > len(labs):
        raise ValueError(f"cannot split {len(labs)} samples across {num_clients} clients")
    order = np.random.default_rng(seed).permutation(len(labs))
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
    check_readout(model)
    shards = partition(features, labels, num_clients, partition_seed)
    optimizer = SgdOptimizer(learning_rate)  # frozen, so every client shares this one
    clients = []
    for cid, (fx, fy) in enumerate(shards):
        rng = np.random.default_rng([client_seed, _CLIENT_STREAM, cid])
        clients.append(ClientState(cid, fx, fy, model, rng, optimizer))
    return clients


def _check_client(client: ClientState) -> str:
    """Refuse a client's rng or optimizer that local_train cannot use; returns its name."""
    owner = f"client {client.client_id}"
    datagen.check_generator(client.rng, f"{owner}'s rng")
    if not isinstance(client.optimizer, SgdOptimizer):
        kind = type(client.optimizer).__name__
        raise ValueError(f"{owner}'s optimizer must be an SgdOptimizer, got {kind}")
    return owner


def local_train(client: ClientState, epochs: int, batch_size: int) -> list[float]:
    """Run local epochs of mini-batch SGD in place; returns per-batch mean losses.

    Batch order is a fresh permutation per epoch from the client's own rng,
    so a client's stream depends only on how many epochs it has run.  The
    rng and the optimizer (``_check_client``) are checked before any step; a
    step's ``ValueError`` is re-raised naming the client, epoch and step.
    """
    datagen.check_count(epochs, "epochs")
    datagen.check_count(batch_size, "batch_size")
    owner = _check_client(client)
    feats, labels = datagen.check_samples(client.features, client.labels, owner)
    losses: list[float] = []
    # A diverging step overflows inside numpy before a check sees it; the
    # logits bound and the finite-parameter checks then raise the error that
    # names it, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            order = client.rng.permutation(len(labels))
            for step, start in enumerate(range(0, len(labels), batch_size), 1):
                idx = order[start : start + batch_size]
                fy = labels[idx]
                try:
                    batch, grad = client.model.loss_grad(
                        feats[idx], lambda logits: trainkit.batch_loss_and_grad(logits, fy)
                    )
                    client.model = client.model.step(grad / fy.size, client.optimizer)
                except ValueError as exc:
                    raise ValueError(f"{owner}, epoch {epoch}, step {step}: {exc}") from exc
                losses.append(float(np.add.reduce(batch) / batch.size))  # np.mean: sum, then divide
    return losses


def _check_clients(clients: list[ClientState], num_clients: int) -> type:
    if len(clients) != num_clients:
        raise ValueError(f"schedule expects {num_clients} clients, got {len(clients)}")
    if [c.client_id for c in clients] != list(range(num_clients)):
        raise ValueError("clients must be ordered with ids 0..K-1")
    for client in clients:
        _check_client(client)
    kinds = {type(c.model) for c in clients}
    if len(kinds) != 1:
        raise ValueError(f"clients must share one model kind, got {sorted(k.__name__ for k in kinds)}")
    return kinds.pop()


def _round_row(round_index: int, client_id: int, losses: list[float], model: Model,
               test_features, test_labels) -> RoundMetrics:
    accuracy = trainkit.evaluate(model, test_features, test_labels)
    return RoundMetrics(round_index, client_id, float(np.mean(losses)), accuracy)


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

    Per round: each client trains locally, then its model replaces the next
    client's, as is or through ``teleport_weights``; the round's metrics
    evaluate the last client's freshly trained parameters.  Returns that
    model after the final round along with all per-round metrics.
    """
    kind = _check_clients(clients, schedule.num_clients)
    if schedule.transport is Transport.TELEPORT:
        if kind is not QuantumWeightStore:
            raise ValueError("TELEPORT transport requires quantum weight stores")
        datagen.check_generator(channel_rng, "channel_rng")
    metrics: list[RoundMetrics] = []
    for round_index in range(1, schedule.num_rounds + 1):
        losses: list[float] = []
        for sender, client in enumerate(clients):
            losses.extend(local_train(client, schedule.local_epochs, batch_size))
            model = client.model
            if schedule.transport is Transport.TELEPORT:
                try:
                    model = teleport_weights(model, channel_rng)
                except TransferError as exc:
                    raise TransferError(
                        f"round {round_index}, client {sender} -> {exc}", exc.weight_index
                    ) from exc
            clients[(sender + 1) % schedule.num_clients].model = model
        last = clients[-1]
        metrics.append(
            _round_row(round_index, last.client_id, losses, last.model, test_features, test_labels)
        )
    return clients[-1].model, metrics


def _fsum_mean(arrays: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean of float arrays whose value does not depend on the argument order."""
    shape = arrays[0].shape
    stack = np.stack([a.reshape(-1) for a in arrays])
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
    if type(first) is QuantumWeightStore:
        raise TypeError("cannot average quantum-held weights")
    shapes = sorted({m.params.shape for m in models})
    if len(shapes) != 1:
        raise ValueError(f"models must share one parameter shape, got {shapes}")
    return replace(first, params=_fsum_mean([m.params for m in models]))


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
        losses: list[float] = []
        for client in clients:
            client.model = global_model
            losses.extend(local_train(client, schedule.local_epochs, batch_size))
        global_model = average_models([c.model for c in clients])
        metrics.append(_round_row(round_index, -1, losses, global_model, test_features, test_labels))
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
    check_readout(model)
    client = ClientState(0, features, labels, model, rng, optimizer)
    losses = local_train(client, epochs, batch_size)
    return client.model, losses
