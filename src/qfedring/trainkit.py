"""Losses, SGD, the classical baseline network, and shared evaluation.

All three model kinds (ClassicalMlp, VqcModel, QuantumWeightStore) expose two
class scores; classification is argmax over them and the training loss is
softmax cross-entropy on the same pair, so the variants are comparable run
for run.  Model dispatch has two cases: the MLP's own forward pass, and the
batched circuit engine on ``effective_params()`` for both circuit kinds.
``loss_and_grad`` and ``mlp_forward_backward`` are the single-sample forms
the tests pin to finite differences; training runs the batched ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from . import vqc
from .qweights import QuantumWeightStore
from .vqc import VqcModel

MLP_HIDDEN = 4

# Temperature applied to logits inside the loss.  The circuit readouts are
# expectations confined to [-1, 1]; at scale 1 cross-entropy on that range
# rewards wide-margin half-plane fits over the correct low-margin separator
# and training stalls near 60% accuracy.  Sharpening the softmax restores
# the ordering (measured: best reachable accuracy is loss-optimal again).
LOGIT_SCALE = 8.0


def loss_and_grad(logits, label: int) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy over two class scores and its gradient.

    The softmax is taken over LOGIT_SCALE * logits, so equal scores still
    cost ln 2.  Stable under large scores (max subtraction); the gradient is
    LOGIT_SCALE * (softmax(LOGIT_SCALE * logits) - onehot(label)).
    """
    lg = np.asarray(logits, dtype=float)
    if lg.shape != (2,):
        raise ValueError(f"expected two logits, got shape {lg.shape}")
    if not np.all(np.isfinite(lg)):
        raise ValueError(f"logits must be finite, got {lg}")
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    scaled = LOGIT_SCALE * lg
    shifted = scaled - scaled.max()
    exps = np.exp(shifted)
    total = exps.sum()
    loss = math.log(total) - shifted[label]
    dlogits = exps * (LOGIT_SCALE / total)
    dlogits[label] -= LOGIT_SCALE
    return float(loss), dlogits


def batch_loss_and_grad(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized loss_and_grad: per-sample losses (B,) and gradients (B, 2)."""
    lg = np.asarray(logits, dtype=float)
    y = np.asarray(labels)
    if lg.ndim != 2 or lg.shape[1] != 2 or lg.shape[0] != y.shape[0]:
        raise ValueError(f"got logits {lg.shape} against labels {y.shape}")
    if not np.all(np.isfinite(lg)):
        raise ValueError("logits must be finite")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    scaled = LOGIT_SCALE * lg
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    totals = exps.sum(axis=1)
    rows = np.arange(lg.shape[0])
    losses = np.log(totals) - shifted[rows, y]
    dlogits = exps * (LOGIT_SCALE / totals[:, None])
    dlogits[rows, y] -= LOGIT_SCALE
    return losses, dlogits


@dataclass(frozen=True)
class SgdOptimizer:
    """Plain gradient descent, p <- p - lr * g."""

    learning_rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return np.asarray(params, dtype=float) - self.learning_rate * np.asarray(grad, dtype=float)


@dataclass(frozen=True)
class ClassicalMlp:
    """2 -> 4 -> 2 network with tanh hidden units (22 parameters)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self) -> None:
        shapes = {"w1": (2, MLP_HIDDEN), "b1": (MLP_HIDDEN,), "w2": (MLP_HIDDEN, 2), "b2": (2,)}
        for name, want in shapes.items():
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


# isinstance accepts this union, so it doubles as the list of known kinds.
Model = Union[ClassicalMlp, VqcModel, QuantumWeightStore]


class MlpGrads(NamedTuple):
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def init_mlp(rng: np.random.Generator) -> ClassicalMlp:
    """Gaussian weights scaled by 1/sqrt(fan_in), zero biases."""
    w1 = rng.normal(0.0, 1.0 / math.sqrt(2), size=(2, MLP_HIDDEN))
    w2 = rng.normal(0.0, 1.0 / math.sqrt(MLP_HIDDEN), size=(MLP_HIDDEN, 2))
    return ClassicalMlp(w1, np.zeros(MLP_HIDDEN), w2, np.zeros(2))


def mlp_logits(model: ClassicalMlp, features: np.ndarray) -> np.ndarray:
    """Forward pass; ``features`` may be one sample (2,) or a batch (B, 2)."""
    hid = np.tanh(features @ model.w1 + model.b1)
    return hid @ model.w2 + model.b2


def mlp_forward_backward(
    model: ClassicalMlp, features, label: int
) -> tuple[float, MlpGrads]:
    """Loss and exact gradients for one sample."""
    feats = np.asarray(features, dtype=float)
    if feats.shape != (2,):
        raise ValueError(f"expected 2 features, got shape {feats.shape}")
    pre = feats @ model.w1 + model.b1
    hid = np.tanh(pre)
    logits = hid @ model.w2 + model.b2
    loss, dlogits = loss_and_grad(logits, label)
    dhid = model.w2 @ dlogits
    dpre = dhid * (1.0 - hid**2)
    return loss, MlpGrads(
        w1=np.outer(feats, dpre),
        b1=dpre,
        w2=np.outer(hid, dlogits),
        b2=dlogits,
    )


def mlp_batch_grads(model: ClassicalMlp, features, labels) -> tuple[np.ndarray, MlpGrads]:
    """Per-sample losses and batch-mean gradients, vectorized over the batch."""
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2 or feats.shape[1] != 2:
        raise ValueError(f"expected features of shape (batch, 2), got {feats.shape}")
    pre = feats @ model.w1 + model.b1
    hid = np.tanh(pre)
    logits = hid @ model.w2 + model.b2
    losses, dlogits = batch_loss_and_grad(logits, labels)
    n = feats.shape[0]
    dpre = (dlogits @ model.w2.T) * (1.0 - hid**2)
    grads = MlpGrads(
        w1=feats.T @ dpre / n,
        b1=dpre.sum(axis=0) / n,
        w2=hid.T @ dlogits / n,
        b2=dlogits.sum(axis=0) / n,
    )
    return losses, grads


def sgd_step_mlp(model: ClassicalMlp, grads: MlpGrads, opt: SgdOptimizer) -> ClassicalMlp:
    return ClassicalMlp(
        opt.step(model.w1, grads.w1),
        opt.step(model.b1, grads.b1),
        opt.step(model.w2, grads.w2),
        opt.step(model.b2, grads.b2),
    )


def model_logits_batch(model: Model, features) -> np.ndarray:
    """Two class scores per row of ``features``."""
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2:
        raise ValueError(f"expected a batch of samples, got shape {feats.shape}")
    if isinstance(model, ClassicalMlp):
        return mlp_logits(model, feats)
    return vqc.forward_batch(model.effective_params(), feats)


def evaluate(model: Model, features, labels) -> float:
    """Fraction of samples whose argmax score matches the label."""
    y = np.asarray(labels)
    if y.size == 0:
        raise ValueError("cannot evaluate on an empty set")
    logits = model_logits_batch(model, features)
    return float(np.mean(np.argmax(logits, axis=1) == y))


@dataclass(frozen=True)
class RoundMetrics:
    """One evaluation row: which round, whose parameters, loss and accuracy."""

    round_index: int
    client_id: int
    mean_train_loss: float
    test_accuracy: float

    def __post_init__(self) -> None:
        if self.round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {self.round_index}")
        if not math.isfinite(self.mean_train_loss):
            raise ValueError(f"mean_train_loss must be finite, got {self.mean_train_loss!r}")
        if not 0.0 <= self.test_accuracy <= 1.0:
            raise ValueError(f"test_accuracy must lie in [0, 1], got {self.test_accuracy!r}")
