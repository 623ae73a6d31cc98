"""Losses, SGD, the classical baseline network, and shared evaluation.

All three model kinds (ClassicalMlp, VqcModel, QuantumWeightStore) expose two
class scores; classification is argmax over them and the training loss is
softmax cross-entropy on the same pair, so the variants are comparable run
for run.  Every kind has the same three methods, so training, evaluation
and averaging never ask which kind they hold: ``logits(features)``,
``loss_grad(features, loss) -> (losses, batch-summed gradient)`` and
``step(grad, optimizer)``.  The MLP's ``loss_grad`` and ``step`` call
``mlp_batch_grads`` and ``sgd_step_mlp`` through their module-level names,
so that rebinding one (as a tracer does) also covers this path; its one field
is ``params``.  ``ClassicalMlp.logits`` and ``mlp_batch_grads`` share one
forward pass, ``_mlp_forward``, which slices w1, b1, w2 and b2 from one read
of ``params``; ``mlp_batch_grads`` writes the gradient's four blocks in place
into one new array laid out the same way.
Labels pass ``datagen.check_labels``.  The readout rule is ``check_readout``:
a model must be one of the three kinds, and a circuit must have
``vqc.NUM_QUBITS`` qubits, one class score per qubit.  ``evaluate``,
``fedring.make_clients`` and ``fedring.centralized_train`` apply it first.
Every kind's features pass ``datagen.check_batch`` (finite, shape ``(rows,
width)``, width 2 for the MLP and the qubit count for a circuit), and
``loss`` must return an upstream shaped like the logits (``vqc.call_loss``).
Zero rows give ``(0, 2)`` logits, empty losses and an all-zero gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .datagen import as_floats, check_batch, check_count, check_floats, check_labels, check_positive
from .qweights import QuantumWeightStore
from .vqc import NUM_QUBITS, VqcModel, call_loss

MLP_HIDDEN = 4

# Temperature applied to logits inside the loss.  The circuit readouts are
# expectations confined to [-1, 1]; at scale 1 cross-entropy on that range
# rewards wide-margin half-plane fits over the correct low-margin separator
# and training stalls near 60% accuracy.  Sharpening the softmax restores
# the ordering (measured: best reachable accuracy is loss-optimal again).
LOGIT_SCALE = 8.0

# Largest logit magnitude the loss takes: below it neither LOGIT_SCALE * logits
# nor the max-shift after it (a difference of two scaled logits) can overflow.
# NaN fails the comparison too, so this one bound is the finiteness check.
_LOGIT_BOUND = float(np.finfo(float).max) / (2 * LOGIT_SCALE)


def batch_loss_and_grad(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    """Softmax cross-entropy over two class scores per row and its gradient:
    per-sample losses (B,) and gradients (B, 2).

    The softmax is taken over LOGIT_SCALE * logits, so equal scores still
    cost ln 2.  Stable under large scores (max subtraction); scores whose
    scaling or shift would overflow are refused.  The gradient is
    LOGIT_SCALE * (softmax(LOGIT_SCALE * logits) - onehot(label)).
    """
    lg = as_floats(logits, "logits")  # C order: dlogits.reshape(-1) is a view
    if lg.ndim != 2 or lg.shape[1] != 2:
        raise ValueError(f"expected logits of shape (batch, 2), got {lg.shape}")
    y = check_labels(labels, lg.shape[0])
    # Two-column ops beat axis-1 reductions here; row i's label is flat index 2 * i + y[i].
    if not np.maximum.reduce(np.abs(lg), axis=None, initial=0.0) <= _LOGIT_BOUND:
        raise ValueError(f"logits must be finite and of magnitude at most {_LOGIT_BOUND:.3e}")
    scaled = LOGIT_SCALE * lg
    shifted = scaled - np.maximum(scaled[:, :1], scaled[:, 1:])
    exps = np.exp(shifted)
    totals = exps[:, 0] + exps[:, 1]
    flat = y + np.arange(0, 2 * lg.shape[0], 2)
    losses = np.log(totals) - shifted.take(flat)
    dlogits = exps * (LOGIT_SCALE / totals[:, None])
    dlogits.reshape(-1)[flat] -= LOGIT_SCALE
    return losses, dlogits


@dataclass(frozen=True)
class SgdOptimizer:
    """Plain gradient descent, p <- p - lr * g."""

    learning_rate: float

    def __post_init__(self) -> None:
        check_positive(self.learning_rate, "learning_rate")

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return as_floats(params, "params") - self.learning_rate * as_floats(grad, "grad")


# Where b1, w2 and b2 start in the MLP's flat parameter vector, and its length.
_B1 = 2 * MLP_HIDDEN
_W2 = _B1 + MLP_HIDDEN
_B2 = _W2 + 2 * MLP_HIDDEN
MLP_PARAMS = _B2 + 2


@dataclass(frozen=True)
class ClassicalMlp:
    """2 -> 4 -> 2 network with tanh hidden units (22 parameters).

    ``params`` is one read-only vector, the only field: w1 (2, 4) row-major,
    b1, w2 (4, 2) row-major, b2.
    """

    params: np.ndarray

    def __post_init__(self) -> None:
        p = check_floats(np.array(self.params), "params")
        if p.shape != (MLP_PARAMS,):
            raise ValueError(f"params must have shape ({MLP_PARAMS},), got {p.shape}")
        p.flags.writeable = False
        object.__setattr__(self, "params", p)

    def logits(self, features) -> np.ndarray:
        return _mlp_forward(self.params, check_batch(features, 2))[2]

    def loss_grad(self, features, loss) -> tuple[np.ndarray, np.ndarray]:
        return mlp_batch_grads(self, features, loss)

    def step(self, grad: np.ndarray, optimizer: SgdOptimizer) -> "ClassicalMlp":
        """The model after one optimizer step along ``grad``."""
        return sgd_step_mlp(self, grad, optimizer)


# isinstance accepts this union, so it doubles as the list of known kinds.
Model = Union[ClassicalMlp, VqcModel, QuantumWeightStore]


def check_readout(model: Model) -> None:
    """The model must be a known kind, and a circuit must have NUM_QUBITS
    qubits: the readout gives one class score per qubit."""
    if not isinstance(model, Model):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    if not isinstance(model, ClassicalMlp) and model.num_qubits != NUM_QUBITS:
        raise ValueError(
            f"num_qubits must be {NUM_QUBITS} for the two-class loss, got {model.num_qubits}: "
            "the circuit readout gives one class score per qubit"
        )


def init_mlp(rng: np.random.Generator) -> ClassicalMlp:
    """Gaussian weights scaled by 1/sqrt(fan_in), zero biases."""
    w1 = rng.normal(0.0, 1.0 / math.sqrt(2), size=(2, MLP_HIDDEN))
    w2 = rng.normal(0.0, 1.0 / math.sqrt(MLP_HIDDEN), size=(MLP_HIDDEN, 2))
    return ClassicalMlp(np.concatenate([w1, np.zeros(MLP_HIDDEN), w2, np.zeros(2)], axis=None))


def _mlp_forward(params: np.ndarray, feats: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(hidden activations, w2, logits)`` of checked features, slicing the
    four blocks from one read of ``params``."""
    # np.dot, not @ (here and in mlp_batch_grads): @ pays gufunc dispatch on
    # each of these tiny 2-D products, and dot matches it bit for bit only on the
    # C-ordered features and upstream that check_batch and call_loss guarantee.
    w2 = params[_W2:_B2].reshape(MLP_HIDDEN, 2)  # one view for both products
    hid = np.tanh(np.dot(feats, params[:_B1].reshape(2, MLP_HIDDEN)) + params[_B1:_W2])
    return hid, w2, np.dot(hid, w2) + params[_B2:]


def mlp_batch_grads(model: ClassicalMlp, features, loss) -> tuple[np.ndarray, np.ndarray]:
    """One SGD step's pass: ``(losses, batch-summed gradient)``, the gradient a
    new array laid out like ``params``.  ``loss(logits) -> (losses, dlogits)``,
    as for ``vqc.gradient_batch``."""
    feats = check_batch(features, 2)
    hid, w2, logits = _mlp_forward(model.params, feats)
    losses, dlogits = call_loss(loss, logits)
    dpre = np.dot(dlogits, w2.T) * (1.0 - hid**2)
    grad = np.empty(MLP_PARAMS)  # each block written once, in place
    np.dot(feats.T, dpre, out=grad[:_B1].reshape(2, MLP_HIDDEN))
    np.add.reduce(dpre, axis=0, out=grad[_B1:_W2])
    np.dot(hid.T, dlogits, out=grad[_W2:_B2].reshape(MLP_HIDDEN, 2))
    np.add.reduce(dlogits, axis=0, out=grad[_B2:])
    return losses, grad


def sgd_step_mlp(model: ClassicalMlp, grad: np.ndarray, opt: SgdOptimizer) -> ClassicalMlp:
    return ClassicalMlp(opt.step(model.params, grad))


def evaluate(model: Model, features, labels) -> float:
    """Fraction of samples whose argmax score matches the label."""
    check_readout(model)
    scores = model.logits(features)
    y = check_labels(labels, scores.shape[0])
    if y.size == 0:
        raise ValueError("cannot evaluate on an empty set")
    return float(np.mean(np.argmax(scores, axis=1) == y))


@dataclass(frozen=True)
class RoundMetrics:
    """One evaluation row: which round, whose parameters, loss and accuracy."""

    round_index: int
    client_id: int
    mean_train_loss: float
    test_accuracy: float

    def __post_init__(self) -> None:
        check_count(self.round_index, "round_index")
        if not math.isfinite(self.mean_train_loss):
            raise ValueError(f"mean_train_loss must be finite, got {self.mean_train_loss!r}")
        if not 0.0 <= self.test_accuracy <= 1.0:
            raise ValueError(f"test_accuracy must lie in [0, 1], got {self.test_accuracy!r}")
