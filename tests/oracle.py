"""Gate-by-gate and single-sample references for the package's batched paths.

A training run never calls these; the tests hold the package to them.  Each
one walks the computation the plain way, one gate or one sample at a time:

- statevec: ``zero_state``, ``tensor_product``, the gate builders ``rx``,
  ``rot``, ``cnot``, ``h``, ``x`` and ``z`` for ``statevec.apply_gate``,
  ``collapse_qubits``, which forces measurement outcomes through the same
  kernel as ``measure_qubits``, and ``fidelity`` on two StateVectors, the
  array form of the teleport record's fidelity;
- vqc: ``encode``, ``_run_layers``, ``forward`` and ``gradient``, the
  circuit one sample and one shifted parameter at a time;
- trainkit: ``loss_and_grad`` and ``mlp_forward_backward``, one sample,
  ``batch_loss_reference``, the batched loss in its first form, and
  ``mlp_batch_reference``, the batched MLP pass on ``@`` products;
- teleport: ``bell_pair``, H then CNOT on |00>;
- datagen: ``check_labels_reference``, the label rule with the integer test
  as first written (``np.right_shift(y, 1).any()``);
- qweights: ``rx_z``, <Z> of a stored weight's carrier RX(angle)|0> gate by
  gate, and ``_z_expectation``, <Z> = |c0|^2 - |c1|^2 read from any array
  of single-qubit amplitudes, the form ``qweights._rx_z`` is held to bit
  for bit on ``statevec._rx_carriers``, and ``canonical_angles_reference``,
  the wrap as first written, with no early return for in-branch angles.

``sv``, ``tk`` and ``vqc`` are the package modules with the references the
acceptance criteria call beside their own names, so those tests read
``vqc.forward`` next to ``vqc.VqcModel``.
"""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from qfedring import statevec as _sv
from qfedring import trainkit as _tk
from qfedring import vqc as _vqc
from qfedring.datagen import check_labels
from qfedring.statevec import (
    MAX_QUBITS,
    GateOp,
    StateVector,
    _born_measure,
    _check_targets,
    _forcing_rule,
    apply_gate,
    expectation,
)
from qfedring.trainkit import _LOGIT_BOUND, LOGIT_SCALE, ClassicalMlp
from qfedring.vqc import SHIFT, SHIFT_COEFFICIENT, VqcModel, entangler_pairs

# ---------------------------------------------------------------------------
# statevec


def zero_state(num_qubits: int) -> StateVector:
    """|0...0> on the given number of qubits."""
    if not isinstance(num_qubits, int) or not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits!r}")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Joint state with ``a``'s qubits in the high bits of the basis index."""
    if a.num_qubits + b.num_qubits > MAX_QUBITS:
        raise ValueError("combined register exceeds the qubit limit")
    joint = np.multiply.outer(a.amplitudes, b.amplitudes).ravel()
    return StateVector(a.num_qubits + b.num_qubits, joint)


def rx(target: int, angle: float) -> GateOp:
    return GateOp("RX", target, angles=(float(angle),))


def rot(target: int, phi: float, theta: float, omega: float) -> GateOp:
    return GateOp("ROT", target, angles=(float(phi), float(theta), float(omega)))


def cnot(control: int, target: int) -> GateOp:
    return GateOp("CNOT", target, control=control)


def h(target: int) -> GateOp:
    return GateOp("H", target)


def x(target: int) -> GateOp:
    return GateOp("X", target)


def z(target: int) -> GateOp:
    return GateOp("Z", target)


def collapse_qubits(
    state: StateVector, targets: list[int], outcomes: list[int]
) -> tuple[float, StateVector]:
    """Force the given measurement outcomes, returning their joint probability.

    Companion to measure_qubits for tests and protocols that enumerate
    branches explicitly; rejects branches of probability below 1e-15.
    """
    pick = _forcing_rule(targets, outcomes)
    _check_targets(targets, state.num_qubits, "collapse")
    _, joint, amps = _born_measure(state.amplitudes.tolist(), state.num_qubits, targets, pick)
    return joint, StateVector(state.num_qubits, amps)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states act on different register sizes")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def rx_z(angle: float) -> float:
    """<Z> of a stored weight's carrier RX(angle)|0>, gate by gate."""
    return expectation(apply_gate(zero_state(1), rx(0, angle)), 0)


def _z_expectation(amps: np.ndarray) -> np.ndarray:
    """<Z> of single-qubit amplitudes along the last axis."""
    probs = amps.real**2 + amps.imag**2
    return probs[..., 0] - probs[..., 1]


# ---------------------------------------------------------------------------
# vqc


def encode(model: VqcModel, features) -> StateVector:
    """RX(feature) on each qubit of |0...0>; one feature per qubit."""
    feats = np.asarray(features, dtype=float)
    if feats.shape != (model.num_qubits,):
        raise ValueError(f"expected {model.num_qubits} features, got shape {feats.shape}")
    if not np.isfinite(feats).all():
        raise ValueError("features must be finite")
    state = zero_state(model.num_qubits)
    for q, angle in enumerate(feats):
        state = apply_gate(state, rx(q, angle))
    return state


def _run_layers(state: StateVector, params: np.ndarray) -> StateVector:
    num_qubits = params.shape[1]
    for layer in params:
        for control, target in entangler_pairs(num_qubits):
            state = apply_gate(state, cnot(control, target))
        for q in range(num_qubits):
            state = apply_gate(state, rot(q, *layer[q]))
    return state


def forward(model: VqcModel, features) -> np.ndarray:
    """Logits: <Z_q> for each qubit q, each in [-1, 1]."""
    state = _run_layers(encode(model, features), model.params)
    return np.array([expectation(state, q) for q in range(model.num_qubits)])


def gradient(model: VqcModel, features, upstream) -> np.ndarray:
    """Parameter-shift gradient of upstream . logits, one array entry per angle.

    Each scalar parameter costs exactly two full shifted forward passes.
    """
    up = np.asarray(upstream, dtype=float)
    if up.shape != (model.num_qubits,):
        raise ValueError(f"upstream must have shape ({model.num_qubits},), got {up.shape}")
    if not np.isfinite(up).all():
        raise ValueError("upstream weights must be finite")
    grads = np.zeros_like(model.params)
    for layer in range(model.params.shape[0]):
        for q in range(model.num_qubits):
            for k in range(3):
                plus = np.array(model.params)
                minus = np.array(model.params)
                plus[layer, q, k] += SHIFT
                minus[layer, q, k] -= SHIFT
                f_plus = forward(VqcModel(plus), features)
                f_minus = forward(VqcModel(minus), features)
                grads[layer, q, k] = up @ (SHIFT_COEFFICIENT * (f_plus - f_minus))
    return grads


# ---------------------------------------------------------------------------
# trainkit


def loss_and_grad(logits, label: int) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy over two class scores and its gradient.

    The softmax is taken over LOGIT_SCALE * logits, so equal scores still
    cost ln 2.  Stable under large scores (max subtraction); scores whose
    scaling or shift would overflow are refused.  The gradient is
    LOGIT_SCALE * (softmax(LOGIT_SCALE * logits) - onehot(label)).
    """
    lg = np.asarray(logits, dtype=float)
    if lg.shape != (2,):
        raise ValueError(f"expected two logits, got shape {lg.shape}")
    if not np.abs(lg).max() <= _LOGIT_BOUND:
        raise ValueError(
            f"logits must be finite and of magnitude at most {_LOGIT_BOUND:.3e}, got {lg}"
        )
    label = int(check_labels([label], 1)[0])
    scaled = LOGIT_SCALE * lg
    shifted = scaled - scaled.max()
    exps = np.exp(shifted)
    total = exps.sum()
    loss = math.log(total) - shifted[label]
    dlogits = exps * (LOGIT_SCALE / total)
    dlogits[label] -= LOGIT_SCALE
    return float(loss), dlogits


def batch_loss_reference(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    """``trainkit.batch_loss_and_grad`` as first written, with row-index
    gathers and the ndarray reductions; the package's form must match it bit
    for bit and refuse the same inputs with the same message."""
    lg = np.asarray(logits, dtype=float)
    if lg.ndim != 2 or lg.shape[1] != 2:
        raise ValueError(f"expected logits of shape (batch, 2), got {lg.shape}")
    y = check_labels(labels, lg.shape[0])
    if not np.abs(lg).max(initial=0.0) <= _LOGIT_BOUND:
        raise ValueError(f"logits must be finite and of magnitude at most {_LOGIT_BOUND:.3e}")
    scaled = LOGIT_SCALE * lg
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    totals = exps.sum(axis=1)
    rows = np.arange(lg.shape[0])
    losses = np.log(totals) - shifted[rows, y]
    dlogits = exps * (LOGIT_SCALE / totals[:, None])
    dlogits[rows, y] -= LOGIT_SCALE
    return losses, dlogits


def mlp_forward_backward(model: ClassicalMlp, features, label: int) -> tuple[float, np.ndarray]:
    """Loss and exact gradient for one sample, laid out like ``params``."""
    feats = np.asarray(features, dtype=float)
    if feats.shape != (2,):
        raise ValueError(f"expected 2 features, got shape {feats.shape}")
    pre = feats @ model.w1 + model.b1
    hid = np.tanh(pre)
    logits = hid @ model.w2 + model.b2
    loss, dlogits = loss_and_grad(logits, label)
    dhid = model.w2 @ dlogits
    dpre = dhid * (1.0 - hid**2)
    return loss, np.concatenate(
        [np.outer(feats, dpre), dpre, np.outer(hid, dlogits), dlogits], axis=None
    )


def mlp_batch_reference(model: ClassicalMlp, features, loss):
    """``(logits, losses, batch-summed gradient)`` for a feature batch, the
    bodies of ``ClassicalMlp.logits`` and ``trainkit.mlp_batch_grads`` as they
    were on ``@`` products.  ``loss(logits) -> (losses, dlogits)``.  The
    package must match it bit for bit on C-ordered copies of any input."""
    feats = np.asarray(features, dtype=float)
    hid = np.tanh(feats @ model.w1 + model.b1)
    logits = hid @ model.w2 + model.b2
    losses, upstream = loss(logits)
    dlogits = np.asarray(upstream, dtype=float)
    dpre = (dlogits @ model.w2.T) * (1.0 - hid**2)
    return logits, losses, np.concatenate(
        [feats.T @ dpre, dpre.sum(axis=0), hid.T @ dlogits, dlogits.sum(axis=0)], axis=None
    )


# ---------------------------------------------------------------------------
# teleport


def bell_pair() -> StateVector:
    """(|00> + |11>) / sqrt(2)."""
    state = apply_gate(zero_state(2), h(0))
    return apply_gate(state, cnot(0, 1))


# ---------------------------------------------------------------------------
# datagen and qweights: the forms the package's one-reduction tests replaced.


def check_labels_reference(labels, num_samples: int) -> np.ndarray:
    """``datagen.check_labels`` as first written: an integer is 0 or 1 iff
    shifting out its lowest bit leaves 0, tested element by element."""
    y = np.asarray(labels)
    if y.shape != (num_samples,):
        raise ValueError(f"got labels of shape {y.shape} for {num_samples} samples")
    kind = y.dtype.kind
    ints = kind in "iu" and not np.right_shift(y, 1).any()
    if not (ints or kind in "bf" and ((y == 0) | (y == 1)).all()):
        raise ValueError("labels must be 0 or 1")
    return y.astype(int)


def canonical_angles_reference(angles) -> np.ndarray:
    """``qweights.canonical_angles`` as first written: every angle through
    the mod and the two wheres, in branch or not."""
    a = np.asarray(angles, dtype=float)
    wrapped = np.mod(a + math.pi, 2.0 * math.pi) - math.pi
    wrapped = np.where(wrapped == -math.pi, math.pi, wrapped)
    return np.where((a > math.pi) | (a <= -math.pi), wrapped, a)


# ---------------------------------------------------------------------------
# Package modules with the references beside their own names.


def _with_references(module, **references) -> SimpleNamespace:
    return SimpleNamespace(**{**vars(module), **references})


sv = _with_references(_sv, zero_state=zero_state, rx=rx, rot=rot)
tk = _with_references(_tk, loss_and_grad=loss_and_grad, mlp_forward_backward=mlp_forward_backward)
vqc = _with_references(_vqc, forward=forward, gradient=gradient)
