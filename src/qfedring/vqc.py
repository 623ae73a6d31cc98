"""Variational circuit classifier: RX feature encoding, ring-entangled
rotation layers, per-qubit Pauli-Z readout.

Gradients use the two-point parameter shift (pi/2 shift, 1/2 coefficient),
which is exact for these rotation gates.  ``forward``/``gradient`` walk the
simulator gate by gate, define the semantics and serve the tests as oracle.
``forward_batch``/``gradient_batch`` are one engine for any qubit count: all
2P shifted circuits of a gradient in one pass, one matmul per layer, with
the unitary tensor capped at ``_MAX_UNITARY_ENTRIES``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .statevec import (
    StateVector,
    _z_signs,
    apply_gate,
    cnot,
    expectation,
    pauli_z,
    rot,
    rx,
    zero_state,
)


@dataclass(frozen=True)
class ShiftRule:
    """Two-point shift rule: grad = coefficient * (f(p + shift) - f(p - shift))."""

    shift: float = math.pi / 2
    coefficient: float = 0.5


SHIFT_RULE = ShiftRule()


@dataclass(frozen=True)
class EncoderSpec:
    kind: str = "VARIATIONAL_RX"

    def __post_init__(self) -> None:
        if self.kind != "VARIATIONAL_RX":
            raise ValueError(f"unsupported encoder kind {self.kind!r}")


@dataclass(frozen=True)
class VqcModel:
    """Trainable circuit parameters, shaped [layer][qubit][(phi, theta, omega)]."""

    params: np.ndarray
    num_qubits: int = 2
    encoder: EncoderSpec = field(default_factory=EncoderSpec)

    def __post_init__(self) -> None:
        p = np.array(self.params, dtype=float)
        if p.ndim != 3 or p.shape[1:] != (self.num_qubits, 3) or p.shape[0] < 1:
            raise ValueError(
                f"params must have shape (layers, {self.num_qubits}, 3) with layers >= 1, "
                f"got {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise ValueError("params must be finite")
        p.flags.writeable = False
        object.__setattr__(self, "params", p)

    @property
    def num_layers(self) -> int:
        return self.params.shape[0]

    def with_params(self, params: np.ndarray) -> "VqcModel":
        return replace(self, params=params)


def init_model(rng: np.random.Generator, num_layers: int = 2, num_qubits: int = 2) -> VqcModel:
    """Fresh model with angles drawn uniformly from [-pi/4, pi/4]."""
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    params = rng.uniform(-math.pi / 4, math.pi / 4, size=(num_layers, num_qubits, 3))
    return VqcModel(params, num_qubits=num_qubits)


def entangler_pairs(num_qubits: int) -> list[tuple[int, int]]:
    """Ring of CNOTs, each qubit controlling its successor (two qubits: 0->1, 1->0)."""
    if num_qubits < 2:
        return []
    return [(q, (q + 1) % num_qubits) for q in range(num_qubits)]


def encode(model: VqcModel, features) -> StateVector:
    """RX(feature) on each qubit of |0...0>; one feature per qubit."""
    feats = np.asarray(features, dtype=float)
    if feats.shape != (model.num_qubits,):
        raise ValueError(f"expected {model.num_qubits} features, got shape {feats.shape}")
    if not np.all(np.isfinite(feats)):
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
    return np.array([expectation(state, pauli_z(q)) for q in range(model.num_qubits)])


def gradient(model: VqcModel, features, upstream) -> np.ndarray:
    """Parameter-shift gradient of upstream . logits, one array entry per angle.

    Each scalar parameter costs exactly two full shifted forward passes.
    """
    up = np.asarray(upstream, dtype=float)
    if up.shape != (model.num_qubits,):
        raise ValueError(f"upstream must have shape ({model.num_qubits},), got {up.shape}")
    if not np.all(np.isfinite(up)):
        raise ValueError("upstream weights must be finite")
    grads = np.zeros_like(model.params)
    for layer in range(model.num_layers):
        for q in range(model.num_qubits):
            for k in range(3):
                plus = np.array(model.params)
                minus = np.array(model.params)
                plus[layer, q, k] += SHIFT_RULE.shift
                minus[layer, q, k] -= SHIFT_RULE.shift
                f_plus = forward(model.with_params(plus), features)
                f_minus = forward(model.with_params(minus), features)
                grads[layer, q, k] = up @ (SHIFT_RULE.coefficient * (f_plus - f_minus))
    return grads


# ---------------------------------------------------------------------------
# Batched engine: every row of a batch through S parameter sets at once.

# Cap on the (sets, layers, 2**n, 2**n) unitary tensor: 16 MB of complex128,
# so a gradient reaches 7 qubits and a forward pass 10, well under MAX_QUBITS.
_MAX_UNITARY_ENTRIES = 1 << 20


def _check_batch(params, features, *, shifted: bool) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(params, dtype=float)
    if p.ndim != 3 or 0 in p.shape or p.shape[2] != 3:
        raise ValueError(f"params must have shape (layers, qubits, 3), got {p.shape}")
    layers, n, _ = p.shape
    if (2 * p.size if shifted else 1) * layers * 4**n > _MAX_UNITARY_ENTRIES:
        raise ValueError(f"params {p.shape} exceed the {_MAX_UNITARY_ENTRIES}-entry unitary cap")
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2 or feats.shape[1] != n:
        raise ValueError(f"expected features (batch, {n}) for params {p.shape}, got {feats.shape}")
    return p, feats


def _encode_batch(features: np.ndarray) -> np.ndarray:
    """Product-state amplitudes of RX(x_q) on each qubit of |0...0>, one row per sample."""
    half = features / 2.0
    cols = np.stack([np.cos(half), -1j * np.sin(half)], axis=-1)  # (batch, qubit, bit)
    amps = cols[:, 0]
    for q in range(1, features.shape[1]):
        amps = (amps[:, :, None] * cols[:, q, None, :]).reshape(features.shape[0], -1)
    return amps


@lru_cache(maxsize=16)
def _entangler_image(n: int) -> np.ndarray:
    """Basis index each |b> is sent to by the CNOT ring, pairs applied in order."""
    idx = np.arange(2**n)
    for control, target in entangler_pairs(n):
        idx ^= ((idx >> (n - 1 - control)) & 1) << (n - 1 - target)
    idx.flags.writeable = False
    return idx


def _layer_unitaries(angles: np.ndarray) -> np.ndarray:
    """(sets, layers, n, 3) angles -> (sets, layers, 2**n, 2**n) layer unitaries.

    ROT(phi, theta, omega) = RZ(omega) RY(theta) RZ(phi) in closed form per
    qubit, then kron over qubits, then @ E for the CNOT ring; E is a
    permutation, so right-multiplying by it is a column gather.
    """
    phi, theta, omega = np.moveaxis(angles, -1, 0)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    a, b = np.exp(-0.5j * omega), np.exp(-0.5j * phi)
    entries = [a * c * b, -a * s * b.conj(), a.conj() * s * b, a.conj() * c * b.conj()]
    rots = np.stack(entries, axis=-1).reshape(*phi.shape, 2, 2)
    u = rots[..., 0, :, :]
    for q in range(1, angles.shape[-2]):
        size = 2 * u.shape[-1]
        u = (u[..., :, None, :, None] * rots[..., q, None, :, None, :]).reshape(
            *u.shape[:-2], size, size
        )
    return u[..., _entangler_image(angles.shape[-2])]


def _expectations(angles: np.ndarray, features: np.ndarray) -> np.ndarray:
    """<Z_q> for every parameter set and row: (S, L, n, 3) on (B, n) -> (S, B, n)."""
    unitaries = _layer_unitaries(angles)
    psi = _encode_batch(features)
    for layer in range(angles.shape[1]):
        psi = psi @ unitaries[:, layer].swapaxes(-1, -2)
    signs = np.stack([_z_signs(angles.shape[2], q) for q in range(angles.shape[2])])
    return (psi.real**2 + psi.imag**2) @ signs.T


def forward_batch(params: np.ndarray, features) -> np.ndarray:
    """Logits for a whole batch at once; rows match forward() to float precision."""
    p, feats = _check_batch(params, features, shifted=False)
    return _expectations(p[None], feats)[0]


def gradient_batch(params: np.ndarray, features, upstream) -> np.ndarray:
    """Sum over the batch of per-sample parameter-shift gradients.

    upstream has shape (batch, qubits); the caller divides by the batch size
    when it wants a mean.  All 2P shifted circuits (the +shift block, then
    the -shift block) run in one pass.  Matches summing gradient() over rows.
    """
    p, feats = _check_batch(params, features, shifted=True)
    up = np.asarray(upstream, dtype=float)
    if up.shape != (feats.shape[0], p.shape[1]):
        raise ValueError(f"upstream must have shape {(feats.shape[0], p.shape[1])}, got {up.shape}")
    shifts = SHIFT_RULE.shift * np.eye(p.size).reshape(p.size, *p.shape)
    out = _expectations(np.concatenate([p + shifts, p - shifts]), feats)
    delta = SHIFT_RULE.coefficient * (out[: p.size] - out[p.size :])
    return np.sum(up * delta, axis=(1, 2)).reshape(p.shape)
