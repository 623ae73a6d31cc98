"""Variational circuit classifier: RX feature encoding, ring-entangled
rotation layers, per-qubit Pauli-Z readout.

Gradients use the two-point parameter shift (``SHIFT`` = pi/2,
``SHIFT_COEFFICIENT`` = 1/2), which is exact for these rotation gates.
``init_model`` builds the experiment's ``NUM_QUBITS`` = 2 qubits; the
engine takes any qubit count.  The engine reads states, not features:
``encode(features, n)``, the only map from one to the other, applies
``datagen.check_batch`` at width n and gives each row's RX product state,
(rows, 2**n) complex128, row by row, so a client encodes its shard once,
when it is made.  Unit norm comes from ``encode``, cos^2 + sin^2 per
qubit by construction; no pass tests it.

``forward_batch`` and ``gradient_batch`` are one engine for any qubit count:
every state of a batch through S parameter sets at once, with the unitary
tensor capped at ``_MAX_UNITARY_ENTRIES`` (``fits_unitary_cap`` is that
test, shared with the CLI's config check).  Every ROT comes from one sine
(``_ROT_MIX``), and every complex product runs as a real one on float views,
against the layer unitaries' real 2x2-block forms.  Every layer and the
readout are per-set products, the first from the shared states, so
under any BLAS kernel and thread count a set's bits in a pass are its bits
alone.  ``forward_batch`` runs one set, for evaluation.  ``gradient_batch``
is one SGD step's circuit work in a single pass of 1 + 2P sets: the unshifted
parameters, then the +shift block, then the -shift block, made by adding a
cached read-only offset tensor to the parameters.  It hands the unshifted
logits to a loss callable, ``loss(logits) -> (losses, upstream)``, and
contracts the shifted sets with that upstream, so a step builds its
unitaries once.  ``_check_batch`` applies ``_check_layers`` (the number rule
and the (layers, qubits, 3) shape, without a copy), the cap and the states
rule (complex128, shape (rows, 2**n), finite); ``call_loss`` is the upstream
rule.  The offsets are built on first use per shape, not at import; the RX
carriers, CNOT map and Z signs are statevec's.

``VqcModel`` holds only its parameter array; its ``prepare``, ``logits``,
``loss_grad`` and ``step`` (the model interface ``trainkit`` describes) are
``encode``, ``forward_batch``, ``gradient_batch`` and one optimizer step.  Its
constructor, through which a step builds the next model, is the one place its
params rule ``_layer_angles`` (``_check_layers``, then a read-only copy) runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .datagen import as_floats, check_batch, check_count, check_floats
from .statevec import MAX_QUBITS, _cnot_image, _rx_carriers, _z_signs


# One qubit per circles feature, and one Pauli-Z class score per qubit.
NUM_QUBITS = 2

# Two-point shift rule: grad = SHIFT_COEFFICIENT * (f(p + SHIFT) - f(p - SHIFT)).
SHIFT = math.pi / 2
SHIFT_COEFFICIENT = 0.5


@dataclass(frozen=True, init=False)
class VqcModel:
    """Trainable circuit parameters, shaped [layer][qubit][(phi, theta, omega)]."""

    params: np.ndarray

    def __init__(self, params) -> None:
        object.__setattr__(self, "params", _layer_angles(params, "params"))

    @property
    def num_qubits(self) -> int:
        return self.params.shape[1]

    def prepare(self, features) -> np.ndarray:
        return encode(features, self.num_qubits)

    def logits(self, states) -> np.ndarray:
        return forward_batch(self.params, states)

    def loss_grad(self, states, loss) -> tuple[np.ndarray, np.ndarray]:
        return gradient_batch(self.params, states, loss)

    def step(self, grad: np.ndarray, optimizer) -> "VqcModel":
        """The model after one optimizer step along ``grad``."""
        return VqcModel(optimizer.step(self.params, grad))


def _check_layers(values, name: str) -> np.ndarray:
    """``check_floats`` of a (layers, qubits, 3) array, not copied if it is one;
    errors call it ``name``."""
    a = check_floats(values, name)
    if a.ndim != 3 or a.shape[2] != 3 or 0 in a.shape:
        raise ValueError(f"{name} must have shape (layers, qubits, 3), got {a.shape}")
    return a


def _layer_angles(values, name: str) -> np.ndarray:
    """The rule for circuit params and stored angles: a read-only copy of
    ``_check_layers(values, name)``."""
    a = np.array(_check_layers(values, name))
    a.flags.writeable = False
    return a


def init_model(rng: np.random.Generator, num_layers: int) -> VqcModel:
    """Fresh NUM_QUBITS-qubit model with angles drawn uniformly from [-pi/4, pi/4]."""
    check_count(num_layers, "num_layers")
    params = rng.uniform(-math.pi / 4, math.pi / 4, size=(num_layers, NUM_QUBITS, 3))
    return VqcModel(params)


def entangler_pairs(num_qubits: int) -> list[tuple[int, int]]:
    """Ring of CNOTs, each qubit controlling its successor (two qubits: 0->1, 1->0)."""
    if num_qubits < 2:
        return []
    return [(q, (q + 1) % num_qubits) for q in range(num_qubits)]


# ---------------------------------------------------------------------------
# Batched engine: every row of a batch through S parameter sets at once.

# Cap on the (sets, layers, 2**n, 2**n) unitary tensor: a gradient reaches 7 qubits
# or 73 two-qubit layers, and a forward pass 10 qubits.  With their real block forms,
# the largest passes peak at 53 MiB (73-layer two-qubit gradient), 33 MiB (7-qubit
# one-layer gradient) and 48 MiB (10-qubit forward) of allocations.
_MAX_UNITARY_ENTRIES = 1 << 20


def fits_unitary_cap(num_layers: int, num_qubits: int, *, shifted: bool) -> bool:
    """Whether the engine's unitary tensor stays within ``_MAX_UNITARY_ENTRIES``.

    A gradient pass (``shifted``) builds 2P + 1 parameter sets (the unshifted
    set and the 2P shifted ones, P = 3 * layers * qubits), a forward pass one
    set; every set holds one (2**n, 2**n) unitary per layer.
    """
    sets = 6 * num_layers * num_qubits + 1 if shifted else 1
    return sets * num_layers * 4**num_qubits <= _MAX_UNITARY_ENTRIES


def _check_batch(params, states, *, shifted: bool) -> tuple[np.ndarray, np.ndarray]:
    p = _check_layers(params, "params")
    layers, n, _ = p.shape
    if not fits_unitary_cap(layers, n, shifted=shifted):
        raise ValueError(f"params {p.shape} exceed the {_MAX_UNITARY_ENTRIES}-entry unitary cap")
    s = np.asarray(states, order="C")
    if s.dtype != complex or s.ndim != 2 or s.shape[1] != 2**n:
        raise ValueError(f"states must be complex128 (rows, {2**n}), got {s.dtype} {s.shape}")
    if not np.logical_and.reduce(np.isfinite(s), axis=None):
        raise ValueError("states must be finite")
    return p, s


def call_loss(loss, logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The upstream rule: ``loss(logits)`` returns an upstream shaped like the logits."""
    losses, upstream = loss(logits)
    up = as_floats(upstream, "upstream")
    if up.shape != logits.shape:
        raise ValueError(f"upstream must have shape {logits.shape}, got {up.shape}")
    return losses, up


def encode(features, num_qubits: int) -> np.ndarray:
    """The engine's states of ``check_batch(features, num_qubits)``: RX(x_q) on
    each qubit of |0...0>, one (2**n,) complex row of amplitudes per sample."""
    check_count(num_qubits, "num_qubits")
    feats = check_batch(features, num_qubits)
    cols = _rx_carriers(feats)  # (batch, qubit, bit)
    amps = cols[:, 0]
    for q in range(1, num_qubits):
        amps = (amps[:, :, None] * cols[:, q, None, :]).reshape(feats.shape[0], 2 ** (q + 1))
    return amps


@lru_cache(maxsize=16)
def _shift_offsets(shape: tuple[int, ...]) -> np.ndarray:
    """(1 + 2P, *shape) offsets that turn params of ``shape`` into a gradient
    pass's parameter sets: a zero block, the +shift block, the -shift block.

    The zero block is -0.0 and the -shift block is the negated +shift block,
    so ``p + offsets`` gives p, p + shift and p - shift bit for bit.
    """
    size = math.prod(shape)
    plus = SHIFT * np.eye(size).reshape(size, *shape)
    offsets = np.concatenate([np.full((1, *shape), -0.0), plus, -plus])
    offsets.flags.writeable = False
    return offsets


# ROT(phi, theta, omega) = RZ(omega) RY(theta) RZ(phi) has entries cos(h) e^{-+ia}
# and -+sin(h) e^{-+ib} (h = theta/2, a = (omega + phi)/2, b = (omega - phi)/2), whose
# real and imaginary parts are half sums of the sines and cosines of h +- a and h +- b.
# One sine of angles @ _ROT_ARGS + _ROT_PHASE gives those eight (a cosine is the sine
# a quarter turn on); @ _ROT_MIX gives the (re, im) pairs of the four entries.
_ROT_ARGS = 0.5 * np.array([[1, -1, -1, 1] * 2, [1] * 8, [1, -1, 1, -1] * 2])
_ROT_PHASE = np.repeat([0.0, math.pi / 2], 4)
_ROT_MIX = 0.5 * np.array([  # rows: sin(h + a), sin(h - a), sin(h + b), sin(h - b), then cos
    [0, -1, 0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 0, -1],
    [0, 0, -1, 0, 1, 0, 0, 0], [0, 0, -1, 0, 1, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 1, 0], [1, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, -1, 0, -1, 0, 0], [0, 0, 0, 1, 0, 1, 0, 0],
])


def _layer_unitaries(angles: np.ndarray) -> np.ndarray:
    """(sets, layers, n, 3) angles -> (sets, layers, 2**n, 2**n) layer unitaries.

    Every qubit's ROT from one sine and one 8x8 product (``_ROT_MIX``), then
    kron over qubits, then @ E for the CNOT ring; E is a permutation, so
    right-multiplying by it is a column gather.  The sums h +- a are rounded
    before the sine, so a ROT is within 2 * eps * (1 + max |angle|) of the
    gate-built one, not bit-equal to it.
    """
    mixed = np.sin(angles.reshape(-1, 3) @ _ROT_ARGS + _ROT_PHASE) @ _ROT_MIX
    rots = mixed.view(complex).reshape(*angles.shape[:-1], 2, 2)
    n = angles.shape[-2]
    u = rots[..., 0, :, :]
    for q in range(1, n):
        size = 2 * u.shape[-1]
        u = (u[..., :, None, :, None] * rots[..., q, None, :, None, :]).reshape(
            *u.shape[:-2], size, size
        )
    return u[..., _ring_image(n)]


@lru_cache(maxsize=MAX_QUBITS)
def _ring_image(num_qubits: int) -> np.ndarray:
    """The CNOT ring's basis index map (``_cnot_image`` of ``entangler_pairs``)."""
    return _cnot_image(num_qubits, tuple(entangler_pairs(num_qubits)))


@lru_cache(maxsize=MAX_QUBITS)
def _readout_signs(num_qubits: int) -> np.ndarray:
    """Read-only (2 * 2**n, n) Z signs for squared (re, im) pairs: each row of
    ``_z_signs(n).T`` twice."""
    signs = np.repeat(_z_signs(num_qubits).T, 2, axis=0)
    signs.flags.writeable = False
    return signs


def _expectations(angles: np.ndarray, states: np.ndarray) -> np.ndarray:
    """<Z_q> for every parameter set and row: (S, L, n, 3) on (B, 2**n) -> (S, B, n).

    Each product psi @ U^T runs on float views: psi's (re, im) pairs times the
    real 2x2-block form of U^T, whose even rows are U^T and odd rows 1j * U^T
    as complex, laid out (layers, S, 2d, 2d).  Every layer is a per-set
    product, the shared states broadcast against layer 0, so under any
    BLAS kernel and thread count a set's bits in a pass are its bits alone.
    """
    u = _layer_unitaries(angles)
    sets, layers, dim = u.shape[0], u.shape[1], u.shape[-1]
    blocks = np.empty((layers, sets, dim, 2, dim), dtype=complex)
    blocks[:, :, :, 0] = u.transpose(1, 0, 3, 2)
    np.multiply(blocks[:, :, :, 0], 1j, out=blocks[:, :, :, 1])
    psi = states.view(float)
    for layer in blocks.view(float).reshape(layers, sets, 2 * dim, 2 * dim):
        psi = psi @ layer
    return (psi * psi) @ _readout_signs(angles.shape[2])


def forward_batch(params: np.ndarray, states) -> np.ndarray:
    """Logits for a whole batch of ``encode``d states at once, one row per sample."""
    p, s = _check_batch(params, states, shifted=False)
    return _expectations(p[None], s)[0]


def gradient_batch(params: np.ndarray, states, loss) -> tuple[np.ndarray, np.ndarray]:
    """One SGD step's circuit pass: ``(losses, batch-summed parameter-shift gradient)``.

    The unshifted set, the +shift block and the -shift block (1 + 2P sets)
    run in one pass.  ``loss`` is called once with the unshifted logits
    (batch, qubits) and returns ``(losses, upstream)``; upstream, shaped like
    the logits, weighs the shifted sets, and ``losses`` is passed back as is.
    The caller divides the gradient by the batch size when it wants a mean.
    """
    p, s = _check_batch(params, states, shifted=True)
    out = _expectations(p + _shift_offsets(p.shape), s)
    losses, up = call_loss(loss, out[0])
    return losses, _shift_gradient(p, out, up)


def _shift_gradient(params: np.ndarray, out: np.ndarray, up: np.ndarray) -> np.ndarray:
    """``gradient_batch``'s contraction of its pass ``out`` with the upstream ``up``."""
    delta = SHIFT_COEFFICIENT * (out[1 : params.size + 1] - out[params.size + 1 :])
    return np.add.reduce(up * delta, axis=(1, 2)).reshape(params.shape)
