"""Single-qubit teleportation over a simulated Bell pair.

The three-qubit register is (message, bell_A, bell_B).  Sender applies
CNOT(message -> bell_A) then H(message), measures qubits 0 and 1, and the
receiver fixes up bell_B with X (if the second bit is 1) then Z (if the
first bit is 1).  Noiseless, so the recovered state always has fidelity 1
with the message up to float rounding.

``teleport_state`` runs on Python complex scalars from the message to the
record, which at a few amplitudes is cheaper than numpy's per-call cost.
The register is written out on the message's two amplitudes, the Bell
pair's nonzero ``_B0`` and ``_B3`` and H's ``_H00``..``_H11``, with
CNOT(0 -> 1) as the order of the products; the products with the pair's
zeros would only add signed zeros to sums that start from ``0j``, so they
are left out and every bit is kept.  The register is measured on its halves
(qubit 0 is the high bit), the |0..> half built only when the first bit
reads 0, with ``statevec._sample`` (or ``_forcing_rule``'s pick) called as
``statevec._born_measure`` calls its pick and the same sums and products,
so the outcomes, the channel rng draws and the recovered amplitudes are
bit-equal to that kernel's on the numpy register, which the tests replay as
the reference.  The corrections act on the receiver's two amplitudes, which
``statevec._qubit`` checks as a StateVector does; the record's fidelity is
|conj(c0) zero + conj(c1) one|^2 on the same scalars, and ``decode_angle``'s
purity gate checks the way out.

``teleport_weights`` builds every carrier of a store with one
``statevec._rx_carriers`` call and turns them into Python pairs in one
``tolist``, then walks them one channel use per angle: the carrier as a
``_qubit`` state -> ``teleport_state`` -> ``state_expectations`` ->
``decode_angle`` for each weight in (layer, qubit, k) order, two channel
rng draws per weight.  The decoded angles are reshaped once, and a weight's
(layer, qubit, k) slot is worked out only when its channel use fails.  It
looks these three names up in this module on every call, so a test or a
tracer can wrap any one of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qweights import QuantumWeightStore, decode_angle, state_expectations
from .qweights import encode_weight  # noqa: F401  (wrapped by perfbench/spans.py)
from .statevec import _H, StateVector, _forcing_rule, _qubit, _rx_carriers, _sample
from .statevec import apply_gate, measure_qubits  # noqa: F401  (wrapped by perfbench/spans.py)


class TransferError(RuntimeError):
    """A weight could not be moved; ``weight_index`` names the (layer, qubit, k) slot."""

    def __init__(self, message: str, weight_index: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.weight_index = weight_index


@dataclass(frozen=True)
class TeleportRecord:
    """Outcome of one teleportation: measured bits, recovered state, fidelity."""

    bell_outcome: tuple[int, int]
    recovered_state: StateVector
    fidelity: float


# The register's constants as Python scalars: the Bell pair
# (|00> + |11>) / sqrt(2) and H's entries.  The Bell amplitudes are those H
# then CNOT give on |00>, bit for bit: H's minus sign leaves -0.0 on |10>.
_BELL = (complex(1 / math.sqrt(2), 0.0), 0j, complex(-0.0, 0.0), complex(1 / math.sqrt(2), 0.0))
_B0, _B3 = _BELL[0], _BELL[3]
(_H00, _H01), (_H10, _H11) = _H.tolist()


def teleport_state(
    message: StateVector,
    rng: np.random.Generator | None = None,
    force_outcome: tuple[int, int] | None = None,
) -> TeleportRecord:
    """Teleport a single-qubit state, sampling the Bell measurement from ``rng``.

    ``force_outcome`` pins the two measured bits instead (for tests that
    enumerate all four branches); exactly one of ``rng``/``force_outcome``
    is needed.
    """
    if message.num_qubits != 1:
        raise ValueError("teleportation moves exactly one qubit")
    if force_outcome is None and rng is None:
        raise ValueError("provide an rng or force an outcome")
    pick = None if force_outcome is None else _forcing_rule((0, 1), force_outcome)
    # The message times the Bell pair, then CNOT(0 -> 1): where qubit 0 is 1
    # it flips qubit 1, so the |1..> half takes the Bell pair as _B2, _B3, _B0, _B1.
    # Only the products with _B0 and _B3 are kept: those with the zeros _B1
    # and _B2 are signed zeros, which leave each sum below unchanged.
    c0, c1 = message.amplitudes.tolist()
    p0, p3, p5, p6 = c0 * _B0, c0 * _B3, c1 * _B3, c1 * _B0
    # H acts on qubit 0: each row of H mixes amplitude j with amplitude j + 4.
    # Each sum starts from 0j, as a matmul's does, so a -0.0 comes out +0.0
    # and the register equals the 2x4 matmul of H on the eight products bit for bit.
    # Qubit 0 is the high bit, so its probability of 1 sums the |1..> half,
    # from 0.0 in index order as in ``_born_measure``; the |0..> half is
    # built only when that bit reads 0.
    h0, h1, h2, h3 = 0j + _H10 * p0, 0j + _H11 * p5, 0j + _H11 * p6, 0j + _H10 * p3
    p_one = (0.0 + (h0.real * h0.real + h0.imag * h0.imag) + (h1.real * h1.real + h1.imag * h1.imag)
             + (h2.real * h2.real + h2.imag * h2.imag) + (h3.real * h3.real + h3.imag * h3.imag))
    m1, p = _sample(rng, p_one) if pick is None else pick(0, p_one)
    if not m1:
        h0, h1, h2, h3 = 0j + _H00 * p0, 0j + _H01 * p5, 0j + _H01 * p6, 0j + _H00 * p3
    # The kept half is scaled by s1 = 1 / sqrt(p), and qubit 1's probability
    # of 1 sums that half's |.1.> pair.  Scales are complex-by-float
    # products, as in ``_born_measure``, so every bit is the same.
    s1 = 1.0 / math.sqrt(p)
    h2, h3 = h2 * s1, h3 * s1
    p_one = 0.0 + (h2.real * h2.real + h2.imag * h2.imag) + (h3.real * h3.real + h3.imag * h3.imag)
    m2, p = _sample(rng, p_one) if pick is None else pick(1, p_one)
    s2 = 1.0 / math.sqrt(p)
    # Qubits 0 and 1 are collapsed to (m1, m2), so the receiver holds the kept
    # half's pair 2 * m2, scaled by s2 as well.  X (m2 = 1) swaps its two
    # amplitudes and Z (m1 = 1) flips the sign of the |1> one.
    zero, one = (h3 * s2, h2 * s2) if m2 else (h0 * s1 * s2, h1 * s1 * s2)
    if m1:
        one = -one
    # The fidelity |<message|recovered>|^2, on the same four scalars.
    overlap = c0.conjugate() * zero + c1.conjugate() * one
    return TeleportRecord(
        bell_outcome=(m1, m2),
        recovered_state=_qubit(zero, one),
        fidelity=abs(overlap) ** 2,
    )


def teleport_weights(store: QuantumWeightStore, rng: np.random.Generator) -> QuantumWeightStore:
    """Move every stored angle through its own Bell pair, in (layer, qubit, k) order.

    Returns a new store with the decoded angles; raises TransferError naming
    the first weight whose channel use (validate the carrier, teleport, read
    out, decode) raised a ValueError.
    """
    shape = store.angles.shape
    out = []
    for c0, c1 in _rx_carriers(store.angles).reshape(-1, 2).tolist():
        try:
            record = teleport_state(_qubit(c0, c1), rng)
            out.append(decode_angle(*state_expectations(record.recovered_state)))
        except ValueError as exc:
            layer, q, k = (int(i) for i in np.unravel_index(len(out), shape))
            raise TransferError(
                f"weight (layer={layer}, qubit={q}, k={k}) failed in transfer: {exc}",
                weight_index=(layer, q, k),
            ) from exc
    return store.with_angles(np.array(out).reshape(shape))
