"""Single-qubit teleportation over a simulated Bell pair.

The three-qubit register is (message, bell_A, bell_B).  Sender applies
CNOT(message -> bell_A) then H(message), measures qubits 0 and 1, and the
receiver fixes up bell_B with X (if the second bit is 1) then Z (if the
first bit is 1).  Noiseless, so the recovered state always has fidelity 1
with the message up to float rounding.

``teleport_state`` runs on Python complex scalars from the message to the
record, which at a few amplitudes is cheaper than numpy's per-call cost.
The Bell pair's two nonzero amplitudes are one number, ``_B``, so each half
of the register is (a, b, b, a): two amplitudes, from the message's two
and H's ``_H00``..``_H11``.  The register is measured on its halves (qubit
0 is the high bit), with ``statevec._sample`` (or ``_forcing_rule``'s pick)
called as ``statevec._born_measure`` calls its pick and the same sums and
products, so the outcomes, the channel rng draws and the recovered
amplitudes are bit-equal to that kernel's on the numpy register, which the
tests replay as the reference.  The corrections act on the receiver's two
amplitudes, which ``statevec._qubit`` checks as a StateVector does; the
record's fidelity is |conj(c0) zero + conj(c1) one|^2 on the same scalars,
and ``decode_angle``'s purity gate checks the way out.

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

from .datagen import check_generator
from .qweights import QuantumWeightStore, decode_angle, state_expectations
from .qweights import encode_weight  # noqa: F401  (wrapped by perfbench/spans.py)
from .statevec import _H, StateVector, _forcing_rule, _qubit, _rx_carriers, _sample
from .statevec import apply_gate, measure_qubits  # noqa: F401  (wrapped by perfbench/spans.py)


class TransferError(RuntimeError):
    """A weight could not be moved; ``weight_index`` names the (layer, qubit, k) slot."""

    def __init__(self, message: str, weight_index: tuple[int, int, int]):
        super().__init__(message)
        self.weight_index = weight_index

    def __reduce__(self):
        # The default rebuilds from ``self.args`` alone, which lack weight_index.
        return type(self), (str(self), self.weight_index)


@dataclass(frozen=True)
class TeleportRecord:
    """Outcome of one teleportation: measured bits, recovered state, fidelity."""

    bell_outcome: tuple[int, int]
    recovered_state: StateVector
    fidelity: float


# The register's constants as Python scalars: _B, the |00> and |11>
# amplitude of the Bell pair (|00> + |11>) / sqrt(2), and H's entries.
_B = complex(1 / math.sqrt(2), 0.0)
(_H00, _H01), (_H10, _H11) = _H.tolist()


def teleport_state(
    message: StateVector,
    rng: np.random.Generator | None = None,
    force_outcome: tuple[int, int] | None = None,
) -> TeleportRecord:
    """Teleport a single-qubit state, sampling the Bell measurement from ``rng``.

    ``force_outcome`` pins the two measured bits instead (for tests that
    enumerate all four branches); a forced call ignores ``rng`` and draws
    nothing, any other needs a numpy Generator (``datagen.check_generator``).
    """
    if message.num_qubits != 1:
        raise ValueError("teleportation moves exactly one qubit")
    pick = None if force_outcome is None else _forcing_rule((0, 1), force_outcome)
    if pick is None:
        check_generator(rng, "rng")
    # The message times the Bell pair is c0 _B at |000> and |011> and c1 _B at
    # |100> and |111>; CNOT(0 -> 1) moves the last two to |110> and |101>, and
    # H on qubit 0 makes each half (a, b, b, a).  Each amplitude starts from
    # 0j, so a -0.0 comes out +0.0 as from the numpy register's matmul, and
    # qubit 0's p1 sums the |1..> half from 0.0 in index order, as
    # ``_born_measure`` does, so every bit is kept.
    c0, c1 = message.amplitudes.tolist()
    p0, p1 = c0 * _B, c1 * _B
    a, b = 0j + _H10 * p0, 0j + _H11 * p1
    aa, bb = a.real * a.real + a.imag * a.imag, b.real * b.real + b.imag * b.imag
    p_one = 0.0 + aa + bb + bb + aa
    m1, p = _sample(rng, p_one) if pick is None else pick(0, p_one)
    if not m1:
        a, b = 0j + _H00 * p0, 0j + _H01 * p1
    # The kept half is scaled by s1 = 1 / sqrt(p) as complex-by-float
    # products, as in ``_born_measure``; qubit 1's p1 sums its |.1.> pair (b, a).
    s1 = 1.0 / math.sqrt(p)
    a, b = a * s1, b * s1
    p_one = 0.0 + (b.real * b.real + b.imag * b.imag) + (a.real * a.real + a.imag * a.imag)
    m2, p = _sample(rng, p_one) if pick is None else pick(1, p_one)
    s2 = 1.0 / math.sqrt(p)
    # The receiver holds the kept pair (a, b) if m2 is 0 and (b, a) if it is
    # 1, which X swaps back, so either way it is (a, b) scaled by s2.  Z
    # (m1 = 1) flips the sign of the |1> amplitude.
    zero, one = a * s2, b * s2
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

    Returns a new store with the decoded angles and ``store``'s gamma; raises
    TransferError naming the first weight whose channel use (validate the
    carrier, teleport, read out, decode) raised a ValueError.  Anything but a
    QuantumWeightStore (TypeError naming its kind) and an ``rng`` that is not
    a numpy Generator are refused before any carrier is built or draw made.
    """
    if not isinstance(store, QuantumWeightStore):
        raise TypeError(f"teleport_weights moves a QuantumWeightStore, got {type(store).__name__}")
    check_generator(rng, "rng")
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
    return QuantumWeightStore(np.array(out).reshape(shape), store.gamma)
