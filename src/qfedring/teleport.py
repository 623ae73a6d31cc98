"""Single-qubit teleportation over a simulated Bell pair.

The three-qubit register is (message, bell_A, bell_B).  Sender applies
CNOT(message -> bell_A) then H(message), measures qubits 0 and 1, and the
receiver fixes up bell_B with X (if the second bit is 1) then Z (if the
first bit is 1).  Noiseless, so the recovered state always has fidelity 1
with the message up to float rounding.

``teleport_state`` runs the register on Python complex scalars, which at
eight amplitudes is cheaper than numpy's per-call cost: each amplitude is
written out on the message's two and the constants ``_B0``..``_B3`` (the
Bell pair) and ``_H00``..``_H11`` (H), with CNOT(0 -> 1) as the order of
the products.  The message is a validated StateVector; the register built
from it is measured by ``statevec._born_measure``, the kernel behind
``measure_qubits``, with its sampling or forcing outcome rule, so the
channel rng is drawn as in the gate-by-gate protocol.  The corrections act
on the receiver's two amplitudes, and the recovered StateVector and
``decode_angle``'s purity gate check the way out.

``teleport_weights`` builds every carrier of a store with one
``statevec._rx_carriers`` call, then moves it one channel use per angle:
the carrier as a validated StateVector -> ``teleport_state`` ->
``state_expectations`` -> ``decode_angle`` for each weight in
(layer, qubit, k) order, two channel rng draws per weight.  It looks these
three names up in this module on every call, so a test or a tracer can wrap
any one of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qweights import QuantumWeightStore, decode_angle, state_expectations
from .qweights import encode_weight  # noqa: F401  (wrapped by perfbench/spans.py)
from .statevec import (
    _H,
    StateVector,
    _born_measure,
    _forcing_rule,
    _rx_carriers,
    _sampling_rule,
    fidelity,
)
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
_B0, _B1, _B2, _B3 = _BELL
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
    # The message times the Bell pair, then CNOT(0 -> 1): where qubit 0 is 1
    # it flips qubit 1, so the |1..> half takes the Bell pair as _B2, _B3, _B0, _B1.
    c0, c1 = message.amplitudes.tolist()
    p0, p1, p2, p3 = c0 * _B0, c0 * _B1, c0 * _B2, c0 * _B3
    p4, p5, p6, p7 = c1 * _B2, c1 * _B3, c1 * _B0, c1 * _B1
    # H acts on qubit 0: each row of H mixes amplitude j with amplitude j + 4.
    # Each sum starts from 0j, as a matmul's does, so a -0.0 comes out +0.0
    # and the register equals ``_H @ [p0..p7].reshape(2, 4)`` bit for bit.
    reg = [0j + _H00 * p0 + _H01 * p4, 0j + _H00 * p1 + _H01 * p5,
           0j + _H00 * p2 + _H01 * p6, 0j + _H00 * p3 + _H01 * p7,
           0j + _H10 * p0 + _H11 * p4, 0j + _H10 * p1 + _H11 * p5,
           0j + _H10 * p2 + _H11 * p6, 0j + _H10 * p3 + _H11 * p7]
    pick = _sampling_rule(rng) if force_outcome is None else _forcing_rule((0, 1), force_outcome)
    (m1, m2), _, amps = _born_measure(reg, 3, (0, 1), pick)
    # Qubits 0 and 1 are collapsed to (m1, m2), so the receiver's two
    # amplitudes are the register's only non-zero ones.  X swaps them and Z
    # flips the sign of the |1> one.
    base = 4 * m1 + 2 * m2
    zero, one = amps[base], amps[base + 1]
    if m2:
        zero, one = one, zero
    if m1:
        one = -one
    recovered = StateVector(1, [zero, one])
    return TeleportRecord(
        bell_outcome=(m1, m2),
        recovered_state=recovered,
        fidelity=fidelity(message, recovered),
    )


def teleport_weights(store: QuantumWeightStore, rng: np.random.Generator) -> QuantumWeightStore:
    """Move every stored angle through its own Bell pair, in (layer, qubit, k) order.

    Returns a new store with the decoded angles; raises TransferError naming
    the first weight whose channel use (validate the carrier, teleport, read
    out, decode) raised a ValueError.
    """
    carriers = _rx_carriers(store.angles)
    out = np.empty_like(store.angles)
    for layer in range(store.angles.shape[0]):
        for q in range(store.angles.shape[1]):
            for k in range(3):
                try:
                    record = teleport_state(StateVector(1, carriers[layer, q, k]), rng)
                    out[layer, q, k] = decode_angle(*state_expectations(record.recovered_state))
                except ValueError as exc:
                    raise TransferError(
                        f"weight (layer={layer}, qubit={q}, k={k}) failed in transfer: {exc}",
                        weight_index=(layer, q, k),
                    ) from exc
    return store.with_angles(out)
