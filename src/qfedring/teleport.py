"""Single-qubit teleportation over a simulated Bell pair.

The three-qubit register is (message, bell_A, bell_B).  Sender applies
CNOT(message -> bell_A) then H(message), measures qubits 0 and 1, and the
receiver fixes up bell_B with X (if the second bit is 1) then Z (if the
first bit is 1).  Noiseless, so the recovered state always has fidelity 1
with the message up to float rounding.

``teleport_state`` runs the register on raw amplitudes: the outer product
of the message with the Bell amplitudes (built once from ``bell_pair``),
CNOT as the index permutation ``statevec._cnot_image``, H as one 2x4
matmul.  The measurement goes through ``measure_qubits``/``collapse_qubits``
unchanged, so the channel rng is drawn as in the gate-by-gate protocol,
and the corrections act on the receiver's two amplitudes alone.  The tests
replay the protocol gate by gate with ``apply_gate`` as the oracle.

``teleport_weights`` moves a whole weight store one channel use per angle:
``encode_weight`` -> ``teleport_state`` -> ``state_expectations`` ->
``decode_angle`` for each weight in (layer, qubit, k) order, two channel
rng draws per weight.  It looks these names up in this module on every
call, so a test or a tracer can wrap any one of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qweights import QuantumWeightStore, decode_angle, encode_weight, state_expectations
from .statevec import (
    _H,
    StateVector,
    _cnot_image,
    _z_signs,
    apply_gate,
    cnot,
    collapse_qubits,
    fidelity,
    h,
    measure_qubits,
    zero_state,
)


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


def bell_pair() -> StateVector:
    """(|00> + |11>) / sqrt(2)."""
    state = apply_gate(zero_state(2), h(0))
    return apply_gate(state, cnot(0, 1))


@lru_cache(maxsize=1)
def _bell_amplitudes() -> np.ndarray:
    """``bell_pair()``'s read-only amplitudes, built on first use so that
    importing the package costs no simulation and no memory for it."""
    return bell_pair().amplitudes


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
    joint = np.multiply.outer(message.amplitudes, _bell_amplitudes()).ravel()
    # H acts on qubit 0, the leading axis once the register is split 2 x 4.
    reg = StateVector(3, (_H @ joint[_cnot_image(3, ((0, 1),))].reshape(2, 4)).ravel())
    if force_outcome is not None:
        m1, m2 = force_outcome
        _, reg = collapse_qubits(reg, [0, 1], [m1, m2])
    else:
        (m1, m2), reg = measure_qubits(reg, [0, 1], rng)
    # Qubits 0 and 1 are collapsed to (m1, m2); the receiver holds the rest.
    # X swaps its two amplitudes and Z flips the sign of the |1> one.
    block = reg.amplitudes.reshape(2, 2, 2)[m1, m2, :]
    if m2:
        block = block[::-1]
    if m1:
        block = block * _z_signs(1)[0]
    recovered = StateVector(1, block)
    return TeleportRecord(
        bell_outcome=(m1, m2),
        recovered_state=recovered,
        fidelity=fidelity(message, recovered),
    )


def teleport_weights(store: QuantumWeightStore, rng: np.random.Generator) -> QuantumWeightStore:
    """Move every stored angle through its own Bell pair, in (layer, qubit, k) order.

    Returns a new store with the decoded angles; raises TransferError naming
    the first weight whose carrier failed to decode.
    """
    out = np.empty_like(store.angles)
    for layer in range(store.angles.shape[0]):
        for q in range(store.angles.shape[1]):
            for k in range(3):
                angle = float(store.angles[layer, q, k])
                record = teleport_state(encode_weight(angle), rng)
                try:
                    out[layer, q, k] = decode_angle(*state_expectations(record.recovered_state))
                except ValueError as exc:
                    raise TransferError(
                        f"weight (layer={layer}, qubit={q}, k={k}) failed to decode: {exc}",
                        weight_index=(layer, q, k),
                    ) from exc
    return store.with_angles(out)
