"""Single-qubit teleportation over a simulated Bell pair.

The three-qubit register is (message, bell_A, bell_B).  Sender applies
CNOT(message -> bell_A) then H(message), measures qubits 0 and 1, and the
receiver fixes up bell_B with X (if the second bit is 1) then Z (if the
first bit is 1).  Noiseless, so the recovered state always has fidelity 1
with the message up to float rounding.

``teleport_state`` runs the register on raw amplitudes: the outer product
of the message with ``bell_pair``'s amplitudes (a constant), CNOT as the
index permutation ``statevec._cnot_image``, H as one 2x4 matmul.  The
message is a validated StateVector; the register built from it is measured
as it is by ``statevec._born_measure``, the kernel behind ``measure_qubits``
and ``collapse_qubits``, with the same outcome rules, so the channel rng is
drawn as in the gate-by-gate protocol.  The corrections act on the
receiver's two amplitudes, and the recovered StateVector and
``decode_angle``'s purity gate check the way out.  The tests replay the
protocol gate by gate with ``apply_gate`` as the oracle.

``teleport_weights`` moves a whole weight store one channel use per angle:
``encode_weight`` -> ``teleport_state`` -> ``state_expectations`` ->
``decode_angle`` for each weight in (layer, qubit, k) order, two channel
rng draws per weight.  It looks these names up in this module on every
call, so a test or a tracer can wrap any one of them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qweights import QuantumWeightStore, decode_angle, encode_weight, state_expectations
from .statevec import (
    _H,
    StateVector,
    _born_measure,
    _cnot_image,
    _forcing_rule,
    _sampling_rule,
    apply_gate,
    cnot,
    fidelity,
    h,
    zero_state,
)
from .statevec import measure_qubits  # noqa: F401  (wrapped by perfbench/spans.py)


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


# ``bell_pair().amplitudes`` bit for bit; a complex division would lose its -0.0.
_BELL_AMPLITUDES = (np.array([1.0, 0.0, -0.0, 1.0]) / np.sqrt(2)).astype(complex)
_BELL_AMPLITUDES.flags.writeable = False


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
    joint = np.multiply.outer(message.amplitudes, _BELL_AMPLITUDES).ravel()
    # H acts on qubit 0, the leading axis once the register is split 2 x 4.
    reg = _H @ joint[_cnot_image(3, ((0, 1),))].reshape(2, 4)
    pick = _sampling_rule(rng) if force_outcome is None else _forcing_rule((0, 1), force_outcome)
    (m1, m2), _, amps = _born_measure(reg.ravel().tolist(), 3, (0, 1), pick)
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
    the first weight whose channel use (encode, teleport, read out, decode)
    raised a ValueError.
    """
    out = np.empty_like(store.angles)
    for layer in range(store.angles.shape[0]):
        for q in range(store.angles.shape[1]):
            for k in range(3):
                try:
                    record = teleport_state(encode_weight(float(store.angles[layer, q, k])), rng)
                    out[layer, q, k] = decode_angle(*state_expectations(record.recovered_state))
                except ValueError as exc:
                    raise TransferError(
                        f"weight (layer={layer}, qubit={q}, k={k}) failed in transfer: {exc}",
                        weight_index=(layer, q, k),
                    ) from exc
    return store.with_angles(out)
