"""Dense statevector simulation for few-qubit registers.

Basis convention: qubit 0 is the most significant bit of the basis index,
so a two-qubit amplitude vector is ordered |00>, |01>, |10>, |11> and a
joint register puts its first factor's qubits in the high bits.  This
convention is fixed here and used by every other module, which take the
array primitives built on it from here: ``_rx_carriers``, ``_z_signs`` and
``_cnot_image``.

States are immutable values: every operation returns a fresh StateVector
and never mutates its input.  A StateVector is validated on construction:
``num_qubits`` a plain ``int`` up to ``MAX_QUBITS`` (``True`` and ``1.0`` are
refused), the amplitudes bool, int, float or complex numbers (text, bytes and
objects are refused by dtype, not parsed), then finite and of unit norm.
That last rule is ``_check_amplitudes``, on the squared norm, which the
constructor reads off one dot product.  ``_qubit(c0, c1)`` is the one-qubit
StateVector of two Python complex numbers: the same rule on the scalars,
with the same refusals and messages, and no numpy check or dataclass
constructor.  The teleport channel builds every state it makes with it, so
no run calls ``StateVector.__post_init__``.

Measurement has one kernel, ``_born_measure``, on the amplitudes as Python
complex numbers, which at a few qubits is cheaper than numpy's per-call
cost, and one sampled outcome rule, ``_sample``, which ``measure_qubits``
hands the kernel as its pick on an rng that ``datagen.check_generator``
passed.  The teleport channel measures on its register's halves instead,
calling ``_sample`` (or ``_forcing_rule``'s pick) itself, and its tests
replay ``_born_measure`` as the reference, so no run calls it.  It reads
each basis index's bit with the shift ``_z_signs`` and ``_cnot_image`` use.

A run calls none of the gate-by-gate names: ``apply_gate``, which applies
any dense matrix to the qubits it names, ``expectation`` and
``measure_qubits``, with their one qubit check ``_check_targets``.  They
stay here only because the benchmark tracer (``perfbench/spans.py``) wraps
the first three by module attribute; the tests drive ``apply_gate`` with the
gate matrices ``tests/oracle.py`` builds.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .datagen import check_generator

MAX_QUBITS = 12

_NORM_TOL = 1e-10
_MIN_OUTCOME_PROB = 1e-15

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _rx_matrix(a: float) -> np.ndarray:
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over the 2**num_qubits basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        n = self.num_qubits
        if type(n) is not int or not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {n!r}")
        amps = np.asarray(self.amplitudes)
        if amps.dtype.kind not in "biufc":
            raise ValueError(
                f"amplitudes must be bool, int, float or complex numbers, got dtype {amps.dtype}"
            )
        amps = np.array(amps, dtype=complex)
        if amps.shape != (2**n,):
            raise ValueError(f"expected {2**n} amplitudes for {n} qubits, got shape {amps.shape}")
        _check_amplitudes(np.vdot(amps, amps).real, amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def _check_amplitudes(squared: float, amps) -> None:
    """The amplitude rule of a StateVector, given its squared L2 norm: finite, unit norm.

    Any NaN or inf amplitude makes the squared norm non-finite, so the
    element-wise scan runs only then (finite amplitudes whose squares
    overflow fall through to the norm).
    """
    if not math.isfinite(squared) and not all(map(cmath.isfinite, amps)):
        raise ValueError("amplitudes must be finite")
    norm = math.sqrt(squared)
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(f"amplitudes are not normalized (L2 norm {norm!r})")


def _qubit(c0: complex, c1: complex) -> StateVector:
    """The one-qubit StateVector [c0, c1] from two Python complex amplitudes.

    The amplitude rule runs on the scalars, with StateVector's refusals and
    messages; the read-only array is built once and the dataclass
    constructor is skipped.  The squared norm is summed as |c0|^2 + |c1|^2,
    which can differ from the constructor's dot product in the last bit, so
    a norm refusal may print a norm one digit apart from the constructor's.
    """
    _check_amplitudes(
        (c0.real * c0.real + c0.imag * c0.imag) + (c1.real * c1.real + c1.imag * c1.imag),
        (c0, c1),
    )
    amps = np.array((c0, c1))
    amps.setflags(write=False)
    state = object.__new__(StateVector)
    object.__setattr__(state, "num_qubits", 1)
    object.__setattr__(state, "amplitudes", amps)
    return state


def apply_gate(state: StateVector, matrix, *qubits: int) -> StateVector:
    """Return U|state> for a dense (2**k, 2**k) matrix U on k distinct qubits,
    the first of them the high bit of U's index; the input is left untouched."""
    n, k = state.num_qubits, len(qubits)
    if not k:
        raise ValueError("a gate acts on at least one qubit")
    _check_targets(qubits, n, "gate")
    u = np.asarray(matrix)
    if u.shape != (2**k, 2**k):
        raise ValueError(f"a {k}-qubit gate takes a {(2**k, 2**k)} matrix, got shape {u.shape}")
    moved = range(n - k, n)
    t = np.moveaxis(state.amplitudes.reshape((2,) * n), qubits, moved)
    t = t.reshape(t.shape[: n - k] + (2**k,)) @ u.T
    amps = np.moveaxis(t.reshape((2,) * n), moved, qubits).reshape(-1)
    return StateVector(n, amps)


def _rx_carriers(angles: np.ndarray) -> np.ndarray:
    """RX(a)|0> = [cos(a/2), -i sin(a/2)] for every angle a of a float array:
    shape ``angles.shape + (2,)``."""
    half = angles / 2
    amps = np.empty(half.shape + (2,), dtype=complex)
    amps[..., 0] = np.cos(half)
    amps[..., 1] = -1j * np.sin(half)
    return amps


@lru_cache(maxsize=MAX_QUBITS)
def _z_signs(num_qubits: int) -> np.ndarray:
    """Read-only (num_qubits, 2**num_qubits) Pauli-Z eigenvalues, one row per qubit."""
    shifts = num_qubits - 1 - np.arange(num_qubits)
    bits = (np.arange(2**num_qubits) >> shifts[:, None]) & 1
    signs = 1.0 - 2.0 * bits
    signs.flags.writeable = False
    return signs


@lru_cache(maxsize=16)
def _cnot_image(num_qubits: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Read-only basis index each |b> is sent to by the CNOT pairs in order;
    a single CNOT is its own inverse, so ``amps[image]`` applies it."""
    idx = np.arange(2**num_qubits)
    for control, target in pairs:
        idx ^= ((idx >> (num_qubits - 1 - control)) & 1) << (num_qubits - 1 - target)
    idx.flags.writeable = False
    return idx


def expectation(state: StateVector, target: int) -> float:
    """<state| Z_target |state>, computed exactly from the amplitudes."""
    _check_targets((target,), state.num_qubits, "observable target")
    a = state.amplitudes
    return float(_z_signs(state.num_qubits)[target] @ (a.real**2 + a.imag**2))


def _sample(rng: np.random.Generator, p1: float) -> tuple[int, float]:
    """Outcome rule of a sampled measurement, for a bit that reads 1 with
    probability ``p1``: a near-certain bit is taken without a draw, any other
    is one ``rng.random() < p1`` draw.  Returns the bit and its probability."""
    if p1 < _MIN_OUTCOME_PROB:
        outcome = 0
    elif p1 > 1.0 - _MIN_OUTCOME_PROB:
        outcome = 1
    else:
        outcome = 1 if rng.random() < p1 else 0
    return outcome, p1 if outcome else 1.0 - p1


def _forcing_rule(targets, outcomes):
    """Outcome rule of a forced measurement: the given bit on each target,
    refused when its probability is below 1e-15.  A bit is a Python or numpy
    int 0 or 1 (a bool or a float is refused) and is recorded as an int."""
    if len(targets) != len(outcomes):
        raise ValueError("targets and outcomes must pair up")
    for outcome in outcomes:
        bit = isinstance(outcome, numbers.Integral) and not isinstance(outcome, bool)
        if not bit or outcome not in (0, 1):
            raise ValueError(f"outcome bits must be 0 or 1, got {outcome!r}")
    forced = dict(zip(targets, map(int, outcomes)))

    def pick(q: int, p1: float) -> tuple[int, float]:
        outcome = forced[q]
        p = p1 if outcome else 1.0 - p1
        if p < _MIN_OUTCOME_PROB:
            raise ValueError(f"outcome {outcome} on qubit {q} has probability {p:.3e}")
        return outcome, p

    return pick


def _born_measure(amps: list, num_qubits: int, targets, pick) -> tuple[list[int], float, list]:
    """Measure ``targets`` in order on plain Python complex amplitudes.

    ``pick(q, p1)`` gets the probability that qubit ``q`` reads 1 (the sum
    of |a|^2 over the basis states with that bit set, in index order) and
    returns the outcome and its probability p.  The kept amplitudes are
    multiplied by 1 / sqrt(p), which is what numpy's complex-by-real division
    does, and the others become 0.  Returns the outcome bits, their joint
    probability and the post-measurement amplitudes; validation is the
    caller's.
    """
    outcomes: list[int] = []
    joint = 1.0
    for q in targets:
        shift = num_qubits - 1 - q
        p1 = 0.0
        for j, a in enumerate(amps):
            if (j >> shift) & 1:
                p1 += a.real * a.real + a.imag * a.imag
        outcome, p = pick(q, p1)
        scale = 1.0 / math.sqrt(p)
        amps = [a * scale if (j >> shift) & 1 == outcome else 0j for j, a in enumerate(amps)]
        outcomes.append(outcome)
        joint *= p
    return outcomes, joint, amps


def _check_targets(targets, num_qubits: int, role: str) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"{role} targets must be distinct, got {targets}")
    for q in targets:
        if not 0 <= q < num_qubits:
            raise ValueError(f"{role} qubit {q} out of range for {num_qubits}-qubit state")


def measure_qubits(
    state: StateVector, targets: list[int], rng: np.random.Generator
) -> tuple[list[int], StateVector]:
    """Measure the targets in order, sampling outcomes from the Born rule.

    Returns the outcome bits and the renormalized post-measurement state.
    Deterministic for a given rng state; outcomes whose probability falls
    below 1e-15 are never drawn, and a bit that certain takes no draw.
    """
    check_generator(rng, "rng")
    _check_targets(targets, state.num_qubits, "measurement")
    outcomes, _, amps = _born_measure(
        state.amplitudes.tolist(), state.num_qubits, targets, lambda q, p1: _sample(rng, p1)
    )
    return outcomes, StateVector(state.num_qubits, amps)

