"""Circuit weights held as single-qubit states instead of raw floats.

Each weight is an angle ``a`` carried by the state RX(a)|0> =
[cos(a/2), -i sin(a/2)]; the usable parameter value is gamma * <Z> of that
carrier.  ``_rx_z`` reads <Z> = cos(a/2)^2 - sin(a/2)^2 for a whole array
of angles straight from the cosines and sines, bit-equal to building the
carriers with ``statevec._rx_carriers`` and reading |c0|^2 - |c1|^2 (the
form ``tests/oracle.py`` keeps as ``_z_expectation``), so
``materialize`` reads a whole store in one pass and ``weight_gradient``
chains the circuit gradient back through the same two-point shift rule as
the circuit parameters, with the +shift and -shift angles as one array.
So an SGD step on the angles moves ``materialize(store)`` about
gamma^2 sin^2(a) times as far as a circuit step at the same rate: 7.6 to 9.9
at gamma = pi over ``init_store``'s angles.  ``QuantumWeightStore`` has the
model interface ``trainkit`` describes: its
``logits`` and ``loss_grad`` run the circuit engine on ``materialize(store)``,
and ``step(circuit_grad, optimizer)`` runs ``weight_gradient``, the optimizer
and ``canonical_angles``, each called through its module-level name so
that rebinding one (as a tracer does) also covers this path.
``encode_weight`` wraps one carrier as a validated StateVector; no run
calls it (the teleport channel builds a whole store's carriers at once),
and it stays only because the benchmark tracer wraps it, as it does the
``apply_gate`` and ``expectation`` imported here.  ``state_expectations``
reads (<Z>, <Y>) back from the two amplitudes the teleport channel's
``statevec._qubit`` state holds, as Python complex scalars, |c0|^2 - |c1|^2
without numpy's per-call cost.  Every value is the same float the
gate-by-gate simulator gives (RX on |0>, then the Pauli-Z expectation), and
the tests hold these functions to that oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import vqc
from .datagen import as_floats, check_count, check_floats, check_positive
from .statevec import StateVector, _rx_carriers, _rx_matrix
from .statevec import apply_gate, expectation  # noqa: F401  (wrapped by perfbench/spans.py)
from .vqc import NUM_QUBITS, SHIFT, SHIFT_COEFFICIENT, _layer_angles

ANGLE_INIT_CENTER = math.pi / 2
ANGLE_INIT_HALF_WIDTH = 0.5

_PURITY_TOL = 1e-6

# Added to a store's angles, gives the +shift and the -shift angles as one array.
_SHIFT_PAIR = np.array([SHIFT, -SHIFT]).reshape(2, 1, 1, 1)
_SHIFT_PAIR.flags.writeable = False

# RX(pi/2).T as Python complex rows: amps @ it is the basis change <Y> -> <Z>.
_RX_HALF_PI_T = tuple(map(tuple, _rx_matrix(math.pi / 2).T.tolist()))


@dataclass(frozen=True)
class QuantumWeightStore:
    """Angles shaped like circuit params [layer][qubit][3], plus the value scale."""

    angles: np.ndarray
    gamma: float

    def __post_init__(self) -> None:
        angles = _layer_angles(self.angles, "angles")
        check_positive(self.gamma, "gamma")
        object.__setattr__(self, "angles", angles)

    @property
    def num_qubits(self) -> int:
        return self.angles.shape[1]

    def logits(self, features) -> np.ndarray:
        return vqc.forward_batch(materialize(self), features)

    def loss_grad(self, features, loss) -> tuple[np.ndarray, np.ndarray]:
        return vqc.gradient_batch(materialize(self), features, loss)

    def step(self, circuit_grad: np.ndarray, optimizer) -> "QuantumWeightStore":
        """One optimizer step on the angles, chained from a circuit gradient.

        The angles are wrapped back to the branch decode_angle returns, so
        both transports hand on the same store.
        """
        angles = canonical_angles(optimizer.step(self.angles, weight_gradient(self, circuit_grad)))
        return QuantumWeightStore(angles, self.gamma)


def init_store(rng: np.random.Generator, num_layers: int, gamma: float) -> QuantumWeightStore:
    """Angles drawn uniformly around pi/2, where <Z> crosses zero at full slope."""
    check_count(num_layers, "num_layers")
    lo = ANGLE_INIT_CENTER - ANGLE_INIT_HALF_WIDTH
    hi = ANGLE_INIT_CENTER + ANGLE_INIT_HALF_WIDTH
    angles = rng.uniform(lo, hi, size=(num_layers, NUM_QUBITS, 3))
    return QuantumWeightStore(angles, gamma=gamma)


def _rx_z(angles: np.ndarray) -> np.ndarray:
    """<Z> of RX(a)|0> for every angle a of a float array, as cos(a/2)^2 - sin(a/2)^2."""
    half = angles / 2
    c, s = np.cos(half), np.sin(half)
    return c * c - s * s


def _z_of(c0: complex, c1: complex) -> float:
    """<Z> = |c0|^2 - |c1|^2 of one qubit's two amplitudes, on Python scalars."""
    return (c0.real * c0.real + c0.imag * c0.imag) - (c1.real * c1.real + c1.imag * c1.imag)


def encode_weight(angle: float) -> StateVector:
    """The carrier state RX(angle)|0> for one stored weight."""
    a = check_floats(angle, "angle")
    if a.ndim:
        raise ValueError(f"angle must be a single number, got shape {a.shape}")
    return StateVector(1, _rx_carriers(a))


def materialize(store: QuantumWeightStore) -> np.ndarray:
    """Effective circuit parameters gamma * <Z>, one per stored angle."""
    return store.gamma * _rx_z(store.angles)


def weight_gradient(store: QuantumWeightStore, circuit_grad: np.ndarray) -> np.ndarray:
    """Chain the circuit gradient back to the stored angles.

    The readout <Z>(a) obeys the same two-point shift rule as the circuit
    parameters, so the inner factor is evaluated as two shifted expectations
    rather than an analytic derivative.
    """
    cg = check_floats(circuit_grad, "circuit_grad")
    if cg.shape != store.angles.shape:
        raise ValueError(f"circuit_grad shape {cg.shape} != angles shape {store.angles.shape}")
    plus, minus = _rx_z(store.angles + _SHIFT_PAIR)
    return cg * store.gamma * (SHIFT_COEFFICIENT * (plus - minus))


def state_expectations(state: StateVector) -> tuple[float, float]:
    """(<Z>, <Y>) of a single-qubit state.

    <Y> comes from a basis change: RX(pi/2)^dag Z RX(pi/2) = Y, so rotating
    the state by RX(pi/2) and reading Z gives it without a second observable.
    """
    if state.num_qubits != 1:
        raise ValueError("expected a single-qubit state")
    c0, c1 = state.amplitudes.tolist()
    (r00, r01), (r10, r11) = _RX_HALF_PI_T
    return _z_of(c0, c1), _z_of(c0 * r00 + c1 * r10, c0 * r01 + c1 * r11)


def decode_angle(expect_z: float, expect_y: float) -> float:
    """Recover the stored angle from (<Z>, <Y>) of its carrier state.

    RX(a)|0> has <Z> = cos a and <Y> = -sin a, so the pair must sit on the
    unit circle; anything off it by more than 1e-6 means the carrier was not
    a clean RX encoding and is rejected, as is NaN or inf.  Result lies in (-pi, pi].
    """
    residual = expect_z * expect_z + expect_y * expect_y - 1.0
    if not abs(residual) <= _PURITY_TOL:
        raise ValueError(
            f"expectation pair ({expect_z!r}, {expect_y!r}) is off the unit circle "
            f"by {residual:.3e}"
        )
    angle = math.atan2(-expect_y, expect_z)
    if angle <= -math.pi:
        angle = math.pi
    return angle


def canonical_angles(angles: np.ndarray) -> np.ndarray:
    """Wrap angles to the principal branch (-pi, pi] without changing any <Z> or <Y>.

    Applied after every optimizer step so that stored angles stay on the same
    branch decode_angle returns, keeping transports interchangeable.  Angles
    already inside the branch pass through bit for bit.  When every angle is
    inside it, the result is ``datagen.as_floats(angles, "angles")`` itself,
    so it aliases a C-ordered float64 input array (``QuantumWeightStore``
    copies its angles either way); a NaN fails both bounds and takes the
    wrapping path.
    """
    a = as_floats(angles, "angles")
    top = np.maximum.reduce(a, axis=None, initial=-math.inf)
    if top <= math.pi and np.minimum.reduce(a, axis=None, initial=math.inf) > -math.pi:
        return a
    wrapped = np.mod(a + math.pi, 2.0 * math.pi) - math.pi
    wrapped = np.where(wrapped == -math.pi, math.pi, wrapped)
    return np.where((a > math.pi) | (a <= -math.pi), wrapped, a)
