"""One number-array rule at every entry point that takes weights, angles,
a carrier's angle, logits, an upstream or a gradient: ``datagen.as_floats``
(the cast) and ``datagen.check_floats`` (the cast, then finiteness).

Bool, int, uint and float arrays of any memory order pass and give results
bit-equal to the same values as a C-ordered float64 array.  Any other dtype
is refused by name, with the rule's message, and never cast: a complex
value would lose its imaginary part, text and bytes would be parsed as
numbers, and an object array (Fractions, or ints past int64) would be
converted one entry at a time.  Where ``check_floats`` runs, a non-finite
value is refused as well.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from qfedring import datagen as dg
from qfedring import qweights as qw
from qfedring import trainkit as tk
from qfedring import vqc

CIRCUIT = (2, 2, 3)
FEATS = np.random.default_rng(5).uniform(0, np.pi, size=(8, 2))
STATES = vqc.encode(FEATS, 2)
LABELS = np.array([0, 1, 0, 1, 1, 0, 1, 0])
LOGITS = (len(LABELS), 2)
STORE = qw.init_store(np.random.default_rng(0), 2, math.pi)
CIRCUIT_PARAMS = vqc.init_model(np.random.default_rng(1), 2).params
MLP = tk.init_mlp(np.random.default_rng(2))
OPT = tk.SgdOptimizer(0.02)


def _loss(logits):
    return tk.batch_loss_and_grad(logits, LABELS)


def _upstream(value):
    """A loss whose upstream is ``value``."""
    return lambda logits: (np.zeros(len(logits)), value)


# name -> (shape of the array, what errors call it, call), for the entry
# points whose array goes through check_floats.
CHECKED = {
    "VqcModel": (CIRCUIT, "params", lambda v: vqc.VqcModel(v).params),
    "QuantumWeightStore": (CIRCUIT, "angles", lambda v: qw.QuantumWeightStore(v, math.pi).angles),
    "ClassicalMlp": ((tk.MLP_PARAMS,), "params", lambda v: tk.ClassicalMlp(v).params),
    "forward_batch": (CIRCUIT, "params", lambda v: vqc.forward_batch(v, STATES)),
    "gradient_batch": (CIRCUIT, "params", lambda v: vqc.gradient_batch(v, STATES, _loss)),
    "weight_gradient": (CIRCUIT, "circuit_grad", lambda v: qw.weight_gradient(STORE, v)),
    "encode_weight": ((), "angle", lambda v: qw.encode_weight(v).amplitudes),
}

# The same for the entry points that take only the cast, as_floats; each
# value's finiteness is checked where it leads (the logits bound, the next
# model's constructor, canonical_angles' wrapping branch).
CAST = {
    "batch_loss_and_grad": (LOGITS, "logits", lambda v: tk.batch_loss_and_grad(v, LABELS)),
    "gradient_batch upstream": (
        LOGITS, "upstream", lambda v: vqc.gradient_batch(CIRCUIT_PARAMS, STATES, _upstream(v))
    ),
    "mlp_batch_grads upstream": (
        LOGITS, "upstream", lambda v: tk.mlp_batch_grads(MLP, FEATS, _upstream(v))
    ),
    "SgdOptimizer.step params": (CIRCUIT, "params", lambda v: OPT.step(v, CIRCUIT_PARAMS)),
    "SgdOptimizer.step grad": (CIRCUIT, "grad", lambda v: OPT.step(CIRCUIT_PARAMS, v)),
    "VqcModel.step": (CIRCUIT, "grad", lambda v: vqc.VqcModel(CIRCUIT_PARAMS).step(v, OPT).params),
    "ClassicalMlp.step": ((tk.MLP_PARAMS,), "grad", lambda v: MLP.step(v, OPT).params),
    "canonical_angles": (CIRCUIT, "angles", qw.canonical_angles),
}

ENTRY_POINTS = {**CHECKED, **CAST}


def _with_first(shape, value):
    """A nested list of 0.25s shaped ``shape`` whose first entry is ``value``."""
    flat = np.full(int(np.prod(shape)), 0.25, dtype=object)
    flat[0] = value
    return flat.reshape(shape).tolist()


_DTYPE = "must be bool, int or float numbers, got dtype "

# name -> (make an array of a shape, what the rule says after the array's name)
NOT_NUMBERS = {
    "complex": (lambda s: np.full(s, 0.25 + 0j), _DTYPE + "complex128"),
    "complex in a list": (lambda s: _with_first(s, 0.25j), _DTYPE + "complex128"),
    "str": (lambda s: np.full(s, "0.25"), _DTYPE + "<U4"),
    "bytes": (lambda s: np.full(s, b"0.25"), _DTYPE + "|S4"),
    "Fractions": (lambda s: np.full(s, Fraction(1, 4), dtype=object), _DTYPE + "object"),
    "ints past int64": (lambda s: _with_first(s, 2**64), _DTYPE + "object"),
}
NOT_FINITE = {
    "NaN": (lambda s: _with_first(s, np.nan), "must be finite"),
    "-inf": (lambda s: _with_first(s, -np.inf), "must be finite"),
}
REFUSED = {**NOT_NUMBERS, **NOT_FINITE}

# name -> make an accepted array of a shape from its C-ordered float64 values
ACCEPTED = {
    "bool": lambda x: x > 0,
    "int": lambda x: np.rint(4 * x).astype(np.int64),
    "uint": lambda x: np.rint(4 * np.abs(x)).astype(np.uint8),
    "float32": lambda x: x.astype(np.float32),
    "Fortran order": lambda x: np.array(x, order="F"),
}


def _canon(result):
    """A form of ``result`` that is equal only when every bit and dtype is."""
    if isinstance(result, tuple):
        return tuple(map(_canon, result))
    return result.dtype.str, result.shape, result.tobytes()


@pytest.mark.parametrize(
    ("entry", "case"),
    [(entry, case) for entry in ENTRY_POINTS for case in NOT_NUMBERS]
    + [(entry, case) for entry in CHECKED for case in NOT_FINITE],
)
def test_refused_by_name(entry, case):
    shape, name, call = ENTRY_POINTS[entry]
    make, says = REFUSED[case]
    with pytest.raises(ValueError) as refused:
        call(make(shape))
    assert str(refused.value) == f"{name} {says}"


@pytest.mark.parametrize("case", ACCEPTED)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_accepted_bit_equal_to_float64(entry, case):
    shape, _, call = ENTRY_POINTS[entry]
    values = ACCEPTED[case](np.random.default_rng(3).uniform(-1, 1, size=shape))
    assert _canon(call(values)) == _canon(call(np.asarray(values, dtype=float, order="C")))


def test_a_c_ordered_float64_array_is_not_copied():
    x = np.arange(6.0).reshape(2, 3)
    assert dg.check_floats(x, "x") is x
    assert dg.as_floats(x, "x") is x
    assert dg.check_floats(x.T, "x").flags.c_contiguous
    assert dg.check_floats([[1, 0], [0, 1]], "x").dtype == float
