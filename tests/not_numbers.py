"""The catalogue of values that are not a finite real number, which every public
numeric input of decoyqkd rejects with its own error and message."""

import math

import numpy as np
import pytest

#: Each bad value by its test id, made from a valid value so that only the number
#: rule rejects it: np.asarray would parse the text, numpy orders a complex
#: number, and the range tests pass an object array of an in-range number.
NOT_NUMBERS = {
    "str": str,
    "str-list": lambda valid: [str(valid)],
    "str-array": lambda valid: np.array([str(valid)]),
    "object-array": lambda valid: np.array([valid], dtype=object),
    "complex": complex,
    "complex-array": lambda valid: np.array([complex(valid)]),
    "None": lambda valid: None,
    "nan": lambda valid: math.nan,
    "inf": lambda valid: math.inf,
    # a range is judged on the float64 value: numpy casts a Python float bound to
    # float32 or float16, where the float max overflows to inf, which inf then passes
    "float32-inf": lambda valid: np.float32(np.inf),
    "float16-inf": lambda valid: np.float16(np.inf),
    # no float holds it: converting it raises OverflowError, not the input's error
    "int-beyond-float": lambda valid: 10**400,
}


def not_numbers(valid, *covered):
    """The catalogue made from ``valid`` as pytest params, less the ``covered``
    ids, the cases a test already has."""
    return [
        pytest.param(make(valid), id=name)
        for name, make in NOT_NUMBERS.items()
        if name not in covered
    ]
