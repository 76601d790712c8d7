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
}


def not_numbers(valid, *covered):
    """The catalogue made from ``valid`` as pytest params, less the ``covered``
    ids, the cases a test already has."""
    return [
        pytest.param(make(valid), id=name)
        for name, make in NOT_NUMBERS.items()
        if name not in covered
    ]
