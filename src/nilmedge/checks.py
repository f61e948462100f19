"""The two rules a scalar argument is checked against, shared by every module.

A bool is not a number: ``True`` is not 1 W, one epoch or one tree, so both
rules reject it (numpy's ``np.bool_`` is not a number to them either). Any
other Python or numpy integer or real scalar is accepted.
"""

from __future__ import annotations

import math
import numbers


def whole_number(value, least: float = -math.inf) -> bool:
    """value is an int, and not a bool, of at least `least` (any int by
    default)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def finite_number(value) -> bool:
    """value is a finite real number, and not a bool; NaN is not finite."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) < math.inf
