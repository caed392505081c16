"""Number checks shared by the config and pipeline validators, and a
float sum whose bits do not depend on the Python version."""

from typing import Iterable


def is_integer(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """An int or float that is not a bool; NaN and infinities included."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def ordered_sum(values: Iterable[float]) -> float:
    """Left to right from 0.0, uncompensated. From Python 3.12 the built-in
    ``sum`` of floats is compensated, which can move its last bits."""
    total = 0.0
    for value in values:
        total += value
    return total
