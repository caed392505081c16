"""A float sum whose bits do not depend on the Python version."""

from typing import Iterable


def ordered_sum(values: Iterable[float]) -> float:
    """Left to right from 0.0, uncompensated. From Python 3.12 the built-in
    ``sum`` of floats is compensated, which can move its last bits."""
    total = 0.0
    for value in values:
        total += value
    return total
