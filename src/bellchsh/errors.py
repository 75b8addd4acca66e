"""Exception types shared across the library, and the one coercion
through which every domain check reads a number.

Each class the command line can meet is one exit code: ``DomainError``
exits 2 and ``PrecisionError`` exits 3.
"""

import math


class ShapeError(ValueError):
    """Operand dimensions are incompatible (a programming error)."""


class DomainError(ValueError):
    """An input lies outside its domain: a bad flag, a degenerate test
    function or a violated precondition."""


class PrecisionError(ArithmeticError):
    """A numerical certificate or internal cross-check failed."""


def to_number(value, kind=float):
    """``kind(value)``, with ``kind`` ``float`` or ``complex``, or NaN of
    that kind when ``value`` has none (a string that does not parse, a
    complex for ``float``, a sequence, None, an int beyond the float
    range).  Every domain check refuses NaN, so a value of the wrong type
    is refused by the check of its argument and named there as nan."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        return kind(math.nan)
