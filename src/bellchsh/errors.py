"""Exception types, the coercions through which every domain check reads
its numbers and integers, and ``named``, the one namer of a refused argument.

Each class the command line can meet is one exit code: ``DomainError``
exits 2 and ``PrecisionError`` exits 3.
"""

import math
import operator
import reprlib

import numpy as np

#: ``named(value)`` names a refused argument: its repr where short, else a
#: ``reprlib`` abridgement two levels deep, other limits at their defaults
_NAMER = reprlib.Repr()
_NAMER.maxlevel = 2
named = _NAMER.repr


class ShapeError(ValueError):
    """Operand dimensions are incompatible (a programming error)."""


class DomainError(ValueError):
    """An input lies outside its domain: a bad flag, a degenerate test
    function or a violated precondition.  ``argument`` names the
    parameter at fault, where one is."""

    def __init__(self, message: str, argument: str | None = None):
        super().__init__(message)
        self.argument = argument


class PrecisionError(ArithmeticError):
    """A numerical certificate or internal cross-check failed."""


def to_number(value, kind=float):
    """``kind(value)``, with ``kind`` ``float`` or ``complex``, or NaN of
    that kind when ``value`` has none: a string that does not parse, a
    complex with a non-zero imaginary part for ``float``, a sequence, None
    or an int beyond the float range.  Every domain check refuses NaN, so
    a value of the wrong type is refused by its own check, named as nan."""
    if kind is float and isinstance(value, (complex, np.complexfloating)):
        value = value.real if value.imag == 0 else math.nan
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        return kind(math.nan)


def to_index(value) -> int:
    """``operator.index(value)``, or 0 when ``value`` is no integer: every
    count or size check that reads one refuses 0, naming the value given."""
    try:
        return operator.index(value)
    except TypeError:
        return 0


def to_numbers(values, argument: str, length: int | None = None) -> tuple[float, ...]:
    """The items of the iterable ``values``, each read by ``to_number``.
    No iterable, or other than ``length`` items when it is given (counted
    before any is read), raises ``DomainError`` naming ``argument``."""
    try:
        if length is not None and len(values) != length:
            raise TypeError
        return tuple(to_number(v) for v in values)
    except TypeError:
        raise DomainError(f"{argument} must be {length or 'a sequence of'} numbers, "
                          f"got {named(values)}", argument=argument) from None
