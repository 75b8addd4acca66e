"""Exception types, the coercions through which every domain check reads
its numbers and integers, and ``named``, the one namer of a refused argument.

Each class the command line can meet is one exit code: ``DomainError``
exits 2 and ``PrecisionError`` exits 3.
"""

import math
import operator
import reprlib

import numpy as np


class _Namer(reprlib.Repr):
    def repr_ndarray(self, value, level):
        if 0 < value.size <= 16 or value.shape[:1] == (0,):  # tolist() is short
            return self.repr1(value.tolist(), level)
        return f"array of shape {value.shape} and dtype {value.dtype}"


#: ``named(value)`` names a refused argument: its repr where short, else a
#: ``reprlib`` abridgement two levels deep, other limits at their defaults.
#: An ndarray, at any depth, is its ``tolist()`` when it has at most 16
#: entries or an empty first axis, else its shape and dtype, not copied.
_NAMER = _Namer()
_NAMER.maxlevel = 2  # on the instance, where ``Repr.__init__`` sets it
named = _NAMER.repr

#: never converted by ``to_number``; with complex, all it checks, in one isinstance
_TEXT_OR_ARRAY = (str, bytes, bytearray, np.ndarray)
_SPECIAL = (complex, np.complexfloating, *_TEXT_OR_ARRAY)


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
    that kind when ``value`` has none: text (never parsed), an ndarray that
    is not 0-d (a 0-d one is read as its entry), a complex with a non-zero
    imaginary part for ``float``, a sequence, None or an int beyond the
    float range.  Every domain check refuses NaN, so a value of the wrong
    type is refused by its own check, named as nan."""
    if isinstance(value, _SPECIAL):
        if isinstance(value, np.ndarray) and value.ndim == 0:
            value = value[()]
        if isinstance(value, _TEXT_OR_ARRAY):
            value = math.nan
        elif kind is float and isinstance(value, (complex, np.complexfloating)):
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
