"""Exception types shared across the library.

Each class the command line can meet is one exit code: ``DomainError``
exits 2 and ``PrecisionError`` exits 3.
"""


class ShapeError(ValueError):
    """Operand dimensions are incompatible (a programming error)."""


class DomainError(ValueError):
    """An input lies outside its domain: a bad flag, a degenerate test
    function or a violated precondition."""


class PrecisionError(ArithmeticError):
    """A numerical certificate or internal cross-check failed."""
