"""Exception types shared across the library."""


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class DomainError(ValueError):
    """A numeric parameter lies outside its admissible domain."""


class DegenerateInputError(ValueError):
    """An input is degenerate (e.g. a test function with vanishing norm)."""


class PreconditionError(ValueError):
    """A documented precondition of an operation is violated."""


class PrecisionError(ArithmeticError):
    """A numerical procedure cannot certify the requested tolerance."""


class ConsistencyError(ArithmeticError):
    """An internal cross-check failed (e.g. a spurious imaginary part)."""


class ConfigError(ValueError):
    """Invalid command-line or run configuration."""
