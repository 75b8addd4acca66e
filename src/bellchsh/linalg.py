"""Complex linear algebra on one factor and on a two-party product space.

Kets are complex vectors.  An operator on one factor is a read-only
complex square ``ndarray`` (``square_matrix``).  A two-party operator
on ``H_A (x) H_B`` is a ``FactoredOperator``: the term list of
``sum_k c_k L_k (x) R_k``, which acts on kets (``apply``) and has no
operator arithmetic; its builder writes out every term.  Bipartite
kets use the row-major composite index convention

    index = i_left * dim_right + i_right

(the left factor is the slow index), so reshaping the amplitudes to
``(dim_left, dim_right)`` gives the amplitude matrix ``Psi`` and
``L (x) R`` acts as ``L Psi R^T``.  No matrix on the full product space
is ever built.  Every object is immutable after construction, so all
operations are pure functions and safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

#: Entrywise tolerance for structural checks (hermiticity, unitarity,
#: normalization): about 100x double-precision epsilon accumulation at
#: the matrix sizes in scope.
STRUCTURE_TOL = 1e-12


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def square_matrix(entries) -> np.ndarray:
    """Coerce to a read-only, non-empty, square complex matrix: the form
    of every one-factor operator."""
    arr = np.array(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ShapeError(f"operator entries must be square, got {arr.shape}")
    return _readonly(arr)


@dataclass(frozen=True, eq=False)
class Ket:
    """A state vector on an explicit finite-dimensional space.

    Parameters
    ----------
    amplitudes : array_like
        Complex amplitudes; coerced to a read-only 1-D complex array
        (anything that is not raises ``ShapeError``).
    normalized : bool, optional
        Declare the vector normalized.  When True, construction fails
        unless ``| ||psi|| - 1 | <= STRUCTURE_TOL``, so a NaN norm fails.
    """

    amplitudes: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        try:
            arr = np.array(self.amplitudes, dtype=complex)
        except (TypeError, ValueError, OverflowError):  # not numbers: refused below
            arr = np.empty(0)
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeError("a ket must be a non-empty 1-D vector of complex amplitudes")
        object.__setattr__(self, "amplitudes", _readonly(arr))
        if self.normalized and not abs(self.norm - 1.0) <= STRUCTURE_TOL:
            raise DomainError(
                f"ket flagged normalized but ||psi|| = {self.norm!r}"
            )

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class FactoredOperator:
    """Two-party operator ``sum_k c_k L_k (x) R_k`` kept as its term list.

    Parameters
    ----------
    terms : sequence of (coefficient, left, right)
        ``left`` is a square matrix on H_A and ``right`` one on H_B;
        every term has the same two factor dimensions.

    The only operation is ``apply``; there is no operator arithmetic,
    so a builder writes each term out.  Memory and ``apply`` cost grow
    with the factor dimensions, never with the square of the product
    dimension.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple((complex(c), square_matrix(left), square_matrix(right))
                      for c, left, right in self.terms)
        if not terms:
            raise ShapeError("a factored operator needs at least one term")
        dims = {(left.shape[0], right.shape[0]) for _, left, right in terms}
        if len(dims) != 1:
            raise ShapeError(f"terms have mixed factor dims {sorted(dims)}")
        object.__setattr__(self, "terms", terms)

    @property
    def dims(self) -> tuple[int, int]:
        _, left, right = self.terms[0]
        return left.shape[0], right.shape[0]

    def apply(self, psi: Ket) -> Ket:
        """Action on a bipartite ket: ``sum_k c_k L_k Psi R_k^T``."""
        dim_a, dim_b = self.dims
        if psi.dim != dim_a * dim_b:
            raise ShapeError(f"operator dims {dim_a}x{dim_b} vs ket dim {psi.dim}")
        mat = psi.amplitudes.reshape(dim_a, dim_b)
        out = sum(c * (left @ mat @ right.T) for c, left, right in self.terms)
        return Ket(out.ravel())
