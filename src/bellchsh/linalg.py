"""Complex linear algebra on one factor and on a two-party product space.

Kets are complex vectors.  An operator on one factor is a read-only
complex square ``ndarray`` (``square_matrix``).  A two-party operator
on ``H_A (x) H_B`` is a ``FactoredOperator``: the term list of
``sum_k c_k L_k (x) R_k``, which acts on kets (``apply``) and has no
operator arithmetic; its builder writes out every term, and a factor
written ``None`` is the identity on its side, so ``A (x) 1`` stores
and multiplies by ``A`` alone.  Bipartite
kets use the row-major composite index convention

    index = i_left * dim_right + i_right

(the left factor is the slow index), so reshaping the amplitudes to
``(dim_left, dim_right)`` gives the amplitude matrix ``Psi`` and
``L (x) R`` acts as ``L Psi R^T``.  No matrix on the full product space
is ever built.  Every object is immutable after construction, so all
operations are pure functions and safe to evaluate concurrently.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, named, to_number


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def square_matrix(entries) -> np.ndarray:
    """Coerce an ndarray to a read-only, non-empty, square complex matrix:
    the form of every one-factor operator (see ``_complex_array``)."""
    return _readonly(_complex_array(entries, 2, "operator entries"))


def _complex_array(value, ndim: int, what: str) -> np.ndarray:
    """The ndarray ``value`` as a non-empty complex array of ``ndim``
    dimensions, square when 2.  Anything else, a list or tuple included
    (none is walked), and an array of another shape or not of numbers,
    raises ``ShapeError`` naming ``what`` and the value by ``errors.named``
    (a long ndarray by its shape and dtype)."""
    try:
        arr = value.astype(complex, subok=False) if isinstance(value, np.ndarray) else None
    except (TypeError, ValueError, OverflowError):  # not numbers: refused below
        arr = None
    if arr is None or arr.ndim != ndim or arr.size == 0 or arr.shape[0] != arr.shape[-1]:
        shape = "1-D vector" if ndim == 1 else "square matrix"
        raise ShapeError(f"{what} must be a non-empty {shape} of complex numbers, "
                         f"got {named(value)}")
    return arr


@dataclass(frozen=True, eq=False)
class Ket:
    """A state vector on an explicit finite-dimensional space.

    Parameters
    ----------
    amplitudes : ndarray
        Complex amplitudes, coerced to a read-only 1-D complex array
        (anything else, a list or tuple included, raises ``ShapeError``).
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _complex_array(self.amplitudes, 1, "ket amplitudes")
        object.__setattr__(self, "amplitudes", _readonly(arr))

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
    terms : non-empty list or tuple of (coefficient, left, right)
        ``coefficient`` is finite when read by ``errors.to_number`` (so
        text and an array that is not 0-d are refused), ``left`` a square
        ndarray on H_A and ``right`` one on H_B (``square_matrix``), or
        ``None`` for the identity on that side.  Each side takes its
        dimension from its ndarray factors, so at least one term gives
        each side an ndarray, and they all have the same dimension.
        Anything else raises ``ShapeError``.

    The only operation is ``apply``; there is no operator arithmetic,
    so a builder writes each term out.  Memory and ``apply`` cost grow
    with the factor dimensions, never with the square of the product
    dimension, and an identity side costs neither: it is kept as
    ``None`` and never multiplied by.
    """

    terms: tuple
    dims: tuple[int, int] = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.terms, (list, tuple)) and self.terms and all(
                isinstance(term, (list, tuple)) and len(term) == 3
                and cmath.isfinite(to_number(term[0], complex)) for term in self.terms)):
            raise ShapeError(f"a factored operator needs a non-empty list of "
                             f"(coefficient, left, right) terms, got {named(self.terms)}")
        terms = tuple((to_number(c, complex), _factor(left), _factor(right))
                      for c, left, right in self.terms)
        dims = []
        for side, name in ((1, "left"), (2, "right")):
            side_dims = {term[side].shape[0] for term in terms if term[side] is not None}
            if len(side_dims) != 1:  # None only, or mixed
                raise ShapeError(f"the {name} side needs ndarray factors of one dim, "
                                 f"got dims {sorted(side_dims)}")
            dims += side_dims
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "dims", tuple(dims))

    def apply(self, psi: Ket) -> Ket:
        """Action on a bipartite ket: ``sum_k c_k L_k Psi R_k^T``, with no
        product for a ``None`` (identity) factor."""
        dim_a, dim_b = self.dims
        if psi.dim != dim_a * dim_b:
            raise ShapeError(f"operator dims {dim_a}x{dim_b} vs ket dim {psi.dim}")
        mat = psi.amplitudes.reshape(dim_a, dim_b)
        out = sum(c * _sandwich(left, mat, right) for c, left, right in self.terms)
        return Ket(out.ravel())


def _factor(entries) -> np.ndarray | None:
    """A term's factor: ``None`` (the identity) kept, anything else a
    ``square_matrix``."""
    return None if entries is None else square_matrix(entries)


def _sandwich(left: np.ndarray | None, mat: np.ndarray, right: np.ndarray | None) -> np.ndarray:
    """``left @ mat @ right.T``, each ``None`` factor left out."""
    if left is not None:
        mat = left @ mat
    return mat if right is None else mat @ right.T
