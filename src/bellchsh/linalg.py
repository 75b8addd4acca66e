"""Complex linear algebra on one factor and on a two-party product space.

A two-party ket on ``H_A (x) H_B`` is its amplitude matrix ``Psi``, a
read-only complex ``(dim_A, dim_B)`` ``ndarray`` (``Ket``).  An operator
on one factor is a read-only complex square ``ndarray``
(``square_matrix``).  A two-party operator is a ``FactoredOperator``:
the term list of ``sum_k c_k L_k (x) R_k``, which acts on kets
(``apply``) as ``sum_k c_k L_k Psi R_k^T`` and has no operator
arithmetic; its builder writes out every term, and a factor written
``None`` is the identity on its side, so ``A (x) 1`` stores and
multiplies by ``A`` alone.  No matrix on the full product space is
ever built.  Every object is immutable after construction, so all
operations are pure functions and safe to evaluate concurrently.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, named, to_number


def square_matrix(entries) -> np.ndarray:
    """Coerce an ndarray to a read-only, non-empty, square complex matrix:
    the form of every one-factor operator (see ``_complex_array``)."""
    arr = _complex_array(entries, "operator entries")
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"operator entries must be a square matrix, got shape {arr.shape}")
    return arr


def _complex_array(value, what: str) -> np.ndarray:
    """The ndarray ``value`` as a read-only, non-empty, 2-D complex array.
    Anything else, a list or tuple included (none is walked), and an array
    of another shape or not of numbers, raises ``ShapeError`` naming
    ``what`` and the value by ``errors.named`` (a long ndarray by its
    shape and dtype)."""
    try:
        arr = value.astype(complex, subok=False) if isinstance(value, np.ndarray) else None
    except (TypeError, ValueError, OverflowError):  # not numbers: refused below
        arr = None
    if arr is None or arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"{what} must be a non-empty matrix of complex numbers, "
                         f"got {named(value)}")
    arr.setflags(write=False)
    return arr


def side_dim(factors, side: str) -> int:
    """The one dimension of a side's ndarray ``factors``, each ``None``
    (an identity) skipped; none, or mixed dimensions, raise ``ShapeError``."""
    dims = {factor.shape[0] for factor in factors if factor is not None}
    if len(dims) != 1:
        raise ShapeError(f"the {side} side needs ndarray factors of one dim, "
                         f"got dims {sorted(dims)}")
    return dims.pop()


@dataclass(frozen=True, eq=False)
class Ket:
    """A two-party state on ``H_A (x) H_B``, kept as its amplitude matrix.

    Parameters
    ----------
    amplitudes : ndarray
        The ``(dim_A, dim_B)`` amplitude matrix ``Psi``, coerced to a
        read-only complex matrix (anything else, a 1-D vector, list or
        tuple included, raises ``ShapeError``).
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _complex_array(self.amplitudes, "ket amplitudes"))

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
        dims = tuple(side_dim([term[side] for term in terms], name)
                     for side, name in ((1, "left"), (2, "right")))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "dims", dims)

    def apply(self, psi: Ket) -> Ket:
        """Action on a bipartite ket: ``sum_k c_k L_k Psi R_k^T``, with no
        product for a ``None`` (identity) factor."""
        mat = psi.amplitudes
        if mat.shape != self.dims:
            raise ShapeError(f"operator dims {self.dims} vs ket shape {mat.shape}")
        return Ket(sum(c * _sandwich(left, mat, right) for c, left, right in self.terms))


def _factor(entries) -> np.ndarray | None:
    """A term's factor: ``None`` (the identity) kept, anything else a
    ``square_matrix``."""
    return None if entries is None else square_matrix(entries)


def _sandwich(left: np.ndarray | None, mat: np.ndarray, right: np.ndarray | None) -> np.ndarray:
    """``left @ mat @ right.T``, each ``None`` factor left out."""
    if left is not None:
        mat = left @ mat
    return mat if right is None else mat @ right.T
