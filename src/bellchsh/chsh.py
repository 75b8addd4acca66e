"""Bell-CHSH quadruples on a two-party product space: kets, factored
operators, validation, correlator and exact phase optimum.

A two-party ket on ``H_A (x) H_B`` is its amplitude matrix ``Psi``, a
read-only complex ``(dim_A, dim_B)`` ``ndarray`` (``Ket``), and ``A (x)
B`` acts on it as ``A Psi B^T``; this module is the one place that
action is written (``chsh_value`` and ``FactoredOperator.apply``).  An
operator on one factor is a read-only complex square ``ndarray``
(``square_matrix``).  A two-party operator is a ``FactoredOperator``:
the term list of ``sum_k c_k L_k (x) R_k``, which acts on kets as
``sum_k c_k L_k Psi R_k^T`` and has no operator arithmetic; its builder
writes out every term, and a factor written ``None`` is the identity
on its side, so ``A (x) 1`` stores and multiplies by ``A`` alone.  No
matrix on the full product space is ever built.  Every object is
immutable after construction, so all operations are pure functions
and safe to evaluate concurrently.

The central object is a quadruple of hermitian involutions
``(A1, A2, B1, B2)``, the A pair acting on H_A and the B pair on H_B,
so every A commutes with every B by construction.  The CHSH
combination on ``H_A (x) H_B`` is

    C = (A1 + A2) (x) B1 + (A1 - A2) (x) B2

and local hidden-variable models obey ``|<C>| <= 2`` while quantum
states reach at most ``2*sqrt(2)`` (the Tsirelson bound).  Each of the
four operators is a read-only complex matrix on its factor.  In every
setting they are level-pair phase flips, and ``flip_quadruple`` is the
one builder of a quadruple from the flipped level pairs of each side.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import types
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, PrecisionError, ShapeError, named, to_index, to_number, to_numbers

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

#: Largest factor dimension of a flip in this package (``fock.MAX_CUTOFF``).
#: A ``phase_flip`` stack holds at most four such flips, ``4 *
#: MAX_FLIP_DIM**2`` complex entries (256 MiB), checked before allocation.
MAX_FLIP_DIM = 2048

#: The one level pair of the 2 x 2 flip blocks of ``AngleSet.pair_kernel``.
_BLOCK_PAIRS = np.array([(0, 1)])


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the interval [-pi, pi); a remainder rounded up
    to the full period gives -pi, not pi."""
    wrapped = float((theta + math.pi) % (2.0 * math.pi) - math.pi)
    return -math.pi if wrapped == math.pi else wrapped


@dataclass(frozen=True)
class AngleSet:
    """Four measurement phases (alpha1, alpha2, beta1, beta2) in radians.

    Angles are reduced to [-pi, pi) on construction; all correlators in
    this package depend on them only through cosines of sums, so the
    reduction never changes a value.  A non-finite phase, or one that is
    no real number, raises ``DomainError``.

    :attr:`pair_kernel` and :attr:`pair_cosines` are each built once per
    object, at first use, and are no fields: equality, hash, repr and
    copies read the four phases only, and a copy builds its own.
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            value = to_number(getattr(self, name))
            if not math.isfinite(value):
                raise DomainError(f"phase {name} must be finite, got {value!r}")
            object.__setattr__(self, name, wrap_angle(value))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha1, self.alpha2, self.beta1, self.beta2)

    def __getstate__(self) -> dict:
        """The four phases alone, so a copy builds its own read-only kernel."""
        return asdict(self)

    @functools.cached_property
    def pair_kernel(self) -> np.ndarray:
        """Read-only ``(2, 2)`` kernel ``a1 * (b1 + b2) + a2 * (b1 - b2)`` of
        the 2 x 2 flips of A1, A2, B1, B2: byte for byte those of ``phase_flip(
        2, np.array([(0, 1)]), np.array(self.as_tuple()))``, built without
        its check of the phases checked here."""
        a1, a2, b1, b2 = _flip_stack(2, _BLOCK_PAIRS, np.array(self.as_tuple()))
        kernel = a1 * (b1 + b2) + a2 * (b1 - b2)
        kernel.setflags(write=False)
        return kernel

    @functools.cached_property
    def pair_cosines(self) -> types.MappingProxyType:
        """Read-only map from an orientation ``o`` of +-1 to the four cosines
        ``cos(alpha_i + o * beta_j)`` of ``ClosedFormCorrelator``, in its order."""
        a1, a2, b1, b2 = self.as_tuple()
        return types.MappingProxyType({o: (math.cos(a1 + o * b1), math.cos(a2 + o * b1),
                                           math.cos(a1 + o * b2), math.cos(a2 + o * b2))
                                       for o in (1.0, -1.0)})


def phase_flip(dim: int, pairs: np.ndarray, phase: float | np.ndarray) -> np.ndarray:
    """Level-pair phase flip on one factor: the measurement operator of
    every setting in this package.

    Each ``(src, dst)`` row of ``pairs`` is swapped with ``<dst|M|src> =
    e^{i phase}`` and ``<src|M|dst> = e^{-i phase}``; every other level is
    fixed.  A scalar ``phase`` gives one read-only complex ``(dim, dim)``
    matrix, a 1-D array of ``n`` phases the read-only ``(n, dim, dim)``
    stack of its scalar calls' matrices, byte for byte; each is hermitian
    and an exact involution.  ``dim`` must be a positive integer with at
    most ``4 * MAX_FLIP_DIM**2`` entries in the stack (an empty stack
    counts as one flip), ``pairs`` a non-empty integer ``(n, 2)`` array of
    disjoint levels in ``[0, dim)``, and every phase finite; else
    ``DomainError`` is raised before anything of an argument's size is
    allocated.  Each phase is read by ``errors.to_number``; a list or
    tuple, as ``pairs`` or as ``phase``, is refused unread.  Arguments are
    named by ``errors.named``, a long array by its shape, not listed.

    This is the one checked entry to the one flip build, ``_flip_stack``;
    ``AngleSet.pair_kernel`` shares that build, calling it directly on the
    constant block pair and the phases the ``AngleSet`` has checked.
    """
    stacked = isinstance(phase, np.ndarray) and phase.ndim == 1
    count = len(phase) if stacked else 1
    levels = to_index(dim)
    flips = max(count, 1)  # an empty stack is sized as one flip, so its dim is bounded too
    fits = 1 <= levels and flips * levels * levels <= 4 * MAX_FLIP_DIM ** 2
    if fits:  # counted above; read one item at a time
        phases = (np.fromiter(map(to_number, phase), float, count) if stacked
                  else np.array(to_number(phase)))
    if not (fits and isinstance(pairs, np.ndarray) and pairs.dtype.kind == "i"
            and pairs.ndim == 2 and pairs.shape[1] == 2 and 0 < pairs.size <= levels
            and len(paired := set(flat := pairs.ravel().tolist())) == len(flat)
            and 0 <= min(paired) and max(paired) < levels
            and np.isfinite(phases).all()):
        raise DomainError(f"phase flip is not hermitian or not an involution: dim must be "
                          f"a positive integer with {flips} * dim**2 at most "
                          f"{4 * MAX_FLIP_DIM ** 2} entries, pairs disjoint integer level pairs "
                          f"in [0, dim) and every phase finite, got pairs {named(pairs)} and "
                          f"phase {named(phase)} for dim {named(dim)}")
    return _flip_stack(levels, pairs, phases)


def _flip_stack(levels: int, pairs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The flip build behind ``phase_flip`` and ``AngleSet.pair_kernel``, on
    arguments they have checked: an integer ``(n, 2)`` array of disjoint
    ``pairs`` in ``[0, levels)`` and a float array of finite ``phases``.
    Unchecked itself."""
    src, dst = pairs.T
    up = np.exp(1j * phases)[..., None]
    m = np.zeros(phases.shape + (levels, levels), dtype=complex)
    if pairs.size < levels:
        diagonal = m.reshape(-1, levels * levels)[:, ::levels + 1]
        diagonal[...] = 1.0
        diagonal[:, pairs] = 0.0
    m[..., dst, src] = up
    m[..., src, dst] = up.conj()
    m.setflags(write=False)
    return m


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


@dataclass(frozen=True, eq=False)
class ChshQuadruple:
    """CHSH quadruple kept as local factors: ``a1``, ``a2`` on H_A and
    ``b1``, ``b2`` on H_B, each coerced to a read-only square complex
    matrix by ``square_matrix``; anything else raises ``ShapeError``.

    The four operators are expected to be hermitian and to square to the
    identity; A/B commutation holds by construction.  Construction does
    not enforce the axioms (``validate_quadruple`` reports deviations),
    so deliberately corrupted quadruples can be built as negative
    controls.
    """

    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name, op in self.operators().items():
            object.__setattr__(self, name, square_matrix(op))

    def operators(self) -> dict[str, np.ndarray]:
        return {"a1": self.a1, "a2": self.a2, "b1": self.b1, "b2": self.b2}

    @property
    def dims(self) -> tuple[int, int]:
        """Factor dimensions ``(dim_A, dim_B)``; a side of mixed
        dimensions raises ``ShapeError`` (``side_dim``)."""
        return side_dim((self.a1, self.a2), "A"), side_dim((self.b1, self.b2), "B")


def flip_quadruple(dims: tuple[int, int], pairs: tuple, angles: AngleSet) -> ChshQuadruple:
    """The phase-flip quadruple of every setting in this package.

    ``dims = (dim_A, dim_B)`` and ``pairs = (pairs_A, pairs_B)``, each an
    integer ``(n, 2)`` array: each side flips its own level pairs (see
    ``phase_flip``), A1/A2 with the phases ``alpha1``/``alpha2`` and B1/B2
    with ``beta1``/``beta2``: one ``phase_flip`` call per side, on a 1-D
    array of its two phases.
    """
    (dim_a, dim_b), (pairs_a, pairs_b) = dims, pairs
    a1, a2 = phase_flip(dim_a, pairs_a, np.array((angles.alpha1, angles.alpha2)))
    b1, b2 = phase_flip(dim_b, pairs_b, np.array((angles.beta1, angles.beta2)))
    return ChshQuadruple(a1=a1, a2=a2, b1=b1, b2=b2)


@dataclass(frozen=True)
class ValidationReport:
    """Structural deviations of a quadruple's local factors, and the verdict.

    Deviations are entrywise maxima over each factor matrix:
    ``hermiticity[k] = max|M - M^dag|`` and ``involution[k] =
    max|M^2 - I|``.  A/B commutation needs no check, since the two sides
    act on different factors.  The quadruple passes iff every deviation
    is at most ``tolerance``: 1e-12 scaled by the product dimension
    ``dim = dim_A * dim_B``, absorbing float accumulation on larger
    truncated spaces; a NaN deviation fails.
    """

    dim: int
    tolerance: float
    hermiticity: dict[str, float]
    involution: dict[str, float]

    @property
    def max_deviation(self) -> float:
        """The largest deviation, NaN when any is NaN, so NaN fails."""
        return float(np.max([*self.hermiticity.values(), *self.involution.values()]))

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def summary(self) -> str:
        lines = [
            f"quadruple validation on dim {self.dim} "
            f"(tolerance {self.tolerance:.3e}): "
            + ("PASS" if self.passed else "FAIL")
        ]
        for label, table in (("hermiticity", self.hermiticity),
                             ("involution", self.involution)):
            worst = list(table)[np.argmax(list(table.values()))]  # argmax picks a NaN first
            lines.append(f"  {label:<12} max {table[worst]:.3e} ({worst})")
        return "\n".join(lines)


def validate_quadruple(q: ChshQuadruple) -> ValidationReport:
    """Check hermiticity and involution (M^2 = I) of the four factors.

    Returns a report with the maximal deviations; it never raises on a
    failing quadruple.
    """
    dim_a, dim_b = q.dims
    ops = q.operators()
    herm = {k: float(np.abs(op - op.conj().T).max()) for k, op in ops.items()}
    inv = {
        k: float(np.abs(op @ op - np.eye(op.shape[0])).max())
        for k, op in ops.items()
    }
    dim = dim_a * dim_b
    return ValidationReport(
        dim=dim,
        tolerance=1e-12 * dim,
        hermiticity=herm,
        involution=inv,
    )


def chsh_value(psi: Ket, q: ChshQuadruple) -> float:
    """CHSH correlator <psi|C|psi> for a normalized bipartite state.

    With ``Psi`` the ``dim_A x dim_B`` amplitude matrix of ``psi``,
    ``<C> = tr(Psi^dag [A1 Psi (B1 + B2)^T + A2 Psi (B1 - B2)^T])``:
    four factor-sized matrix products.  The result of a valid quadruple
    is real; an imaginary residue above 1e-10 raises
    ``PrecisionError``.
    """
    mat = psi.amplitudes
    if mat.shape != q.dims:
        raise ShapeError(f"state shape {mat.shape} vs quadruple dims {q.dims}")
    y1 = mat @ q.b1.T
    y2 = mat @ q.b2.T
    c_psi = (q.a1 @ (y1 + y2)) + (q.a2 @ (y1 - y2))
    return _real_correlator(np.vdot(mat, c_psi))


def _real_correlator(value: complex) -> float:
    """Real part of a CHSH correlator; an imaginary residue above 1e-10
    raises ``PrecisionError``, and so does a NaN residue."""
    if not abs(value.imag) <= 1e-10:
        raise PrecisionError(
            f"CHSH correlator has imaginary residue {value.imag:.3e}"
        )
    return float(value.real)


@dataclass(frozen=True)
class ClosedFormCorrelator:
    """CHSH correlator given in closed form over the four phase sums.

    value(angles) = prefactor * (constant
                                 + signs[0] * cos(alpha1 + o * beta1)
                                 + signs[1] * cos(alpha2 + o * beta1)
                                 + signs[2] * cos(alpha1 + o * beta2)
                                 + signs[3] * cos(alpha2 + o * beta2))

    with ``o = orientation``: +1 where the B phases add to the A phases
    (squeezed pairs, spin 1), -1 where they subtract (spin 1/2).  ``o *
    beta`` is exact, so no angle is negated and re-wrapped.  Either way
    the four sums obey (a1+b1) + (a2+b2) = (a2+b1) + (a1+b2), so for an
    odd sign pattern (signs +-1, an odd number of them -1, as in every
    form here) max |value| = |prefactor| (|constant| + 2 sqrt(2))
    (Cirel'son, Lett. Math. Phys. 4, 93, 1980; Landau, Phys. Lett. A
    120, 54, 1987).

    The numbers are read at construction, ``signs`` by ``errors.to_numbers``
    and the rest by ``errors.to_number``: other than four signs, or an
    orientation other than +-1 (``AngleSet.pair_cosines``), raises
    ``DomainError``.
    """

    prefactor: float
    signs: tuple[float, float, float, float]
    constant: float = 0.0
    orientation: float = 1.0

    def __post_init__(self):
        given = self.orientation
        object.__setattr__(self, "signs", to_numbers(self.signs, "signs", 4))
        for name in ("prefactor", "constant", "orientation"):
            object.__setattr__(self, name, to_number(getattr(self, name)))
        if self.orientation not in (1.0, -1.0):
            raise DomainError(f"a closed form needs an orientation of +-1, got "
                              f"{named(given)}", argument="orientation")

    def value(self, angles: AngleSet) -> float:
        c0, c1, c2, c3 = angles.pair_cosines[self.orientation]
        s0, s1, s2, s3 = self.signs
        return self.prefactor * (self.constant + s0 * c0 + s1 * c1 + s2 * c2 + s3 * c3)


def optimize_angles(cf: ClosedFormCorrelator) -> tuple[AngleSet, float]:
    """Maximize |cf(angles)| over the four measurement phases, exactly.

    At ``(-pi, -pi/2, -pi/4, pi/4)`` the four cosines are (-1, -1, -1, 1)
    / sqrt(2) at orientation +1 and (-1, 1, -1, -1) / sqrt(2) at -1, both
    odd; shifting one phase by pi flips the two cosines it enters, so
    either way the 16 pi-shifts reach every odd cosine sign pattern and
    include the maximum of ``ClosedFormCorrelator``.  Returns the first
    shift (unshifted first) within ``1e-12 max(1, peak)`` of the peak,
    with |value| there.  The form has read its numbers and orientation at
    construction; an even sign pattern raises ``DomainError``, as does a
    ``prefactor`` or ``constant`` for which the exact optimum ``|prefactor|
    (|constant| + 2 sqrt(2))`` or the peak is not finite.
    """
    if not all(abs(s) == 1.0 for s in cf.signs) or math.prod(cf.signs) != -1.0:
        raise DomainError(f"optimize_angles needs an odd sign pattern, got {named(cf.signs)}")
    exact = abs(cf.prefactor) * (abs(cf.constant) + TSIRELSON_BOUND)
    base = (-math.pi, -0.5 * math.pi, -0.25 * math.pi, 0.25 * math.pi)
    candidates = [AngleSet(*(b + math.pi * k for b, k in zip(base, shift)))
                  for shift in itertools.product((0, 1), repeat=4)]
    values = [abs(cf.value(angles)) for angles in candidates]
    peak = max(values)
    if not (math.isfinite(exact) and math.isfinite(peak)):
        raise DomainError(f"optimize_angles needs a finite optimum and peak, got prefactor "
                          f"{named(cf.prefactor)} and constant {named(cf.constant)}")
    best = next(i for i, v in enumerate(values) if v >= peak - 1e-12 * max(1.0, peak))
    return candidates[best], values[best]
