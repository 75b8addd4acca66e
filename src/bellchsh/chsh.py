"""Bell-CHSH quadruples, validation, correlator and exact phase optimum.

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

import itertools
import math
import operator
import reprlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, PrecisionError, ShapeError, to_number
from .linalg import Ket, square_matrix

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

#: Largest factor dimension of a flip in this package (``fock.MAX_CUTOFF``).
#: A ``phase_flip`` stack holds at most four such flips, ``4 *
#: MAX_FLIP_DIM**2`` complex entries (256 MiB), checked before allocation.
MAX_FLIP_DIM = 2048

#: names a refused ``phase_flip`` argument, nested lists two levels deep
_NAMED = reprlib.Repr()
_NAMED.maxlevel = 2


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the interval [-pi, pi)."""
    return float((theta + math.pi) % (2.0 * math.pi) - math.pi)


@dataclass(frozen=True)
class AngleSet:
    """Four measurement phases (alpha1, alpha2, beta1, beta2) in radians.

    Angles are reduced to [-pi, pi) on construction; all correlators in
    this package depend on them only through cosines of sums, so the
    reduction never changes a value.  A non-finite phase, or one that is
    no real number, raises ``DomainError``.
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


def phase_flip(dim: int, pairs: Sequence[tuple[int, int]] | np.ndarray,
               phase: float | Sequence[float] | np.ndarray) -> np.ndarray:
    """Level-pair phase flip on one factor: the measurement operator of
    every setting in this package.

    Each ``(src, dst)`` row of ``pairs`` is swapped with ``<dst|M|src> =
    e^{i phase}`` and ``<src|M|dst> = e^{-i phase}``; every other level is
    fixed.  A scalar ``phase`` gives one read-only complex ``(dim, dim)``
    matrix, a flat list, tuple or 1-D array of ``n`` phases the read-only
    ``(n, dim, dim)`` stack of its scalar calls' matrices, byte for byte;
    each is hermitian and an exact involution.  ``dim`` must be a positive
    integer with at most ``4 * MAX_FLIP_DIM**2`` entries in the stack (an
    empty stack counts as one flip), ``pairs`` a non-empty integer ``(n,
    2)`` array, or a list of two-integer tuples or lists, of disjoint
    levels in ``[0, dim)``, and every phase finite; else ``DomainError`` is
    raised before anything of an argument's size is allocated.  A list is
    counted before any item is read (more than ``dim / 2`` pairs are
    refused unread), then read item by item: a phase by
    ``errors.to_number``, but text, a nested list or a multi-dimensional
    array as NaN, unparsed; a pair as two signed integers, neither
    unsigned nor bool.  Long arguments are named by shape, not listed.

    This is the one checked entry to the one flip build, ``_flip_stack``;
    ``fock.chsh_matrix`` shares that build, calling it directly on its
    constant block pairs and the phases its ``AngleSet`` has checked.
    """
    stacked = (isinstance(phase, (list, tuple))
               or isinstance(phase, np.ndarray) and phase.ndim == 1)
    count = len(phase) if stacked else 1
    try:
        levels = operator.index(dim)
    except TypeError:
        levels = 0
    # an empty stack is sized as one flip, so its dim is bounded as well;
    # disjoint levels in [0, dim) number at most dim, which bounds the list
    flips = max(count, 1)
    fits = 1 <= levels and flips * levels * levels <= 4 * MAX_FLIP_DIM ** 2
    if fits:  # counted above; read one item at a time
        phases = (np.fromiter(map(_phase_number, phase), float, count) if stacked
                  else np.array(_phase_number(phase)))
        if isinstance(pairs, (list, tuple)) and 2 * len(pairs) <= levels:
            read = [level for row in pairs if isinstance(row, (list, tuple))
                    and len(row) == 2 for level in row]
            if len(read) == 2 * len(pairs) and all(
                    type(level) is int or isinstance(level, np.signedinteger)
                    for level in read):
                pairs = np.array(read).reshape(-1, 2)
    if not (fits and isinstance(pairs, np.ndarray) and pairs.dtype.kind == "i"
            and pairs.ndim == 2 and pairs.shape[1] == 2 and 0 < pairs.size <= levels
            and len(paired := set(flat := pairs.ravel().tolist())) == len(flat)
            and 0 <= min(paired) and max(paired) < levels
            and np.isfinite(phases).all()):
        named = (_NAMED.repr(pairs) if not isinstance(pairs, np.ndarray)
                 else _NAMED.repr(pairs.tolist()) if pairs.size <= 16
                 else f"of shape {pairs.shape} and dtype {pairs.dtype}")
        if count > 4:  # named by shape; only a stack that fits is searched
            first = phases[np.isfinite(phases).argmin()] if fits else 0.0
            phase = f"of shape {(count,)}" + (
                "" if math.isfinite(first) else f" with first non-finite entry {first}")
        else:
            phase = _NAMED.repr(phase)
        raise DomainError(f"phase flip is not hermitian or not an involution: dim "
                          f"must be a positive integer with {flips} * dim**2 "
                          f"at most {4 * MAX_FLIP_DIM ** 2} entries, pairs disjoint "
                          f"integer level pairs in [0, dim) and every phase finite, "
                          f"got pairs {named} and phase {phase} for dim "
                          f"{_NAMED.repr(dim)}")
    return _flip_stack(levels, pairs, phases)


def _phase_number(item) -> float:
    """One phase read by ``to_number``; text, and an array that is not
    0-d, read as NaN."""
    if isinstance(item, np.ndarray):
        item = item[()] if item.ndim == 0 else math.nan
    return math.nan if isinstance(item, (str, bytes, bytearray)) else to_number(item)


def _flip_stack(levels: int, pairs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The flip build behind ``phase_flip``, on arguments it has checked:
    an integer ``(n, 2)`` array of disjoint ``pairs`` in ``[0, levels)``
    and a float array of finite ``phases``.  Unchecked itself."""
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


@dataclass(frozen=True, eq=False)
class ChshQuadruple:
    """CHSH quadruple kept as local factors: ``a1``, ``a2`` on H_A and
    ``b1``, ``b2`` on H_B, each coerced to a read-only square complex
    matrix (a non-square one raises ``ShapeError``).

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
        """Factor dimensions ``(dim_A, dim_B)``."""
        dims = []
        for side in ((self.a1, self.a2), (self.b1, self.b2)):
            side_dims = {op.shape[0] for op in side}
            if len(side_dims) != 1:
                raise ShapeError(f"quadruple side has mixed dims {sorted(side_dims)}")
            dims.append(side_dims.pop())
        return dims[0], dims[1]


def flip_quadruple(dims: tuple[int, int], pairs: tuple, angles: AngleSet) -> ChshQuadruple:
    """The phase-flip quadruple of every setting in this package.

    ``dims = (dim_A, dim_B)`` and ``pairs = (pairs_A, pairs_B)``: each
    side flips its own level pairs (see ``phase_flip``), A1/A2 with the
    phases ``alpha1``/``alpha2`` and B1/B2 with ``beta1``/``beta2``: one
    stacked ``phase_flip`` call per side.
    """
    (dim_a, dim_b), (pairs_a, pairs_b) = dims, pairs
    a1, a2 = phase_flip(dim_a, pairs_a, (angles.alpha1, angles.alpha2))
    b1, b2 = phase_flip(dim_b, pairs_b, (angles.beta1, angles.beta2))
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
    truncated spaces.
    """

    dim: int
    tolerance: float
    hermiticity: dict[str, float]
    involution: dict[str, float]

    @property
    def max_deviation(self) -> float:
        return max(list(self.hermiticity.values()) + list(self.involution.values()))

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
            worst = max(table, key=table.get)
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
    dim_a, dim_b = q.dims
    if psi.dim != dim_a * dim_b:
        raise ShapeError(f"state dim {psi.dim} vs quadruple dims {dim_a}x{dim_b}")
    mat = psi.amplitudes.reshape(dim_a, dim_b)
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
    """

    prefactor: float
    signs: tuple[float, float, float, float]
    constant: float = 0.0
    orientation: float = 1.0

    def value(self, angles: AngleSet) -> float:
        a1, a2, b1, b2 = angles.as_tuple()
        b1, b2 = self.orientation * b1, self.orientation * b2
        s = self.signs
        return self.prefactor * (
            self.constant
            + s[0] * math.cos(a1 + b1)
            + s[1] * math.cos(a2 + b1)
            + s[2] * math.cos(a1 + b2)
            + s[3] * math.cos(a2 + b2)
        )


def optimize_angles(cf: ClosedFormCorrelator) -> tuple[AngleSet, float]:
    """Maximize |cf(angles)| over the four measurement phases, exactly.

    At ``(-pi, -pi/2, -pi/4, pi/4)`` the four cosines are (-1, -1, -1, 1)
    / sqrt(2) at orientation +1 and (-1, 1, -1, -1) / sqrt(2) at -1, both
    odd; shifting one phase by pi flips the two cosines it enters, so
    either way the 16 pi-shifts reach every odd cosine sign pattern and
    include the maximum of ``ClosedFormCorrelator``.  Returns the first
    shift (unshifted first) within ``1e-12 max(1, peak)`` of the peak,
    with |value| there.  An even sign pattern, or an orientation other
    than +-1, raises ``DomainError``.
    """
    if (not all(abs(s) == 1.0 for s in cf.signs) or math.prod(cf.signs) != -1.0
            or cf.orientation not in (1.0, -1.0)):
        raise DomainError(f"optimize_angles needs an odd sign pattern and an "
                          f"orientation of +-1, got {cf.signs} and {cf.orientation}")
    base = (-math.pi, -0.5 * math.pi, -0.25 * math.pi, 0.25 * math.pi)
    candidates = [AngleSet(*(b + math.pi * k for b, k in zip(base, shift)))
                  for shift in itertools.product((0, 1), repeat=4)]
    values = [abs(cf.value(angles)) for angles in candidates]
    peak = max(values)
    best = next(i for i, v in enumerate(values) if v >= peak - 1e-12 * max(1.0, peak))
    return candidates[best], values[best]
