"""Bell-CHSH quadruples, validation, correlator and measurement-phase search.

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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, PrecisionError, ShapeError
from .linalg import STRUCTURE_TOL, Ket, square_matrix

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the interval [-pi, pi)."""
    return float((theta + math.pi) % (2.0 * math.pi) - math.pi)


@dataclass(frozen=True)
class AngleSet:
    """Four measurement phases (alpha1, alpha2, beta1, beta2) in radians.

    Angles are reduced to [-pi, pi) on construction; all correlators in
    this package depend on them only through cosines of sums, so the
    reduction never changes a value.  A non-finite phase raises
    ``DomainError``.
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"phase {name} must be finite, got {value!r}")
            object.__setattr__(self, name, wrap_angle(value))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha1, self.alpha2, self.beta1, self.beta2)


def _hermiticity_deviation(m: np.ndarray) -> float:
    return float(np.abs(m - m.conj().T).max())


def phase_flip(dim: int, pairs: Sequence[tuple[int, int]] | np.ndarray,
               phase: float) -> np.ndarray:
    """Level-pair phase flip on one factor: the measurement operator of
    every setting in this package.

    Each ``(src, dst)`` pair of levels (one row of ``pairs``) is swapped
    with ``<dst|M|src> = e^{i phase}`` and ``<src|M|dst> = e^{-i phase}``;
    every level outside the (disjoint) pairs is fixed, with 1 on the
    diagonal.  The result is a read-only complex matrix, hermitian and an
    exact involution; pairs that break hermiticity (a level paired with
    itself) or a non-finite phase raise ``DomainError``.
    """
    up = complex(np.exp(1j * phase))
    src, dst = np.array(pairs).T
    m = np.eye(dim, dtype=complex)
    m[src, src] = m[dst, dst] = 0.0
    m[dst, src] = up
    m[src, dst] = up.conjugate()
    dev = _hermiticity_deviation(m)
    if not dev <= STRUCTURE_TOL:  # also catches a non-finite phase
        raise DomainError(f"phase flip is not hermitian: max|M - M^dag| = {dev:.3e}")
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
    phases ``alpha1``/``alpha2`` and B1/B2 with ``beta1``/``beta2``.
    """
    (dim_a, dim_b), (pairs_a, pairs_b) = dims, pairs
    return ChshQuadruple(
        a1=phase_flip(dim_a, pairs_a, angles.alpha1),
        a2=phase_flip(dim_a, pairs_a, angles.alpha2),
        b1=phase_flip(dim_b, pairs_b, angles.beta1),
        b2=phase_flip(dim_b, pairs_b, angles.beta2),
    )


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
    herm = {k: _hermiticity_deviation(op) for k, op in ops.items()}
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
    value = np.vdot(mat, c_psi)
    if abs(value.imag) > 1e-10:
        raise PrecisionError(
            f"CHSH correlator has imaginary residue {value.imag:.3e}"
        )
    return float(value.real)


@dataclass(frozen=True)
class ClosedFormCorrelator:
    """CHSH correlator given in closed form over the four phase sums.

    value(angles) = prefactor * (constant
                                 + signs[0] * cos(alpha1 + beta1)
                                 + signs[1] * cos(alpha2 + beta1)
                                 + signs[2] * cos(alpha1 + beta2)
                                 + signs[3] * cos(alpha2 + beta2))

    Because the four sums obey (a1+b1) + (a2+b2) = (a2+b1) + (a1+b2),
    |value| never exceeds 4 * |prefactor| for the sign patterns used
    here.
    """

    prefactor: float
    signs: tuple[float, float, float, float]
    constant: float = 0.0

    def value(self, angles: AngleSet) -> float:
        a1, a2, b1, b2 = angles.as_tuple()
        s = self.signs
        return self.prefactor * (
            self.constant
            + s[0] * math.cos(a1 + b1)
            + s[1] * math.cos(a2 + b1)
            + s[2] * math.cos(a1 + b2)
            + s[3] * math.cos(a2 + b2)
        )


def _grid_argmax(cf: ClosedFormCorrelator, points: int) -> tuple[float, ...]:
    """Lexicographically smallest grid tuple maximizing |cf|: the first
    hit of the tie mask in C order."""
    g = -np.pi + 2.0 * np.pi * np.arange(points) / points
    a1 = g[:, None, None, None]
    a2 = g[None, :, None, None]
    b1 = g[None, None, :, None]
    b2 = g[None, None, None, :]
    s = cf.signs
    vals = np.abs(cf.prefactor * (
        cf.constant
        + s[0] * np.cos(a1 + b1) + s[1] * np.cos(a2 + b1)
        + s[2] * np.cos(a1 + b2) + s[3] * np.cos(a2 + b2)
    ))
    peak = vals.max()
    ties = vals >= peak - 1e-12 * max(1.0, peak)
    best = np.unravel_index(np.argmax(ties), ties.shape)
    return tuple(float(g[i]) for i in best)


#: Coarse grid of the phase search: 24 points per angle (15 degrees).
_GRID_POINTS = 24

#: The sweeps stop once |cf| changes by less than this between sweeps,
#: or after ``_MAX_SWEEPS`` sweeps.
_VALUE_TOL = 1e-9
_MAX_SWEEPS = 200


def optimize_angles(cf: ClosedFormCorrelator) -> tuple[AngleSet, float]:
    """Maximize |cf(angles)| over the four measurement phases.

    A coarse grid (24 points per angle, 15 degree spacing) locates
    the basin of the global maximum; coordinate sweeps then polish it.
    Each single-angle restriction of ``cf`` is exactly sinusoidal,
    ``A cos(t) + B sin(t) + rest``, so every coordinate update is solved
    in closed form from three samples instead of a line search.

    Returns
    -------
    (AngleSet, float)
        The maximizing phases and the maximal |value|, accurate to about
        1e-6 for the closed forms in scope (``_VALUE_TOL`` bounds the
        sweep-to-sweep change at convergence).
    """
    ang = list(_grid_argmax(cf, _GRID_POINTS))

    def f(values):
        return cf.value(AngleSet(*values))

    best = abs(f(ang))
    for _ in range(_MAX_SWEEPS):
        previous = best
        for i in range(4):
            saved = ang[i]
            samples = []
            for probe in (0.0, 0.5 * math.pi, math.pi):
                ang[i] = probe
                samples.append(f(ang))
            f0, f1, f2 = samples
            a_coef = 0.5 * (f0 - f2)
            rest = 0.5 * (f0 + f2)
            b_coef = f1 - rest
            amp = math.hypot(a_coef, b_coef)
            if amp == 0.0:
                ang[i] = saved  # coordinate is flat; leave it alone
                continue
            phase = math.atan2(b_coef, a_coef)
            # max of |amp*cos(t - phase) + rest| is |rest| + amp, at
            # cos(t - phase) = sign(rest) (either sign when rest == 0)
            ang[i] = wrap_angle(phase if rest >= 0.0 else phase + math.pi)
        best = abs(f(ang))
        if abs(best - previous) < _VALUE_TOL:
            break
    return AngleSet(*ang), best
