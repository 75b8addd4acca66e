"""Mass-shell test-function machinery for the free complex scalar field.

Smeared mode operators inherit their algebra from the Lorentz-invariant
inner product of the smearing functions,

    <f|g> = integral d^3k / ((2 pi)^3 2 omega_k) fhat(omega_k, k) ghat*(omega_k, k),

with omega_k = sqrt(k^2 + m^2).  Test functions are Gaussian wave
packets in momentum space: their transforms are analytic and decay
super-polynomially, so the quadrature error is certifiable, unlike for
compactly supported bump profiles which have no closed-form transform.
Their angular integral is closed-form as well,

    integral dOmega exp(k . b) = 4 pi sinh(k |b|) / (k |b|),    b = sigma_f^2 c_f + sigma_g^2 c_g,

so <f|g> is a radial Gauss-Legendre rule on [0, k_max] with no
angular nodes, a certified tail beyond k_max and a self-convergence
error bar from doubling the radial nodes.  A pair of unit-norm,
mutually orthogonal packets (f, g) smearing the two field species
realizes an independent oscillator pair, which reduces the
squeezed-state CHSH correlator to the closed form of the two-mode
oscillator with the same squeezing parameter.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .chsh import AngleSet
from .errors import DomainError, PrecisionError
from . import fock


#: Largest mass, spatial center component, width and 1/width of a packet;
#: its center energy, like every on-shell one, is at most twice this, and
#: a radial cutoff at most twelve times.  No square, product or exponent
#: of the quadrature then exceeds ~1e210.
MAX_MOMENTUM = 1e50


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian momentum-space profile evaluated on the mass shell.

    fhat(k0, kvec) = amplitude * exp(-width^2 (|k0 - c0|^2 + |kvec - cvec|^2) / 2)

    Parameters
    ----------
    center : tuple of 4 floats
        Center four-momentum (c0, cx, cy, cz).
    width : float
        Spatial width sigma_x > 0; the momentum-space width is 1/sigma_x.
    mass : float
        Mass of the shell the packet will be evaluated on (k0 is always
        taken on shell, k0 = omega_k).
    amplitude : complex
        Overall complex amplitude.

    A value outside its ``MAX_MOMENTUM`` domain raises ``DomainError``.
    """

    center: tuple[float, float, float, float]
    width: float
    mass: float = 1.0
    amplitude: complex = 1.0

    def __post_init__(self):
        if len(self.center) != 4:
            raise DomainError(f"center must be a four-momentum, got {self.center!r}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        c0, *spatial = self.center
        bound = MAX_MOMENTUM
        # checked before c0, which on_shell derives from them
        if not all(abs(c) <= bound for c in spatial):
            raise DomainError(f"spatial center must lie within +-{bound:g}, "
                              f"got {tuple(spatial)!r}")
        if not 0.0 <= self.mass <= bound:
            raise DomainError(f"mass must lie in [0, {bound:g}], got {self.mass}")
        if not abs(c0) <= 2.0 * bound:
            raise DomainError(f"center energy must lie within +-{2.0 * bound:g}, got {c0}")
        if not 1.0 / bound <= self.width <= bound:
            raise DomainError(f"width must lie in [1/{bound:g}, {bound:g}], got {self.width}")
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if not cmath.isfinite(self.amplitude):
            raise DomainError(f"amplitude must be finite, got {self.amplitude}")

    @classmethod
    def on_shell(cls, mass: float, spatial_center: tuple[float, float, float],
                 width: float, amplitude: complex = 1.0) -> "GaussianPacket":
        """Packet centered on the shell: c0 = sqrt(m^2 + |cvec|^2), in Python
        floats: an overflow gives inf silently, and the constructor names
        the mass or center at fault."""
        mass = float(mass)
        cx, cy, cz = (float(c) for c in spatial_center)
        c0 = math.sqrt(mass * mass + cx * cx + cy * cy + cz * cz)
        return cls(center=(c0, cx, cy, cz), width=width, mass=mass,
                   amplitude=amplitude)

    @property
    def spatial_center_norm(self) -> float:
        _, cx, cy, cz = self.center
        return math.sqrt(cx * cx + cy * cy + cz * cz)

    @property
    def momentum_width(self) -> float:
        return 1.0 / self.width

    def scaled(self, factor: complex) -> "GaussianPacket":
        return GaussianPacket(center=self.center, width=self.width,
                              mass=self.mass, amplitude=self.amplitude * factor)


#: Largest radial node count.  Building Gauss-Legendre nodes costs
#: O(n^2) memory (4096 nodes: ~290 MB peak and 4 s or more on a 2-vCPU
#: x86-64 VM, numpy 2.4), so the count is bounded in the constructor,
#: before any node is computed; each rule then builds its nodes once.
MAX_RADIAL = 4096


@dataclass(frozen=True)
class ShellQuadrature:
    """Radial Gauss-Legendre rule on [0, k_max] for the mass-shell measure.

    The nodes and weights (:attr:`rule`) are built once per rule object,
    at first use, and :meth:`refined` returns one shared doubled rule, so
    every norm, error estimate and overlap on the same object shares one
    build of each.  The angular integral of a Gaussian pair is
    closed-form, so the rule has no angular node count.  ``radial`` is
    an integer of at most ``MAX_RADIAL``, refined rules included, and
    ``k_max`` at most ``12 * MAX_MOMENTUM``, which holds every
    ``for_packets`` cutoff of the packet domain.  ``tol`` bounds
    the tail beyond ``k_max`` relative to the amplitudes:
    ``tail_bound <= tol / 10 * |A_f A_g|``.
    """

    k_max: float
    radial: int = 128
    tol: float = 1e-9
    #: Not a setting, and no rule reads it: only the benchmark's 3-D node
    #: count (``benchmarks/inprocess.py::nodes``) does; ROADMAP item 2
    #: deletes it.
    angular: ClassVar[int] = 32

    def __post_init__(self):
        try:
            object.__setattr__(self, "radial", operator.index(self.radial))
        except TypeError:
            raise DomainError(f"quadrature radial node count must be an integer, "
                              f"got {self.radial!r}") from None
        if self.radial < 2:
            raise DomainError("quadrature needs at least 2 radial nodes")
        if self.radial > MAX_RADIAL:
            raise DomainError(
                f"quadrature radial node count must be <= {MAX_RADIAL}, got {self.radial}"
            )
        # sqrt(3) MAX_MOMENTUM of center norm plus ten momentum widths
        k_limit = 12.0 * MAX_MOMENTUM
        if not 0.0 < self.k_max <= k_limit:
            raise DomainError(f"k_max must lie in (0, {k_limit:g}], got {self.k_max}")
        if not 0.0 < self.tol < math.inf:
            raise DomainError(f"tolerance must be positive and finite, got {self.tol}")

    @classmethod
    def for_packets(cls, *packets: GaussianPacket, radial: int = 128,
                    tol: float = 1e-9) -> "ShellQuadrature":
        """Default rule: radial cutoff at center + 10 momentum widths."""
        if not packets:
            raise DomainError("need at least one packet to size the cutoff")
        k_max = max(p.spatial_center_norm + 10.0 * p.momentum_width
                    for p in packets)
        return cls(k_max=k_max, radial=radial, tol=tol)

    @functools.cached_property
    def rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only radial nodes k and weights w on [0, k_max]."""
        x, weights = np.polynomial.legendre.leggauss(self.radial)
        k = 0.5 * (x + 1.0) * self.k_max
        w = 0.5 * self.k_max * weights
        k.flags.writeable = w.flags.writeable = False
        return k, w

    @functools.cached_property
    def _refined(self) -> "ShellQuadrature":
        return ShellQuadrature(k_max=self.k_max, radial=2 * self.radial, tol=self.tol)

    def refined(self) -> "ShellQuadrature":
        """Same cutoff with the radial node count doubled; the same object
        on every call, so its nodes are built once."""
        return self._refined

    def tail_bound(self, f: GaussianPacket, g: GaussianPacket) -> float:
        """Upper bound on the integral mass beyond k_max (Gaussian decay).

        Uses |fhat ghat*| <= |A_f A_g| exp(-s (k - r)^2) radially with
        s = (sigma_f^2 + sigma_g^2)/2 and r the larger spatial-center
        norm, together with k^2/(2 omega) <= k/2.
        """
        s = 0.5 * (f.width ** 2 + g.width ** 2)
        r = max(f.spatial_center_norm, g.spatial_center_norm)
        gap = self.k_max - r
        if gap <= 0.0:
            return math.inf
        root_s = math.sqrt(s)
        radial_tail = (math.exp(-s * gap * gap) / (2.0 * s)
                       + 0.5 * r * math.sqrt(math.pi / s) * math.erfc(root_s * gap))
        prefactor = abs(f.amplitude) * abs(g.amplitude) * 4.0 * math.pi \
            / (2.0 * (2.0 * math.pi) ** 3)
        return prefactor * radial_tail


class NormEstimate(NamedTuple):
    """Squared norm with a successive-resolution error estimate."""

    value: float
    error: float


def shell_inner_product(f: GaussianPacket, g: GaussianPacket,
                        q: ShellQuadrature) -> complex:
    """Lorentz-invariant inner product <f|g> on the mass shell.

    Linear in ``f``, antilinear in ``g``, and exactly conjugate-symmetric:
    the radial sum is real and symmetric in (f, g), and the amplitudes
    multiply it once at the end.  The radial nodes and weights are
    ``q.rule``, built once per rule object.  The angular factor
    sinh(k|b|) / (k|b|) enters as exp(k|b|) (1 - exp(-2k|b|)) / (2k|b|),
    with exp(k|b|) folded into the Gaussian exponent, so it cannot
    overflow.  Raises ``PrecisionError`` when the Gaussian tail beyond
    ``q.k_max`` cannot be certified below ``q.tol / 10 * |A_f A_g|``:
    the tail relative to the amplitudes, so the verdict does not depend
    on their scale.
    """
    if f.mass != g.mass:
        raise DomainError(f"mass mismatch: {f.mass} vs {g.mass}")
    tail = q.tail_bound(f, g)
    # relative to |A_f A_g|, as the tail bound is; a product, so that a zero
    # amplitude passes with a zero tail and fails later as degenerate
    allowed = q.tol / 10.0 * (abs(f.amplitude) * abs(g.amplitude))
    if not tail <= allowed:
        raise PrecisionError(
            f"quadrature tail beyond k_max = {q.k_max} estimated at {tail:.3e}, "
            f"exceeds tol/10 * |A_f A_g| = {allowed:.3e}"
        )
    k, w = q.rule
    omega = np.sqrt(k * k + f.mass * f.mass)

    def scaled_square_distance(p: GaussianPacket):
        # sigma^2 ((omega - c0)^2 + k^2 + |c|^2): |k - c|^2 without the k . c term
        c0, cx, cy, cz = p.center
        return p.width ** 2 * ((omega - c0) ** 2 + k * k + (cx * cx + cy * cy + cz * cz))

    s_f, s_g = f.width ** 2, g.width ** 2
    b_norm = math.hypot(*(s_f * cf + s_g * cg
                          for cf, cg in zip(f.center[1:], g.center[1:])))
    kb = k * b_norm
    angular_factor = np.ones_like(k)  # (1 - e^{-2kb}) / (2kb) -> 1 as kb -> 0
    np.divide(-np.expm1(-2.0 * kb), 2.0 * kb, out=angular_factor, where=kb > 0.0)
    exponent = kb - 0.5 * (scaled_square_distance(f) + scaled_square_distance(g))
    # w is (0.5 * k_max) * weights, so this multiplies in the order of
    # 0.5 * k_max * weights * k * k, bit for bit
    weight = w * k * k / (2.0 * omega)
    # np.sum reduces pairwise in a fixed order, so results are bit-stable.
    radial_sum = float(np.sum(weight * np.exp(exponent) * angular_factor))
    return f.amplitude * g.amplitude.conjugate() * (
        radial_sum * 4.0 * math.pi / (2.0 * math.pi) ** 3)


def test_norm(f: GaussianPacket, q: ShellQuadrature) -> NormEstimate:
    """Squared norm ||f||^2 = <f|f> with a self-convergence error bar.

    The error estimate is the difference against the same integral with
    the radial nodes doubled, on ``q.refined()``: one shared rule, so
    repeated norms on ``q`` build each set of nodes once.
    """
    value = shell_inner_product(f, f, q).real
    refined = shell_inner_product(f, f, q.refined()).real
    return NormEstimate(value=value, error=abs(value - refined))


def normalize(f: GaussianPacket, q: ShellQuadrature) -> GaussianPacket:
    """Rescale the packet amplitude so that ||f|| = 1.

    The rescaling factor is real and positive, so the amplitude phase is
    preserved.  Raises ``DomainError`` for a vanishing norm and
    ``PrecisionError`` when the quadrature has not converged well enough
    to certify ||f|| = 1 within 1e-10.
    """
    est = test_norm(f, q)
    if not est.value > 1e-60 or not math.isfinite(est.value):
        raise DomainError(f"test function norm is degenerate: {est.value!r}")
    if est.error > 1e-10 * est.value:
        raise PrecisionError(
            f"norm estimate {est.value!r} carries relative error "
            f"{est.error / est.value:.3e}, too large to normalize to 1e-10"
        )
    return f.scaled(1.0 / math.sqrt(est.value))


def sigma_chsh(sigma: float, angles: AngleSet, f: GaussianPacket,
               g: GaussianPacket, q: ShellQuadrature) -> float:
    """Squeezed-state CHSH value for the field smeared with (f, g).

    With unit-norm, mutually orthogonal packets the smeared operators
    (a_f, b_g) satisfy the same algebra as an independent two-mode
    oscillator pair, so the correlator reduces to the oscillator closed
    form with squeezing parameter ``sigma``.  The preconditions that
    justify the reduction are verified (each bound is 1e-6; a violation
    raises ``DomainError``) and the evaluation is delegated to :func:`bellchsh.fock.chsh_closed`.
    """
    if not 0.0 < sigma < 1.0:
        raise DomainError(f"sigma must lie in (0, 1), got {sigma}")
    bound = 1e-6
    norm_f = math.sqrt(shell_inner_product(f, f, q).real)
    if abs(norm_f - 1.0) > bound:
        raise DomainError(
            f"| ||f|| - 1 | = {abs(norm_f - 1.0):.3e} exceeds bound {bound}"
        )
    norm_g = math.sqrt(shell_inner_product(g, g, q).real)
    if abs(norm_g - 1.0) > bound:
        raise DomainError(
            f"| ||g|| - 1 | = {abs(norm_g - 1.0):.3e} exceeds bound {bound}"
        )
    overlap = abs(shell_inner_product(f, g, q)) / (norm_f * norm_g)
    if overlap > bound:
        raise DomainError(
            f"|<f|g>| / (||f|| ||g||) = {overlap:.3e} exceeds bound {bound}"
        )
    return fock.chsh_closed(sigma, angles)
