"""Shared test oracles, independent of the library code paths they check.

The library keeps two-party operators as local factors, with ``None``
for an identity factor that it never multiplies by.  The oracle here
builds the full-space Kronecker matrices instead, with an explicit
``np.eye`` for each ``None``; it is meant for small spaces (spin, and
Fock cutoffs up to about 8).  The closed forms
only tests use (the total spin, the squeezed and the spin-1/2 pair
correlators) live here too.

So do the builders only tests use: the spin matrices and the spin-1
coupling S_A . S_B whose -2 ground state is the singlet.  The library
keeps a two-party ket as its ``(dim_A, dim_B)`` amplitude matrix; the
dense oracles here act on its row-major ravel, the composite index
``i_A * dim_B + i_B`` that ``np.kron`` orders the full space by.

The library fixes the violation window at the constant
(sqrt(2) - 1, 1); the oracle here bisects the closed-form CHSH excess
for its lower endpoint.

The library evaluates the Fock-space parity flips of ``chsh_matrix`` on
the Schmidt form of the squeezed state, as 2 x 2 blocks against the
pair Gram of its amplitudes.  The oracles here act on a general
two-mode state: on the parity axes of its amplitude matrix, and by pair
index, a swap of paired rows or columns times a phase.  The truncated
ladder operators, which the library builds only as parts of the
Bogoliubov pair and the Hamiltonian, are built here from the same
per-mode factors, each with its own stored identity on the other mode.

The library computes only the powers of eta in ``chsh_matrix`` that do
not underflow to zero, and writes the rest as zeros.  The oracle here
computes every power, as the full vector ``full_powers``.

The library builds the two flips of each quadruple side with one
stacked ``phase_flip`` call.  ``phase_flip`` is the one checked entry
to the flip build, which ``chsh_matrix`` shares, building its four
2 x 2 blocks in one stack without the check.  The oracles here make one
checked scalar ``phase_flip`` call per operator, and one writes a flip
entry by entry in Python loops, without calling ``phase_flip`` at all.

The library takes each Rindler mode's form-factor term from the
squeezed pair's amplitude at eta = exp(-w / 2T).  The oracles here
write it as 1/cosh(w / 2T), with and without explicit exponentials,
and write a mode's squeezing with the acceleration, as exp(-pi w / a).

The library maximizes a closed-form CHSH correlator exactly.  The
oracle here is a numeric search: a coarse grid and trig-exact
coordinate sweeps.  The library's closed forms read their four cosines
from the ``AngleSet``, computed once per set, and ``chsh_closed``
scales one unit-prefactor form; the oracles here compute the cosines
on every call and build the squeezed form with its prefactor.

The library integrates the mass-shell inner product with a radial rule
and a closed-form angular factor, on nodes each rule builds once.  The
oracles here are the full spherical product rule over
(|k|, cos theta, phi), and the radial rule with its nodes built on
every call.
"""

import math

import numpy as np

from bellchsh import (
    AngleSet,
    ChshQuadruple,
    ClosedFormCorrelator,
    FactoredOperator,
    FockSpace,
    GaussianPacket,
    Ket,
    MAX_VIOLATION_ANGLES,
    RindlerModeSet,
    SPIN_HALF,
    SPIN_ONE,
    ShellQuadrature,
    chsh_closed,
    fock,
    phase_flip,
    wrap_angle,
)
from bellchsh.errors import DomainError, PrecisionError, ShapeError


def dense(op: FactoredOperator) -> np.ndarray:
    """Full-space matrix sum_k c_k kron(L_k, R_k) of a factored operator,
    a ``None`` factor read as ``np.eye`` of its side's dimension."""
    eye_a, eye_b = (np.eye(dim) for dim in op.dims)
    return sum(c * np.kron(eye_a if left is None else left, eye_b if right is None else right)
               for c, left, right in op.terms)


def hermiticity_deviation(m: np.ndarray) -> float:
    """Entrywise max|M - M^dag|."""
    return float(np.abs(m - m.conj().T).max())


def full_quadruple(q: ChshQuadruple) -> dict[str, np.ndarray]:
    """The quadruple embedded in the full space: A (x) I and I (x) B."""
    dim_a, dim_b = q.dims  # raises ShapeError on mixed dims
    eye_a, eye_b = np.eye(dim_a), np.eye(dim_b)
    return {
        "a1": np.kron(q.a1, eye_b), "a2": np.kron(q.a2, eye_b),
        "b1": np.kron(eye_a, q.b1), "b2": np.kron(eye_a, q.b2),
    }


def chsh_operator(q: ChshQuadruple) -> np.ndarray:
    """Assemble C = (A1 + A2) B1 + (A1 - A2) B2 as a dense full-space matrix."""
    full = full_quadruple(q)
    a1, a2, b1, b2 = full["a1"], full["a2"], full["b1"], full["b2"]
    return (a1 + a2) @ b1 + (a1 - a2) @ b2


def expectation(psi: Ket, m: np.ndarray) -> complex:
    """Expectation value <psi|M|psi> of a dense full-space matrix, on the
    row-major ravel of the amplitude matrix; normalized state."""
    vec = psi.amplitudes.ravel()
    if vec.size != m.shape[0]:
        raise ShapeError(f"ket size {vec.size} vs operator dim {m.shape[0]}")
    if abs(psi.norm - 1.0) > 1e-9:
        raise ValueError(f"expectation requires a normalized state, "
                         f"||psi|| = {psi.norm!r}")
    return complex(np.vdot(vec, m @ vec))


def loop_phase_flip(dim: int, pairs, phase: float) -> np.ndarray:
    """``phase_flip(dim, pairs, phase)`` for one scalar phase, every entry
    written in Python loops from the definition: 1 on the diagonal of
    each level outside the pairs, ``up = e^{i phase}`` at ``(dst, src)``
    and ``up.conjugate()`` at ``(src, dst)`` for each pair, 0 elsewhere.
    """
    paired = {int(level) for pair in pairs for level in pair}
    up = complex(np.exp(1j * phase))
    rows = [[0j] * dim for _ in range(dim)]
    for level in range(dim):
        if level not in paired:
            rows[level][level] = 1 + 0j
    for src, dst in pairs:
        rows[dst][src] = up
        rows[src][dst] = up.conjugate()
    return np.array(rows, dtype=complex)


def four_call_quadruple(dims: tuple[int, int], pairs: tuple,
                        angles: AngleSet) -> ChshQuadruple:
    """``flip_quadruple`` with one scalar ``phase_flip`` call per operator."""
    (dim_a, dim_b), (pairs_a, pairs_b) = dims, pairs
    return ChshQuadruple(
        a1=phase_flip(dim_a, pairs_a, angles.alpha1),
        a2=phase_flip(dim_a, pairs_a, angles.alpha2),
        b1=phase_flip(dim_b, pairs_b, angles.beta1),
        b2=phase_flip(dim_b, pairs_b, angles.beta2),
    )


def full_powers(eta: float, cutoff: int) -> np.ndarray:
    """The unnormalized squeezed amplitudes ``sqrt(1 - eta^2) eta**n`` for
    n below ``cutoff``, every power computed, none written as a zero."""
    return math.sqrt(1.0 - eta * eta) * eta ** np.arange(cutoff)


def four_call_chsh_matrix(eta: float, space: FockSpace, angles: AngleSet) -> complex:
    """``fock.chsh_matrix`` before its real part is taken, on the
    ``full_powers`` amplitudes, with each 2 x 2 block from its own scalar
    ``phase_flip`` call."""
    amp = full_powers(eta, space.cutoff)
    amp /= np.linalg.norm(amp)
    pairs = amp.reshape(-1, 2)
    gram = pairs.T @ pairs
    a1, a2, b1, b2 = (phase_flip(2, np.array([(0, 1)]), phase) for phase in angles.as_tuple())
    return complex(np.sum(gram * (a1 * (b1 + b2) + a2 * (b1 - b2))))


def flip_rows(x: np.ndarray, pairs, phase: float) -> np.ndarray:
    """``phase_flip(len(x), pairs, phase) @ x`` by pair index.

    Row ``dst`` of the result is ``e^{i phase} x[src]`` and row ``src`` is
    ``e^{-i phase} x[dst]``; every other row is copied.  ``x @ F^T`` is the
    same action on columns, ``flip_rows(x.T, ...).T``.  A shared level or
    a non-finite phase raises ``DomainError``, as in ``phase_flip``.
    """
    pairs = np.asarray(pairs)
    if not (math.isfinite(phase) and np.bincount(pairs.ravel(), minlength=len(x)).max() <= 1):
        raise DomainError(f"phase flip is not hermitian or not an involution: pairs "
                          f"must be disjoint and the phase finite, got phase {phase}")
    src, dst = pairs.T
    up = complex(np.exp(1j * phase))
    out = np.array(x, dtype=complex)
    # amplitude first, as in ``flip_parity``: swapped operands round
    # the imaginary part of a complex product differently
    out[dst] = x[src] * up
    out[src] = x[dst] * up.conjugate()
    return out


def pair_index_chsh(psi: Ket, cutoff: int, angles: AngleSet) -> complex:
    """``<psi|C|psi>`` of the Fock parity-pair flips ``(2k, 2k + 1)`` by
    pair index, in ``chsh_value``'s order: ``Y1 = Psi B1^T`` and
    ``Y2 = Psi B2^T`` as column flips, then ``A1 (Y1 + Y2) + A2 (Y1 - Y2)``
    as row flips."""
    mat = psi.amplitudes
    pairs = np.arange(cutoff).reshape(-1, 2)
    y1 = flip_rows(mat.T, pairs, angles.beta1).T
    y2 = flip_rows(mat.T, pairs, angles.beta2).T
    c_psi = (flip_rows(y1 + y2, pairs, angles.alpha1)
             + flip_rows(y1 - y2, pairs, angles.alpha2))
    return complex(np.vdot(mat, c_psi))


def flip_parity(x: np.ndarray, axis: int, phase: float) -> np.ndarray:
    """The parity-pair flip of one mode, ``phase_flip`` on the pairs
    ``(2k, 2k + 1)``, on ``x``'s parity ``axis`` (of length 2): the axis
    reversed, then parity 0 times ``e^{-i phase}`` and parity 1 times
    ``e^{i phase}``."""
    up = complex(np.exp(1j * phase))
    phases = np.array([up.conjugate(), up]).reshape((2,) + (1,) * (x.ndim - 1 - axis))
    return np.flip(x, axis) * phases


def parity_axis_chsh(psi: Ket, cutoff: int, angles: AngleSet) -> complex:
    """``<psi|C|psi>`` of the Fock parity-pair flips on the parity axes.

    Level ``2k + p`` of a mode is its pair ``k`` and parity ``p``, so
    ``Psi`` is viewed as ``(cutoff/2, 2, cutoff/2, 2)``.  In
    ``chsh_value``'s order, ``Y1 = Psi B1^T`` and ``Y2 = Psi B2^T`` flip
    B's parity axis 3, then ``A1 (Y1 + Y2) + A2 (Y1 - Y2)`` flips A's
    parity axis 1.  The difference overwrites ``Y1`` and the A-side terms
    are summed in place, so at most four ``cutoff**2`` arrays are alive
    at once (256 MB at cutoff 2048).
    """
    half = cutoff // 2
    mat = psi.amplitudes.reshape(half, 2, half, 2)
    y1 = flip_parity(mat, 3, angles.beta1)
    y2 = flip_parity(mat, 3, angles.beta2)
    y_sum = y1 + y2
    y1 -= y2
    del y2
    c_psi = flip_parity(y_sum, 1, angles.alpha1)
    del y_sum
    c_psi += flip_parity(y1, 1, angles.alpha2)
    return complex(np.vdot(mat, c_psi))


def ladder_matrices(space: FockSpace) -> tuple[FactoredOperator, FactoredOperator,
                                               FactoredOperator, FactoredOperator]:
    """Truncated ladder operators (a, a_dag, b, b_dag), one term each:
    ``a = low (x) 1`` and ``a_dag = raz (x) 1`` with the library's
    per-mode lowering factor ``low`` and raising factor
    ``raz = low^dagger``, and a stored ``np.eye`` for the identity;
    ``b`` and ``b_dag`` mirror them.

    Within the cutoff they satisfy the canonical algebra; the only
    truncation artifact sits on the top level of each mode, where
    ``[a, a_dag]`` picks up the diagonal entry ``1 - cutoff`` instead
    of 1.  Cross-mode commutators such as ``[a, b_dag]`` vanish exactly.
    """
    low, raz, _ = fock._mode_factors(space.cutoff)
    eye = np.eye(space.cutoff)
    return (FactoredOperator(((1.0, low, eye),)), FactoredOperator(((1.0, raz, eye),)),
            FactoredOperator(((1.0, eye, low),)), FactoredOperator(((1.0, eye, raz),)))


def spin_matrices(spin: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-particle (Sx, Sy, Sz) in the package's basis ordering,
    descending m, for ``SPIN_HALF`` or ``SPIN_ONE``."""
    levels = {SPIN_HALF: 2, SPIN_ONE: 3}[spin]
    s = (levels - 1) / 2.0
    m = s - np.arange(levels)
    raise_elem = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((levels, levels), dtype=complex)
    sp[np.arange(levels - 1), np.arange(1, levels)] = raise_elem
    sm = sp.conj().T
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    sz = np.diag(m).astype(complex)
    return sx, sy, sz


def spin_hamiltonian() -> FactoredOperator:
    """The spin-1 coupling S_A . S_B = (S_A + S_B)^2 / 2 - 2.

    The singlet is its ground state with eigenvalue -2.
    """
    return FactoredOperator(tuple((1.0, si, si) for si in spin_matrices(SPIN_ONE)))


def total_spin_squared(spin: str) -> FactoredOperator:
    """(S_A + S_B)^2 on the product space; annihilates the singlet."""
    matrices = spin_matrices(spin)
    eye = np.eye(matrices[0].shape[0])
    terms = []
    for si in matrices:
        terms += [(1.0, si @ si, eye), (2.0, si, si), (1.0, eye, si @ si)]
    return FactoredOperator(tuple(terms))


#: Agreement required between the bisected and the analytic lower
#: endpoint of the violation window.
WINDOW_TOL = 1e-10


def bisected_window_lower() -> float:
    """Lower endpoint of the violation window, found by bisecting
    ``chsh_closed(., MAX_VIOLATION_ANGLES) - 2`` on [0.01, 0.99] down to
    a bracket of ``WINDOW_TOL / 4``; the oracle for ``VIOLATION_WINDOW``.
    A bracket without a sign change raises ``PrecisionError``.
    """
    def excess(eta: float) -> float:
        return chsh_closed(eta, MAX_VIOLATION_ANGLES) - 2.0

    lo, hi = 0.01, 0.99
    if not excess(lo) < 0.0 < excess(hi):
        raise PrecisionError("violation-window bracket lost its sign change")
    while hi - lo > 0.25 * WINDOW_TOL:
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def correlator_closed(eta: float, alpha_k: float, beta_i: float) -> float:
    """Closed-form squeezed pair correlator 2 eta/(1+eta^2) * cos(alpha_k + beta_i)."""
    return 2.0 * eta / (1.0 + eta * eta) * math.cos(alpha_k + beta_i)


def per_call_closed_value(cf: ClosedFormCorrelator, angles: AngleSet) -> float:
    """``cf.value(angles)`` with its four cosines computed on this call,
    in the correlator's order of operations."""
    a1, a2, b1, b2 = angles.as_tuple()
    b1, b2 = cf.orientation * b1, cf.orientation * b2
    s = cf.signs
    return cf.prefactor * (
        cf.constant
        + s[0] * math.cos(a1 + b1)
        + s[1] * math.cos(a2 + b1)
        + s[2] * math.cos(a1 + b2)
        + s[3] * math.cos(a2 + b2)
    )


def per_call_chsh_closed(eta: float, angles: AngleSet) -> float:
    """``chsh_closed(eta, angles)`` from a squeezed form built with the
    prefactor 2 eta / (1 + eta^2), its cosines computed on this call."""
    form = ClosedFormCorrelator(2.0 * eta / (1.0 + eta * eta), fock.SQUEEZED_SIGNS)
    return per_call_closed_value(form, angles)


def spin_half_pair_correlator(alpha: float, beta: float) -> float:
    """Spin-1/2 singlet pair correlator <A(alpha) B(beta)> = -cos(alpha - beta)."""
    return -math.cos(alpha - beta)


def shell_grid(q: ShellQuadrature, mass: float, angular: int):
    """Flattened (omega, kx, ky, kz, weight) arrays of the spherical product rule.

    Gauss-Legendre nodes in |k| on [0, k_max] (``q.radial`` of them) and
    ``angular`` in cos(theta); uniform (trapezoidal) nodes in the
    azimuth, twice as many as in cos(theta).  The weight already
    contains k^2 / ((2 pi)^3 2 omega_k).
    """
    xr, wr = np.polynomial.legendre.leggauss(q.radial)
    k = 0.5 * (xr + 1.0) * q.k_max
    wk = 0.5 * q.k_max * wr
    u, wu = np.polynomial.legendre.leggauss(angular)
    n_phi = 2 * angular
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * np.pi / n_phi

    kg, ug, pg = np.meshgrid(k, u, phi, indexing="ij")
    sin_theta = np.sqrt(1.0 - ug * ug)
    kx = kg * sin_theta * np.cos(pg)
    ky = kg * sin_theta * np.sin(pg)
    kz = kg * ug
    omega = np.sqrt(kg * kg + mass * mass)
    weight = (wk[:, None, None] * wu[None, :, None] * w_phi
              * kg * kg / (2.0 * omega)) / (2.0 * np.pi) ** 3
    return tuple(a.ravel() for a in (omega, kx, ky, kz, weight))


def packet_profile(p: GaussianPacket, omega, kx, ky, kz):
    """fhat(omega, k) of a Gaussian packet at on-shell momentum arrays."""
    c0, cx, cy, cz = p.center
    q = (omega - c0) ** 2 + (kx - cx) ** 2 + (ky - cy) ** 2 + (kz - cz) ** 2
    return p.amplitude * np.exp(-0.5 * p.width ** 2 * q)


def product_rule_inner_product(f: GaussianPacket, g: GaussianPacket,
                               q: ShellQuadrature, angular: int) -> complex:
    """<f|g> on the full 3-D product rule, with no angular reduction:
    ``q``'s radial nodes times ``angular`` polar and ``2 * angular``
    azimuthal nodes."""
    omega, kx, ky, kz, weight = shell_grid(q, f.mass, angular)
    integrand = (packet_profile(f, omega, kx, ky, kz)
                 * np.conj(packet_profile(g, omega, kx, ky, kz)))
    return complex(np.sum(integrand * weight))


def per_call_inner_product(f: GaussianPacket, g: GaussianPacket,
                           q: ShellQuadrature) -> complex:
    """<f|g> on the radial rule with its nodes built inside the call:
    the operations of ``shell_inner_product`` in the same order, so the
    two must agree bit for bit.  No tail certificate."""
    nodes, weights = np.polynomial.legendre.leggauss(q.radial)
    k = 0.5 * (nodes + 1.0) * q.k_max
    omega = np.sqrt(k * k + f.mass * f.mass)

    def scaled_square_distance(p: GaussianPacket):
        c0, cx, cy, cz = p.center
        return p.width ** 2 * ((omega - c0) ** 2 + k * k + (cx * cx + cy * cy + cz * cz))

    s_f, s_g = f.width ** 2, g.width ** 2
    b_norm = math.hypot(*(s_f * cf + s_g * cg
                          for cf, cg in zip(f.center[1:], g.center[1:])))
    kb = k * b_norm
    angular_factor = np.ones_like(k)
    np.divide(-np.expm1(-2.0 * kb), 2.0 * kb, out=angular_factor, where=kb > 0.0)
    exponent = kb - 0.5 * (scaled_square_distance(f) + scaled_square_distance(g))
    weight = 0.5 * q.k_max * weights * k * k / (2.0 * omega)
    radial_sum = float(np.sum(weight * np.exp(exponent) * angular_factor))
    return f.amplitude * g.amplitude.conjugate() * (
        radial_sum * 4.0 * math.pi / (2.0 * math.pi) ** 3)


def _grid_argmax(cf: ClosedFormCorrelator, points: int) -> tuple[float, ...]:
    """Lexicographically smallest grid tuple maximizing |cf|: the first
    hit of the tie mask in C order."""
    g = -np.pi + 2.0 * np.pi * np.arange(points) / points
    a1 = g[:, None, None, None]
    a2 = g[None, :, None, None]
    b1 = cf.orientation * g[None, None, :, None]
    b2 = cf.orientation * g[None, None, None, :]
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


def grid_sweep_optimum(cf: ClosedFormCorrelator) -> tuple[AngleSet, float]:
    """Maximize |cf(angles)| over the four measurement phases numerically;
    the oracle for the exact ``optimize_angles``.

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


def sech(x: float) -> float:
    """1/cosh(x) without overflow, underflowing to 0 for large x: the
    form factor's per-mode term, written without ``fock.pair_amplitude``."""
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


def acceleration_squeezing(omega: float, acceleration: float) -> float:
    """Squeezing exp(-pi omega / a) of a Rindler mode seen at proper
    acceleration a: the library's exp(-omega / 2T) at T = a / (2 pi),
    written with the acceleration instead of the temperature."""
    return math.exp(-math.pi * omega / acceleration)


def tau_sech_form(modes: RindlerModeSet, temperature: float) -> float:
    """The form factor as ``sum_i sech(omega_i / (2 T))``."""
    return sum(sech(w / (2.0 * temperature)) for w in modes.frequencies)


def tau_exponential_form(modes: RindlerModeSet, temperature: float) -> float:
    """The form factor at temperature T written with explicit exponentials,

        sum_i 2 (e^{w/2T} - e^{-w/2T}) / (e^{w/T} - e^{-w/T}),

    algebraically identical to ``bellchsh.tau``; kept literal so the two
    evaluations can be compared numerically.
    """
    total = 0.0
    for w in modes.frequencies:
        x = w / (2.0 * temperature)
        total += 2.0 * (math.exp(x) - math.exp(-x)) \
            / (math.exp(2.0 * x) - math.exp(-2.0 * x))
    return total


def power_iteration_norm(matrix: np.ndarray, iters: int = 2000,
                         tol: float = 1e-13) -> float:
    """Largest |eigenvalue| of a hermitian matrix by power iteration.

    Iterates with M^2 (applied as two matrix-vector products) so the
    symmetric +-lambda spectrum of CHSH operators cannot make the
    iteration oscillate.
    """
    dim = matrix.shape[0]
    # deterministic start with all symmetry sectors populated
    vec = np.ones(dim, dtype=complex) + 1e-3 * np.arange(dim)
    vec /= np.linalg.norm(vec)
    last = 0.0
    for _ in range(iters):
        squared = matrix @ (matrix @ vec)
        norm = np.linalg.norm(squared)
        if norm == 0.0:
            return 0.0
        vec = squared / norm
        lam_sq = np.vdot(vec, matrix @ (matrix @ vec)).real
        lam = np.sqrt(max(lam_sq, 0.0))
        if abs(lam - last) < tol:
            return lam
        last = lam
    return last


def random_state(rng: np.random.Generator, dim_a: int, dim_b: int) -> Ket:
    """A normalized random ket with a ``(dim_a, dim_b)`` amplitude matrix,
    drawn as its row-major ravel."""
    size = dim_a * dim_b
    vec = rng.normal(size=size) + 1j * rng.normal(size=size)
    return Ket((vec / np.linalg.norm(vec)).reshape(dim_a, dim_b))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(gauss)
    # fix the phase convention so the factorization is unique
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_involution_quadruple(rng: np.random.Generator, dim_a: int,
                                dim_b: int) -> ChshQuadruple:
    """A generic valid quadruple: conjugated sign matrices on each side.

    U diag(+-1) U^dag is hermitian and squares to the identity for any
    unitary U, and the A and B sides act on different factors, so the
    quadruple satisfies the CHSH axioms without being a phase-flip
    construction.
    """

    def side(dim: int) -> np.ndarray:
        u = random_unitary(rng, dim)
        signs = rng.choice([-1.0, 1.0], size=dim)
        if np.all(signs == signs[0]):
            signs[0] = -signs[0]  # avoid the trivial +-identity
        return u @ np.diag(signs) @ u.conj().T

    return ChshQuadruple(a1=side(dim_a), a2=side(dim_a),
                         b1=side(dim_b), b2=side(dim_b))


def series_squeezed_state(eta: float, cutoff: int) -> np.ndarray:
    """Exponential-series construction of the squeezed state's amplitude
    matrix.

    Applies the truncated full-space pair-creation matrix term by term
    to the two-mode vacuum and renormalizes; independent of the
    closed-form amplitude construction in the library.
    """
    low = np.zeros((cutoff, cutoff))
    n = np.arange(1, cutoff)
    low[n - 1, n] = np.sqrt(n)
    raise_pair = np.kron(low.T, low.T)  # a_dag b_dag
    vec = np.zeros(cutoff * cutoff)
    vec[0] = 1.0
    total = vec.copy()
    term = vec.copy()
    for k in range(1, cutoff + 2):
        term = (eta / k) * (raise_pair @ term)
        total = total + term
        if np.linalg.norm(term) == 0.0:
            break
    return (total / np.linalg.norm(total)).reshape(cutoff, cutoff)
