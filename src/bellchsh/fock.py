"""Truncated two-mode Fock space: squeezed states and their CHSH physics.

The two bosonic modes are truncated to ``cutoff`` levels each (total
dimension ``cutoff**2``).  A state is its ``cutoff x cutoff`` amplitude
matrix ``Psi``, and every operator is kept as per-mode ``cutoff x
cutoff`` factors (a local flip, or a ``FactoredOperator`` of ladder
products whose identity factors are ``None``), so memory and time grow
as ``cutoff**2`` to ``cutoff**3``, never ``cutoff**4``.
The cutoff must be even so the parity-pair flip operators, which swap
levels ``2k <-> 2k+1``, close on the truncated space and square
exactly to the identity.

The two-mode squeezed state with parameter ``eta`` is in Schmidt form,
``sum_n s_n |n, n>`` with ``s_n`` proportional to ``eta**n``, built once
by ``_schmidt`` for both ``squeezed_state`` and ``chsh_matrix``.  Every
flip is block-diagonal on the pairs ``(2k, 2k+1)``, with the same 2 x 2
block on each pair (the pseudospin of Chen, Pan, Hou & Zhang, PRL 88,
040406, 2002), so ``<A (x) B> = sum_pq G_pq a_pq b_pq`` with the 2 x 2
pair Gram ``G_pq = sum_k s_(2k+p) s_(2k+q)`` and the blocks ``a``,
``b``: ``chsh_matrix`` takes O(cutoff) time and memory per call.  The
blocks, and so their kernel ``K = a1 o (b1 + b2) + a2 o (b1 - b2)``,
depend on the angles alone, so it reads ``K`` from ``AngleSet.pair_kernel``,
built once per angle set from the flip build behind ``phase_flip``; a
scan over eta with one angle set builds it once, and ``chsh_closed``
reads its cosines from ``AngleSet.pair_cosines`` the same way.
For an even cutoff the renormalized truncated state reproduces the
closed-form pair correlator

    <A(alpha) B(beta)> = 2 eta / (1 + eta^2) * cos(alpha + beta)

exactly (every flip pair lies inside the cutoff), so closed form and
matrix evaluation differ only by float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chsh import (MAX_FLIP_DIM, AngleSet, ChshQuadruple, ClosedFormCorrelator,
                   FactoredOperator, Ket, _real_correlator, flip_quadruple)
from .errors import DomainError, named, to_index, to_number

#: Phase choice turning the squeezed closed form into 2 * (2 sqrt(2) eta
#: / (1 + eta^2)): the cosine combination saturates at 2 sqrt(2).
MAX_VIOLATION_ANGLES = AngleSet(0.0, math.pi / 2, -math.pi / 4, math.pi / 4)

#: Cosine signs of the squeezed closed form, cos(a1 + b1) + cos(a2 + b1)
#: + cos(a1 + b2) - cos(a2 + b2).
SQUEEZED_SIGNS = (1.0, 1.0, 1.0, -1.0)

#: The squeezed closed form at unit prefactor: ``chsh_closed`` scales its
#: value by ``pair_amplitude(eta)``, ``squeezed_closed_form`` its prefactor.
UNIT_SQUEEZED_FORM = ClosedFormCorrelator(prefactor=1.0, signs=SQUEEZED_SIGNS)

#: Squeezing interval on which the closed form at
#: ``MAX_VIOLATION_ANGLES``, 2 * (2 sqrt(2) eta / (1 + eta^2)), exceeds
#: the CHSH bound 2.
VIOLATION_WINDOW = (math.sqrt(2.0) - 1.0, 1.0)

#: Default per-mode cutoff: eta**(2*40) <= 1e-7 up to eta ~ 0.82, with
#: 40 x 40 operator factors and a 40 x 40 amplitude matrix.
DEFAULT_CUTOFF = 40

#: Largest per-mode cutoff, ``chsh.MAX_FLIP_DIM``: the amplitude matrix
#: of ``squeezed_state`` then holds 2048**2 complex numbers (64 MB), and
#: ``fock_quadruple`` builds two ``(2, cutoff, cutoff)`` ``phase_flip``
#: stacks (128 MB each); ``chsh_matrix`` builds no ``cutoff**2`` array.
MAX_CUTOFF = MAX_FLIP_DIM

#: ``1080 ln 2``: ``_schmidt`` writes each power ``eta**n`` with
#: ``-n ln eta`` above this as a zero, since its true value is below
#: 2**-1080, under half the smallest subnormal 2**-1074.
_UNDERFLOW_LOG = 1080 * math.log(2.0)


@dataclass(frozen=True)
class FockSpace:
    """Two bosonic modes truncated to ``cutoff`` levels each.

    ``cutoff`` is coerced with ``errors.to_index`` and must be even and in
    ``[4, MAX_CUTOFF]``; otherwise ``DomainError`` is raised.
    """

    cutoff: int

    def __post_init__(self):
        cutoff = to_index(self.cutoff)
        if not (4 <= cutoff <= MAX_CUTOFF and cutoff % 2 == 0):
            raise DomainError(f"cutoff must be an even integer in [4, {MAX_CUTOFF}], "
                              f"got {named(self.cutoff)}", argument="cutoff")
        object.__setattr__(self, "cutoff", cutoff)


def _check_eta(eta: float) -> float:
    eta = to_number(eta)
    if not 0.0 < eta < 1.0:
        raise DomainError(f"squeezing parameter must lie in (0, 1), got {eta}", argument="eta")
    return eta


def pair_amplitude(eta: float) -> float:
    """Squeezed pair amplitude 2 eta / (1 + eta^2), unchecked on [0, 1]:
    exactly 0 at an underflowed eta = exp(-x), x above ~745."""
    return 2.0 * eta / (1.0 + eta * eta)


def _mode_factors(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-mode factors (lowering, raising, number) of every two-mode
    operator; the identity is the factor ``None``."""
    low = np.zeros((cutoff, cutoff), dtype=complex)
    n = np.arange(1, cutoff)
    low[n - 1, n] = np.sqrt(n)
    return low, low.conj().T, np.diag(np.arange(cutoff)).astype(complex)


@dataclass(frozen=True, eq=False)
class SqueezedState:
    """Normalized truncated two-mode squeezed state."""

    ket: Ket


def _schmidt(eta: float, cutoff: int) -> np.ndarray:
    """Schmidt weights ``s_n``, ``n < cutoff``, as a real vector: ``sqrt(1 -
    eta^2) eta**n``, of squared norm ``1 - eta**(2*cutoff)``, divided by
    ``math.sqrt(s @ s)``; ``eta`` is checked here.

    Only the first ``live = ceil(1080 ln 2 / -ln eta) + 1`` powers of
    eta are computed, when that is fewer than ``cutoff``.  Each later one
    has a true value below 2**-1080, which ``pow`` rounds to +0 on its
    slow subnormal path, so it is written as a zero directly: the bytes
    are those of the full power vector.
    """
    eta = _check_eta(eta)
    live = math.ceil(_UNDERFLOW_LOG / -math.log(eta)) + 1
    if live < cutoff:
        amp = np.zeros(cutoff)
        amp[:live] = math.sqrt(1.0 - eta * eta) * eta ** np.arange(live)
    else:
        amp = math.sqrt(1.0 - eta * eta) * eta ** np.arange(cutoff)
    amp /= math.sqrt(amp @ amp)
    return amp


def squeezed_state(eta: float, space: FockSpace) -> SqueezedState:
    """Two-mode squeezed state: the ``_schmidt`` weights on ``|n, n>``."""
    return SqueezedState(ket=Ket(np.diag(_schmidt(eta, space.cutoff))))


@dataclass(frozen=True, eq=False)
class BogoliubovPair:
    """Mixed-mode annihilation operators whose vacuum is the squeezed state.

    alpha = (a - eta * b_dag) / sqrt(1 - eta^2)
    beta  = (b - eta * a_dag) / sqrt(1 - eta^2)

    On the sub-block with both modes below the top level they satisfy
    the same canonical commutation relations as (a, b); the truncation
    residue of ``[alpha, alpha_dag] - 1`` and ``[alpha, beta]`` is
    confined to the top Fock level.
    """

    alpha: FactoredOperator
    beta: FactoredOperator


def bogoliubov_pair(eta: float, space: FockSpace) -> BogoliubovPair:
    """Build the mixed-mode pair (alpha, beta) for the given squeezing,
    each as its two terms over the per-mode lowering factor ``low`` and
    raising factor ``raz = low^dagger``: ``alpha = s (low (x) 1 - eta 1 (x) raz)``
    with ``s = 1/sqrt(1 - eta^2)``, and ``beta`` mirrored.  Each identity
    factor is ``None``, so each operator holds two factors and applies
    as two factor products."""
    eta = _check_eta(eta)
    low, raz, _ = _mode_factors(space.cutoff)
    scale = 1.0 / math.sqrt(1.0 - eta * eta)
    return BogoliubovPair(
        alpha=FactoredOperator(((scale, low, None), (-scale * eta, None, raz))),
        beta=FactoredOperator(((scale, None, low), (-scale * eta, raz, None))),
    )


def squeezed_hamiltonian(eta: float, space: FockSpace) -> FactoredOperator:
    """Quadratic Hamiltonian whose ground state is the squeezed state.

    H = (1+eta^2)/(1-eta^2) (a_dag a + b_dag b)
        - 2 eta/(1-eta^2) (a_dag b_dag + a b)
        + 2 eta^2/(1-eta^2)

    The constant term is fixed by H = alpha_dag alpha + beta_dag beta,
    which makes H |eta> vanish up to the cutoff residue.  Kept as four
    per-mode factor products, with ``None`` for each identity factor,
    and the constant as a scalar term ``(c, None, None)``.
    """
    eta = _check_eta(eta)
    low, raz, num = _mode_factors(space.cutoff)
    one_minus = 1.0 - eta * eta
    number = (1.0 + eta * eta) / one_minus
    pair = -2.0 * eta / one_minus
    return FactoredOperator((
        (number, num, None),
        (number, None, num),
        (pair, raz, raz),
        (pair, low, low),
        (2.0 * eta * eta / one_minus, None, None),
    ))


def fock_quadruple(space: FockSpace, angles: AngleSet) -> ChshQuadruple:
    """Phase-flip CHSH quadruple on the truncated two-mode space.

    Each side flips every parity pair ``|2n> -> e^{i phase} |2n+1>`` of
    its own mode; the even cutoff leaves no dangling level, so every
    factor is an exact involution.
    """
    n = space.cutoff
    pairs = _parity_pairs(n)
    return flip_quadruple((n, n), (pairs, pairs), angles)


def _parity_pairs(cutoff: int) -> np.ndarray:
    """Flipped level pairs of one mode: rows ``(2k, 2k + 1)``."""
    return np.arange(cutoff).reshape(-1, 2)


def squeezed_closed_form(eta: float) -> ClosedFormCorrelator:
    """Squeezed-state CHSH closed form as an optimizable descriptor:
    ``UNIT_SQUEEZED_FORM`` with the prefactor ``pair_amplitude(eta)``."""
    return replace(UNIT_SQUEEZED_FORM, prefactor=pair_amplitude(_check_eta(eta)))


def chsh_closed(eta: float, angles: AngleSet) -> float:
    """Closed-form squeezed-state CHSH value.

    ``pair_amplitude(eta) * UNIT_SQUEEZED_FORM.value(angles)``: byte for
    byte ``squeezed_closed_form(eta).value(angles)``, with no form built
    per call.  At ``MAX_VIOLATION_ANGLES`` this equals 2 * (2 sqrt(2) eta /
    (1 + eta^2)): exactly 2 at eta = sqrt(2) - 1 and approaching
    2 sqrt(2) as eta -> 1.
    """
    return pair_amplitude(_check_eta(eta)) * UNIT_SQUEEZED_FORM.value(angles)


def chsh_matrix(eta: float, space: FockSpace, angles: AngleSet) -> float:
    """CHSH value of the squeezed state from the explicit flip action.

    Matrix route, independent of the closed form: the correlator of
    ``chsh_value`` against ``fock_quadruple(space, angles)`` on the
    Schmidt form.  The weights ``s_n`` of ``_schmidt``, the bytes on the
    diagonal of ``squeezed_state``, are viewed as ``(cutoff/2, 2)`` rows
    of pair ``k`` and parity ``p``, so the pair Gram is ``G = s^T s`` (2 x 2),
    and each flip is its 2 x 2 block: ``sum G o K`` entrywise, with the
    kernel ``K = A1 o (B1 + B2) + A2 o (B1 - B2)`` of the blocks in
    ``angles.pair_kernel``, built at the set's first use.  O(cutoff) per
    call; no ``cutoff**2`` array and no quadruple is built.  An imaginary
    residue above 1e-10 raises ``PrecisionError``.
    """
    pairs = _schmidt(eta, space.cutoff).reshape(-1, 2)
    gram = pairs.T @ pairs
    return _real_correlator((gram * angles.pair_kernel).sum())
