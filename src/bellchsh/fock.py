"""Truncated two-mode Fock space: squeezed states and their CHSH physics.

The two bosonic modes are truncated to ``cutoff`` levels each (total
dimension ``cutoff**2``).  A state is stored as its ``cutoff**2``
amplitudes, which reshape to the ``cutoff x cutoff`` matrix ``Psi``;
every operator is kept as per-mode ``cutoff x cutoff`` factors (a
local flip, or a ``FactoredOperator`` of ladder products), so memory
and time grow as ``cutoff**2`` to ``cutoff**3``, never ``cutoff**4``.
The cutoff must be even so the parity-pair flip operators, which swap
levels ``2k <-> 2k+1``, close on the truncated space and square
exactly to the identity.

The two-mode squeezed state with parameter ``eta`` is in Schmidt form,
``sum_n s_n |n, n>`` with ``s_n`` proportional to ``eta**n``.  Every
flip is block-diagonal on the pairs ``(2k, 2k+1)``, with the same 2 x 2
block on each pair (the pseudospin of Chen, Pan, Hou & Zhang, PRL 88,
040406, 2002), so ``<A (x) B> = sum_pq G_pq a_pq b_pq`` with the 2 x 2
pair Gram ``G_pq = sum_k s_(2k+p) s_(2k+q)`` and the blocks ``a``,
``b``: ``chsh_matrix`` takes O(cutoff) time and memory per call, and
builds its four blocks with one stacked ``phase_flip`` call.  For
an even cutoff the renormalized truncated state reproduces the
closed-form pair correlator

    <A(alpha) B(beta)> = 2 eta / (1 + eta^2) * cos(alpha + beta)

exactly (every flip pair lies inside the cutoff), so closed form and
matrix evaluation differ only by float rounding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .chsh import (MAX_FLIP_DIM, AngleSet, ChshQuadruple, ClosedFormCorrelator,
                   _real_correlator, flip_quadruple, phase_flip)
from .errors import DomainError
from .linalg import FactoredOperator, Ket

#: Phase choice turning the squeezed closed form into 2 * (2 sqrt(2) eta
#: / (1 + eta^2)): the cosine combination saturates at 2 sqrt(2).
MAX_VIOLATION_ANGLES = AngleSet(0.0, math.pi / 2, -math.pi / 4, math.pi / 4)

#: Cosine signs of the squeezed closed form, cos(a1 + b1) + cos(a2 + b1)
#: + cos(a1 + b2) - cos(a2 + b2).
SQUEEZED_SIGNS = (1.0, 1.0, 1.0, -1.0)

#: Squeezing interval on which the closed form at
#: ``MAX_VIOLATION_ANGLES``, 2 * (2 sqrt(2) eta / (1 + eta^2)), exceeds
#: the CHSH bound 2.
VIOLATION_WINDOW = (math.sqrt(2.0) - 1.0, 1.0)

#: Default per-mode cutoff: eta**(2*40) <= 1e-7 up to eta ~ 0.82, with
#: 40 x 40 operator factors and a 40 x 40 amplitude matrix.
DEFAULT_CUTOFF = 40

#: Largest per-mode cutoff, ``chsh.MAX_FLIP_DIM``: the amplitude matrix
#: of ``squeezed_state`` then holds 2048**2 complex numbers (64 MB), the
#: only ``cutoff**2`` array left; ``chsh_matrix`` builds none.
MAX_CUTOFF = MAX_FLIP_DIM

#: The one parity pair of a flip's 2 x 2 block in ``chsh_matrix``.
_BLOCK_PAIRS = np.array([(0, 1)])


@dataclass(frozen=True)
class FockSpace:
    """Two bosonic modes truncated to ``cutoff`` levels each.

    ``cutoff`` is coerced with ``operator.index`` and must be even and in
    ``[4, MAX_CUTOFF]``; otherwise ``DomainError`` is raised.
    """

    cutoff: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "cutoff", operator.index(self.cutoff))
        except TypeError:
            raise DomainError(f"cutoff must be an integer, got {self.cutoff!r}") from None
        if self.cutoff < 4:
            raise DomainError(f"cutoff must be >= 4, got {self.cutoff}")
        if self.cutoff > MAX_CUTOFF:
            raise DomainError(f"cutoff must be <= {MAX_CUTOFF}, got {self.cutoff}")
        if self.cutoff % 2 != 0:
            raise DomainError(
                f"cutoff must be even so flip pairs (2n, 2n+1) close, got {self.cutoff}"
            )

    @property
    def dim(self) -> int:
        return self.cutoff * self.cutoff


def _check_eta(eta: float) -> float:
    if not 0.0 < eta < 1.0:
        raise DomainError(f"squeezing parameter must lie in (0, 1), got {eta}")
    return float(eta)


def pair_amplitude(eta: float) -> float:
    """Squeezed pair amplitude 2 eta / (1 + eta^2), unchecked on [0, 1]:
    exactly 0 at an underflowed eta = exp(-x), x above ~745."""
    return 2.0 * eta / (1.0 + eta * eta)


def _mode_factors(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-mode factors (lowering, raising, number, identity) of every
    two-mode operator."""
    low = np.zeros((cutoff, cutoff), dtype=complex)
    n = np.arange(1, cutoff)
    low[n - 1, n] = np.sqrt(n)
    return low, low.conj().T, np.diag(np.arange(cutoff)).astype(complex), np.eye(cutoff)


@dataclass(frozen=True, eq=False)
class SqueezedState:
    """Normalized truncated two-mode squeezed state."""

    eta: float
    space: FockSpace
    ket: Ket


def squeezed_state(eta: float, space: FockSpace) -> SqueezedState:
    """Two-mode squeezed state with diagonal amplitudes ~ eta**n.

    Before renormalization the amplitudes are sqrt(1 - eta^2) * eta**n
    on |n, n>, whose truncated squared norm is 1 - eta**(2*cutoff); the
    returned ket is renormalized to norm 1 exactly.
    """
    eta = _check_eta(eta)
    n = space.cutoff
    amp = np.zeros(space.dim, dtype=complex)
    amp[::n + 1] = math.sqrt(1.0 - eta * eta) * eta ** np.arange(n)
    amp /= np.linalg.norm(amp)
    return SqueezedState(eta=eta, space=space, ket=Ket(amp, normalized=True))


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

    eta: float
    alpha: FactoredOperator
    beta: FactoredOperator


def bogoliubov_pair(eta: float, space: FockSpace) -> BogoliubovPair:
    """Build the mixed-mode pair (alpha, beta) for the given squeezing,
    each as its two terms over the per-mode lowering factor ``low`` and
    raising factor ``raz = low^dagger``: ``alpha = s (low (x) 1 - eta 1 (x) raz)``
    with ``s = 1/sqrt(1 - eta^2)``, and ``beta`` mirrored."""
    eta = _check_eta(eta)
    low, raz, _, eye = _mode_factors(space.cutoff)
    scale = 1.0 / math.sqrt(1.0 - eta * eta)
    return BogoliubovPair(
        eta=eta,
        alpha=FactoredOperator(((scale, low, eye), (-scale * eta, eye, raz))),
        beta=FactoredOperator(((scale, eye, low), (-scale * eta, raz, eye))),
    )


def squeezed_hamiltonian(eta: float, space: FockSpace) -> FactoredOperator:
    """Quadratic Hamiltonian whose ground state is the squeezed state.

    H = (1+eta^2)/(1-eta^2) (a_dag a + b_dag b)
        - 2 eta/(1-eta^2) (a_dag b_dag + a b)
        + 2 eta^2/(1-eta^2)

    The constant term is fixed by H = alpha_dag alpha + beta_dag beta,
    which makes H |eta> vanish up to the cutoff residue.  Kept as five
    per-mode factor products.
    """
    eta = _check_eta(eta)
    low, raz, num, eye = _mode_factors(space.cutoff)
    one_minus = 1.0 - eta * eta
    number = (1.0 + eta * eta) / one_minus
    pair = -2.0 * eta / one_minus
    return FactoredOperator((
        (number, num, eye),
        (number, eye, num),
        (pair, raz, raz),
        (pair, low, low),
        (2.0 * eta * eta / one_minus, eye, eye),
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
    """Squeezed-state CHSH closed form as an optimizable descriptor."""
    return ClosedFormCorrelator(
        prefactor=pair_amplitude(_check_eta(eta)),
        signs=SQUEEZED_SIGNS,
    )


def chsh_closed(eta: float, angles: AngleSet) -> float:
    """Closed-form squeezed-state CHSH value.

    At ``MAX_VIOLATION_ANGLES`` this equals 2 * (2 sqrt(2) eta /
    (1 + eta^2)): exactly 2 at eta = sqrt(2) - 1 and approaching
    2 sqrt(2) as eta -> 1.
    """
    return squeezed_closed_form(eta).value(angles)


def chsh_matrix(eta: float, space: FockSpace, angles: AngleSet) -> float:
    """CHSH value of the squeezed state from the explicit flip action.

    Matrix route, independent of the closed form: the correlator of
    ``chsh_value`` against ``fock_quadruple(space, angles)`` on the
    Schmidt form.  The explicit amplitudes ``s_n = sqrt(1 - eta^2)
    eta**n``, renormalized, are viewed as ``(cutoff/2, 2)`` rows of pair
    ``k`` and parity ``p``, so the pair Gram is ``G = s^T s`` (2 x 2),
    and each flip is its 2 x 2 block, all four from one stacked call
    ``phase_flip(2, [(0, 1)], angles.as_tuple())``:
    ``sum G o (A1 o (B1 + B2) + A2 o (B1 - B2))`` entrywise.  O(cutoff)
    per call; no ``cutoff**2`` array and no quadruple is built.  An
    imaginary residue above 1e-10 raises ``PrecisionError``.
    """
    eta = _check_eta(eta)
    amp = math.sqrt(1.0 - eta * eta) * eta ** np.arange(space.cutoff)
    amp /= math.sqrt(amp @ amp)
    pairs = amp.reshape(-1, 2)
    gram = pairs.T @ pairs
    a1, a2, b1, b2 = phase_flip(2, _BLOCK_PAIRS, angles.as_tuple())
    return _real_correlator(np.sum(gram * (a1 * (b1 + b2) + a2 * (b1 - b2))))
