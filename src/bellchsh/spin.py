"""Spin-1/2 and spin-1 singlets and their phase-flip CHSH quadruples.

Basis conventions, fixed once:

* spin 1/2: |+> -> index 0, |-> -> index 1;
* spin 1:   m = 1, 0, -1 -> indices 0, 1, 2 (S_z eigenbasis ordering).

The side-A flip operator swaps a fixed pair of levels with opposite
phases ``e^{+i phi}`` / ``e^{-i phi}`` and leaves the remaining level
alone; side B swaps the mirrored pair (``_FLIP_PAIRS``).  Each flip is
hermitian and an involution, so any two phases per side form a valid
CHSH quadruple.
"""

from __future__ import annotations

import math

import numpy as np

from .chsh import AngleSet, ChshQuadruple, ClosedFormCorrelator, Ket, flip_quadruple
from .errors import DomainError, named

SPIN_HALF = "half"
SPIN_ONE = "one"

_LEVELS = {SPIN_HALF: 2, SPIN_ONE: 3}

#: Level pairs ``(src, dst)`` flipped on sides A and B, with
#: ``<dst|F|src> = e^{i phase}``.  Spin 1/2: |+> <-> |->.  Spin 1: side A
#: swaps |-1> <-> |0> with |1> fixed, side B swaps |1> <-> |0> with |-1>
#: fixed.
_FLIP_PAIRS = {
    SPIN_HALF: (np.array([(0, 1)]), np.array([(0, 1)])),
    SPIN_ONE: (np.array([(2, 1)]), np.array([(0, 1)])),
}

#: Closed forms of the singlet CHSH values (see ``spin_closed_form``).
_CLOSED_FORMS = {
    SPIN_HALF: ClosedFormCorrelator(1.0, (-1.0, -1.0, -1.0, 1.0), orientation=-1.0),
    SPIN_ONE: ClosedFormCorrelator(2.0 / 3.0, (-1.0, -1.0, -1.0, 1.0), constant=1.0),
}

#: Phases recovering the Tsirelson bound 2*sqrt(2) on the spin-1/2 singlet.
TSIRELSON_ANGLES = AngleSet(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)

#: Phases giving the spin-1 violation 2*(2 + sqrt(2))/3 ~ 2.2761
#: (a feasible choice, not the optimum of the closed form).
SPIN_ONE_VIOLATION_ANGLES = AngleSet(math.pi / 2, 0.0, 3 * math.pi / 4, 0.0)


def _check_spin(spin: str) -> int:
    if not isinstance(spin, str) or spin not in _LEVELS:  # a list is unhashable
        raise DomainError(f"spin must be one of {sorted(_LEVELS)}, "
                          f"got {named(spin)}")
    return _LEVELS[spin]


def singlet(spin: str) -> Ket:
    """The singlet sum_m (-1)^(s-m) |m, -m> / sqrt(2s+1) of two spin-1/2 or
    two spin-1 particles, a read-only ``Ket`` of total spin zero; level i
    holds m = s - i, of L = 2s+1 levels.

    Spin 1/2: (|+,-> - |-,+>)/sqrt(2).
    Spin 1:   (|1,-1> - |0,0> + |-1,1>)/sqrt(3).
    """
    levels = _check_spin(spin)
    amp = np.zeros((levels, levels), dtype=complex)
    i = np.arange(levels)
    amp[i, levels - 1 - i] = (-1.0) ** i / math.sqrt(levels)
    return Ket(amp)


def spin_quadruple(spin: str, angles: AngleSet) -> ChshQuadruple:
    """Build the phase-flip CHSH quadruple for the given phases.

    The raising direction of each flip carries ``e^{i phase}`` (for
    spin 1, side A: <0|A|-1> = e^{i phase}).
    """
    levels = _check_spin(spin)
    return flip_quadruple((levels, levels), _FLIP_PAIRS[spin], angles)


def spin_closed_form(spin: str) -> ClosedFormCorrelator:
    """The singlet's closed-form CHSH value as an optimizable descriptor.

    Spin 1/2: -cos(a1-b1) - cos(a2-b1) - cos(a1-b2) + cos(a2-b2), four
    pair correlators -cos(alpha - beta): both sides flip |+> <-> |->, so
    the phases subtract (orientation -1).
    Spin 1:   (2/3) (1 - cos(a1+b1) - cos(a2+b1) - cos(a1+b2) + cos(a2+b2)).
    """
    _check_spin(spin)
    return _CLOSED_FORMS[spin]
