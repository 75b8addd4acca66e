"""Unruh-temperature parametrization of the vacuum CHSH value.

To a uniformly accelerated observer the Minkowski vacuum is a product
over Rindler modes of the two-mode squeezed pairs of ``fock``, pairing
the left and right wedges, with ``eta_i = exp(-omega_i / (2 T))`` at
the Unruh temperature ``T = a / (2 pi)``.  The thermal form factor is
the sum of the pair amplitudes,

    tau(T) = sum_i fock.pair_amplitude(eta_i) = sum_i 1 / cosh(omega_i / (2 T)),

and at the maximal-violation phase choice
(``fock.MAX_VIOLATION_ANGLES``) the CHSH value is ``2 sqrt(2) tau(T)``.
T is the one parameter: a mode set is its frequencies, and ``tau``,
``rindler_chsh`` and each ``temperature_scan`` row take T directly.
The per-mode factor lies in [0, 1), exactly 0 once eta_i underflows; a
summed multi-mode tau can exceed 1, in which case the literal value is
reported and the row is flagged supra-Tsirelson rather than clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .chsh import TSIRELSON_BOUND
from .errors import DomainError, named, to_number, to_numbers
from .fock import pair_amplitude


@dataclass(frozen=True)
class RindlerModeSet:
    """Finite, strictly ascending set of positive Rindler mode frequencies;
    a frequency that is no real number is refused as nan."""

    frequencies: tuple[float, ...]

    def __post_init__(self):
        freqs = to_numbers(self.frequencies, "frequencies")
        object.__setattr__(self, "frequencies", freqs)
        if not freqs:
            raise DomainError("mode set needs at least one frequency")
        for i, w in enumerate(freqs):  # named with its index, not the whole tuple
            if not 0.0 < w < math.inf or i and w <= freqs[i - 1]:
                raise DomainError(f"frequencies must be positive, finite and strictly "
                                  f"ascending, got {w} at index {i} of {len(freqs)}")


def unruh_temperature(acceleration: float) -> float:
    """Unruh temperature T = a / (2 pi) of a uniformly accelerated observer;
    the acceleration must be positive and finite."""
    acceleration = to_number(acceleration)
    if not 0.0 < acceleration < math.inf:
        raise DomainError(f"acceleration must be positive and finite, got {acceleration}")
    return acceleration / (2.0 * math.pi)


def tau(modes: RindlerModeSet, temperature: float) -> float:
    """Thermal form factor sum_i fock.pair_amplitude(exp(-omega_i / (2 T)))
    at T = ``temperature``."""
    temperature = to_number(temperature)
    if not 0.0 < temperature < math.inf:
        raise DomainError(f"temperature must be positive and finite, got {temperature}")
    return _mode_sum(modes, temperature)


def _mode_sum(modes: RindlerModeSet, temperature: float) -> float:
    """The per-mode sum behind ``tau``, at a float T in (0, inf) that the
    caller has checked.  Unchecked itself."""
    return sum(pair_amplitude(math.exp(-w / (2.0 * temperature)))
               for w in modes.frequencies)


def rindler_chsh(modes: RindlerModeSet, temperature: float) -> float:
    """Vacuum CHSH value 2 sqrt(2) tau(T) at the maximal-violation phases."""
    return TSIRELSON_BOUND * tau(modes, temperature)


@dataclass(frozen=True)
class ScanRow:
    """One temperature-scan row."""

    temperature: float
    tau: float
    chsh: float
    supra_tsirelson: bool

    #: Marker text used in tabular output for flagged rows.
    FLAG_TEXT = "supra-Tsirelson (summed modes)"

    @property
    def flag(self) -> str:
        return self.FLAG_TEXT if self.supra_tsirelson else ""


def temperature_scan(modes: RindlerModeSet, t_grid: np.ndarray) -> Iterator[ScanRow]:
    """An iterator of (tau, CHSH) rows, each built as it is drawn, at the
    temperatures of ``t_grid``: a non-empty, strictly ascending 1-D ndarray
    of integer or float dtype, read in place; anything else is refused unread.
    A NaN breaks the ascent, so only the first or last T can lie outside
    (0, inf): ``tau`` checks those two, in that order, when the scan is
    called, and each row takes the unchecked sum at its own ``float(T)``.
    Rows whose summed form factor exceeds 1 (several modes only) are flagged
    supra-Tsirelson; the literal value is reported unclamped.
    """
    if not (isinstance(t_grid, np.ndarray) and t_grid.ndim == 1 and t_grid.size
            and t_grid.dtype.kind in "iuf"):
        raise DomainError(f"t_grid must be a non-empty 1-D ndarray of integers or floats, "
                          f"got {named(t_grid)}", argument="t_grid")
    if not (t_grid[1:] > t_grid[:-1]).all():
        raise DomainError("temperature grid must be strictly ascending")
    for t in (t_grid[0], t_grid[-1]):  # every other T lies between these two
        tau(modes, t)
    forms = ((t, _mode_sum(modes, t)) for t in map(float, t_grid))
    return (ScanRow(temperature=t, tau=form, chsh=TSIRELSON_BOUND * form,
                    supra_tsirelson=form > 1.0)
            for t, form in forms)
