"""The accelerated vacuum as a squeezed state: CHSH vs Unruh temperature.

To an observer with proper acceleration a, the Minkowski vacuum is a
product of two-mode squeezed states over Rindler modes.  The
acceleration enters only through the Unruh temperature T = a/(2 pi):
each mode's squeezing is exp(-omega / 2T), and the CHSH value carries
the thermal form factor tau(T) = sum_i 1/cosh(omega_i / 2T).

Run with:  PYTHONPATH=src python demos/unruh_scan.py
"""

import math

import numpy as np

from bellchsh import (
    MAX_VIOLATION_ANGLES,
    RindlerModeSet,
    chsh_closed,
    rindler_chsh,
    temperature_scan,
    unruh_temperature,
)


def main():
    a = 2 * math.pi
    t = unruh_temperature(a)
    print(f"acceleration a = 2 pi  ->  Unruh temperature T = {t}")

    print("\nper-mode squeezing and its oscillator equivalence:")
    for omega in (0.5, 1.0, 2.0):
        eta = math.exp(-omega / (2 * t))
        osc = chsh_closed(eta, MAX_VIOLATION_ANGLES)
        print(f"  omega = {omega}: eta = {eta:.6f}, "
              f"rindler CHSH = {rindler_chsh(RindlerModeSet((omega,)), t):.9f}, "
              f"oscillator closed form = {osc:.9f}")

    print("\nsingle mode omega = 1, temperature sweep:")
    rows = temperature_scan(RindlerModeSet((1.0,)), np.linspace(0.05, 3.0, 13))
    print(f"{'T':>6} {'tau':>12} {'CHSH':>12}")
    for row in rows:
        marker = "  <-- violation" if row.chsh > 2 else ""
        print(f"{row.temperature:6.2f} {row.tau:12.8f} {row.chsh:12.8f}{marker}")
    print(f"(high-T limit: 2 sqrt(2) = {2 * math.sqrt(2):.8f})")

    print("\nthree modes: the summed form factor can pass 1, flagged not clamped:")
    rows = temperature_scan(RindlerModeSet((0.8, 1.0, 1.3)),
                            np.array([0.2, 0.5, 1.0, 2.0, 5.0]))
    for row in rows:
        print(f"  T = {row.temperature:4.1f}: tau = {row.tau:8.5f}, "
              f"CHSH = {row.chsh:8.5f}  {row.flag}")


if __name__ == "__main__":
    main()
