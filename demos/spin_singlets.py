"""Spin singlets against the CHSH bound.

Walks through the two quantum-mechanical warm-up systems: the spin-1/2
singlet, whose phase-flip measurements reach the Tsirelson bound
2*sqrt(2), and the spin-1 singlet, whose closed-form correlator exceeds
the classical bound 2 without reaching 2*sqrt(2).

Run with:  PYTHONPATH=src python demos/spin_singlets.py
"""

import math

import numpy as np

from bellchsh import (
    AngleSet,
    chsh_value,
    optimize_angles,
    singlet,
    spin_closed_form,
    spin_quadruple,
    validate_quadruple,
)
from bellchsh.spin import SPIN_HALF, SPIN_ONE, SPIN_ONE_VIOLATION_ANGLES, TSIRELSON_ANGLES


def main():
    print("=== spin-1 singlet ===")
    state = singlet(SPIN_ONE)
    print("amplitudes (composite index i_A * 3 + i_B):")
    for i, amp in enumerate(state.amplitudes.ravel()):
        if amp != 0:
            print(f"  index {i}: {amp.real:+.6f}")

    # the phase flips are hermitian and involutive; A and B act on different factors
    quadruple = spin_quadruple(SPIN_ONE, SPIN_ONE_VIOLATION_ANGLES)
    print(validate_quadruple(quadruple).summary())

    value = chsh_value(state, quadruple)
    print(f"CHSH at the quoted phases: {value:+.6f}"
          f"  = 2(2+sqrt2)/3 = {2 * (2 + math.sqrt(2)) / 3:.6f}")

    # sweep one phase of the closed form to see the violation arc
    spin_one = spin_closed_form(SPIN_ONE)
    print("\nbeta1 sweep (alpha1 = pi/2, alpha2 = beta2 = 0):")
    for beta1 in np.linspace(0, math.pi, 9):
        angles = AngleSet(math.pi / 2, 0.0, float(beta1), 0.0)
        marker = " <-- violation" if abs(spin_one.value(angles)) > 2 else ""
        print(f"  beta1 = {beta1:5.3f}:  CHSH = {spin_one.value(angles):+7.4f}{marker}")

    # the exact optimum of the closed form (2/3)(1 + sum of signed cosines):
    # |prefactor| (|constant| + 2 sqrt2), at a pi-shift of (-pi, -pi/2, -pi/4, pi/4)
    best_angles, best = optimize_angles(spin_one)
    print(f"\noptimal phases: {tuple(round(a, 6) for a in best_angles.as_tuple())}")
    print(f"optimal |CHSH| = {best:.9f}  (= (2/3)(1 + 2 sqrt2) = "
          f"{(2 / 3) * (1 + 2 * math.sqrt(2)):.9f})")

    print("\n=== spin-1/2 singlet ===")
    half = singlet(SPIN_HALF)
    quadruple = spin_quadruple(SPIN_HALF, TSIRELSON_ANGLES)
    value = chsh_value(half, quadruple)
    print(f"CHSH at the standard phases: {value:+.12f}  (|value| hits the "
          f"Tsirelson bound {2 * math.sqrt(2):.12f})")


if __name__ == "__main__":
    main()
