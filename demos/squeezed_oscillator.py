"""Two-mode squeezed oscillator: closed form against truncated matrices.

Builds the squeezed state on a truncated two-mode Fock space, checks
that the Bogoliubov-transformed operators annihilate it, and scans the
squeezing parameter through the violation window (sqrt(2)-1, 1) where
the CHSH correlator exceeds 2.

Run with:  PYTHONPATH=src python demos/squeezed_oscillator.py
"""

import math

import numpy as np

from bellchsh import (
    FockSpace,
    MAX_VIOLATION_ANGLES,
    VIOLATION_WINDOW,
    bogoliubov_pair,
    chsh_closed,
    chsh_matrix,
    squeezed_hamiltonian,
    squeezed_state,
)


def main():
    space = FockSpace(40)
    eta = 0.6
    state = squeezed_state(eta, space)
    print(f"two-mode Fock space, cutoff {space.cutoff} per mode "
          f"(dimension {space.cutoff ** 2})")
    print(f"squeezed state at eta = {eta}: first diagonal amplitudes")
    for n in range(5):
        print(f"  |{n},{n}>: {state.ket.amplitudes[n, n].real:.6f}")

    pair = bogoliubov_pair(eta, space)
    print("\nthe mixed-mode operators annihilate the state (up to cutoff residue):")
    print(f"  ||alpha |eta>|| = {pair.alpha.apply(state.ket).norm:.3e}")
    print(f"  ||beta  |eta>|| = {pair.beta.apply(state.ket).norm:.3e}")
    h = squeezed_hamiltonian(eta, space)
    print(f"  ||H |eta>||     = {h.apply(state.ket).norm:.3e}")

    lo, hi = VIOLATION_WINDOW
    print(f"\nviolation window: {lo:.10f} < eta < {hi}")

    print("\neta scan at the maximal-violation phases:")
    print(f"{'eta':>6} {'closed form':>14} {'matrix':>14} {'|diff|':>10}")
    for eta in np.linspace(0.1, 0.9, 9):
        eta = float(eta)
        closed = chsh_closed(eta, MAX_VIOLATION_ANGLES)
        matrix = chsh_matrix(eta, space, MAX_VIOLATION_ANGLES)
        marker = "  <-- violation" if closed > 2 else ""
        print(f"{eta:6.2f} {closed:14.9f} {matrix:14.9f} "
              f"{abs(closed - matrix):10.2e}{marker}")

    print(f"\nat eta -> 1 the value approaches 2 sqrt(2) = {2 * math.sqrt(2):.9f}:")
    for eta in (0.99, 0.999, 0.9999):
        print(f"  eta = {eta}: {chsh_closed(eta, MAX_VIOLATION_ANGLES):.9f}")


if __name__ == "__main__":
    main()
