"""Smeared scalar-field modes and the oscillator reduction.

The free complex scalar field becomes a well-defined operator family
once smeared with normalizable test functions.  Two unit-norm packets
with negligible overlap smear the two species, and the smeared pair
behaves exactly like the two-mode oscillator: the squeezed-state CHSH
correlator reduces to the same closed form.

Run with:  PYTHONPATH=src python demos/field_smearing.py
"""

import math

from bellchsh import (
    GaussianPacket,
    MAX_VIOLATION_ANGLES,
    ShellQuadrature,
    normalize,
    shell_inner_product,
    sigma_chsh,
)
from bellchsh.kleingordon import test_norm


def main():
    mass = 1.0
    separation = 4 * math.sqrt(2.0)
    f = GaussianPacket.on_shell(mass, (0.0, 0.0, +separation), width=1.0)
    g = GaussianPacket.on_shell(mass, (0.0, 0.0, -separation), width=1.0)
    quad = ShellQuadrature.for_packets(f, g, radial=96)
    print(f"mass-shell quadrature: {quad.radial} radial nodes "
          f"(closed-form angular factor), k_max = {quad.k_max:.2f}")

    estimate = test_norm(f, quad)
    print(f"\n||f||^2 = {estimate.value:.10e}  "
          f"(self-convergence error {estimate.error:.2e})")

    f, g = normalize(f, quad), normalize(g, quad)
    print(f"after normalization: ||f||^2 = {test_norm(f, quad).value:.12f}")

    overlap = shell_inner_product(f, g, quad)
    print(f"overlap of the separated packets: |<f|g>| = {abs(overlap):.3e}")

    print("\nsqueezed-field CHSH (reduces to the oscillator closed form):")
    for sigma in (0.3, math.sqrt(2.0) - 1.0, 0.6, 0.9):
        value = sigma_chsh(sigma, MAX_VIOLATION_ANGLES, f, g, quad)
        marker = "  <-- violation" if value > 2 + 1e-9 else ""
        print(f"  sigma = {sigma:.10f}:  CHSH = {value:.9f}{marker}")


if __name__ == "__main__":
    main()
