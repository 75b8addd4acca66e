"""Acceptance suite: one test per release criterion, with a printed
pass/fail line each (run with -s to watch them live)."""

import math

import numpy as np

from bellchsh import (
    AngleSet,
    RindlerModeSet,
    TSIRELSON_BOUND,
    chsh_value,
    optimize_angles,
    rindler_chsh,
    singlet,
    spin_closed_form,
    spin_quadruple,
    tau,
    temperature_scan,
    unruh_temperature,
    validate_quadruple,
)
from bellchsh import fock, kleingordon, spin
from helpers import (
    WINDOW_TOL,
    acceleration_squeezing,
    bisected_window_lower,
    full_quadruple,
    random_involution_quadruple,
    random_state,
    tau_exponential_form,
)

ROOT2 = math.sqrt(2.0)


def report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} {title}{suffix}")
    assert ok, f"criterion {number}: {title}{suffix}"


def test_criterion_01_spin_one_reproduction():
    target = 2 * (2 + ROOT2) / 3
    angles = spin.SPIN_ONE_VIOLATION_ANGLES
    closed = spin_closed_form(spin.SPIN_ONE).value(angles)
    matrix = chsh_value(singlet(spin.SPIN_ONE),
                        spin_quadruple(spin.SPIN_ONE, angles))
    ok = abs(closed - target) <= 1e-12 and abs(matrix - target) <= 1e-12
    report(1, "spin-1 singlet value 2(2+sqrt2)/3 from closed form and 9x9 matrix",
           ok, f"closed dev {abs(closed - target):.2e}, "
               f"matrix dev {abs(matrix - target):.2e}")


def test_criterion_02_tsirelson_recovery():
    value = chsh_value(singlet(spin.SPIN_HALF),
                       spin_quadruple(spin.SPIN_HALF, spin.TSIRELSON_ANGLES))
    ok = abs(abs(value) - 2 * ROOT2) <= 1e-12
    report(2, "spin-1/2 singlet reaches |CHSH| = 2 sqrt(2)", ok,
           f"dev {abs(abs(value) - 2 * ROOT2):.2e}")


def test_criterion_03_squeezed_closed_form_vs_matrix_oracle():
    rng = np.random.default_rng(2024)
    space = fock.FockSpace(40)
    angle_sets = [AngleSet(*rng.uniform(-math.pi, math.pi, 4)) for _ in range(50)]
    worst = 0.0
    ok = True
    for eta in np.arange(0.1, 0.95, 0.1):
        eta = float(eta)
        tolerance = max(1e-8, 20.0 * eta ** (2 * space.cutoff))
        for angles in angle_sets:
            delta = abs(fock.chsh_closed(eta, angles)
                        - fock.chsh_matrix(eta, space, angles))
            worst = max(worst, delta)
            ok = ok and delta <= tolerance
    report(3, "closed form vs cutoff-40 matrix oracle over 9 x 50 cases", ok,
           f"worst |closed - matrix| = {worst:.2e}")


def test_criterion_04_violation_window():
    angles = fock.MAX_VIOLATION_ANGLES
    endpoint_value = fock.chsh_closed(ROOT2 - 1.0, angles)
    ok = abs(endpoint_value - 2.0) <= 1e-12

    lo, hi = fock.VIOLATION_WINDOW
    root = bisected_window_lower()
    ok = ok and abs(lo - root) <= WINDOW_TOL and hi == 1.0

    interior = np.linspace(lo, hi, 102)[1:-1]
    ok = ok and all(fock.chsh_closed(float(e), angles) > 2.0 for e in interior)
    report(4, "violation window (sqrt(2)-1, 1) with bisected lower endpoint", ok,
           f"endpoint value dev {abs(endpoint_value - 2.0):.2e}, "
           f"bisection dev {abs(lo - root):.2e}")


def test_criterion_05_maximum_violation():
    near_limit = fock.chsh_closed(0.999, fock.MAX_VIOLATION_ANGLES)
    ok = near_limit >= 2 * ROOT2 - 1e-2

    eta = 0.7
    _, best = optimize_angles(fock.squeezed_closed_form(eta))
    target = 2 * ROOT2 * 2 * eta / (1 + eta * eta)
    ok = ok and abs(best - target) <= 1e-6
    report(5, "near-unit squeezing approaches 2 sqrt(2); optimizer recovers "
              "the analytic maximum at eta = 0.7", ok,
           f"chsh(0.999) = {near_limit:.6f}, optimizer dev {abs(best - target):.2e}")


def test_criterion_06_bogoliubov_annihilation_witness():
    # below eta ~ 0.4 the bound 10 eta**(N-1) dives under double
    # precision rounding noise, so the witness runs on 0.4 .. 0.8
    space = fock.FockSpace(40)
    n = space.cutoff
    ok = True
    worst_ratio = 0.0
    for eta in (0.4, 0.5, 0.6, 0.7, 0.8):
        state = squeezed = fock.squeezed_state(eta, space)
        pair = fock.bogoliubov_pair(eta, space)
        bound = 10.0 * eta ** (n - 1)
        alpha_res = pair.alpha.apply(state.ket).norm
        beta_res = pair.beta.apply(state.ket).norm
        h_res = fock.squeezed_hamiltonian(eta, space).apply(squeezed.ket).norm
        h_bound = 10.0 * n * eta ** (n - 2)
        ok = ok and alpha_res <= bound and beta_res <= bound and h_res <= h_bound
        worst_ratio = max(worst_ratio, alpha_res / bound, beta_res / bound,
                          h_res / h_bound)
    report(6, "Bogoliubov operators and H annihilate the squeezed state "
              "up to the cutoff residue", ok,
           f"worst residual/bound = {worst_ratio:.2e}")


def test_criterion_07_quadruple_axioms():
    rng = np.random.default_rng(777)
    builders = {
        "spin-half": lambda a: spin_quadruple(spin.SPIN_HALF, a),
        "spin-one": lambda a: spin_quadruple(spin.SPIN_ONE, a),
        "fock-pair-flip": lambda a: fock.fock_quadruple(fock.FockSpace(8), a),
    }
    ok = True
    worst = 0.0
    for build in builders.values():
        for _ in range(20):
            angles = AngleSet(*rng.uniform(-math.pi, math.pi, 4))
            quadruple = build(angles)
            rep = validate_quadruple(quadruple)
            # A/B commutation, checked on the dense full-space oracle
            full = full_quadruple(quadruple)
            commutation = max(
                float(np.abs(full[a] @ full[b] - full[b] @ full[a]).max())
                for a in ("a1", "a2") for b in ("b1", "b2"))
            ok = ok and rep.passed and commutation <= rep.tolerance
            worst = max(worst, rep.max_deviation / rep.tolerance,
                        commutation / rep.tolerance)
    report(7, "hermiticity, involution and commutation hold for all three "
              "constructions over 20 random phase sets each", ok,
           f"worst deviation/tolerance = {worst:.2e}")


def test_criterion_08_kg_norm_machinery():
    packet = kleingordon.GaussianPacket.on_shell(
        mass=1.0, spatial_center=(0.4, 0.3, -0.2), width=0.9)
    quad = kleingordon.ShellQuadrature.for_packets(packet)  # 128 radial nodes, the default
    estimate = kleingordon.test_norm(packet, quad)
    ok = estimate.error <= 1e-8 * estimate.value

    unit = kleingordon.normalize(packet, quad)
    recheck = kleingordon.test_norm(unit, quad).value
    ok = ok and abs(recheck - 1.0) <= 1e-10

    rng = np.random.default_rng(4242)
    cs_ok = True
    for _ in range(100):
        f = kleingordon.GaussianPacket.on_shell(
            mass=1.0, spatial_center=tuple(rng.uniform(-1.2, 1.2, 3)),
            width=float(rng.uniform(0.8, 1.25)),
            amplitude=complex(rng.normal(), rng.normal()))
        g = kleingordon.GaussianPacket.on_shell(
            mass=1.0, spatial_center=tuple(rng.uniform(-1.2, 1.2, 3)),
            width=float(rng.uniform(0.8, 1.25)),
            amplitude=complex(rng.normal(), rng.normal()))
        small = kleingordon.ShellQuadrature.for_packets(f, g, radial=48)
        cross = abs(kleingordon.shell_inner_product(f, g, small)) ** 2
        bound = (kleingordon.shell_inner_product(f, f, small).real
                 * kleingordon.shell_inner_product(g, g, small).real)
        cs_ok = cs_ok and cross <= bound * (1.0 + 1e-12)
    ok = ok and cs_ok
    report(8, "norm self-convergence 1e-8, normalization to 1e-10, "
              "Cauchy-Schwarz on 100 random pairs", ok,
           f"self-convergence {estimate.error / estimate.value:.2e}, "
           f"normalize dev {abs(recheck - 1.0):.2e}")


def test_criterion_09_rindler_identities():
    ratios = np.logspace(-2, 1, 60)
    t = unruh_temperature(1.0)
    form_dev = 0.0
    cross_dev = 0.0
    for ratio in ratios:
        modes = RindlerModeSet((float(ratio),))
        form_dev = max(form_dev, abs(tau(modes, t) - tau_exponential_form(modes, t)))
        eta = acceleration_squeezing(float(ratio), 1.0)
        if eta > 0.0:
            cross_dev = max(cross_dev, abs(
                rindler_chsh(modes, t)
                - fock.chsh_closed(eta, fock.MAX_VIOLATION_ANGLES)))
    ok = form_dev <= 1e-14 and cross_dev <= 1e-12

    rows = temperature_scan(RindlerModeSet((1.0,)), np.linspace(0.05, 3.0, 50))
    taus = [r.tau for r in rows]
    ok = ok and all(b > a for a, b in zip(taus, taus[1:]))
    report(9, "form-factor identities and tau monotonicity", ok,
           f"form dev {form_dev:.2e}, single-mode cross dev {cross_dev:.2e}")


def test_criterion_10_tsirelson_property_suite():
    rng = np.random.default_rng(31337)
    ok = True
    worst = 0.0
    trials = 0
    fock_space = fock.FockSpace(6)

    def check(value):
        nonlocal ok, worst, trials
        trials += 1
        worst = max(worst, abs(value))
        ok = ok and abs(value) <= TSIRELSON_BOUND + 1e-9

    for _ in range(60):
        angles = AngleSet(*rng.uniform(-math.pi, math.pi, 4))
        check(chsh_value(random_state(rng, 2, 2),
                         spin_quadruple(spin.SPIN_HALF, angles)))
    for _ in range(60):
        angles = AngleSet(*rng.uniform(-math.pi, math.pi, 4))
        check(chsh_value(random_state(rng, 3, 3),
                         spin_quadruple(spin.SPIN_ONE, angles)))
    for _ in range(40):
        angles = AngleSet(*rng.uniform(-math.pi, math.pi, 4))
        check(chsh_value(random_state(rng, 6, 6),
                         fock.fock_quadruple(fock_space, angles)))
    for _ in range(40):
        dim_a, dim_b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        check(chsh_value(random_state(rng, dim_a, dim_b),
                         random_involution_quadruple(rng, dim_a, dim_b)))
    assert trials == 200

    single = temperature_scan(RindlerModeSet((1.0,)), np.linspace(0.05, 80.0, 40))
    ok = ok and not any(r.supra_tsirelson for r in single)
    multi = list(temperature_scan(RindlerModeSet((0.8, 1.0, 1.3)), np.linspace(0.2, 40.0, 40)))
    ok = ok and all(r.supra_tsirelson == (r.tau > 1.0) for r in multi)
    ok = ok and any(r.supra_tsirelson for r in multi)
    report(10, "200 randomized trials below 2 sqrt(2) + 1e-9; scan flags "
               "exactly the supra-Tsirelson rows", ok,
           f"worst |CHSH| = {worst:.12f}")
