import math

import numpy as np
import pytest

from bellchsh import (
    AngleSet,
    DomainError,
    Ket,
    chsh_value,
    optimize_angles,
    phase_flip,
    singlet,
    spin_closed_form,
    spin_quadruple,
    validate_quadruple,
)
from bellchsh.spin import (
    SPIN_HALF,
    SPIN_ONE,
    SPIN_ONE_VIOLATION_ANGLES,
    TSIRELSON_ANGLES,
)
from helpers import (
    dense,
    expectation,
    full_quadruple,
    hermiticity_deviation,
    spin_half_pair_correlator,
    spin_hamiltonian,
    spin_matrices,
    total_spin_squared,
)

ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)


def flips(kind, phase_a, phase_b):
    """Full-space A1 and B1 of a spin quadruple with the given phases."""
    full = full_quadruple(spin_quadruple(kind, AngleSet(phase_a, 0.0, phase_b, 0.0)))
    return full["a1"], full["b1"]


def kron_flip(kind, side, phase):
    """Spin flip built densely as the full-space Kronecker product of the
    single-particle flip and the identity."""
    levels = 2 if kind == SPIN_HALF else 3
    local = np.zeros((levels, levels), dtype=complex)
    up = complex(np.exp(1j * phase))
    if kind == SPIN_HALF:
        local[1, 0] = up
        local[0, 1] = up.conjugate()
    elif side == "A":
        local[0, 0] = 1.0           # |1> fixed
        local[1, 2] = up            # |-1> -> e^{i phase} |0>
        local[2, 1] = up.conjugate()
    else:
        local[2, 2] = 1.0           # |-1> fixed
        local[1, 0] = up            # |1> -> e^{i phase} |0>
        local[0, 1] = up.conjugate()
    eye = np.eye(levels)
    return np.kron(local, eye) if side == "A" else np.kron(eye, local)


class TestSinglet:
    def test_spin_one_amplitude_pattern(self):
        amp = singlet(SPIN_ONE).amplitudes
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = 1 / ROOT3    # |1, -1>
        expected[1, 1] = -1 / ROOT3   # |0, 0>
        expected[2, 0] = 1 / ROOT3    # |-1, 1>
        assert np.array_equal(amp, expected)

    def test_spin_half_amplitude_pattern(self):
        amp = singlet(SPIN_HALF).amplitudes
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 1] = 1 / ROOT2    # |+, ->
        expected[1, 0] = -1 / ROOT2   # |-, +>
        assert np.array_equal(amp, expected)

    @pytest.mark.parametrize("kind", [SPIN_HALF, SPIN_ONE])
    def test_unit_norm(self, kind):
        assert abs(singlet(kind).norm - 1.0) <= 1e-15

    @pytest.mark.parametrize("kind", [SPIN_HALF, SPIN_ONE])
    def test_is_a_read_only_ket(self, kind):
        state = singlet(kind)
        assert isinstance(state, Ket)
        assert not state.amplitudes.flags.writeable

    @pytest.mark.parametrize("kind", [SPIN_HALF, SPIN_ONE])
    def test_annihilated_by_total_spin(self, kind):
        residual = total_spin_squared(kind).apply(singlet(kind))
        assert residual.norm <= 1e-12

    def test_unknown_spin_rejected(self):
        with pytest.raises(DomainError):
            singlet("three-halves")
        with pytest.raises(DomainError):
            spin_closed_form("three-halves")


class TestSpinMatrices:
    @pytest.mark.parametrize("kind", [SPIN_HALF, SPIN_ONE])
    def test_su2_algebra(self, kind):
        sx, sy, sz = spin_matrices(kind)
        assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() <= 1e-14
        casimir = sx @ sx + sy @ sy + sz @ sz
        s = 0.5 if kind == SPIN_HALF else 1.0
        assert np.abs(casimir - s * (s + 1) * np.eye(sx.shape[0])).max() <= 1e-14


class TestHamiltonian:
    def test_singlet_is_ground_state_at_minus_two(self):
        h = spin_hamiltonian()
        psi = singlet(SPIN_ONE)
        residual = h.apply(psi).amplitudes + 2.0 * psi.amplitudes
        assert np.abs(residual).max() <= 1e-12

    def test_hermitian(self):
        assert hermiticity_deviation(dense(spin_hamiltonian())) <= 1e-15

    def test_traceless(self):
        assert abs(np.trace(dense(spin_hamiltonian()))) <= 1e-13


class TestFlipOperators:
    def test_phase_zero_spin_half_is_pauli_x(self):
        pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        a, b = flips(SPIN_HALF, 0.0, 0.0)
        assert np.array_equal(a, np.kron(pauli_x, np.eye(2)))
        assert np.array_equal(b, np.kron(np.eye(2), pauli_x))

    def test_spin_one_raising_matrix_element(self):
        angles = AngleSet(0.83, 0.0, 0.0, 0.0)
        a, _ = flips(SPIN_ONE, angles.alpha1, 0.0)
        # <0_A, m_B | A | -1_A, m_B> = e^{i phi} for every spectator m_B
        for m in range(3):
            assert a[1 * 3 + m, 2 * 3 + m] == pytest.approx(
                np.exp(1j * angles.alpha1), abs=1e-15)

    def test_fixed_levels(self):
        a, b = flips(SPIN_ONE, 1.1, -0.4)
        up_a = np.zeros(9)
        up_a[0 * 3 + 1] = 1.0  # |1>_A (x) |0>_B
        assert np.array_equal(a @ up_a, up_a)
        down_b = np.zeros(9)
        down_b[1 * 3 + 2] = 1.0  # |0>_A (x) |-1>_B
        assert np.array_equal(b @ down_b, down_b)

    @pytest.mark.parametrize("kind", [SPIN_HALF, SPIN_ONE])
    def test_quadruples_validate_at_random_phases(self, kind):
        rng = np.random.default_rng(59)
        for _ in range(10):
            q = spin_quadruple(kind, AngleSet(*rng.uniform(-math.pi, math.pi, 4)))
            assert validate_quadruple(q).passed

    @pytest.mark.parametrize("kind", [SPIN_HALF, SPIN_ONE])
    def test_match_kronecker_construction_exactly(self, kind):
        rng = np.random.default_rng(61)
        for _ in range(10):
            angles = AngleSet(*rng.uniform(-math.pi, math.pi, 4))
            full = full_quadruple(spin_quadruple(kind, angles))
            for name, side, phase in (("a1", "A", angles.alpha1),
                                      ("a2", "A", angles.alpha2),
                                      ("b1", "B", angles.beta1),
                                      ("b2", "B", angles.beta2)):
                assert np.array_equal(full[name], kron_flip(kind, side, phase))

    def test_builder_fixes_levels_outside_the_pairs(self):
        flip = phase_flip(4, np.array([(0, 3)]), 0.5)
        assert flip[3, 0] == np.exp(0.5j) and flip[0, 3] == np.exp(-0.5j)
        assert flip[1, 1] == flip[2, 2] == 1.0
        assert flip[0, 0] == flip[3, 3] == 0.0


class TestClosedForms:
    def test_spin_one_quoted_angles(self):
        value = spin_closed_form(SPIN_ONE).value(SPIN_ONE_VIOLATION_ANGLES)
        assert abs(value - 2 * (2 + ROOT2) / 3) <= 1e-14

    def test_spin_one_zero_angles(self):
        assert spin_closed_form(SPIN_ONE).value(AngleSet(0, 0, 0, 0)) == pytest.approx(
            -2.0 / 3.0, abs=1e-15)

    def test_spin_one_matches_matrix_oracle(self):
        rng = np.random.default_rng(61)
        psi = singlet(SPIN_ONE)
        for _ in range(100):
            angles = AngleSet(*rng.uniform(-math.pi, math.pi, 4))
            matrix = chsh_value(psi, spin_quadruple(SPIN_ONE, angles))
            assert abs(matrix - spin_closed_form(SPIN_ONE).value(angles)) <= 1e-12

    def test_spin_half_pair_correlator_matches_matrix(self):
        rng = np.random.default_rng(67)
        psi = singlet(SPIN_HALF)
        for _ in range(50):
            alpha, beta = rng.uniform(-math.pi, math.pi, 2)
            a, b = flips(SPIN_HALF, alpha, beta)
            pair = expectation(psi, a @ b)
            assert abs(pair.imag) <= 1e-13
            assert abs(pair.real - spin_half_pair_correlator(alpha, beta)) <= 1e-12

    def test_spin_half_closed_matches_matrix(self):
        rng = np.random.default_rng(71)
        psi = singlet(SPIN_HALF)
        for _ in range(50):
            angles = AngleSet(*rng.uniform(-math.pi, math.pi, 4))
            matrix = chsh_value(psi, spin_quadruple(SPIN_HALF, angles))
            assert abs(matrix - spin_closed_form(SPIN_HALF).value(angles)) <= 1e-12

    def test_spin_half_tsirelson_angles(self):
        value = spin_closed_form(SPIN_HALF).value(TSIRELSON_ANGLES)
        assert abs(abs(value) - 2 * ROOT2) <= 1e-12

    def test_spin_half_form_is_the_pair_correlator_sum_bit_for_bit(self):
        # the B-orientation sign multiplies beta exactly, so the descriptor
        # is the sum of the four -cos(alpha - beta) pair correlators, ==
        form = spin_closed_form(SPIN_HALF)
        rng = np.random.default_rng(73)
        rows = rng.uniform(-7.0, 7.0, size=(20_000, 4)).tolist()
        # AngleSet wraps beta = pi to -pi, and a negated -pi would wrap back
        # to -pi: the orientation sign must act inside value, exactly
        rows += [[a1, a2, b1, b2] for a1 in (0.3, -math.pi, math.pi)
                 for a2 in (1.1, math.pi) for b1 in (-math.pi, math.pi, 0.2)
                 for b2 in (-math.pi, math.pi, -2.9)]
        angle_sets = [AngleSet(*row) for row in rows]
        pair = spin_half_pair_correlator
        oracle = [pair(a1, b1) + pair(a2, b1) + pair(a1, b2) - pair(a2, b2)
                  for a1, a2, b1, b2 in (angles.as_tuple() for angles in angle_sets)]
        mismatches = sum(form.value(angles) != value
                         for angles, value in zip(angle_sets, oracle))
        assert len(angle_sets) == 20_054 and mismatches == 0

    def test_spin_half_optimum_is_tsirelson(self):
        angles, best = optimize_angles(spin_closed_form(SPIN_HALF))
        assert best == 2 * ROOT2
        assert abs(spin_closed_form(SPIN_HALF).value(angles)) == best
