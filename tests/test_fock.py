import dataclasses
import math
import re

import numpy as np
import pytest

from bellchsh import (
    AngleSet,
    DomainError,
    Ket,
    PrecisionError,
    chsh_value,
    phase_flip,
    validate_quadruple,
)
import bellchsh
from bellchsh import chsh, cli, fock, spin
from bellchsh.fock import (
    FockSpace,
    MAX_CUTOFF,
    MAX_VIOLATION_ANGLES,
    VIOLATION_WINDOW,
    bogoliubov_pair,
    chsh_closed,
    chsh_matrix,
    fock_quadruple,
    squeezed_closed_form,
    squeezed_hamiltonian,
    squeezed_state,
)
from helpers import (
    WINDOW_TOL,
    bisected_window_lower,
    chsh_operator,
    correlator_closed,
    dense,
    expectation,
    flip_parity,
    flip_rows,
    four_call_chsh_matrix,
    full_quadruple,
    hermiticity_deviation,
    ladder_matrices,
    pair_index_chsh,
    parity_axis_chsh,
    per_call_chsh_closed,
    random_state,
    series_squeezed_state,
)

ROOT2 = math.sqrt(2.0)
ZERO_PHASES = AngleSet(0.0, 0.0, 0.0, 0.0)


@pytest.fixture
def flip_builds(monkeypatch):
    """Records each call of the flip build, ``chsh._flip_stack``: one
    ``(phases, built stack)`` entry per call."""
    builds = []
    build = chsh._flip_stack

    def recording(levels, pairs, phases):
        builds.append((phases, build(levels, pairs, phases)))
        return builds[-1][1]

    monkeypatch.setattr(chsh, "_flip_stack", recording)
    return builds


@pytest.fixture
def cosine_calls(monkeypatch):
    """Records the argument of each ``math.cos`` call."""
    calls = []
    cos = math.cos

    def recording(x):
        calls.append(x)
        return cos(x)

    monkeypatch.setattr(math, "cos", recording)
    return calls


def phase_sums(angles: AngleSet) -> list[float]:
    """The eight arguments of ``AngleSet.pair_cosines``, sorted: each
    ``alpha_i + o * beta_j`` for ``o`` of +-1."""
    a1, a2, b1, b2 = angles.as_tuple()
    return sorted(a + o * b for o in (1.0, -1.0) for a, b in ((a1, b1), (a2, b1),
                                                             (a1, b2), (a2, b2)))


def kron_flip(cutoff: int, side: str, phase: float) -> np.ndarray:
    """Parity-pair flip built densely as the full-space Kronecker product
    of a per-mode flip and the identity, <2n+1|F|2n> = e^{i phase}."""
    local = np.zeros((cutoff, cutoff), dtype=complex)
    up = complex(np.exp(1j * phase))
    evens = np.arange(0, cutoff, 2)
    local[evens + 1, evens] = up
    local[evens, evens + 1] = up.conjugate()
    eye = np.eye(cutoff)
    return np.kron(local, eye) if side == "A" else np.kron(eye, local)


def kron_bogoliubov_and_hamiltonian(eta: float, cutoff: int):
    """(alpha, beta, H) built densely on the full space from Kronecker
    products of the per-mode ladder matrices."""
    low = np.zeros((cutoff, cutoff), dtype=complex)
    n = np.arange(1, cutoff)
    low[n - 1, n] = np.sqrt(n)
    raz = low.conj().T
    eye = np.eye(cutoff)
    a, b = np.kron(low, eye), np.kron(eye, low)
    scale = 1.0 / math.sqrt(1.0 - eta * eta)
    alpha = scale * (a - eta * b.conj().T)
    beta = scale * (b - eta * a.conj().T)
    num = np.diag(np.arange(cutoff)).astype(complex)
    one_minus = 1.0 - eta * eta
    h = ((1.0 + eta * eta) / one_minus) * (np.kron(num, eye) + np.kron(eye, num))
    h -= (2.0 * eta / one_minus) * (np.kron(raz, raz) + np.kron(low, low))
    h += (2.0 * eta * eta / one_minus) * np.eye(cutoff * cutoff)
    return alpha, beta, h


def interior_block(matrix: np.ndarray, cutoff: int, margin: int) -> np.ndarray:
    """Restrict a two-mode operator to levels n < cutoff - margin on both modes."""
    keep = cutoff - margin
    view = matrix.reshape(cutoff, cutoff, cutoff, cutoff)
    return view[:keep, :keep, :keep, :keep]


class TestFockSpace:
    @pytest.mark.parametrize("bad", [2, 3, 5, 7, 0, -4])
    def test_rejects_odd_or_small_cutoffs(self, bad):
        with pytest.raises(DomainError):
            FockSpace(bad)

    @pytest.mark.parametrize("bad", [MAX_CUTOFF + 2, 10**9])
    def test_rejects_cutoffs_above_the_cap(self, bad):
        # checked in the constructor, before anything is allocated
        with pytest.raises(DomainError):
            FockSpace(bad)

    @pytest.mark.parametrize("bad", [4.0, 40.0, "40", None])
    def test_rejects_non_integer_cutoffs(self, bad):
        with pytest.raises(DomainError, match=re.escape(f"got {bad!r}")):
            FockSpace(bad)

    def test_coerces_integer_like_cutoffs(self):
        space = FockSpace(np.int64(40))
        assert type(space.cutoff) is int and space.cutoff == 40
        assert space == FockSpace(40)


class TestLadderMatrices:
    def test_annihilates_vacuum(self):
        space = FockSpace(6)
        a, _, b, _ = ladder_matrices(space)
        vacuum = np.zeros(space.cutoff ** 2)
        vacuum[0] = 1.0
        assert np.abs(dense(a) @ vacuum).max() == 0.0
        assert np.abs(dense(b) @ vacuum).max() == 0.0

    def test_single_excitation_matrix_element(self):
        space = FockSpace(6)
        _, a_dag, _, _ = ladder_matrices(space)
        # <1, 0| a_dag |0, 0> = 1
        assert dense(a_dag)[1 * 6 + 0, 0] == 1.0

    def test_cross_mode_commutators_vanish_exactly(self):
        space = FockSpace(8)
        a, a_dag, b, b_dag = (dense(op) for op in ladder_matrices(space))
        for left, right in ((a, b_dag), (a, b), (a_dag, b_dag)):
            comm = left @ right - right @ left
            assert np.abs(comm).max() == 0.0

    def test_same_mode_commutator_structure(self):
        space = FockSpace(8)
        n = space.cutoff
        a, a_dag, _, _ = (dense(op) for op in ladder_matrices(space))
        comm = a @ a_dag - a_dag @ a
        expected = np.kron(np.diag([1.0] * (n - 1) + [1.0 - n]), np.eye(n))
        assert np.abs(comm - expected).max() <= 1e-13


class TestSqueezedState:
    def test_results_hold_no_copy_of_their_arguments(self):
        space = FockSpace(8)
        assert [f.name for f in dataclasses.fields(squeezed_state(0.5, space))] == ["ket"]
        assert [f.name for f in dataclasses.fields(bogoliubov_pair(0.5, space))] == [
            "alpha", "beta"]

    def test_small_eta_is_vacuum(self):
        space = FockSpace(8)
        state = squeezed_state(1e-8, space)
        assert abs(state.ket.amplitudes[0, 0] - 1.0) <= 1e-15

    def test_frozen_amplitude_at_two_two(self):
        # sqrt(1 - 0.25) * 0.25 evaluated once and pinned
        space = FockSpace(40)
        state = squeezed_state(0.5, space)
        amp = state.ket.amplitudes[2, 2]
        assert abs(amp - 0.21650635094610966) <= 1e-14

    def test_normalized(self):
        state = squeezed_state(0.73, FockSpace(12))
        assert abs(state.ket.norm - 1.0) <= 1e-14

    def test_supported_on_diagonal_pairs_only(self):
        space = FockSpace(10)
        amps = squeezed_state(0.6, space).ket.amplitudes
        off_diag = amps - np.diag(np.diag(amps))
        assert np.abs(off_diag).max() == 0.0

    def test_truncated_norm_identity(self):
        # squared norm lost to the cutoff is exactly eta**(2 N)
        for eta in (0.3, 0.6, 0.9):
            for n in (4, 10, 16):
                raw = math.sqrt(1 - eta * eta) * eta ** np.arange(n)
                lost = 1.0 - float(np.sum(raw * raw))
                assert abs(lost - eta ** (2 * n)) <= 1e-14

    def test_matches_exponential_series_construction(self):
        for eta in (0.2, 0.5, 0.8):
            space = FockSpace(12)
            direct = squeezed_state(eta, space).ket.amplitudes
            series = series_squeezed_state(eta, space.cutoff)
            assert np.abs(direct - series).max() <= 1e-12

    @pytest.mark.parametrize("cutoff", [4, 40, 200])
    def test_bytes_match_renormalized_raw_amplitudes(self, cutoff):
        # the raw diagonal divided by its norm, to the byte
        n = cutoff
        for eta in (1e-8, 0.3, 0.5, 0.9, 0.999):
            raw = np.zeros(n * n, dtype=complex)
            raw[np.arange(n) * n + np.arange(n)] = math.sqrt(1.0 - eta * eta) * eta ** np.arange(n)
            ket = squeezed_state(eta, FockSpace(n)).ket
            assert ket.amplitudes.tobytes() == (raw / np.linalg.norm(raw)).tobytes()

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_eta_domain(self, bad):
        with pytest.raises(DomainError):
            squeezed_state(bad, FockSpace(8))


class TestBogoliubov:
    def test_annihilates_squeezed_state(self):
        space = FockSpace(40)
        for eta in (0.5, 0.8):
            state = squeezed_state(eta, space)
            pair = bogoliubov_pair(eta, space)
            bound = 10.0 * eta ** (space.cutoff - 1)
            assert pair.alpha.apply(state.ket).norm <= bound
            assert pair.beta.apply(state.ket).norm <= bound

    def test_annihilation_residual_is_float_noise_at_small_eta(self):
        # below eta ~ 0.4 the truncation residue eta**(N-1) dives under
        # double precision; the measured norm is rounding noise
        space = FockSpace(40)
        state = squeezed_state(0.1, space)
        pair = bogoliubov_pair(0.1, space)
        assert pair.alpha.apply(state.ket).norm <= 5e-15

    def test_small_eta_limit_is_plain_annihilation(self):
        space = FockSpace(8)
        a, _, b, _ = ladder_matrices(space)
        pair = bogoliubov_pair(1e-9, space)
        assert np.abs(dense(pair.alpha) - dense(a)).max() <= 1e-8
        assert np.abs(dense(pair.beta) - dense(b)).max() <= 1e-8

    def test_canonical_commutators_on_interior(self):
        space = FockSpace(12)
        n = space.cutoff
        pair = bogoliubov_pair(0.6, space)
        alpha, beta = dense(pair.alpha), dense(pair.beta)
        alpha_dag = alpha.conj().T
        same = alpha @ alpha_dag - alpha_dag @ alpha - np.eye(n * n)
        cross = alpha @ beta - beta @ alpha
        assert np.abs(interior_block(same, n, 1)).max() <= 1e-12
        assert np.abs(interior_block(cross, n, 1)).max() <= 1e-12

    def test_eta_domain(self):
        with pytest.raises(DomainError):
            bogoliubov_pair(1.0, FockSpace(8))


class TestSqueezedHamiltonian:
    def test_annihilates_squeezed_state_up_to_cutoff_residue(self):
        space = FockSpace(40)
        n = space.cutoff
        for eta in (0.5, 0.8):
            state = squeezed_state(eta, space)
            h = squeezed_hamiltonian(eta, space)
            assert h.apply(state.ket).norm <= 10.0 * n * eta ** (n - 2)

    def test_residual_norm_matches_top_level_formula(self):
        # the closed-form H differs from the Bogoliubov number operator
        # only on the top levels; acting on the state that leaves
        # 2 N eta**(N+1) / sqrt((1 - eta^2)(1 - eta^(2N))) on |N-1, N-1>
        space = FockSpace(40)
        n = space.cutoff
        eta = 0.7
        residual = squeezed_hamiltonian(eta, space).apply(squeezed_state(eta, space).ket).norm
        expected = 2 * n * eta ** (n + 1) / math.sqrt((1 - eta * eta) * (1 - eta ** (2 * n)))
        assert abs(residual - expected) <= 1e-12 + 1e-6 * expected

    def test_small_eta_limit_is_number_operator(self):
        space = FockSpace(6)
        h = dense(squeezed_hamiltonian(1e-10, space))
        levels = np.arange(6)
        number = np.diag(np.add.outer(levels, levels).ravel().astype(float))
        assert np.abs(h - number).max() <= 1e-8

    def test_equals_bogoliubov_number_operator_on_interior(self):
        space = FockSpace(12)
        eta = 0.55
        pair = bogoliubov_pair(eta, space)
        alpha, beta = dense(pair.alpha), dense(pair.beta)
        built = alpha.conj().T @ alpha + beta.conj().T @ beta
        closed = dense(squeezed_hamiltonian(eta, space))
        diff = interior_block(built - closed, space.cutoff, 2)
        assert np.abs(diff).max() <= 1e-12

    def test_hermitian(self):
        h = dense(squeezed_hamiltonian(0.4, FockSpace(8)))
        assert hermiticity_deviation(h) <= 1e-13


class TestPairFlip:
    def test_cutoff_four_block_structure(self):
        # swap blocks on the level pairs (0,1) and (2,3)
        space = FockSpace(4)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = np.kron(np.eye(2), swap)
        q = fock_quadruple(space, ZERO_PHASES)
        assert np.array_equal(q.a1, expected)
        assert np.array_equal(q.b1, expected)
        full = full_quadruple(q)
        assert np.array_equal(full["a1"], np.kron(expected, np.eye(4)))
        assert np.array_equal(full["b1"], np.kron(np.eye(4), expected))

    def test_raising_matrix_element_phase(self):
        space = FockSpace(6)
        angles = AngleSet(-0.61, 0.0, 0.0, 0.0)
        a = full_quadruple(fock_quadruple(space, angles))["a1"]
        for pair_base in (0, 2, 4):
            for spectator in range(6):
                row = (pair_base + 1) * 6 + spectator
                col = pair_base * 6 + spectator
                assert a[row, col] == pytest.approx(np.exp(1j * angles.alpha1), abs=0)

    def test_involution_and_hermiticity_exact(self):
        space = FockSpace(8)
        full = full_quadruple(fock_quadruple(space, AngleSet(1.234, 0.0, 1.234, 0.0)))
        for side in ("a1", "b1"):
            f = full[side]
            assert hermiticity_deviation(f) == 0.0
            assert np.abs(f @ f - np.eye(space.cutoff ** 2)).max() <= 1e-15

    def test_sides_commute_exactly(self):
        space = FockSpace(6)
        full = full_quadruple(fock_quadruple(space, AngleSet(0.3, 0.0, -1.1, 0.0)))
        a, b = full["a1"], full["b1"]
        assert np.abs(a @ b - b @ a).max() <= 1e-15

    def test_quadruple_validates(self):
        rng = np.random.default_rng(73)
        space = FockSpace(8)
        for _ in range(5):
            q = fock_quadruple(space, AngleSet(*rng.uniform(-math.pi, math.pi, 4)))
            assert validate_quadruple(q).passed


class TestKroneckerOracle:
    """The factored operators expanded by ``helpers.dense`` against the
    full-space Kronecker construction."""

    @pytest.mark.parametrize("cutoff", [4, 6, 8])
    def test_flips_match_exactly(self, cutoff):
        rng = np.random.default_rng(cutoff)
        for _ in range(5):
            angles = AngleSet(*rng.uniform(-math.pi, math.pi, 4))
            full = full_quadruple(fock_quadruple(FockSpace(cutoff), angles))
            for name, side, phase in (("a1", "A", angles.alpha1),
                                      ("a2", "A", angles.alpha2),
                                      ("b1", "B", angles.beta1),
                                      ("b2", "B", angles.beta2)):
                assert np.array_equal(full[name], kron_flip(cutoff, side, phase))

    @pytest.mark.parametrize("cutoff", [4, 6, 8])
    def test_bogoliubov_and_hamiltonian_match(self, cutoff):
        space = FockSpace(cutoff)
        for eta in (0.1, 0.5, 0.9):
            alpha, beta, h = kron_bogoliubov_and_hamiltonian(eta, cutoff)
            pair = bogoliubov_pair(eta, space)
            assert np.abs(dense(pair.alpha) - alpha).max() <= 1e-15
            assert np.abs(dense(pair.beta) - beta).max() <= 1e-15
            # H entries reach ~140 at eta = 0.9: 1e-15 relative to the largest
            built = dense(squeezed_hamiltonian(eta, space))
            assert np.abs(built - h).max() <= 1e-15 * np.abs(h).max()


class TestLargeCutoff:
    def test_cutoff_two_hundred(self):
        # a dense full-space matrix would hold 200**4 complex entries (25.6 GB)
        space = FockSpace(200)
        n = space.cutoff
        rng = np.random.default_rng(200)
        for eta in (0.5, 0.9):
            angles = AngleSet(*rng.uniform(-math.pi, math.pi, 4))
            delta = abs(chsh_matrix(eta, space, angles) - chsh_closed(eta, angles))
            assert delta <= max(1e-8, 20.0 * eta ** (2 * n))
            assert validate_quadruple(fock_quadruple(space, angles)).passed
            state = squeezed_state(eta, space)
            pair = bogoliubov_pair(eta, space)
            bound = 10.0 * eta ** (n - 1)
            assert pair.alpha.apply(state.ket).norm <= bound
            assert pair.beta.apply(state.ket).norm <= bound


class TestClosedForms:
    def test_pair_correlator_reference_value(self):
        assert correlator_closed(0.5, 0.0, 0.0) == pytest.approx(0.8, abs=1e-15)

    def test_pair_correlator_quarter_turn_vanishes(self):
        for eta in (0.2, 0.5, 0.9):
            assert abs(correlator_closed(eta, math.pi / 4, math.pi / 4)) <= 1e-16

    def test_pair_correlator_matches_matrix_oracle(self):
        # even cutoffs reproduce the closed form exactly, so the dense
        # oracle runs at a small one
        space = FockSpace(8)
        psi = squeezed_state(0.5, space).ket
        full = full_quadruple(fock_quadruple(space, AngleSet(0.3, 0.0, -0.7, 0.0)))
        value = expectation(psi, full["a1"] @ full["b1"]).real
        assert abs(value - correlator_closed(0.5, 0.3, -0.7)) <= 1e-8

    def test_window_endpoint_value(self):
        assert abs(chsh_closed(ROOT2 - 1.0, MAX_VIOLATION_ANGLES) - 2.0) <= 1e-12

    def test_limit_toward_unit_squeezing(self):
        assert abs(chsh_closed(1.0 - 1e-9, MAX_VIOLATION_ANGLES) - 2 * ROOT2) <= 1e-12

    def test_at_max_violation_angles_equals_prefactor_times_tsirelson(self):
        for eta in (0.1, 0.5, 0.9):
            expected = 2 * ROOT2 * 2 * eta / (1 + eta * eta)
            assert abs(chsh_closed(eta, MAX_VIOLATION_ANGLES) - expected) <= 1e-14

    def test_prefactor_monotone_increasing(self):
        etas = np.linspace(0.01, 0.99, 99)
        prefactors = [squeezed_closed_form(e).prefactor for e in etas]
        assert all(b > a for a, b in zip(prefactors, prefactors[1:]))
        assert squeezed_closed_form(1 - 1e-12).prefactor <= 1.0

    def test_prefactor_is_the_pair_amplitude(self):
        for eta in np.linspace(1e-9, 1.0 - 1e-9, 101).tolist():
            assert squeezed_closed_form(eta).prefactor == fock.pair_amplitude(eta)

    def test_pair_amplitude_unchecked_on_closed_interval(self):
        # exact 0 at an underflowed eta, where squeezed_closed_form raises
        assert fock.pair_amplitude(0.0) == 0.0
        assert fock.pair_amplitude(1.0) == 1.0
        assert not hasattr(bellchsh, "pair_amplitude")

    def test_cosines_once_per_angle_set(self, cosine_calls):
        # the cosines depend on the angles only: repeated calls over any eta
        # read the eight the first call computed
        angles = AngleSet(0.4, -1.3, 0.9, 2.2)
        etas = (0.1, 0.6, 0.6, 0.95)
        values = [chsh_closed(eta, angles) for eta in etas]
        assert sorted(cosine_calls) == phase_sums(angles)
        assert [v.hex() for v in values] == [
            per_call_chsh_closed(eta, angles).hex() for eta in etas]

    def test_squeeze_scan_reads_its_cosines_once(self, monkeypatch, cosine_calls, capsys):
        # a fresh copy of the default angles, so no earlier test has built them;
        # 11 rows, each a closed form on the one set, the upper endpoint's too
        fresh = dataclasses.replace(MAX_VIOLATION_ANGLES)
        monkeypatch.setattr(fock, "MAX_VIOLATION_ANGLES", fresh)
        assert cli.main(["squeeze-scan"]) == 0
        assert capsys.readouterr().out.count("\n") == 12  # header, 9 grid rows, 2 endpoints
        assert sorted(cosine_calls) == phase_sums(fresh)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chsh_closed(0.0, MAX_VIOLATION_ANGLES)
        with pytest.raises(DomainError):
            squeezed_closed_form(1.0)


class TestViolationWindow:
    def test_endpoints(self):
        lo, hi = VIOLATION_WINDOW
        assert hi == 1.0
        assert abs(lo - (ROOT2 - 1.0)) <= 1e-15

    def test_bisection_consistency_tolerance(self):
        # the constant against the bisected root of the closed-form excess
        assert WINDOW_TOL == 1e-10
        root = bisected_window_lower()
        assert abs(root - VIOLATION_WINDOW[0]) <= WINDOW_TOL
        assert abs(root - 0.4142135624) <= 1e-9

    def test_continuity_bracket(self):
        lo, _ = VIOLATION_WINDOW
        assert chsh_closed(lo - 1e-3, MAX_VIOLATION_ANGLES) < 2.0
        assert chsh_closed(lo + 1e-3, MAX_VIOLATION_ANGLES) > 2.0


class TestMatrixEvaluation:
    def test_matches_generic_quadruple_path(self):
        # the factored evaluation against the dense full-space operator
        rng = np.random.default_rng(79)
        for cutoff in (6, 8):
            space = FockSpace(cutoff)
            for _ in range(5):
                eta = float(rng.uniform(0.1, 0.9))
                angles = AngleSet(*rng.uniform(-math.pi, math.pi, 4))
                fast = chsh_matrix(eta, space, angles)
                generic = expectation(squeezed_state(eta, space).ket,
                                      chsh_operator(fock_quadruple(space, angles)))
                assert abs(fast - generic.real) <= 1e-12

    def test_against_closed_form_at_moderate_cutoff(self):
        rng = np.random.default_rng(83)
        space = FockSpace(16)
        for _ in range(10):
            eta = float(rng.uniform(0.1, 0.9))
            angles = AngleSet(*rng.uniform(-math.pi, math.pi, 4))
            delta = abs(chsh_matrix(eta, space, angles) - chsh_closed(eta, angles))
            assert delta <= max(1e-8, 20.0 * eta ** (2 * space.cutoff))

    def test_full_quadruple_path_at_cutoff_forty(self):
        # chsh_value on the quadruple itself at the scan cutoff
        space = FockSpace(40)
        eta = 0.55
        angles = AngleSet(0.9, -2.1, 0.4, 1.7)
        value = chsh_value(squeezed_state(eta, space).ket,
                           fock_quadruple(space, angles))
        assert abs(value - chsh_closed(eta, angles)) <= 1e-8


class TestSchmidtRoute:
    """``chsh_matrix`` on the pair Gram of the squeezed amplitudes against
    ``chsh_value`` on the dense ket and quadruple, and against the
    general-state parity-axis oracle."""

    @pytest.mark.parametrize("cutoff", [4, 6, 40, 200])
    def test_matches_dense_chsh_value(self, cutoff):
        rng = np.random.default_rng(107 + cutoff)
        space = FockSpace(cutoff)
        angle_sets = [MAX_VIOLATION_ANGLES]
        angle_sets += [AngleSet(*rng.uniform(-7.0, 7.0, 4)) for _ in range(4)]
        for angles in angle_sets:
            dense_q = fock_quadruple(space, angles)
            for eta in (1e-8, float(rng.uniform(0.05, 0.95)), 0.999):
                oracle = chsh_value(squeezed_state(eta, space).ket, dense_q)
                assert abs(chsh_matrix(eta, space, angles) - oracle) <= 1e-14

    @pytest.mark.parametrize("cutoff,eta,angles", [
        (512, 0.9, AngleSet(0.3, -1.2, 2.1, 0.7)),
        (2048, 0.7, MAX_VIOLATION_ANGLES),
    ], ids=["512", "2048"])
    def test_matches_parity_axis_oracle(self, cutoff, eta, angles):
        space = FockSpace(cutoff)
        oracle = parity_axis_chsh(squeezed_state(eta, space).ket, cutoff, angles)
        assert abs(chsh_matrix(eta, space, angles) - oracle.real) <= 1e-14

    @pytest.mark.parametrize("cutoff", [4, 40, 512, 2048])
    def test_matches_four_call_blocks_byte_for_byte(self, cutoff):
        rng = np.random.default_rng(109 + cutoff)
        space = FockSpace(cutoff)
        angle_sets = [MAX_VIOLATION_ANGLES]
        angle_sets += [AngleSet(*rng.uniform(-7.0, 7.0, 4)) for _ in range(99)]
        for angles in angle_sets:
            for eta in (1e-8, float(rng.uniform(0.05, 0.95)), 0.999):
                oracle = four_call_chsh_matrix(eta, space, angles)
                assert chsh_matrix(eta, space, angles).hex() == oracle.real.hex()

    def test_one_flip_build_call(self, monkeypatch, flip_builds):
        # one stacked build of the four phases, past the phase_flip check
        def refused(dim, pairs, phase):
            raise AssertionError("chsh_matrix called phase_flip")

        monkeypatch.setattr(fock, "phase_flip", refused, raising=False)
        monkeypatch.setattr(chsh, "phase_flip", refused)
        chsh_matrix(0.6, FockSpace(40), AngleSet(0.4, -1.3, 0.9, 2.2))
        assert [np.shape(phases) for phases, _ in flip_builds] == [(4,)]
        assert not hasattr(fock, "_flip_stack")

    def test_block_build_is_phase_flip_byte_for_byte(self, flip_builds):
        # the build chsh_matrix reads, on the arguments it is made from, gives
        # the bytes of the checked phase_flip(2, np.array([(0, 1)]), phases)
        pair = np.array([(0, 1)])
        for phases in [(0.0, math.pi, -math.pi, 1e-300), (-1e-300, 0.0, math.pi, -math.pi)]:
            built = chsh._flip_stack(2, chsh._BLOCK_PAIRS, np.array(phases))
            assert built.tobytes() == phase_flip(2, pair, np.array(phases)).tobytes()
            assert built.shape == (4, 2, 2) and not built.flags.writeable
        flip_builds.clear()
        rng = np.random.default_rng(113)
        angle_sets = [AngleSet(0.0, math.pi, -math.pi, 1e-300)]
        angle_sets += [AngleSet(*rng.uniform(-7.0, 7.0, 4)) for _ in range(200)]
        for angles in angle_sets:
            chsh_matrix(0.6, FockSpace(4), angles)
        assert [phases.tolist() for phases, _ in flip_builds] == [
            list(a.as_tuple()) for a in angle_sets]
        for angles, (phases, built) in zip(angle_sets, flip_builds):
            a1, a2, b1, b2 = built
            kernel = angles.pair_kernel
            assert kernel.tobytes() == (a1 * (b1 + b2) + a2 * (b1 - b2)).tobytes()
            assert kernel.shape == (2, 2) and not kernel.flags.writeable
            assert built.tobytes() == phase_flip(2, pair, phases).tobytes()
            assert not built.flags.writeable

    def test_one_build_per_angle_set(self, flip_builds):
        # the flips depend on the angles only: repeated calls, over any eta
        # and cutoff, read the stack the first call built
        angles = AngleSet(0.4, -1.3, 0.9, 2.2)
        values = [chsh_matrix(eta, FockSpace(cutoff), angles)
                  for cutoff in (4, 40) for eta in (0.1, 0.6, 0.6, 0.95)]
        assert len(flip_builds) == 1
        assert values == [four_call_chsh_matrix(eta, FockSpace(cutoff), angles).real
                          for cutoff in (4, 40) for eta in (0.1, 0.6, 0.6, 0.95)]

    def test_squeeze_scan_builds_its_flips_once(self, monkeypatch, flip_builds, capsys):
        # a fresh copy of the default angles, so no earlier test has built them
        fresh = dataclasses.replace(MAX_VIOLATION_ANGLES)
        monkeypatch.setattr(fock, "MAX_VIOLATION_ANGLES", fresh)
        assert cli.main(["squeeze-scan"]) == 0
        assert capsys.readouterr().out.count("\n") == 12  # header, 9 grid rows, 2 endpoints
        assert [phases.tolist() for phases, _ in flip_builds] == [list(fresh.as_tuple())]


class TestFlipAction:
    """The general-state parity-axis oracle against the dense flip
    matrices and the pair-index oracle, and the residue check of
    ``chsh_matrix``."""

    @pytest.mark.parametrize("cutoff", [4, 6, 40, 200])
    def test_matches_dense_quadruple_on_random_states(self, cutoff):
        rng = np.random.default_rng(89 + cutoff)
        space = FockSpace(cutoff)
        for _ in range(5):
            angles = AngleSet(*rng.uniform(-math.pi, math.pi, 4))
            psi = random_state(rng, cutoff, cutoff)
            assert abs(parity_axis_chsh(psi, cutoff, angles).real
                       - chsh_value(psi, fock_quadruple(space, angles))) <= 1e-14

    @pytest.mark.parametrize("cutoff", [4, 6, 40, 200])
    def test_equals_pair_index_oracle(self, cutoff):
        # the same products and sums in the same order: equal to the bit
        rng = np.random.default_rng(101 + cutoff)
        space = FockSpace(cutoff)
        angle_sets = [MAX_VIOLATION_ANGLES]
        angle_sets += [AngleSet(*rng.uniform(-7.0, 7.0, 4)) for _ in range(4)]
        for angles in angle_sets:
            states = [random_state(rng, cutoff, cutoff)]
            states += [squeezed_state(eta, space).ket
                       for eta in (1e-8, float(rng.uniform(0.05, 0.95)), 0.999)]
            for psi in states:
                oracle = pair_index_chsh(psi, cutoff, angles)
                assert parity_axis_chsh(psi, cutoff, angles) == oracle

    def test_action_on_identity_is_phase_flip(self):
        # rows give F, columns (x -> x F^T) give F^T, by value: the
        # pair-index oracle on every flip of the package, the parity-axis
        # one on Fock's
        cases = [(n, fock._parity_pairs(n)) for n in (4, 40)]
        cases += [(levels, pairs)  # both spin sides, fixed levels included
                  for kind, levels in spin._LEVELS.items()
                  for pairs in spin._FLIP_PAIRS[kind]]
        rng = np.random.default_rng(97)
        phases = [0.0, math.pi, 1e-300, *rng.uniform(-7.0, 7.0, 5)]
        for dim, pairs in cases:
            eye = np.eye(dim)
            for phase in phases:
                flip = phase_flip(dim, pairs, phase)
                assert np.array_equal(flip_rows(eye, pairs, phase), flip)
                assert np.array_equal(flip_rows(eye.T, pairs, phase).T, flip.T)
        for n in (4, 40):
            eye = np.eye(n)
            for phase in phases:
                flip = phase_flip(n, fock._parity_pairs(n), phase)
                rows = flip_parity(eye.reshape(n // 2, 2, n), 1, phase)
                cols = flip_parity(eye.reshape(n, n // 2, 2), 2, phase)
                assert np.array_equal(rows.reshape(n, n), flip)
                assert np.array_equal(cols.reshape(n, n), flip.T)

    def test_rejects_shared_level_and_non_finite_phase(self):
        x = np.eye(3)
        for pairs, phase in (([(0, 1), (1, 2)], 0.5), ([(0, 1)], math.inf),
                             ([(0, 1)], math.nan)):
            with pytest.raises(DomainError, match="not hermitian"):
                flip_rows(x, pairs, phase)

    def test_imaginary_residue_raises(self, monkeypatch):
        # a corrupted flip stack with e^{i phase} both ways is not hermitian
        def corrupted(levels, pairs, phases):
            return np.array([[[0.0, up], [up, 0.0]] for up in np.exp(1j * phases)])

        monkeypatch.setattr(chsh, "_flip_stack", corrupted)
        with pytest.raises(PrecisionError, match="imaginary residue"):
            chsh_matrix(0.6, FockSpace(8), AngleSet(0.4, -1.3, 0.9, 2.2))
