import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bellchsh import (
    AngleSet,
    ChshQuadruple,
    ClosedFormCorrelator,
    DomainError,
    Ket,
    PrecisionError,
    ShapeError,
    TSIRELSON_BOUND,
    chsh_value,
    optimize_angles,
    phase_flip,
    singlet,
    spin_quadruple,
    validate_quadruple,
)
from bellchsh import chsh, fock, spin
from helpers import (
    chsh_operator,
    expectation,
    four_call_quadruple,
    full_quadruple,
    grid_sweep_optimum,
    loop_phase_flip,
    power_iteration_norm,
    random_involution_quadruple,
    random_state,
)

ROOT2 = math.sqrt(2.0)


class TestAngleSet:
    def test_wraps_to_half_open_interval(self):
        a = AngleSet(3 * math.pi, -math.pi, math.pi, 7.0)
        for theta in a.as_tuple():
            assert -math.pi <= theta < math.pi

    def test_wrapping_preserves_cosine_sums(self):
        a = AngleSet(3 * math.pi + 0.2, 0.1, -9.0, 2.5)
        b = AngleSet(0.2 + math.pi, 0.1, -9.0 + 2 * math.pi, 2.5)
        form = ClosedFormCorrelator(1.0, (1.0, 1.0, 1.0, -1.0))
        assert form.value(a) == pytest.approx(form.value(b), abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_phases(self, bad):
        for position in range(4):
            phases = [0.0, 0.0, 0.0, 0.0]
            phases[position] = bad
            with pytest.raises(DomainError):
                AngleSet(*phases)


class TestChshOperator:
    def test_identity_quadruple_gives_twice_identity(self):
        eye = np.eye(2)
        q = ChshQuadruple(a1=eye, a2=eye, b1=eye, b2=eye)
        assert np.abs(chsh_operator(q) - 2 * np.eye(4)).max() == 0.0

    def test_tsirelson_recovery_on_spin_half_singlet(self):
        q = spin_quadruple(spin.SPIN_HALF, spin.TSIRELSON_ANGLES)
        value = expectation(singlet(spin.SPIN_HALF).ket, chsh_operator(q))
        assert abs(abs(value) - 2 * ROOT2) <= 1e-12

    def test_operator_norm_bounded_by_tsirelson(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            q = random_involution_quadruple(rng, 3, 3)
            lam = power_iteration_norm(chsh_operator(q))
            assert lam <= TSIRELSON_BOUND + 1e-9

    def test_mixed_dims_raise(self):
        q = ChshQuadruple(a1=np.eye(2), a2=np.eye(2), b1=np.eye(2), b2=np.eye(3))
        with pytest.raises(ShapeError):
            chsh_value(Ket(np.eye(4)[0], normalized=True), q)
        with pytest.raises(ShapeError):
            validate_quadruple(q)
        with pytest.raises(ShapeError):
            chsh_operator(q)


class TestChshValue:
    def test_product_states_cannot_violate(self):
        rng = np.random.default_rng(29)
        e0 = np.zeros(2, dtype=complex)
        e0[0] = 1.0
        psi = Ket(np.kron(e0, e0), normalized=True)
        for _ in range(20):
            q = spin_quadruple(spin.SPIN_HALF,
                               AngleSet(*rng.uniform(-math.pi, math.pi, 4)))
            # independent assembly: four pairwise full-space expectations
            full = full_quadruple(q)
            pairwise = [
                expectation(psi, full[a] @ full[b])
                for a, b in (("a1", "b1"), ("a2", "b1"), ("a1", "b2"), ("a2", "b2"))
            ]
            direct = (pairwise[0] + pairwise[1] + pairwise[2] - pairwise[3]).real
            value = chsh_value(psi, q)
            assert abs(value - direct) <= 1e-12
            assert abs(value) <= 2.0 + 1e-12

    def test_spin_one_violation_value(self):
        q = spin_quadruple(spin.SPIN_ONE, spin.SPIN_ONE_VIOLATION_ANGLES)
        value = chsh_value(singlet(spin.SPIN_ONE).ket, q)
        assert abs(abs(value) - 2 * (2 + ROOT2) / 3) <= 1e-12

    def test_squeezed_window_endpoint(self):
        space = fock.FockSpace(16)
        eta = ROOT2 - 1.0
        psi = fock.squeezed_state(eta, space).ket
        q = fock.fock_quadruple(space, fock.MAX_VIOLATION_ANGLES)
        assert abs(chsh_value(psi, q) - 2.0) <= 1e-12

    def test_matches_full_operator_expectation(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            q = spin_quadruple(spin.SPIN_ONE,
                               AngleSet(*rng.uniform(-math.pi, math.pi, 4)))
            psi = random_state(rng, 9)
            via_operator = expectation(psi, chsh_operator(q)).real
            assert abs(chsh_value(psi, q) - via_operator) <= 1e-12

    def test_imaginary_residue_raises(self):
        rng = np.random.default_rng(37)
        entries = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        bad = ChshQuadruple(a1=entries, a2=np.eye(2), b1=np.eye(2), b2=np.eye(2))
        with pytest.raises(PrecisionError, match="imaginary residue"):
            chsh_value(random_state(rng, 4), bad)

    def test_nan_residue_raises(self):
        with pytest.raises(PrecisionError, match="imaginary residue nan"):
            chsh._real_correlator(complex(1.0, math.nan))
        rng = np.random.default_rng(41)
        corrupted = ChshQuadruple(a1=np.diag([math.nan, 1.0]), a2=np.eye(2),
                                  b1=np.eye(2), b2=np.eye(2))
        with pytest.raises(PrecisionError, match="imaginary residue nan"):
            chsh_value(random_state(rng, 4), corrupted)


class TestValidation:
    def test_identity_quadruple_all_zero(self):
        eye = np.eye(2)
        report = validate_quadruple(ChshQuadruple(a1=eye, a2=eye, b1=eye, b2=eye))
        assert report.max_deviation == 0.0
        assert report.passed

    def test_spin_one_random_angles_pass(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            q = spin_quadruple(spin.SPIN_ONE,
                               AngleSet(*rng.uniform(-math.pi, math.pi, 4)))
            report = validate_quadruple(q)
            assert report.passed, report.summary()

    def test_corrupted_phase_fails(self):
        q = spin_quadruple(spin.SPIN_ONE, spin.SPIN_ONE_VIOLATION_ANGLES)
        bad = ChshQuadruple(a1=q.a1 * 1.01, a2=q.a2, b1=q.b1, b2=q.b2)
        report = validate_quadruple(bad)
        assert max(report.involution.values()) > 1e-6
        assert not report.passed
        assert "FAIL" in report.summary()


class TestOptimizer:
    def test_unit_prefactor_reaches_tsirelson(self):
        form = ClosedFormCorrelator(1.0, (1.0, 1.0, 1.0, -1.0))
        _, best = optimize_angles(form)
        assert abs(best - 2 * ROOT2) <= 1e-6

    def test_pattern_maximum_scales_with_prefactor(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            c = float(rng.uniform(0.05, 2.0))
            _, best = optimize_angles(ClosedFormCorrelator(c, (1.0, 1.0, 1.0, -1.0)))
            assert abs(best - 2 * ROOT2 * c) <= 1e-6

    def test_spin_one_form_beats_quoted_value(self):
        form = spin.spin_closed_form(spin.SPIN_ONE)
        angles, best = optimize_angles(form)
        assert best >= 2 * (2 + ROOT2) / 3 - 1e-9
        # the constant shifts the attainable cosine peak: (2/3)(1 + 2 sqrt(2))
        assert abs(best - (2.0 / 3.0) * (1 + 2 * ROOT2)) <= 1e-6
        # the reported angles actually realize the reported value
        assert abs(abs(form.value(angles)) - best) <= 1e-12

    def test_optimum_dominates_random_sampling(self):
        rng = np.random.default_rng(47)
        form = spin.spin_closed_form(spin.SPIN_ONE)
        _, best = optimize_angles(form)
        samples = rng.uniform(-math.pi, math.pi, size=(20000, 4))
        sampled = max(abs(form.value(AngleSet(*row))) for row in samples)
        assert best >= sampled - 1e-9

    def test_zero_prefactor(self):
        _, best = optimize_angles(ClosedFormCorrelator(0.0, (1.0, 1.0, 1.0, -1.0)))
        assert best == 0.0

    def test_deterministic(self):
        form = fock.squeezed_closed_form(0.37)
        first = optimize_angles(form)
        second = optimize_angles(form)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_exact_optimum_over_all_odd_patterns(self):
        # every odd pattern, constants of each sign, prefactors of each sign,
        # B phases added (orientation 1) or subtracted (-1)
        rng = np.random.default_rng(59)
        patterns = [s for s in itertools.product((1.0, -1.0), repeat=4)
                    if math.prod(s) < 0.0]
        assert len(patterns) == 8
        for signs, o in itertools.product(patterns, (1.0, -1.0)):
            for constant in (-float(rng.uniform(0.1, 3.0)), 0.0,
                             float(rng.uniform(0.1, 3.0))):
                prefactor = float(rng.uniform(0.1, 2.0)) * rng.choice([-1.0, 1.0])
                form = ClosedFormCorrelator(prefactor, signs, constant, o)
                angles, best = optimize_angles(form)
                bound = abs(prefactor) * (abs(constant) + 2 * ROOT2)
                assert abs(best - bound) <= 1e-14 * bound, (signs, o, constant, prefactor)
                assert best == abs(form.value(angles))
                assert best >= grid_sweep_optimum(form)[1] - 1e-12
                a1, a2, b1, b2 = rng.uniform(-math.pi, math.pi, size=(4, 20000))
                sampled = np.abs(prefactor * (
                    constant + signs[0] * np.cos(a1 + o * b1) + signs[1] * np.cos(a2 + o * b1)
                    + signs[2] * np.cos(a1 + o * b2) + signs[3] * np.cos(a2 + o * b2)))
                assert best >= sampled.max()

    def test_even_patterns_rejected(self):
        for signs in itertools.product((1.0, -1.0), repeat=4):
            if math.prod(signs) > 0.0:
                with pytest.raises(DomainError, match="odd sign pattern"):
                    optimize_angles(ClosedFormCorrelator(1.0, signs, 0.5))
        with pytest.raises(DomainError, match="odd sign pattern"):
            optimize_angles(ClosedFormCorrelator(1.0, (1.0, 1.0, 0.5, -1.0)))

    @pytest.mark.parametrize("orientation", [0.5, 0.0, -2.0, math.nan])
    def test_orientation_other_than_unit_rejected(self, orientation):
        form = ClosedFormCorrelator(1.0, (-1.0, -1.0, -1.0, 1.0), orientation=orientation)
        with pytest.raises(DomainError, match="orientation of [+]-1"):
            optimize_angles(form)

    def test_matches_grid_sweep_oracle_on_package_forms(self):
        for form in (spin.spin_closed_form(spin.SPIN_ONE), fock.squeezed_closed_form(0.7)):
            angles, best = optimize_angles(form)
            oracle_angles, oracle = grid_sweep_optimum(form)
            assert abs(best - oracle) <= 1e-12
            assert max(abs(a - b) for a, b in zip(angles.as_tuple(),
                                                  oracle_angles.as_tuple())) <= 1e-15


class TestTsirelsonProperty:
    def test_randomized_trials_stay_below_bound(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            dim_a = int(rng.integers(2, 5))
            dim_b = int(rng.integers(2, 5))
            q = random_involution_quadruple(rng, dim_a, dim_b)
            psi = random_state(rng, dim_a * dim_b)
            assert abs(chsh_value(psi, q)) <= TSIRELSON_BOUND + 1e-9


class TestStackedPhaseFlip:
    """``phase_flip`` over an array of phases against its scalar calls,
    its single domain check, and the one-call-per-side quadruple builds
    against the four-call oracle."""

    CASES = [(2, [(0, 1)]), (3, [(2, 1)]), (3, [(0, 1)])]  # spin-1/2, spin-1 A, B
    CASES += [(n, np.arange(n).reshape(-1, 2)) for n in (4, 8, 40)]  # Fock

    def test_stack_matches_scalar_calls_byte_for_byte(self):
        rng = np.random.default_rng(131)
        phases = np.array([0.0, math.pi, -math.pi, 1e-300, -1e-300,
                           *rng.uniform(-7.0, 7.0, 11)])
        for dim, pairs in self.CASES:
            stack = phase_flip(dim, pairs, phases)
            assert stack.shape == (len(phases), dim, dim)
            for phase, flip in zip(phases, stack):
                assert flip.tobytes() == phase_flip(dim, pairs, float(phase)).tobytes()
            assert phase_flip(dim, pairs, tuple(phases)).tobytes() == stack.tobytes()
            # a stack is flat: a grid of phases is refused, not read
            with pytest.raises(DomainError, match="not hermitian"):
                phase_flip(dim, pairs, phases.reshape(4, 4))

    def test_scalar_phase_gives_one_matrix(self):
        assert phase_flip(4, [(0, 1), (2, 3)], 0.3).shape == (4, 4)
        assert phase_flip(4, [(0, 1), (2, 3)], [0.3]).shape == (1, 4, 4)

    def test_stack_is_read_only(self):
        stack = phase_flip(2, [(0, 1)], (0.1, 0.2))
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 2.0
        _, second = stack
        with pytest.raises(ValueError):
            second[1, 0] = 2.0

    @pytest.mark.parametrize("where", [0, 3, 5])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_anywhere_raises(self, bad, where):
        phases = np.linspace(-1.0, 1.0, 6)
        phases[where] = bad
        for stack in (phases, tuple(phases), list(phases)):
            with pytest.raises(DomainError, match="not hermitian"):
                phase_flip(4, [(0, 1), (2, 3)], stack)

    @pytest.mark.parametrize("pairs,shown", [
        ([(0, 2)], "[[0, 2]]"), ([(0, 10**13)], "[[0, 10000000000000]]"),
        ([(0, -1)], "[[0, -1]]"), ([], "[]"), ([(0, 1.5)], "[(0, 1.5)]"),
    ], ids=["beyond-dim", "far-beyond-dim", "negative", "empty", "non-integer"])
    def test_malformed_pairs_raise_domain_error(self, pairs, shown):
        # each fails inside the one check, and the message names the pairs:
        # integer rows as the array they were read into, others as given
        named = re.escape(f"got pairs {shown}")
        for phase in (0.1, (0.1, 0.2)):
            with pytest.raises(DomainError, match=named):
                phase_flip(2, pairs, phase)

    @pytest.mark.parametrize("dim", [-1, 0, 2.0, "2", None])
    def test_bad_dim_raises_domain_error(self, dim):
        # before numpy sees it: a negative minlength or a float dim
        # would raise ValueError or TypeError
        for phase in (0.3, (0.3, -0.4)):
            with pytest.raises(DomainError, match=re.escape(f"for dim {dim!r}")):
                phase_flip(dim, [(0, 1)], phase)

    @pytest.mark.parametrize("dim,pairs,phase", [
        (10**6, [(0, 1)], 0.3),
        # a zero-stride stack of 10**6 phases holds one float
        (2048, [(0, 1)], np.broadcast_to(0.3, (10**6,))),
        (4, [(0, 10**13)], 0.1),
    ], ids=["dim-1e6", "1e6-phases-at-2048", "level-1e13-at-4"])
    def test_stack_size_bounded_before_allocation(self, dim, pairs, phase):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=re.escape(f"for dim {dim!r}")):
                phase_flip(dim, pairs, phase)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # nothing of dim's or of a level's size is allocated: the stack of
        # dim 10**6 would take 16 TB, a count per level up to 10**13 80 TB
        assert peak < 2**20

    def test_oversized_pairs_named_by_shape(self):
        pairs = np.zeros((10**6, 2), dtype=np.int64)  # 16 MB, before tracing
        tracemalloc.start()
        try:
            with pytest.raises(DomainError) as raised:
                phase_flip(4, pairs, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        message = str(raised.value)
        assert "got pairs of shape (1000000, 2) and dtype int64 " in message
        assert message.endswith("for dim 4") and len(message) < 400
        # the listed pairs alone would be an 8 MB message
        assert peak < 2**20

    def test_empty_stack_bounded_before_allocation(self):
        # an empty stack is sized as one flip: (0, 10**13, 10**13) is
        # refused by numpy itself, so the domain check must catch it
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"1 \* dim\*\*2 at most") as raised:
                phase_flip(10**13, [(0, 1)], [])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(raised.value).endswith(f"for dim {10**13}") and peak < 2**20
        for dim, pairs in self.CASES:
            empty = phase_flip(dim, pairs, [])
            assert empty.shape == (0, dim, dim) and not empty.flags.writeable

    def test_long_phase_stack_named_by_shape(self):
        phases = [0.0] * 10**5 + [math.nan, math.inf]
        for stack in (phases, np.array(phases)):
            with pytest.raises(DomainError, match="not hermitian") as raised:
                phase_flip(2, [(0, 1)], stack)
            message = str(raised.value)
            assert ("and phase of shape (100002,) with first non-finite entry nan "
                    "for dim 2") in message
            assert len(message) < 1000
        # a stack over the size bound is named by its shape alone
        with pytest.raises(DomainError) as raised:
            phase_flip(2048, [(0, 1)], np.broadcast_to(math.nan, (10**6,)))
        assert "and phase of shape (1000000,) for dim 2048" in str(raised.value)

    @pytest.mark.parametrize("dim,pairs,phase", [
        (2, [(0, 1)], "1.5"),
        (2, [(0, 1)], b"1.5"),
        (2, [(0, 1)], ["1.5"]),
        (2, [(0, 1)], [["1.5"]]),
        (2, [(0, 1)], [[0.5], ("1.5",)]),
        (2, [(0, 1)], np.array(["1.5"])),
        (2, [(0, 1)], 1j),
        (2, [(0, 1)], [0.5, 1j]),
        (2, [(0, 1)], np.array([1 + 1j])),
        (2, [(0, 1)], np.array(1 + 1j)),
        (2, [(0, 1)], math.nan),
        (2, [(0, 1)], [0.5, math.nan]),
        (2, [(0, 1)], np.array([math.inf])),
        (2048, [(0, 1)], np.broadcast_to(0.3, (10**6,))),
        (2048, [(0, 1)], np.broadcast_to(0.3, (1000, 1000))),
        (4, [(0, 1)] * 50_000, 0.3),
        (2, [(0, 1.5)], 0.3),
        (2, np.array([[0.0, 1.0]]), 0.3),
        (4, [(0, 1), (2,)], 0.3),
        (2, [(True, False)], 0.3),
        (2, np.array([[True, False]]), 0.3),
        (2, np.array([[0, 1]], np.uint8), 0.3),
        (2, [(np.uint8(0), np.uint8(1))], 0.3),
    ], ids=["text", "bytes", "text-in-list", "nested-text", "nested-text-in-tuple",
            "text-array", "complex", "complex-in-list", "complex-array", "complex-0d",
            "nan", "nan-in-list", "inf-array", "oversized-stack", "oversized-grid",
            "long-pair-list", "float-pair-list", "float-pair-array", "ragged-pairs",
            "bool-pair-list", "bool-pair-array", "uint8-pair-array", "uint8-pair-list"])
    def test_refused_inputs_stay_refused(self, dim, pairs, phase):
        # each is refused by the one check, whatever reads the argument
        with pytest.raises(DomainError, match=re.escape(f"for dim {dim}")):
            phase_flip(dim, pairs, phase)

    @pytest.mark.parametrize("argument", ["phase", "pairs", "both"])
    def test_self_referential_list_refused_at_once(self, argument):
        # a list that holds itself doubles at every level it is walked, so
        # a reader of nested input never returns; run in a child that the
        # timeout kills.  "both" holds itself six times, which a repr of
        # unbounded depth would spell out 6**6 times in the message
        child = (
            "import sys, time\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from bellchsh import DomainError, phase_flip\n"
            "a, b = [], []\n"
            "a.extend([a, a])\n"
            "b.extend([b] * 6)\n"
            "calls = {'phase': ([(0, 1)], a), 'pairs': (a, 0.1), 'both': (b, b[:4])}\n"
            "for dim in (2, 4, 1024):\n"
            "    start = time.perf_counter()\n"
            "    try:\n"
            "        phase_flip(dim, *calls[sys.argv[2]])\n"
            "    except DomainError as err:\n"
            "        print(dim, time.perf_counter() - start, len(str(err)))\n"
        )
        src = os.path.dirname(os.path.dirname(chsh.__file__))
        done = subprocess.run([sys.executable, "-c", child, src, argument],
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr[-2000:]
        refused = {dim: (float(seconds), int(length))
                   for dim, seconds, length in map(str.split, done.stdout.splitlines())}
        assert sorted(refused, key=int) == ["2", "4", "1024"]
        assert all(seconds < 1.0 and length < 1000
                   for seconds, length in refused.values()), refused

    def test_stack_size_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(chsh, "MAX_FLIP_DIM", 4)  # at most 64 entries
        assert phase_flip(4, [(0, 1)], np.zeros(4)).shape == (4, 4, 4)
        assert phase_flip(8, [(0, 1)], 0.3).shape == (8, 8)
        for dim, phase in ((4, np.zeros(5)), (8, (0.3, 0.3)), (9, 0.3)):
            with pytest.raises(DomainError, match=r"dim\*\*2 at most 64 entries"):
                phase_flip(dim, [(0, 1)], phase)

    def test_quadruple_builds_make_one_call_per_side(self, monkeypatch):
        calls = []

        def counting(dim, pairs, phase):
            calls.append(np.shape(phase))
            return phase_flip(dim, pairs, phase)

        monkeypatch.setattr(chsh, "phase_flip", counting)
        angles = AngleSet(0.1, -0.2, 0.3, 2.4)
        for build in (lambda: spin_quadruple(spin.SPIN_HALF, angles),
                      lambda: spin_quadruple(spin.SPIN_ONE, angles),
                      lambda: fock.fock_quadruple(fock.FockSpace(8), angles)):
            calls.clear()
            build()
            assert calls == [(2,), (2,)]

    @pytest.mark.parametrize("kind", [spin.SPIN_HALF, spin.SPIN_ONE])
    def test_spin_quadruple_matches_four_calls(self, kind):
        levels = spin._LEVELS[kind]
        rng = np.random.default_rng(137)
        angle_sets = [spin.TSIRELSON_ANGLES, spin.SPIN_ONE_VIOLATION_ANGLES]
        angle_sets += [AngleSet(*rng.uniform(-7.0, 7.0, 4)) for _ in range(20)]
        for angles in angle_sets:
            oracle = four_call_quadruple((levels, levels), spin._FLIP_PAIRS[kind], angles)
            stacked = spin_quadruple(kind, angles)
            for name, op in stacked.operators().items():
                assert op.tobytes() == oracle.operators()[name].tobytes()

    # cutoff 2048 would hold two 256 MB quadruples; chsh_matrix, which
    # builds none, is checked up to 2048 in test_fock.py
    @pytest.mark.parametrize("cutoff", [4, 40, 512])
    def test_fock_quadruple_matches_four_calls(self, cutoff):
        space = fock.FockSpace(cutoff)
        pairs = fock._parity_pairs(cutoff)
        rng = np.random.default_rng(139 + cutoff)
        angle_sets = [fock.MAX_VIOLATION_ANGLES]
        angle_sets += [AngleSet(*rng.uniform(-7.0, 7.0, 4)) for _ in range(2)]
        for angles in angle_sets:
            oracle = four_call_quadruple((cutoff, cutoff), (pairs, pairs), angles)
            stacked = fock.fock_quadruple(space, angles)
            for name, op in stacked.operators().items():
                assert op.tobytes() == oracle.operators()[name].tobytes()


class TestLoopOracle:
    """``phase_flip`` against ``loop_phase_flip``, which writes every
    entry from the definition without calling it: the unpaired levels'
    1, each pair's phase entries and the zeros, byte for byte."""

    CASES = [(2, [(0, 1)]), (3, [(2, 1)]), (3, [(0, 1)])]  # spin-1/2, spin-1 A, B
    CASES += [(n, np.arange(n).reshape(-1, 2)) for n in (4, 40, 512)]  # Fock
    CASES += [(7, [(0, 3), (5, 2)])]  # levels 1, 4 and 6 fixed

    @pytest.mark.parametrize("dim,pairs", CASES,
                             ids=["spin-half", "spin-one-a", "spin-one-b",
                                  "fock-4", "fock-40", "fock-512", "dim-7"])
    def test_scalar_and_stacked_match_byte_for_byte(self, dim, pairs):
        rng = np.random.default_rng(149 + dim)
        phases = np.array([0.0, math.pi, -1e-300, *rng.uniform(-7.0, 7.0, 3)])
        oracles = [loop_phase_flip(dim, pairs, float(phase)) for phase in phases]
        stack = phase_flip(dim, pairs, phases)
        for phase, flip, oracle in zip(phases, stack, oracles):
            assert phase_flip(dim, pairs, float(phase)).tobytes() == oracle.tobytes()
            assert flip.tobytes() == oracle.tobytes()
