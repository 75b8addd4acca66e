import math
import re
import warnings

import numpy as np
import pytest

from bellchsh import (
    AngleSet,
    DomainError,
    GaussianPacket,
    MAX_MOMENTUM,
    MAX_RADIAL,
    PrecisionError,
    ShellQuadrature,
    normalize,
    shell_inner_product,
    sigma_chsh,
)
from bellchsh import fock
# aliased so pytest does not collect the library function as a test
from bellchsh.kleingordon import test_norm as norm_with_error

from helpers import per_call_inner_product, product_rule_inner_product

ROOT2 = math.sqrt(2.0)

# moderate resolution: plenty for the gentle packet geometries below
FAST = dict(radial=64)


def packet(seed_center, width=1.0, mass=1.0, amplitude=1.0):
    return GaussianPacket.on_shell(mass=mass, spatial_center=seed_center,
                                   width=width, amplitude=amplitude)


def random_packet(rng, mass=1.0):
    center = tuple(rng.uniform(-1.2, 1.2, 3))
    width = float(rng.uniform(0.8, 1.25))
    amp = complex(rng.normal(), rng.normal())
    return GaussianPacket.on_shell(mass=mass, spatial_center=center,
                                   width=width, amplitude=amp)


class TestPacket:
    def test_on_shell_center_energy(self):
        p = packet((0.3, 0.0, 0.4), mass=1.0)
        assert p.center[0] == pytest.approx(math.sqrt(1.0 + 0.25), abs=1e-15)

    def test_width_must_be_positive(self):
        with pytest.raises(DomainError):
            GaussianPacket(center=(1, 0, 0, 0), width=0.0)

    def test_mass_must_be_non_negative(self):
        with pytest.raises(DomainError):
            GaussianPacket(center=(1, 0, 0, 0), width=1.0, mass=-1.0)

    def test_center_must_be_four_momentum(self):
        with pytest.raises(DomainError):
            GaussianPacket(center=(1, 0, 0), width=1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(center=(1, math.nan, 0, 0), width=1.0),
        dict(center=(math.inf, 0, 0, 0), width=1.0),
        dict(center=(1, 0, 0, 0), width=math.inf),
        dict(center=(1, 0, 0, 0), width=math.nan),
        dict(center=(1, 0, 0, 0), width=1.0, mass=math.nan),
        dict(center=(1, 0, 0, 0), width=1.0, mass=math.inf),
        dict(center=(1, 0, 0, 0), width=1.0, amplitude=complex(1.0, math.nan)),
        dict(center=(1, 0, 0, 0), width=1.0, amplitude=math.inf),
        dict(center=(1, 0, 0, 0), width=1e300),  # width**2 overflows
        dict(center=(1, 0, 0, 0), width=1e-300),  # width**2 underflows to 0
    ])
    def test_non_finite_fields_rejected(self, kwargs):
        with pytest.raises(DomainError):
            GaussianPacket(**kwargs)

    @pytest.mark.parametrize("kwargs,field", [
        (dict(center=(1, 2 * MAX_MOMENTUM, 0, 0), width=1.0), "spatial center"),
        (dict(center=(4 * MAX_MOMENTUM, 0, 0, 0), width=1.0), "center energy"),
        (dict(center=(1, 0, 0, 0), width=1.0, mass=2 * MAX_MOMENTUM), "mass"),
        (dict(center=(1, 0, 0, 0), width=2 * MAX_MOMENTUM), "width"),
        (dict(center=(1, 0, 0, 0), width=0.5 / MAX_MOMENTUM), "width"),
    ])
    def test_domain_bounded(self, kwargs, field):
        with pytest.raises(DomainError, match=field):
            GaussianPacket(**kwargs)

    def test_on_shell_names_the_input_that_overflows(self):
        # c0 = sqrt(m^2 + |c|^2) overflows to inf, silently even for numpy
        # scalars; the error names m or c
        huge = np.float64(1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="^mass"):
                packet((0.0, 0.0, 0.0), mass=huge)
            with pytest.raises(DomainError, match="^spatial center"):
                packet((huge, 0.0, 0.0))

    def test_domain_edge_accepted(self):
        bound = MAX_MOMENTUM
        p = packet((bound, -bound, bound), width=bound, mass=bound)
        assert p.center[0] == 2.0 * bound
        GaussianPacket(center=(-2.0 * bound, 0, 0, 0), width=1.0 / bound)

    def test_tail_bound_finite_at_domain_edge(self):
        # sqrt(pi / s) overflowed for a width with a subnormal square; the
        # corner packet gives the largest for_packets cutoff, which the
        # k_max bound must accept
        bound = MAX_MOMENTUM
        for f in (packet((0.0, 0.0, 0.0), width=1.0 / bound),
                  packet((bound, -bound, bound), width=1.0 / bound, mass=bound)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                tail = ShellQuadrature.for_packets(f).tail_bound(f, f)
            assert math.isfinite(tail)


class TestShellQuadrature:
    @pytest.mark.parametrize("kwargs", [
        dict(k_max=math.inf), dict(k_max=math.nan),
        dict(k_max=5.0, tol=math.inf), dict(k_max=5.0, tol=math.nan),
    ])
    def test_non_finite_fields_rejected(self, kwargs):
        with pytest.raises(DomainError):
            ShellQuadrature(**kwargs)

    def test_k_max_bounded(self):
        # k * k overflowed in shell_inner_product
        with pytest.raises(DomainError, match="k_max"):
            ShellQuadrature(k_max=1e300)

    def test_radial_count_bounded_before_allocation(self):
        # no rule is built: both raise in the constructor
        with pytest.raises(DomainError):
            ShellQuadrature(k_max=1.0, radial=MAX_RADIAL + 1)
        with pytest.raises(DomainError):
            ShellQuadrature(k_max=1.0, radial=MAX_RADIAL).refined()
        assert ShellQuadrature(k_max=1.0, radial=64).refined() == \
            ShellQuadrature(k_max=1.0, radial=128)

    @pytest.mark.parametrize("kwargs", [
        dict(radial=64.5), dict(radial=64.0), dict(radial="64"),
    ])
    def test_non_integer_node_counts_rejected(self, kwargs):
        # else numpy's leggauss raises TypeError at the first norm, far from the cause
        with pytest.raises(DomainError, match="must be an integer"):
            ShellQuadrature(k_max=10.0, **kwargs)

    def test_integer_like_node_counts_stored_as_int(self):
        q = ShellQuadrature(k_max=10.0, radial=np.int64(64))
        assert type(q.radial) is int
        assert q == ShellQuadrature(k_max=10.0, radial=64)

    def test_angular_count_is_not_settable(self):
        # the angular integral is closed form: no rule has an angular count
        f = packet((0.0, 0.0, 0.0))
        with pytest.raises(TypeError, match="angular"):
            ShellQuadrature(k_max=1.0, radial=64, angular=8)
        with pytest.raises(TypeError, match="angular"):
            ShellQuadrature.for_packets(f, angular=8)


@pytest.fixture
def leggauss_calls(monkeypatch):
    """Counts the Gauss-Legendre builds, one list entry (the node count)
    per call."""
    calls = []
    build = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return build(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    return calls


class TestRuleBuiltOnce:
    def test_norm_twice_builds_each_rule_once(self, leggauss_calls):
        f = packet((0.3, -0.2, 0.5))
        q = ShellQuadrature.for_packets(f, **FAST)
        first, second = norm_with_error(f, q), norm_with_error(f, q)
        assert first == second
        assert leggauss_calls == [64, 128]

    def test_normalize_and_recheck_share_the_rules(self, leggauss_calls):
        f = packet((0.3, -0.2, 0.5), amplitude=1.7j)
        q = ShellQuadrature.for_packets(f)
        unit = normalize(f, q)
        assert abs(norm_with_error(unit, q).value - 1.0) <= 1e-10
        assert leggauss_calls == [128, 256]

    def test_sigma_chsh_builds_one_rule(self, leggauss_calls):
        f, g, q = TestSigmaChsh()._orthonormal_pair()
        fresh = ShellQuadrature(k_max=q.k_max, radial=q.radial)
        leggauss_calls.clear()
        rng = np.random.default_rng(113)
        for _ in range(5):
            angles = AngleSet(*rng.uniform(-math.pi, math.pi, 4))
            sigma_chsh(float(rng.uniform(0.05, 0.95)), angles, f, g, fresh)
        assert leggauss_calls == [q.radial]

    def test_largest_rule_built_lazily(self, leggauss_calls):
        # constructing and refining cost nothing: MAX_RADIAL nodes take
        # seconds and hundreds of MB to build
        q = ShellQuadrature(k_max=10.0, radial=MAX_RADIAL // 2)
        assert q.refined().radial == MAX_RADIAL
        assert leggauss_calls == []

    def test_refined_is_one_shared_rule(self):
        q = ShellQuadrature(k_max=10.0, radial=48)
        assert q.refined() is q.refined()
        assert q.refined().refined() is q.refined().refined()

    def test_rule_is_read_only(self):
        q = ShellQuadrature(k_max=10.0, radial=48)
        k, w = q.rule
        assert q.rule[0] is k
        for array in (k, w):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_cached_rule_leaves_equality_and_hash_alone(self):
        q = ShellQuadrature(k_max=10.0, radial=48)
        q.rule, q.refined()
        twin = ShellQuadrature(k_max=10.0, radial=48)
        assert q == twin and hash(q) == hash(twin)
        assert repr(q) == repr(twin)

    @pytest.mark.parametrize("radial", [2, 48, 128, 256])
    def test_bit_identical_to_per_call_rule(self, radial):
        rng = np.random.default_rng(127 + radial)
        for _ in range(4):
            f, g = random_packet(rng), random_packet(rng)
            q = ShellQuadrature.for_packets(f, g, radial=radial)
            for a, b in ((f, g), (g, f), (f, f)):
                value = shell_inner_product(a, b, q)
                oracle = per_call_inner_product(a, b, q)
                assert np.complex128(value).tobytes() == np.complex128(oracle).tobytes()


class TestInnerProduct:
    def test_norm_real_and_positive(self):
        rng = np.random.default_rng(89)
        for _ in range(5):
            f = random_packet(rng)
            q = ShellQuadrature.for_packets(f, **FAST)
            value = shell_inner_product(f, f, q)
            assert abs(value.imag) <= 1e-15 * abs(value.real)
            assert value.real > 0.0

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(97)
        f, g = random_packet(rng), random_packet(rng)
        q = ShellQuadrature.for_packets(f, g, **FAST)
        assert abs(shell_inner_product(f, g, q)
                   - np.conj(shell_inner_product(g, f, q))) <= 1e-15

    def test_linear_in_first_argument(self):
        rng = np.random.default_rng(101)
        f1, f2, g = (random_packet(rng) for _ in range(3))
        # same center/width family: linear combination realized through
        # amplitude scaling of each term
        q = ShellQuadrature.for_packets(f1, f2, g, **FAST)
        c1, c2 = 0.7 - 0.2j, -1.1 + 0.4j
        lhs = (shell_inner_product(f1.scaled(c1), g, q)
               + shell_inner_product(f2.scaled(c2), g, q))
        rhs = (c1 * shell_inner_product(f1, g, q)
               + c2 * shell_inner_product(f2, g, q))
        assert abs(lhs - rhs) <= 1e-14

    def test_mass_mismatch_rejected(self):
        f = packet((0, 0, 0), mass=1.0)
        g = packet((0, 0, 0), mass=2.0)
        q = ShellQuadrature.for_packets(f, **FAST)
        with pytest.raises(DomainError):
            shell_inner_product(f, g, q)

    def test_separated_centers_are_orthogonal(self):
        # separation 8 * sqrt(2) momentum widths along the z axis; the
        # product of the two envelopes peaks at exp(-32)
        offset = 4 * ROOT2
        f = packet((0, 0, offset))
        g = packet((0, 0, -offset))
        q = ShellQuadrature.for_packets(f, g, radial=96)
        ratio = abs(shell_inner_product(f, g, q)) / math.sqrt(
            shell_inner_product(f, f, q).real * shell_inner_product(g, g, q).real)
        assert ratio <= 1e-6
        refined = q.refined()
        ratio2 = abs(shell_inner_product(f, g, refined)) / math.sqrt(
            shell_inner_product(f, f, refined).real
            * shell_inner_product(g, g, refined).real)
        assert ratio2 <= 1e-6

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(103)
        for _ in range(25):
            f, g = random_packet(rng), random_packet(rng)
            q = ShellQuadrature.for_packets(f, g, radial=48)
            overlap_sq = abs(shell_inner_product(f, g, q)) ** 2
            bound = (shell_inner_product(f, f, q).real
                     * shell_inner_product(g, g, q).real)
            assert overlap_sq <= bound * (1.0 + 1e-12)

    def test_tail_guard_raises(self):
        f = packet((0, 0, 2.0))
        q = ShellQuadrature(k_max=1.0, radial=32, tol=1e-9)
        with pytest.raises(PrecisionError):
            shell_inner_product(f, f, q)

    @pytest.mark.parametrize("scale", [1e-20, 1e20])
    @pytest.mark.parametrize("k_max,passes", [(6.0, True), (4.0, False)])
    def test_tail_verdict_independent_of_amplitude_scale(self, scale, k_max, passes):
        # relative tails 2.7e-15 and 1.4e-7 against tol/10 = 1e-10
        f = packet((0.3, -0.2, 0.5), width=0.9, amplitude=0.6 - 0.8j)
        g = packet((-0.4, 0.1, 0.2), width=1.1, amplitude=1.5 + 0.5j)
        q = ShellQuadrature(k_max=k_max)
        scaled = (f.scaled(scale), g.scaled(scale))
        if passes:
            value = shell_inner_product(f, g, q)
            assert shell_inner_product(*scaled, q) == pytest.approx(
                scale * scale * value, rel=1e-14)
        else:
            for pair in ((f, g), scaled):
                with pytest.raises(PrecisionError, match=r"tol/10 \* \|A_f A_g\|"):
                    shell_inner_product(*pair, q)


class TestRadialRule:
    """The radial rule with its closed-form angular factor."""

    @pytest.mark.parametrize("radial,angular", [(64, 16), (128, 32)])
    def test_matches_product_rule_oracle(self, radial, angular):
        rng = np.random.default_rng(113)
        for _ in range(6):
            f, g = random_packet(rng), random_packet(rng)
            assert f.width != g.width and f.center != g.center
            q = ShellQuadrature.for_packets(f, g, radial=radial)
            value = shell_inner_product(f, g, q)
            oracle = product_rule_inner_product(f, g, q, angular)
            assert abs(value - oracle) <= 1e-12 * abs(oracle)

    def test_centred_pair_against_1d_radial_oracle(self):
        # |b| = 0: the angular factor is exactly 1
        f = packet((0.0, 0.0, 0.0), width=0.9, amplitude=0.6 - 0.8j)
        g = packet((0.0, 0.0, 0.0), width=1.2, amplitude=1.5 + 0.5j)
        q = ShellQuadrature.for_packets(f, g)
        value = shell_inner_product(f, g, q)

        nodes, weights = np.polynomial.legendre.leggauss(10 * q.radial)
        k = 0.5 * (nodes + 1.0) * q.k_max
        wk = 0.5 * q.k_max * weights
        omega = np.sqrt(k * k + 1.0)
        s = f.width ** 2 + g.width ** 2
        envelope = np.exp(-0.5 * s * ((omega - 1.0) ** 2 + k * k))
        oracle = (f.amplitude * np.conj(g.amplitude)
                  * float(np.sum(wk * k * k / (2 * omega) * envelope))
                  * 4 * math.pi / (2 * math.pi) ** 3)
        assert abs(value - oracle) <= 1e-12 * abs(oracle)

    def test_exact_conjugate_symmetry(self):
        rng = np.random.default_rng(127)
        for _ in range(6):
            f, g = random_packet(rng), random_packet(rng)
            q = ShellQuadrature.for_packets(f, g, **FAST)
            assert shell_inner_product(f, g, q) == np.conj(shell_inner_product(g, f, q))

    def test_narrow_off_centre_packet_does_not_overflow(self):
        # |b| = 2 * 36 * 10, so k |b| reaches ~8e3 and a naive sinh(k |b|)
        # overflows; folded into the Gaussian exponent it stays finite
        f = packet((0.0, 0.0, 10.0), width=6.0)
        values = []
        for radial in (256, 512):
            q = ShellQuadrature.for_packets(f, radial=radial)
            with np.errstate(over="raise", invalid="raise"):
                value = shell_inner_product(f, f, q)
            assert math.isfinite(value.real) and value.real > 0.0
            values.append(value.real)
        assert abs(values[0] - values[1]) <= 1e-10 * values[1]


class TestNorm:
    def test_quadratic_scaling(self):
        f = packet((0.2, -0.1, 0.5))
        q = ShellQuadrature.for_packets(f, **FAST)
        base = norm_with_error(f, q).value
        scaled = norm_with_error(f.scaled(2.0 - 1.0j), q).value
        assert scaled == pytest.approx(abs(2.0 - 1.0j) ** 2 * base, rel=1e-12)

    def test_self_convergence(self):
        f = packet((0.4, 0.3, -0.2), width=0.9)
        q = ShellQuadrature.for_packets(f)  # default 128 radial nodes
        estimate = norm_with_error(f, q)
        assert estimate.error <= 1e-8 * estimate.value

    def test_reference_norm_against_1d_radial_oracle(self):
        # centered packet: the angular integral is exactly 4 pi, leaving
        # a 1-D radial integral evaluated at 10x resolution
        f = packet((0.0, 0.0, 0.0), width=1.0, mass=1.0)
        q = ShellQuadrature.for_packets(f)
        value = norm_with_error(f, q).value

        nodes, weights = np.polynomial.legendre.leggauss(10 * q.radial)
        k = 0.5 * (nodes + 1.0) * q.k_max
        wk = 0.5 * q.k_max * weights
        omega = np.sqrt(k * k + 1.0)
        envelope = np.exp(-((omega - 1.0) ** 2 + k * k))
        oracle = float(np.sum(wk * k * k / (2 * omega) * envelope)
                       * 4 * math.pi / (2 * math.pi) ** 3)
        assert value == pytest.approx(oracle, rel=1e-8)


class TestNormalize:
    def test_reaches_unit_norm(self):
        rng = np.random.default_rng(107)
        for _ in range(5):
            f = random_packet(rng)
            q = ShellQuadrature.for_packets(f, **FAST)
            unit = normalize(f, q)
            assert abs(norm_with_error(unit, q).value - 1.0) <= 1e-10

    def test_idempotent(self):
        f = packet((0.5, 0.0, 0.1))
        q = ShellQuadrature.for_packets(f, **FAST)
        once = normalize(f, q)
        twice = normalize(once, q)
        assert abs(twice.amplitude - once.amplitude) <= 1e-12 * abs(once.amplitude)

    def test_scale_invariant_up_to_phase(self):
        f = packet((0.3, -0.4, 0.0))
        q = ShellQuadrature.for_packets(f, **FAST)
        c = 2.5 * np.exp(0.74j)
        rescaled = normalize(f.scaled(c), q)
        reference = normalize(f, q)
        phase = c / abs(c)
        assert abs(rescaled.amplitude - reference.amplitude * phase) <= 1e-12

    def test_degenerate_norm_rejected(self):
        f = packet((0, 0, 0), amplitude=0.0)
        q = ShellQuadrature.for_packets(f, **FAST)
        with pytest.raises(DomainError, match="norm is degenerate"):
            normalize(f, q)


class TestSigmaChsh:
    def _orthonormal_pair(self):
        offset = 4 * ROOT2
        f = packet((0, 0, offset))
        g = packet((0, 0, -offset))
        q = ShellQuadrature.for_packets(f, g, radial=96)
        f = f.scaled(1.0 / math.sqrt(shell_inner_product(f, f, q).real))
        g = g.scaled(1.0 / math.sqrt(shell_inner_product(g, g, q).real))
        return f, g, q

    def test_window_endpoint(self):
        f, g, q = self._orthonormal_pair()
        value = sigma_chsh(ROOT2 - 1.0, fock.MAX_VIOLATION_ANGLES, f, g, q)
        assert abs(value - 2.0) <= 1e-12

    def test_limit_toward_unit_squeezing(self):
        f, g, q = self._orthonormal_pair()
        value = sigma_chsh(1.0 - 1e-9, fock.MAX_VIOLATION_ANGLES, f, g, q)
        assert abs(value - 2 * ROOT2) <= 1e-12

    def test_intermediate_prefactor_value(self):
        f, g, q = self._orthonormal_pair()
        value = sigma_chsh(0.6, fock.MAX_VIOLATION_ANGLES, f, g, q)
        assert abs(value - 2 * ROOT2 * 2 * 0.6 / 1.36) <= 1e-14

    def test_coincides_with_oscillator_closed_form(self):
        rng = np.random.default_rng(109)
        f, g, q = self._orthonormal_pair()
        for _ in range(10):
            sigma = float(rng.uniform(0.05, 0.95))
            angles = AngleSet(*rng.uniform(-math.pi, math.pi, 4))
            assert sigma_chsh(sigma, angles, f, g, q) == fock.chsh_closed(sigma, angles)

    def test_rejects_unnormalized_packet(self):
        f, g, q = self._orthonormal_pair()
        with pytest.raises(DomainError, match=re.escape("| ||f|| - 1 |")):
            sigma_chsh(0.5, fock.MAX_VIOLATION_ANGLES, f.scaled(1.1), g, q)

    def test_rejects_overlapping_packets(self):
        f = packet((0, 0, 0.2))
        g = packet((0, 0, -0.2))
        q = ShellQuadrature.for_packets(f, g, **FAST)
        f, g = normalize(f, q), normalize(g, q)
        with pytest.raises(DomainError, match=re.escape("|<f|g>| / (||f|| ||g||)")):
            sigma_chsh(0.5, fock.MAX_VIOLATION_ANGLES, f, g, q)

    def test_sigma_domain(self):
        f, g, q = self._orthonormal_pair()
        with pytest.raises(DomainError):
            sigma_chsh(1.0, fock.MAX_VIOLATION_ANGLES, f, g, q)
