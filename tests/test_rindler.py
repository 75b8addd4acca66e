import collections.abc
import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from bellchsh import (
    ClosedFormCorrelator,
    DomainError,
    RindlerModeSet,
    TSIRELSON_BOUND,
    rindler_chsh,
    tau,
    temperature_scan,
    unruh_temperature,
)
from bellchsh import fock, rindler
from bellchsh.rindler import ScanRow

from helpers import acceleration_squeezing, tau_exponential_form, tau_sech_form

TWO_PI = 2.0 * math.pi
ROOT2 = math.sqrt(2.0)


class TestModeSet:
    def test_frequencies_only(self):
        modes = RindlerModeSet((1, 2.5))
        assert modes.frequencies == (1.0, 2.5)
        assert [f.name for f in dataclasses.fields(modes)] == ["frequencies"]

    @pytest.mark.parametrize("freqs", [(), (0.0,), (-1.0, 2.0), (2.0, 1.0),
                                       (1.0, 1.0)])
    def test_invalid_frequencies(self, freqs):
        with pytest.raises(DomainError):
            RindlerModeSet(freqs)

    @pytest.mark.parametrize("freqs", [(math.nan,), (1.0, math.inf),
                                       (math.nan, 1.0)])
    def test_non_finite_frequencies(self, freqs):
        with pytest.raises(DomainError):
            RindlerModeSet(freqs)

    @pytest.mark.parametrize("freqs,named", [
        (tuple(range(15_000, 0, -1)), "got 14999.0 at index 1 of 15000"),
        ((*range(1, 15_000), -1.0), "got -1.0 at index 14999 of 15000"),
        ((1.0, math.nan, 0.5), "got nan at index 1 of 3"),
    ], ids=["descending", "negative-last", "nan"])
    def test_message_names_count_and_first_offender(self, freqs, named):
        with pytest.raises(DomainError, match=re.escape(named)) as raised:
            RindlerModeSet(freqs)
        assert len(str(raised.value)) < 1000


class TestUnruhTemperature:
    def test_definition(self):
        assert unruh_temperature(TWO_PI) == pytest.approx(1.0, abs=1e-15)

    def test_unit_acceleration(self):
        assert unruh_temperature(1.0) == pytest.approx(0.15915494309189535,
                                                       abs=1e-15)

    def test_linear_in_acceleration(self):
        assert unruh_temperature(2.6) == pytest.approx(2 * unruh_temperature(1.3),
                                                       abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            unruh_temperature(0.0)

    @pytest.mark.parametrize("acceleration", [math.inf, math.nan])
    def test_non_finite_acceleration(self, acceleration):
        with pytest.raises(DomainError, match="positive and finite"):
            unruh_temperature(acceleration)


class TestModeSqueezing:
    """A mode's squeezing at acceleration a is exp(-pi omega / a): tau at
    T = unruh_temperature(a) against the acceleration-form oracle."""

    @staticmethod
    def single_mode_tau(omega, acceleration):
        return tau(RindlerModeSet((omega,)), unruh_temperature(acceleration))

    def test_high_frequency_limit(self):
        # exp(-pi * 1e4) underflows to 0.0, and so does the mode's term
        assert acceleration_squeezing(1e4, 1.0) == 0.0
        assert self.single_mode_tau(1e4, 1.0) == 0.0

    def test_reference_value(self):
        # omega = a: exp(-pi)
        eta = acceleration_squeezing(2.5, 2.5)
        assert eta == pytest.approx(0.04321391826377224, abs=1e-16)
        assert self.single_mode_tau(2.5, 2.5) == pytest.approx(
            2 * eta / (1 + eta * eta), abs=1e-16)

    def test_in_unit_interval(self):
        # ratios kept below the exp(-pi w/a) underflow threshold
        rng = np.random.default_rng(113)
        for _ in range(50):
            ratio = float(rng.uniform(0.01, 100.0))
            assert 0.0 < acceleration_squeezing(ratio, 1.0) < 1.0
            assert 0.0 < self.single_mode_tau(ratio, 1.0) < 1.0

    def test_prefactor_equals_inverse_cosh(self):
        # 2 eta/(1+eta^2) with eta = exp(-pi w/a) is 1/cosh(pi w/a)
        for ratio in np.logspace(-2, 1, 40):
            eta = acceleration_squeezing(ratio, 1.0)
            lhs = 2 * eta / (1 + eta * eta)
            assert abs(lhs - 1.0 / math.cosh(math.pi * ratio)) <= 1e-14
            assert abs(self.single_mode_tau(float(ratio), 1.0) - lhs) <= 1e-14


class TestTau:
    def test_high_temperature_limit(self):
        assert tau(RindlerModeSet((1.0,)), 1e6) == pytest.approx(1.0, abs=1e-10)

    def test_low_temperature_limit(self):
        assert tau(RindlerModeSet((1.0,)), 1e-3) <= 1e-200

    def test_reference_value(self):
        assert tau(RindlerModeSet((1.0,)), 1.0) == pytest.approx(0.886818883970074,
                                                                 abs=1e-15)

    def test_exponential_form_agrees_pointwise(self):
        t = unruh_temperature(1.0)
        for ratio in np.logspace(-2, 1, 60):
            modes = RindlerModeSet((float(ratio),))
            assert abs(tau(modes, t) - tau_exponential_form(modes, t)) <= 1e-14

    def test_additive_over_modes(self):
        t = unruh_temperature(3.0)
        combined = tau(RindlerModeSet((0.5, 1.0, 2.0)), t)
        split = sum(tau(RindlerModeSet((w,)), t) for w in (0.5, 1.0, 2.0))
        assert combined == pytest.approx(split, abs=1e-15)

    def test_underflowed_squeezing_contributes_exactly_zero(self):
        # w / 2T = 1000: eta = exp(-1000) underflows to 0.0, outside the
        # (0, 1) that squeezed_closed_form checks; the pair amplitude is 0
        assert math.exp(-2.0 / (2.0 * 0.001)) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tau(RindlerModeSet((2.0,)), 0.001) == 0.0

    @pytest.mark.parametrize("frequencies,grid", [
        # every row of --modes 0.5,1.0,2.0 --temp-range 0.01:5.0:20000
        # (its reference file keeps every 40th) and of --accel-range 0.1:30:500
        ((0.5, 1.0, 2.0), np.linspace(0.01, 5.0, 20000).tolist()),
        ((1.0,), [unruh_temperature(a) for a in np.linspace(0.1, 30.0, 500).tolist()]),
    ])
    def test_bit_identical_to_inverse_cosh_form(self, frequencies, grid):
        modes = RindlerModeSet(frequencies)
        differ = [t for t in grid if tau(modes, t) != tau_sech_form(modes, t)]
        assert differ == []

    def test_invalid_temperature(self):
        with pytest.raises(DomainError):
            tau(RindlerModeSet((1.0,)), 0.0)
        with pytest.raises(DomainError):
            tau(RindlerModeSet((1.0,)), -1.0)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_non_finite_temperature(self, temperature):
        with pytest.raises(DomainError):
            tau(RindlerModeSet((1.0,)), temperature)


class TestRindlerChsh:
    def test_angles_match_oscillator_choice(self):
        # rindler_chsh = 2 sqrt(2) tau assumes the oscillator's maximal-
        # violation phases saturate the cosine combination at 2 sqrt(2)
        pattern = ClosedFormCorrelator(1.0, (1.0, 1.0, 1.0, -1.0))
        value = pattern.value(fock.MAX_VIOLATION_ANGLES)
        assert value == pytest.approx(TSIRELSON_BOUND, abs=1e-15)

    def test_form_factor_point_nine(self):
        # pick T so that 1/cosh(w/2T) = 0.9, then CHSH = 2 sqrt(2) * 0.9
        x = math.acosh(1.0 / 0.9)
        value = rindler_chsh(RindlerModeSet((1.0,)), 1 / (2 * x))
        assert value == pytest.approx(2 * ROOT2 * 0.9, abs=1e-13)

    def test_single_mode_matches_squeezed_closed_form(self):
        t = unruh_temperature(1.0)
        for ratio in np.logspace(-2, 1, 40):
            modes = RindlerModeSet((float(ratio),))
            eta = acceleration_squeezing(ratio, 1.0)
            osc = fock.chsh_closed(eta, fock.MAX_VIOLATION_ANGLES) if eta > 0 else 0.0
            assert abs(rindler_chsh(modes, t) - osc) <= 1e-12

    def test_zero_temperature_limit(self):
        assert rindler_chsh(RindlerModeSet((1.0,)), unruh_temperature(1e-3)) <= 1e-200


class TestTemperatureScan:
    def test_tau_strictly_increasing_in_temperature(self):
        rows = temperature_scan(RindlerModeSet((1.0,)), np.linspace(0.05, 3.0, 50))
        taus = [r.tau for r in rows]
        assert all(b > a for a, b in zip(taus, taus[1:]))

    def test_tau_decreasing_in_frequency(self):
        t_grid = np.array([0.5])
        values = [list(temperature_scan(RindlerModeSet((w,)), t_grid))[0].tau
                  for w in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_limits(self):
        rows = list(temperature_scan(RindlerModeSet((1.0,)), np.array([1e-4, 1e4])))
        assert rows[0].chsh <= 1e-100
        assert abs(rows[-1].chsh - 2 * ROOT2) <= 1e-6

    def test_single_mode_never_flagged(self):
        rows = temperature_scan(RindlerModeSet((0.7,)), np.linspace(0.01, 100.0, 60))
        assert not any(r.supra_tsirelson for r in rows)

    def test_multi_mode_flagged_above_unit_tau(self):
        rows = list(temperature_scan(RindlerModeSet((1.0, 1.000001)),
                                     np.linspace(0.1, 50.0, 40)))
        for row in rows:
            assert row.supra_tsirelson == (row.tau > 1.0)
            expected_flag = ScanRow.FLAG_TEXT if row.tau > 1.0 else ""
            assert row.flag == expected_flag
        assert any(r.supra_tsirelson for r in rows)

    def test_flag_is_strictly_above_one(self, monkeypatch):
        # a summed form of exactly 1.0 is the Tsirelson bound itself, not past it
        monkeypatch.setattr(rindler, "_mode_sum", lambda modes, t: t)
        grid = [0.5, 1.0, math.nextafter(1.0, 2.0), 2.0]
        rows = list(temperature_scan(RindlerModeSet((1.0,)), np.array(grid)))
        assert [r.tau for r in rows] == grid
        assert [r.supra_tsirelson for r in rows] == [False, False, True, True]
        assert [r.flag for r in rows] == ["", "", ScanRow.FLAG_TEXT, ScanRow.FLAG_TEXT]

    def test_per_mode_contribution_inside_unit_interval(self):
        rng = np.random.default_rng(127)
        for _ in range(30):
            w = float(rng.uniform(0.05, 5.0))
            t = float(rng.uniform(0.05, 5.0))
            value = tau(RindlerModeSet((w,)), t)
            assert 0.0 < value < 1.0

    def test_grid_validation(self):
        # each refused grid raises when the scan is called, before a row is
        # drawn: the size, then the ascent, then the first T and the last
        modes = RindlerModeSet((1.0,))
        for grid, message in (
                (np.array([]), "t_grid must be a non-empty 1-D ndarray"),
                (np.array([0.0, 1.0]), "temperature must be positive and finite, got 0.0"),
                (np.array([1.0, 0.5]), "temperature grid must be strictly ascending"),
                (np.array([0.5, 1.0, 1.0, 2.0]), "temperature grid must be strictly ascending"),
                (np.array([0.5, math.nan, 2.0]), "temperature grid must be strictly ascending"),
                (np.array([-1.0, 0.0, 1.0]), "temperature must be positive and finite, got -1.0"),
                (np.array([math.nan]), "temperature must be positive and finite, got nan"),
                (np.array([1.0, math.inf]), "temperature must be positive and finite, got inf"),
                (np.array([-1, 2]), "temperature must be positive and finite, got -1.0")):
            with pytest.raises(DomainError, match=re.escape(message)):
                temperature_scan(modes, grid)

    @pytest.mark.parametrize("grid", [
        [0.5, 1.0], (0.5, 1.0), 1.0, np.array(1.0), np.array([[0.5, 1.0]]),
        np.array([[0.5], [1.0]]), np.array([0.5, 1.0], dtype=complex),
        np.array([True, False]), np.array([0.5, 1.0], dtype=object), "0.5",
    ], ids=["list", "tuple", "float", "0-d", "row", "column", "complex", "bool", "object",
            "text"])
    def test_grid_that_is_no_real_vector_refused_unread(self, grid):
        # named as t_grid, before any entry is compared or converted
        with pytest.raises(DomainError, match="^t_grid must be a non-empty 1-D ndarray of "
                                              "integers or floats, got ") as raised:
            temperature_scan(RindlerModeSet((1.0,)), grid)
        assert raised.value.argument == "t_grid"

    def test_integer_grid_rows_read_each_t_as_a_float(self):
        rows = list(temperature_scan(RindlerModeSet((1.0,)), np.arange(1, 4, dtype=np.int32)))
        assert [r.temperature for r in rows] == [1.0, 2.0, 3.0]
        assert all(type(r.temperature) is float for r in rows)
        assert [r.tau for r in rows] == [tau(RindlerModeSet((1.0,)), t) for t in (1, 2, 3)]

    def test_rows_drawn_one_at_a_time_hold_no_list(self):
        # a list of the 20,000 rows held ~3.4 MB, and a tuple copy of the
        # grid ~0.67 MB; read in place and drawn from an iterator, the grid
        # is held once, by the caller, and the scan takes ~21 kB
        modes = RindlerModeSet((1.0,))
        grid = np.linspace(0.01, 5.0, 20_000)
        tracemalloc.start()
        try:
            scan = temperature_scan(modes, grid)
            drawn = 0
            for _ in scan:
                drawn += 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert isinstance(scan, collections.abc.Iterator)
        assert drawn == 20_000

    @pytest.mark.parametrize("frequencies,grid", [
        # the rindler-scan default and the three-mode long scan
        ((1.0,), np.linspace(0.02, 2.0, 50)),
        ((0.5, 1.0, 2.0), np.linspace(0.01, 5.0, 20000)),
    ])
    def test_each_row_evaluated_at_its_own_temperature(self, frequencies, grid):
        modes = RindlerModeSet(frequencies)
        rows = list(temperature_scan(modes, grid))
        assert [r.temperature for r in rows] == grid.tolist()
        for row in rows:
            assert row.tau == tau(modes, row.temperature)
            assert row.chsh == TSIRELSON_BOUND * row.tau


def matrix_chsh(frequencies, temperature):
    """Independent matrix route: each mode is a two-mode squeezed state with
    eta = exp(-w / 2T), evaluated by ``fock.chsh_matrix`` on the smallest
    even cutoff (at least 4) whose truncated weight eta**(2N) is <= 1e-13.
    Returns the summed value and the largest cutoff used."""
    total, largest = 0.0, 0
    for w in frequencies:
        eta = math.exp(-w / (2.0 * temperature))
        cutoff = 4
        while eta ** (2 * cutoff) > 1e-13:
            cutoff += 2
        largest = max(largest, cutoff)
        total += fock.chsh_matrix(eta, fock.FockSpace(cutoff), fock.MAX_VIOLATION_ANGLES)
    return total, largest


class TestMatrixRoute:
    """Scan rows against the truncated Fock-space matrices, not a closed form."""

    @pytest.mark.parametrize("frequencies,grid,rows,largest_cutoff", [
        # every row of the rindler-scan default grid
        ((1.0,), np.linspace(0.02, 2.0, 50), range(50), 60),
        # --modes 0.5,1.0,2.0 --temp-range 0.01:5.0:20000: every 10th
        # row and the hottest
        ((0.5, 1.0, 2.0), np.linspace(0.01, 5.0, 20000),
         [*range(0, 20000, 10), 19999], 300),
    ])
    def test_rows_match_matrix_chsh(self, frequencies, grid, rows, largest_cutoff):
        scan = list(temperature_scan(RindlerModeSet(frequencies), grid))
        cutoffs = []
        for i in rows:
            value, cutoff = matrix_chsh(frequencies, scan[i].temperature)
            assert abs(scan[i].chsh - value) <= 1e-14, scan[i]
            cutoffs.append(cutoff)
        assert max(cutoffs) == largest_cutoff
