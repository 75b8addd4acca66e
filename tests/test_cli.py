import csv
import dataclasses
import io
import json
import math
import re
import warnings

import pytest

from bellchsh import MAX_MOMENTUM, fock, spin
from bellchsh.cli import MAX_STEPS, main, parse_angle, parse_angles
from bellchsh.errors import DomainError

ROOT2 = math.sqrt(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def kv(text):
    return {row["quantity"]: row["value"] for row in csv_rows(text)}


class TestAngleParsing:
    @pytest.mark.parametrize("token,expected", [
        ("pi", math.pi),
        ("-pi/4", -math.pi / 4),
        ("3pi/4", 3 * math.pi / 4),
        ("2*pi/3", 2 * math.pi / 3),
        ("0.25", 0.25),
        ("-1.5", -1.5),
    ])
    def test_tokens(self, token, expected):
        assert parse_angle(token) == pytest.approx(expected, abs=1e-15)

    def test_bad_token(self):
        with pytest.raises(DomainError, match="cannot parse angle 'pie'"):
            parse_angle("pie")
        with pytest.raises(DomainError, match="--angles needs 4"):
            parse_angles("1,2,3")

    @pytest.mark.parametrize("token", ["pi/0", "3pi/0.", "-2*pi/0.0"])
    def test_zero_denominator_rejected(self, token):
        with pytest.raises(DomainError, match=re.escape(f"angle {token!r} divides by zero")):
            parse_angle(token)


class TestSpin:
    def test_default_reproduces_reference_values(self, capsys):
        code, out, _ = run(capsys, "spin")
        assert code == 0
        values = kv(out)
        assert float(values["spin_one_abs_chsh"]) == pytest.approx(2.27614, abs=5e-6)
        assert float(values["spin_half_abs_chsh"]) == pytest.approx(2.82843, abs=5e-6)
        assert float(values["spin_one_validation_passed"]) == 1
        assert float(values["spin_one_closed_form_optimum"]) >= 2.27614

    def test_zero_angles_override(self, capsys):
        code, out, _ = run(capsys, "spin", "--angles", "0,0,0,0")
        assert code == 0
        assert float(kv(out)["spin_one_chsh_closed"]) == pytest.approx(-2.0 / 3.0,
                                                                       abs=1e-12)

    def test_pi_literal_angles(self, capsys):
        code, out, _ = run(capsys, "spin", "--angles", "pi/2,0,3pi/4,0")
        assert code == 0
        assert float(kv(out)["spin_one_chsh_closed"]) == pytest.approx(
            2 * (2 + ROOT2) / 3, abs=1e-12)

    @pytest.fixture
    def corrupt_phase(self, monkeypatch):
        """A non-unitary A1 flip: breaks the involution, keeps hermiticity."""
        build = spin.spin_quadruple

        def corrupted(kind, angles):
            quadruple = build(kind, angles)
            return dataclasses.replace(quadruple, a1=quadruple.a1 * 1.01)

        monkeypatch.setattr(spin, "spin_quadruple", corrupted)

    def test_corrupted_phase_fails_with_diagnostics(self, capsys, corrupt_phase):
        code, out, err = run(capsys, "spin")
        assert code == 3
        assert "validation" in err
        assert float(kv(out)["spin_one_validation_passed"]) == 0

    def test_corrupted_phase_is_a_precision_failure(self, capsys, corrupt_phase):
        code, out, err = run(capsys, "spin")
        assert code == 3
        assert err.startswith("precision failure: ")
        assert len(err.strip().splitlines()) == 1
        assert out.startswith("quantity,value\n")


class TestSqueezeScan:
    def test_default_scan_crosses_classical_bound(self, capsys):
        code, out, _ = run(capsys, "squeeze-scan", "--cutoff", "16")
        assert code == 0
        rows = csv_rows(out)
        notes = [r["note"] for r in rows]
        assert "window-lower-endpoint" in notes
        assert "window-upper-endpoint-limit" in notes
        endpoint = rows[notes.index("window-lower-endpoint")]
        assert float(endpoint["eta"]) == pytest.approx(ROOT2 - 1, abs=1e-12)
        assert float(endpoint["chsh_closed"]) == pytest.approx(2.0, abs=1e-12)
        numeric = [r for r in rows if r["note"] == ""]
        below = [r for r in numeric if float(r["eta"]) < ROOT2 - 1]
        above = [r for r in numeric if ROOT2 - 1 < float(r["eta"]) < 1.0]
        assert below and all(float(r["chsh_closed"]) < 2.0 for r in below)
        assert above and all(float(r["chsh_closed"]) > 2.0 for r in above)

    def test_difference_column_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "squeeze-scan", "--cutoff", "12",
                           "--eta-range", "0.2:0.8:4")
        assert code == 0
        for row in csv_rows(out):
            if row["abs_difference"] == "":
                continue
            eta = float(row["eta"])
            assert float(row["abs_difference"]) <= max(1e-8, 20.0 * eta ** 24)

    def test_disagreement_is_a_precision_failure(self, capsys, monkeypatch):
        matrix = fock.chsh_matrix
        monkeypatch.setattr(fock, "chsh_matrix",
                            lambda eta, space, angles: matrix(eta, space, angles) + 1e-6)
        code, out, err = run(capsys, "squeeze-scan", "--cutoff", "12",
                             "--eta-range", "0.2:0.8:4")
        assert code == 3
        assert err.startswith("precision failure: ")
        assert len(csv_rows(out)) == 6

    def test_zero_eta_rejected(self, capsys):
        code, _, err = run(capsys, "squeeze-scan", "--eta-range", "0:0.9:5")
        assert code == 2
        assert "configuration error" in err

    def test_odd_cutoff_rejected(self, capsys):
        code, _, _ = run(capsys, "squeeze-scan", "--cutoff", "9")
        assert code == 2

    def test_huge_cutoff_rejected_before_allocation(self, capsys):
        code, out, err = run(capsys, "squeeze-scan", "--cutoff", "1000000000")
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("squeeze-scan", "--angles", "nan,0,0,0"),
        ("spin", "--angles", "0,inf,0,0"),
        ("squeeze-scan", "--angles", "pi/0,0,0,0"),
    ])
    def test_non_finite_angles_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "squeeze-scan", "--cutoff", "8",
                           "--eta-range", "0.3:0.6:2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["fields"] == ["eta", "chsh_closed", "chsh_matrix",
                                     "abs_difference", "note"]
        assert any(r["note"] == "window-lower-endpoint" for r in payload["rows"])

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "squeeze-scan", "--cutoff", "8")
        _, second, _ = run(capsys, "squeeze-scan", "--cutoff", "8")
        assert first == second


class TestOptimize:
    def test_squeezed_form_reaches_analytic_maximum(self, capsys):
        code, out, _ = run(capsys, "optimize", "--eta", "0.7")
        assert code == 0
        best = float(kv(out)["optimum"])
        assert best == pytest.approx(2 * ROOT2 * 2 * 0.7 / 1.49, abs=1e-6)

    def test_spin_one_form(self, capsys):
        code, out, _ = run(capsys, "optimize", "--closed-form", "spin-one")
        assert code == 0
        assert float(kv(out)["optimum"]) == pytest.approx(
            (2.0 / 3.0) * (1 + 2 * ROOT2), abs=1e-6)

    def test_eta_domain(self, capsys):
        code, _, _ = run(capsys, "optimize", "--eta", "1.0")
        assert code == 2


class TestKgNorm:
    QUAD = ("--quad", "48")

    def test_amplitude_scaling(self, capsys):
        _, base, _ = run(capsys, "kg-norm", *self.QUAD)
        _, doubled, _ = run(capsys, "kg-norm", *self.QUAD, "--amplitude", "2.0")
        ratio = float(kv(doubled)["norm_sq"]) / float(kv(base)["norm_sq"])
        assert ratio == pytest.approx(4.0, rel=1e-12)

    def test_normalize_recheck(self, capsys):
        code, out, _ = run(capsys, "kg-norm", "--quad", "64", "--normalize")
        assert code == 0
        assert float(kv(out)["normalized_norm_sq"]) == pytest.approx(1.0, abs=1e-10)

    def test_resolution_doubling_below_tolerance(self, capsys):
        _, coarse, _ = run(capsys, "kg-norm", "--quad", "64")
        _, fine, _ = run(capsys, "kg-norm", "--quad", "128")
        delta = abs(float(kv(coarse)["norm_sq"]) - float(kv(fine)["norm_sq"]))
        assert delta <= 1e-9
        assert float(kv(coarse)["error_estimate"]) <= 1e-9

    def test_bad_width_rejected(self, capsys):
        code, _, _ = run(capsys, "kg-norm", "--width", "0.0")
        assert code == 2

    @pytest.mark.parametrize("width", ["1e-300", "1e300"])
    def test_width_with_degenerate_square_rejected(self, capsys, width):
        # width**2 underflows to 0 or overflows
        code, out, err = run(capsys, "kg-norm", "--width", width)
        assert code == 2
        assert out == ""
        assert "width" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag,value", [
        ("--mass", "nan"),
        ("--width", "inf"),
        ("--center", "nan,0,0"),
        ("--center-energy", "inf"),
        ("--tol", "nan"),
        ("--amplitude", "nan"),
    ])
    def test_non_finite_input_rejected(self, capsys, flag, value):
        code, out, err = run(capsys, "kg-norm", flag, value)
        assert code == 2
        assert out == ""
        assert flag in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [
        ("--center-energy", "1e200"),  # (omega - c0)**2 overflowed
        ("--width", "1e-160"),  # the tail bound was nan
        ("--mass", "1e200"),  # the on-shell energy overflowed to inf
        ("--center", "1e160,0,0"),
        ("--amplitude", "1e200"),  # the tail bound was inf, exit 3
    ])
    def test_out_of_domain_flag_named_without_warning(self, capsys, flag, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "kg-norm", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error: ") and flag in err
        assert len(err.strip().splitlines()) == 1
        assert "nan" not in err and "inf" not in err

    def test_domain_corners_stay_finite(self, capsys):
        # every flag at the edge of the packet domain: finite numbers or a
        # certificate failure, never an overflow
        bound = MAX_MOMENTUM
        for argv in (["--width", repr(1.0 / bound)], ["--width", repr(bound)],
                     ["--mass", repr(bound), "--center", f"{bound},{-bound},{bound}"],
                     [f"--center-energy={-2.0 * bound}", "--width", repr(bound)],
                     [f"--amplitude={-bound}"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, out, err = run(capsys, "kg-norm", *argv)
            assert code in (0, 2, 3), argv
            assert "nan" not in out + err, argv

    def test_huge_radial_count_rejected_before_allocation(self, capsys):
        # test_norm doubles RADIAL, so the flag allows half of MAX_RADIAL
        for radial in ("100000000", "4000", "2049"):
            code, out, err = run(capsys, "kg-norm", "--quad", radial)
            assert code == 2
            assert out == ""
            assert "--quad radial" in err and "<= 2048" in err
            assert f"got {radial}" in err and "Traceback" not in err

    @pytest.mark.parametrize("quad", ["128,32", "48,2", "128,"])
    def test_angular_count_removed(self, capsys, quad):
        code, out, err = run(capsys, "kg-norm", "--quad", quad)
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error: --quad takes RADIAL only")
        assert "ANGULAR count was removed" in err and "closed form" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("amplitude", ["1e17", "1e18"])
    def test_normalize_at_large_amplitude(self, capsys, amplitude):
        # the tail certificate is relative to the amplitudes
        code, out, err = run(capsys, "kg-norm", "--amplitude", amplitude, "--normalize")
        assert code == 0, err
        assert float(kv(out)["normalized_norm_sq"]) == pytest.approx(1.0, abs=1e-10)

    def test_zero_amplitude_is_degenerate(self, capsys):
        code, out, err = run(capsys, "kg-norm", "--amplitude", "0")
        assert code == 2
        assert out == ""
        assert "degenerate" in err and len(err.strip().splitlines()) == 1


class TestRindlerScan:
    def test_default_single_mode_sweep(self, capsys):
        code, out, _ = run(capsys, "rindler-scan")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 50
        chsh = [float(r["chsh"]) for r in rows]
        assert chsh[0] < 0.2
        assert chsh[-1] > 2.4
        assert all(b > a for a, b in zip(chsh, chsh[1:]))
        assert all(r["flag"] == "" for r in rows)

    def test_reference_row(self, capsys):
        code, out, _ = run(capsys, "rindler-scan", "--temp-range", "1:1:1")
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["tau"]) == pytest.approx(0.886818883970074, abs=1e-12)

    def test_two_modes_flag_supra_tsirelson(self, capsys):
        code, out, _ = run(capsys, "rindler-scan", "--modes", "1.0,1.2",
                           "--temp-range", "0.5:40:10")
        assert code == 0
        rows = csv_rows(out)
        flagged = [r for r in rows if r["flag"] != ""]
        assert flagged
        for row in rows:
            assert (row["flag"] != "") == (float(row["tau"]) > 1.0)

    def test_accel_range_equivalent_to_temperature(self, capsys):
        _, via_accel, _ = run(capsys, "rindler-scan", "--accel-range",
                              f"{2 * math.pi}:{4 * math.pi}:3")
        _, via_temp, _ = run(capsys, "rindler-scan", "--temp-range", "1:2:3")
        assert via_accel == via_temp

    def test_non_positive_frequency_rejected(self, capsys):
        code, _, err = run(capsys, "rindler-scan", "--modes", "0.0,1.0")
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("argv", [
        ("rindler-scan", "--temp-range", "nan:1:3"),
        ("rindler-scan", "--temp-range", "0.5:inf:3"),
        ("squeeze-scan", "--eta-range", "nan:0.5:3"),
    ])
    def test_non_finite_range_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert argv[1] in err and "Traceback" not in err

    @pytest.mark.parametrize("steps", [MAX_STEPS + 1, 10**12])
    @pytest.mark.parametrize("argv", [
        ("squeeze-scan", "--eta-range"),
        ("rindler-scan", "--temp-range"),
        ("rindler-scan", "--accel-range"),
    ])
    def test_step_count_bounded_before_allocation(self, capsys, argv, steps):
        code, out, err = run(capsys, *argv, f"0.1:0.9:{steps}")
        assert code == 2
        assert out == ""
        assert argv[1] in err and f"at most {MAX_STEPS}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("modes", ["nan", "1,inf"])
    def test_non_finite_frequency_rejected(self, capsys, modes):
        code, out, err = run(capsys, "rindler-scan", "--modes", modes)
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "Traceback" not in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "rindler-scan", "--temp-range", "0.5:1.5:3",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["fields"] == ["T", "tau", "chsh", "flag"]
        assert len(payload["rows"]) == 3


class TestOutputHandling:
    def test_out_file_with_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BELLCHSH_OUT_DIR", str(tmp_path))
        code = main(["rindler-scan", "--temp-range", "0.5:1.5:3",
                     "--out", "scan.csv"])
        assert code == 0
        written = (tmp_path / "scan.csv").read_text()
        assert written.startswith("T,tau,chsh,flag")

    def test_absolute_out_ignores_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BELLCHSH_OUT_DIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        code = main(["rindler-scan", "--temp-range", "0.5:1.5:3",
                     "--out", str(target)])
        assert code == 0
        assert target.exists()

    @pytest.mark.parametrize("where", ["missing-dir", "directory", "missing-env-dir"])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, monkeypatch, where):
        out = {"missing-dir": str(tmp_path / "missing" / "x.csv"),
               "directory": str(tmp_path),
               "missing-env-dir": "x.csv"}[where]
        monkeypatch.setenv("BELLCHSH_OUT_DIR", str(tmp_path / "missing"))
        code, stdout, err = run(capsys, "spin", "--out", out)
        assert code == 2
        assert stdout == ""
        assert err.startswith("configuration error: cannot write --out ")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_option_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["spin", "--no-such-flag"])
        assert info.value.code == 2

    def test_debug_corrupt_phase_flag_removed(self):
        with pytest.raises(SystemExit) as info:
            main(["spin", "--debug-corrupt-phase"])
        assert info.value.code == 2

    def test_seventeen_significant_digits(self, capsys):
        _, out, _ = run(capsys, "rindler-scan", "--temp-range", "1:1:1")
        row = csv_rows(out)[0]
        # 17 significant digits round-trip the double exactly
        assert format(float(row["tau"]), ".17g") == row["tau"]
        assert float(row["tau"]) == pytest.approx(1.0 / math.cosh(0.5), abs=1e-15)
