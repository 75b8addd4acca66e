import collections.abc
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from bellchsh import MAX_MOMENTUM, cli, fock, kleingordon, rindler, spin
from bellchsh.cli import MAX_STEPS, main, parse_angle, parse_angles
from bellchsh.errors import DomainError
from cli_contract import FRESH_ENV

ROOT2 = math.sqrt(2.0)
LONG = "x" * 5000


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(stdout, *argv):
    """Run ``python -m bellchsh *argv`` in a child process writing to
    ``stdout``, or with fd 1 closed by the shell's ``>&-`` when ``stdout``
    is None, under the suite's warning filters; return its exit code and
    stderr bytes."""
    command = [sys.executable, "-m", "bellchsh", *argv]
    if stdout is None:
        command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
    done = subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, env=FRESH_ENV,
                          timeout=60)
    return done.returncode, done.stderr


def assert_one_stdout_refusal(code, err):
    """Exit 2 with one short stderr line, not a traceback."""
    assert code == 2, err[-2000:]
    assert err.startswith(b"configuration error: cannot write stdout: "), err[-2000:]
    assert len(err.splitlines()) == 1 and len(err) < 1000


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

    def test_failed_check_with_unwritable_out_exits_two(self, capsys, tmp_path,
                                                        corrupt_phase):
        # the rows are written before the check's verdict: an --out that
        # cannot be written is the configuration error that ends the run
        code, out, err = run(capsys, "spin", "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error: cannot write --out ")
        assert len(err.strip().splitlines()) == 1


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

    def test_closed_form_once_per_matrix_row(self, capsys, monkeypatch):
        # the window endpoint is a constant: no bisection at run time
        calls = []
        closed = fock.chsh_closed
        monkeypatch.setattr(fock, "chsh_closed",
                            lambda eta, angles: calls.append(eta) or closed(eta, angles))
        code, out, _ = run(capsys, "squeeze-scan")
        assert code == 0
        matrix_rows = [r for r in csv_rows(out) if r["chsh_matrix"] != ""]
        assert len(calls) == len(matrix_rows) == 10
        assert all(math.isfinite(float(r["chsh_matrix"])) for r in matrix_rows)

    def test_difference_column_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "squeeze-scan", "--cutoff", "12",
                           "--eta-range", "0.2:0.8:4")
        assert code == 0
        for row in csv_rows(out):
            if row["abs_difference"] == "":
                continue
            eta = float(row["eta"])
            assert float(row["abs_difference"]) <= max(1e-8, 20.0 * eta ** 24)

    def test_disagreement_is_a_precision_failure(self, capsys, monkeypatch, tmp_path):
        matrix = fock.chsh_matrix
        monkeypatch.setattr(fock, "chsh_matrix",
                            lambda eta, space, angles: matrix(eta, space, angles) + 1e-6)
        code, out, err = run(capsys, "squeeze-scan", "--cutoff", "12",
                             "--eta-range", "0.2:0.8:4")
        assert code == 3
        assert err.startswith("precision failure: ")
        assert len(csv_rows(out)) == 6
        code, out, err = run(capsys, "squeeze-scan", "--cutoff", "12",
                             "--eta-range", "0.2:0.8:4",
                             "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error: cannot write --out ")

    @pytest.mark.parametrize("shift,code,fmt", [
        (5e-9, 0, "csv"), (5e-8, 3, "csv"), (5e-9, 0, "json"), (5e-8, 3, "json"),
    ], ids=["5e-09-0", "5e-08-3", "5e-09-0-json", "5e-08-3-json"])
    def test_tolerance_floor_is_1e_8(self, monkeypatch, shift, code, fmt):
        # at the default cutoff 40, every eta of the scan below ~0.76 is held
        # to the floor alone: 5e-9 passes it, 5e-8 fails it; a failed scan
        # writes its whole table, then the one stderr line
        matrix = fock.chsh_matrix
        monkeypatch.setattr(fock, "chsh_matrix",
                            lambda eta, space, angles: matrix(eta, space, angles) + shift)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            got = main(["squeeze-scan", "--format", fmt])
        line = ("" if code == 0 else "precision failure: closed form and matrix "
                "value disagree beyond tolerance\n")
        text = sink.getvalue()
        assert got == code
        assert text.endswith(line)
        table = text[:len(text) - len(line)]
        assert len(csv_rows(table) if fmt == "csv" else json.loads(table)["rows"]) == 11

    def test_grid_point_on_the_window_endpoint_comes_first(self, capsys):
        # a tie keeps the order sorting the (eta, note) pairs gave
        eta = repr(fock.VIOLATION_WINDOW[0])
        code, out, _ = run(capsys, "squeeze-scan", "--eta-range", f"{eta}:{eta}:1")
        assert code == 0
        assert [(r["eta"], r["note"]) for r in csv_rows(out)] == [
            (eta, ""), (eta, "window-lower-endpoint"), ("1", "window-upper-endpoint-limit")]

    def test_rows_drawn_one_at_a_time_hold_no_list(self):
        # a list of the 10,002 row dicts takes ~3.6 MB under tracemalloc;
        # drawn from an iterator, only the grid and the current row are held
        args = cli.build_parser().parse_args(["squeeze-scan", "--eta-range", "0.01:0.99:10000"])
        tracemalloc.start()
        try:
            _, rows, verdict = args.handler(args)
            drawn = 0
            for _ in rows:
                drawn += 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert isinstance(rows, collections.abc.Iterator)
        assert drawn == 10_002 and verdict() is None

    def test_zero_eta_rejected(self, capsys):
        code, _, err = run(capsys, "squeeze-scan", "--eta-range", "0:0.9:5")
        assert code == 2
        assert "configuration error" in err

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

    @pytest.mark.parametrize("argv", [("optimize",), ("optimize", "--closed-form", "spin-one"),
                                      ("spin",)], ids=["squeezed", "spin-one", "spin"])
    def test_built_flips_leave_the_printed_phases_alone(self, capsys, monkeypatch, argv):
        # the phases are printed from the four fields, not from the object's dict
        plain = run(capsys, *argv)
        optimize = cli.optimize_angles

        def with_built_flips(form):
            angles, best = optimize(form)
            angles.pair_kernel, angles.pair_cosines
            return angles, best

        monkeypatch.setattr(cli, "optimize_angles", with_built_flips)
        assert run(capsys, *argv) == plain


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

    @pytest.mark.parametrize("extra", [[], ["--normalize"]])
    def test_tiny_amplitude_is_degenerate(self, capsys, extra):
        # norm_sq ~ 6e-83 lies below kleingordon.MIN_NORM_SQ, the one
        # threshold of kg-norm and normalize
        code, out, err = run(capsys, "kg-norm", "--amplitude", "1e-40", *extra)
        assert code == 2
        assert out == ""
        assert "degenerate" in err and len(err.strip().splitlines()) == 1

    def test_refused_allocation_is_one_line(self, capsys, monkeypatch):
        def refuse(packet, quad):
            raise MemoryError

        monkeypatch.setattr(kleingordon, "test_norm", refuse)
        assert run(capsys, "kg-norm") == (2, "", "configuration error: not enough memory\n")

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the child's address space in /proc")
    def test_address_space_limit_exits_two(self):
        # the child may map 16 MiB beyond what importing the CLI maps, less
        # than leggauss(2048)'s 32 MiB companion matrix
        import resource

        probe = subprocess.run(
            [sys.executable, "-c", "import re, bellchsh.cli; print(re.search("
             "r'VmPeak:\\s*(\\d+) kB', open('/proc/self/status').read())[1])"],
            capture_output=True, text=True, env=FRESH_ENV, timeout=60, check=True)
        limit = (int(probe.stdout) + 16 * 1024) * 1024
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        done = subprocess.run(
            [sys.executable, "-m", "bellchsh", "kg-norm", "--quad", "2048"],
            capture_output=True, env=FRESH_ENV, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)))
        assert (done.returncode, done.stdout) == (2, b""), done.stderr[-2000:]
        assert done.stderr.startswith(b"configuration error: not enough memory")
        assert done.stderr.count(b"\n") == 1 and len(done.stderr) < 1000


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

    def test_accel_range_holds_its_grid_as_two_arrays(self):
        # the accelerations and their temperatures, 160 kB each, read in
        # place: a peak of ~0.37-0.53 MB; a list of either, or a tuple
        # copy in the scan, took it to ~1.3-1.5 MB
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["rindler-scan", "--accel-range", "0.1:30:20000"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 800_000

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

    @pytest.mark.parametrize("command,flag", [
        ("rindler-scan", "--temp-range"),
        ("squeeze-scan", "--eta-range"),
    ])
    def test_overflowing_range_span_rejected_without_warning(self, capsys, command, flag):
        # finite bounds whose span hi - lo overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, f"{flag}=-1.7e308:1.7e308:3")
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error: ") and flag in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("steps", [100_001, 10**12])  # README's limit, not the constant
    @pytest.mark.parametrize("argv", [
        ("squeeze-scan", "--eta-range"),
        ("rindler-scan", "--temp-range"),
        ("rindler-scan", "--accel-range"),
    ])
    def test_step_count_bounded_before_allocation(self, capsys, argv, steps):
        code, out, err = run(capsys, *argv, f"0.1:0.9:{steps}")
        assert code == 2
        assert out == ""
        assert argv[1] in err and "at most 100000 steps" in err
        assert "Traceback" not in err

    def test_mode_evaluations_bounded_before_the_scan(self, capsys, monkeypatch):
        # 101 modes x 100,000 steps is over 100 * MAX_STEPS evaluations
        def no_scan(*args):
            raise AssertionError("the scan started")

        monkeypatch.setattr(rindler, "temperature_scan", no_scan)
        modes = ",".join(str(w) for w in range(1, 102))
        code, out, err = run(capsys, "rindler-scan", "--modes", modes,
                             "--temp-range", f"0.1:1:{MAX_STEPS}")
        assert code == 2
        assert out == ""
        assert "--modes" in err and "--temp-range" in err
        assert str(cli.MAX_MODE_EVALUATIONS) in err
        assert cli.MAX_MODE_EVALUATIONS == 100 * MAX_STEPS

    @pytest.mark.parametrize("argv", [
        ("squeeze-scan", "--eta-range", "0.1:0.9"),
        ("rindler-scan", "--temp-range", "1:2"),
        ("rindler-scan", "--accel-range", "1:2"),
    ])
    def test_step_bound_is_inclusive(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "MAX_STEPS", 3)
        *command, span = argv
        code, out, _ = run(capsys, *command, f"{span}:3")
        assert code == 0 and out
        code, out, err = run(capsys, *command, f"{span}:4")
        assert code == 2 and out == ""
        assert "at most 3 steps" in err

    @pytest.mark.parametrize("flag", ["--temp-range", "--accel-range"])
    def test_mode_evaluation_bound_is_inclusive(self, capsys, monkeypatch, flag):
        monkeypatch.setattr(cli, "MAX_MODE_EVALUATIONS", 6)
        code, out, _ = run(capsys, "rindler-scan", "--modes", "1,2", flag, "1:2:3")
        assert code == 0 and len(csv_rows(out)) == 3
        code, out, err = run(capsys, "rindler-scan", "--modes", "1,2", flag, "1:2:4")
        assert code == 2 and out == ""
        assert "--modes" in err and flag in err

    def test_underflowed_squeezing_gives_zero_row(self, capsys):
        # w / 2T = 1000 at T = 0.001: exp(-1000) underflows to eta = 0
        code, out, err = run(capsys, "rindler-scan", "--modes", "2",
                             "--temp-range", "0.001:0.01:4")
        assert code == 0 and err == ""
        assert out.splitlines()[1] == "0.001,0,0,"

    def test_zero_acceleration_named(self, capsys):
        code, out, err = run(capsys, "rindler-scan", "--accel-range", "0:1:3")
        assert code == 2 and out == ""
        assert "acceleration must be positive and finite, got 0.0" in err

    @pytest.mark.parametrize("modes", ["nan", "1,inf"])
    def test_non_finite_frequency_rejected(self, capsys, modes):
        code, out, err = run(capsys, "rindler-scan", "--modes", modes)
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "Traceback" not in err

    def test_many_descending_modes_give_one_short_line(self, capsys):
        modes = ",".join(str(w) for w in range(15_000, 0, -1))
        code, out, err = run(capsys, "rindler-scan", "--modes", modes)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and len(err.encode()) < 1000
        assert "strictly ascending, got 14999.0 at index 1 of 15000" in err

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

    @pytest.mark.parametrize("where", ["missing-dir", "directory", "missing-env-dir",
                                       "usual-path", "long-path"])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, monkeypatch, where):
        out = {"missing-dir": str(tmp_path / "missing" / "x.csv"),
               "directory": str(tmp_path),
               "missing-env-dir": "x.csv",
               "usual-path": str(tmp_path / "results" / "run-2026-10-19" / "scan.csv"),
               "long-path": str(tmp_path / ("x" * 5000))}[where]
        monkeypatch.setenv("BELLCHSH_OUT_DIR", str(tmp_path / "missing"))
        code, stdout, err = run(capsys, "spin", "--out", out)
        assert code == 2
        assert stdout == ""
        assert err.startswith("configuration error: cannot write --out ")
        # a usual path is named whole, so the missing directory shows, and
        # a 5,000-character one is abridged
        if where == "usual-path":
            assert f"--out {out!r}: " in err
        assert len(err.strip().splitlines()) == 1 and len(err.encode()) < 1000

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout_exits_two(self):
        with open("/dev/full", "w") as full:
            code, err = run_child(full, "spin")
        assert_one_stdout_refusal(code, err)

    def test_closed_stdout_pipe_exits_two(self):
        # the read end is closed before the child starts, so its first
        # write of the 100,000 rows meets a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, err = run_child(write_end, "rindler-scan", "--temp-range", "0.01:5:100000")
        finally:
            os.close(write_end)
        assert_one_stdout_refusal(code, err)

    @pytest.mark.skipif(shutil.which("sh") is None, reason="no POSIX shell")
    def test_closed_stdout_exits_two(self, tmp_path):
        # with fd 1 closed the child has no sys.stdout at all; --out still
        # writes its file
        code, err = run_child(None, "spin")
        assert_one_stdout_refusal(code, err)
        code, err = run_child(None, "spin", "--out", str(tmp_path / "spin.csv"))
        assert (code, err) == (0, b"")
        assert (tmp_path / "spin.csv").read_text().startswith("quantity,value")

    def test_csv_rows_reach_the_sink_as_they_are_drawn(self):
        sink, seen = io.StringIO(), []

        def rows():
            for i in range(3):
                seen.append(sink.getvalue())  # the sink before row i is made
                yield {"i": i, "note": None}

        with contextlib.redirect_stdout(sink):
            cli.emit("csv", None, ["i", "note"], rows())
        assert seen == ["i,note\n", "i,note\n0,\n", "i,note\n0,\n1,\n"]
        assert sink.getvalue() == "i,note\n0,\n1,\n2,\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_row_generator_and_row_list_give_the_same_bytes(self, fmt):
        args = cli.build_parser().parse_args(["rindler-scan", "--modes", "0.5,2",
                                              "--temp-range", "0.01:5:7"])
        fields, generated, _ = args.handler(args)
        texts = []
        for rows in (generated, list(args.handler(args)[1])):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                cli.emit(fmt, None, fields, rows)
            texts.append(sink.getvalue())
        assert texts[0] == texts[1] and texts[0].count("\n") > 7

    @pytest.mark.parametrize("rows", [
        [],  # no argv reaches an empty table
        [{"a": 1.5, "b": None}],
        [{"a": math.nan, "b": "\u00e9\"x"}, {"a": -math.inf, "b": 2}],
    ], ids=["empty", "one-row", "two-rows"])
    def test_json_is_the_text_json_dumps_writes(self, rows):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            cli.emit("json", None, ["a", "b"], iter(rows))
        assert sink.getvalue() == json.dumps({"fields": ["a", "b"], "rows": rows},
                                             indent=2) + "\n"

    def test_unknown_option_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["spin", "--no-such-flag"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [("optimize", "--eta", LONG), ("kg-norm", "--mass", LONG),
                                      ("squeeze-scan", "--cutoff", LONG),
                                      ("spin", "--format", LONG), (LONG,), ("spin", LONG)])
    def test_usage_error_abridges_long_flag_text(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert err.startswith("usage: bellchsh") and len(err.encode()) < 1000, err[-2000:]
        assert "x...x" in err.splitlines()[-1]
        if argv == (LONG,):  # the choices are still listed
            assert "choose from" in err and "rindler-scan" in err.splitlines()[-1]

    def test_short_usage_error_is_whole(self, capsys):
        with pytest.raises(SystemExit):
            main(["optimize", "--eta", "abc"])
        assert capsys.readouterr().err.splitlines()[-1] == (
            "bellchsh optimize: error: argument --eta: invalid float value: 'abc'")

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


#: One out-of-domain value per flag of ``cli.ARGUMENT_FLAGS``, and the
#: library call that refuses the same value.
FLAGGED_VALUES = {
    "center": (("kg-norm", "--center", "1e60,0,0"),
               lambda: kleingordon.GaussianPacket.on_shell(1.0, (1e60, 0.0, 0.0), 1.0)),
    "center-count": (("kg-norm", "--center", "1,2"),
                     lambda: kleingordon.GaussianPacket.on_shell(1.0, (1.0, 2.0), 1.0)),
    "center-count-with-energy": (
        ("kg-norm", "--center", "1,2", "--center-energy", "3"),
        lambda: kleingordon.GaussianPacket.on_shell(1.0, (1.0, 2.0), 1.0)),
    "center-energy": (("kg-norm", "--center-energy", "1e60"),
                      lambda: kleingordon.GaussianPacket(center=(1e60, 0.0, 0.0, 0.0),
                                                         width=1.0)),
    "mass": (("kg-norm", "--mass", "-1"),
             lambda: kleingordon.GaussianPacket.on_shell(-1.0, (0.0, 0.0, 0.0), 1.0)),
    "width": (("kg-norm", "--width", "0"),
              lambda: kleingordon.GaussianPacket.on_shell(1.0, (0.0, 0.0, 0.0), 0.0)),
    "amplitude": (("kg-norm", "--amplitude", "1e60"),
                  lambda: kleingordon.GaussianPacket.on_shell(1.0, (0.0, 0.0, 0.0), 1.0,
                                                              1e60)),
    "tol": (("kg-norm", "--tol", "nan"),
            lambda: kleingordon.ShellQuadrature(k_max=10.0, tol=math.nan)),
    "eta": (("optimize", "--eta", "1.0"), lambda: fock.squeezed_closed_form(1.0)),
    "cutoff": (("squeeze-scan", "--cutoff", "9"), lambda: fock.FockSpace(9)),
}


@pytest.mark.parametrize("case", sorted(FLAGGED_VALUES))
def test_flag_named_before_the_library_message(capsys, case):
    argv, refuse = FLAGGED_VALUES[case]
    with pytest.raises(DomainError) as raised:
        refuse()
    flag = argv[1]
    assert cli.ARGUMENT_FLAGS[raised.value.argument] == flag
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"configuration error: {flag}: {raised.value}\n"


def test_every_mapped_flag_has_a_case():
    assert {argv[1] for argv, _ in FLAGGED_VALUES.values()} == set(cli.ARGUMENT_FLAGS.values())


@pytest.mark.parametrize("argv", [("--center", "1,2"),
                                  ("--center", "1,2", "--center-energy", "3")])
def test_center_count_names_the_given_center(capsys, argv):
    # the separately given --center-energy is neither counted nor listed
    code, out, err = run(capsys, "kg-norm", *argv)
    assert (code, out) == (2, "")
    assert err == ("configuration error: --center: spatial_center must be 3 numbers, "
                   "got (1.0, 2.0)\n")
