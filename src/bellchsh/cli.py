"""Command-line front end.

Subcommands
-----------
spin          singlet amplitudes, quadruple validation and CHSH values
              for the spin-1/2 and spin-1 singlets
squeeze-scan  closed form vs matrix CHSH over a squeezing-parameter grid
optimize      exact optimum of a closed-form correlator over the phases
kg-norm       mass-shell norm machinery for a Gaussian test packet
rindler-scan  Unruh-temperature scan of the vacuum CHSH value

All defaults reproduce the reference numbers with zero flags.  A
subcommand returns ``(fields, rows, verdict)``: ``emit`` writes each row
as it is drawn, as CSV (header row, 17 significant digits) or JSON
records, then ``main`` reads ``verdict()``; identical configs give
bit-identical output.  A relative ``--out`` path is resolved against
``$BELLCHSH_OUT_DIR`` when that variable is set.

Exit codes: 0 success; 2 configuration error, a ``DomainError`` (a flag
outside its domain, an angle divided by zero, an ``--out`` path or a
stdout that cannot be written, such as a full disk or a closed pipe,
or a degenerate test function), a refused allocation, a
``MemoryError``, or an argparse usage error; 3 validation or tolerance
failure, a ``PrecisionError`` (a numerical certificate, or a failed
``spin``/``squeeze-scan`` check, raised by ``main`` from the verdict).
A ``DomainError``, ``MemoryError`` or ``PrecisionError`` prints one
stderr line (``configuration error: not enough memory: <message>`` for
a ``MemoryError``), and a ``DomainError`` whose ``argument`` is a
flag's value names the flag: ``configuration error: <flag>: <message>``.
An argparse usage error prints argparse's usage lines and one
``error:`` line, abridged by ``_Parser.error``.  Echoed flag text is
named by ``errors.named``, two levels deep, and an ``--out`` path is
quoted whole up to 200 characters, so each stays short.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import heapq
import json
import math
import os
import re
import reprlib
import sys
from collections.abc import Callable, Iterable
from dataclasses import asdict

import numpy as np

from . import fock, kleingordon, rindler, spin
from .chsh import (
    AngleSet,
    chsh_value,
    optimize_angles,
    validate_quadruple,
)
from .errors import DomainError, PrecisionError, named, to_numbers

OUT_DIR_ENV = "BELLCHSH_OUT_DIR"

#: Most points of a ``LO:HI:STEPS`` grid, checked before it is allocated.
MAX_STEPS = 100_000
_STEPS_HELP = f"inclusive grid of STEPS points, at most {MAX_STEPS}"

#: Most mode evaluations (``--modes`` count times grid points) of one
#: ``rindler-scan``, checked before the scan: a few seconds of work.
MAX_MODE_EVALUATIONS = 100 * MAX_STEPS

#: Largest ``--quad`` RADIAL: ``test_norm`` doubles it for its error
#: estimate, and a rule has at most ``kleingordon.MAX_RADIAL`` nodes.
MAX_QUAD_RADIAL = kleingordon.MAX_RADIAL // 2

#: The flag of each ``DomainError.argument`` that ``main`` names before the message.
ARGUMENT_FLAGS = {"spatial_center": "--center", "mass": "--mass",
                  "center_energy": "--center-energy", "width": "--width", "tol": "--tol",
                  "amplitude": "--amplitude", "eta": "--eta", "cutoff": "--cutoff"}

#: Names an ``--out`` path: whole up to 200 characters, so a usual path
#: shows which directory is missing, abridged beyond (4 bytes a character
#: at most, so the line stays under 1,000 bytes)
_PATH_NAMER = reprlib.Repr()
_PATH_NAMER.maxstring = 200

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_CHECK = 3

#: A subcommand's fields, rows (drawn once) and verdict (a failed check's text or None)
Table = tuple[list[str], Iterable[dict], Callable[[], str | None]]


# ---------------------------------------------------------------------------
# configuration parsing


_PI_PATTERN = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>\d+(\.\d*)?)?\*?pi(/(?P<den>\d+(\.\d*)?))?$"
)


def parse_angle(token: str) -> float:
    """Parse an angle in radians; 'pi/4'-style fraction literals allowed."""
    text = token.strip().lower().replace(" ", "")
    match = _PI_PATTERN.match(text)
    if match:
        value = math.pi
        if match.group("coef"):
            value *= float(match.group("coef"))
        if match.group("den"):
            den = float(match.group("den"))
            if den == 0.0:
                raise DomainError(f"angle {named(token)} divides by zero")
            value /= den
        return -value if match.group("sign") == "-" else value
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"cannot parse angle {named(token)}") from None


def parse_angles(text: str) -> AngleSet:
    """Parse 'a1,a2,b1,b2' into an AngleSet."""
    parts = text.split(",")
    if len(parts) != 4:
        raise DomainError(f"--angles needs 4 comma-separated values, got {named(text)}")
    return AngleSet(*(parse_angle(p) for p in parts))


def parse_range(text: str, name: str) -> np.ndarray:
    """Parse 'LO:HI:STEPS' into an inclusive grid of STEPS points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"{name} must look like LO:HI:STEPS, got {named(text)}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise DomainError(f"cannot parse {name} {named(text)}") from None
    if not math.isfinite(hi - lo):
        raise DomainError(f"{name} bounds and their span must be finite, got {named(text)}")
    if steps < 1:
        raise DomainError(f"{name} needs at least 1 step, got {named(steps)}")
    if steps > MAX_STEPS:
        raise DomainError(f"{name} allows at most {MAX_STEPS} steps, got {named(steps)}")
    if hi < lo:
        raise DomainError(f"{name} range is empty: {lo} > {hi}")
    return np.linspace(lo, hi, steps)


def parse_floats(text: str, name: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise DomainError(f"cannot parse {name} {named(text)}") from None


def parse_quad(text: str) -> int:
    if "," in text:
        raise DomainError(f"--quad takes RADIAL only, got {named(text)}: the ANGULAR count "
                          "was removed because the angular integral is closed form")
    try:
        radial = int(text)
    except ValueError:
        raise DomainError(f"cannot parse --quad {named(text)}") from None
    if radial < 2:
        raise DomainError(f"--quad needs at least 2 radial nodes, got {named(text)}")
    if radial > MAX_QUAD_RADIAL:
        raise DomainError(f"--quad radial node count must be <= {MAX_QUAD_RADIAL} "
                          f"(doubled for the error estimate), got {named(radial)}")
    return radial


# ---------------------------------------------------------------------------
# output


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if v is None:
        return ""
    return str(v)


def emit(fmt: str, out: str | None, fields: list[str], rows: Iterable[dict]) -> None:
    """Write each row as it is drawn, as CSV or as ``json.dumps``'s indent-2
    text of the table (``fmt``), to stdout or to the file ``out``; a sink
    that cannot be written raises ``DomainError``."""
    path = out
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out is not None and out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    if out is None and sys.stdout is None:  # fd 1 is closed: Python opened no stdout
        raise DomainError(f"cannot write stdout: {os.strerror(errno.EBADF)}")
    try:
        with (contextlib.nullcontext(sys.stdout) if out is None
              else open(path, "w", encoding="utf-8")) as sink:
            if fmt == "csv":
                writer = csv.writer(sink, lineterminator="\n")
                writer.writerow(fields)
                writer.writerows([_fmt_value(row.get(f)) for f in fields] for row in rows)
            else:
                head, tail = json.dumps({"fields": fields, "rows": []}, indent=2).rsplit("[]", 1)
                # a row's items, one to a line as indent=2 writes them in the table
                row_items, sep = json.JSONEncoder(separators=(",\n      ", ": ")).encode, "\n"
                sink.write(head + "[")
                for row in rows:
                    sink.write(f"{sep}    {{\n      {row_items(row)[1:-1]}\n    }}")
                    sep = ",\n"
                sink.write(("]" if sep == "\n" else "\n  ]") + tail + "\n")
            sink.flush()
    except OSError as err:
        if out is None:  # so the interpreter's last flush writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        name = "stdout" if out is None else f"--out {_PATH_NAMER.repr(path)}"
        raise DomainError(f"cannot write {name}: {err.strerror or err}") from None


# ---------------------------------------------------------------------------
# subcommands


def _quantity_table(table: dict, failure: str | None = None) -> Table:
    """The ``Table`` of an ordered ``{quantity: value}`` table and its known verdict."""
    return (["quantity", "value"], ({"quantity": q, "value": v} for q, v in table.items()),
            lambda: failure)


def cmd_spin(args) -> Table:
    override = None if args.angles is None else parse_angles(args.angles)
    table = {}
    ok = True
    for name, kind, default_angles in (
        ("spin_one", spin.SPIN_ONE, spin.SPIN_ONE_VIOLATION_ANGLES),
        ("spin_half", spin.SPIN_HALF, spin.TSIRELSON_ANGLES),
    ):
        angles = override or default_angles
        state = spin.singlet(kind)
        for i, amp in enumerate(state.amplitudes.ravel()):  # the row-major ravel numbers the rows
            table[f"{name}_amplitude_{i}"] = float(amp.real)
        quadruple = spin.spin_quadruple(kind, angles)
        report = validate_quadruple(quadruple)
        ok = ok and report.passed
        matrix_value = chsh_value(state, quadruple)
        table[f"{name}_validation_max_deviation"] = report.max_deviation
        table[f"{name}_validation_passed"] = int(report.passed)
        table[f"{name}_chsh_closed"] = spin.spin_closed_form(kind).value(angles)
        table[f"{name}_chsh_matrix"] = matrix_value
        table[f"{name}_abs_chsh"] = abs(matrix_value)

    best_angles, best = optimize_angles(spin.spin_closed_form(spin.SPIN_ONE))
    table["spin_one_closed_form_optimum"] = best
    table.update({f"spin_one_optimal_{k}": v for k, v in asdict(best_angles).items()})
    return _quantity_table(table, None if ok else
                          "quadruple validation failed; see *_validation_* rows")


def cmd_squeeze_scan(args) -> Table:
    space = fock.FockSpace(args.cutoff)  # bounds the cutoff before any allocation
    cutoff = space.cutoff
    angles = fock.MAX_VIOLATION_ANGLES if args.angles is None else parse_angles(args.angles)
    grid = parse_range(args.eta_range, "--eta-range")
    if grid[0] <= 0.0 or grid[-1] >= 1.0:
        raise DomainError(
            f"--eta-range must stay inside the open interval (0, 1), got {named(args.eta_range)}"
        )
    entries = heapq.merge(((float(e), "") for e in grid),
                          [(fock.VIOLATION_WINDOW[0], "window-lower-endpoint")],
                          key=lambda entry: entry[0])  # a tie keeps the grid row first
    ok = True

    def rows():
        nonlocal ok
        for eta, note in entries:
            closed = fock.chsh_closed(eta, angles)
            matrix = fock.chsh_matrix(eta, space, angles)
            diff = abs(closed - matrix)
            ok = ok and diff <= max(1e-8, 20.0 * eta ** (2 * cutoff))
            yield {"eta": eta, "chsh_closed": closed, "chsh_matrix": matrix,
                   "abs_difference": diff, "note": note}
        # open upper endpoint: the closed form extends continuously to eta = 1
        limit = fock.pair_amplitude(1.0) * fock.UNIT_SQUEEZED_FORM.value(angles)
        yield {"eta": 1.0, "chsh_closed": limit, "chsh_matrix": None,
               "abs_difference": None, "note": "window-upper-endpoint-limit"}

    return (["eta", "chsh_closed", "chsh_matrix", "abs_difference", "note"], rows(),
            lambda: None if ok else "closed form and matrix value disagree beyond tolerance")


def cmd_optimize(args) -> Table:
    if args.closed_form == "spin-one":
        form = spin.spin_closed_form(spin.SPIN_ONE)
        table = {"closed_form": "spin-one"}
    else:
        form = fock.squeezed_closed_form(args.eta)
        table = {"closed_form": "squeezed", "eta": args.eta}
    angles, best = optimize_angles(form)
    return _quantity_table({**table, **asdict(angles), "optimum": best})


def cmd_kg_norm(args) -> Table:
    # counted as given, before --center-energy is joined to it
    center = to_numbers(parse_floats(args.center, "--center"), "spatial_center", 3)
    radial = parse_quad(args.quad)
    common = dict(width=args.width, mass=args.mass, amplitude=args.amplitude)
    packet = (kleingordon.GaussianPacket.on_shell(spatial_center=center, **common)
              if args.center_energy is None else
              kleingordon.GaussianPacket(center=(args.center_energy, *center), **common))
    quad = kleingordon.ShellQuadrature.for_packets(packet, radial=radial, tol=args.tol)

    estimate = kleingordon.test_norm(packet, quad)
    table = {"norm_sq": estimate.value, "error_estimate": estimate.error,
             "scale_factor": 1.0 / math.sqrt(estimate.value)}
    if args.normalize:
        unit = kleingordon.normalize(packet, quad)
        table["normalized_norm_sq"] = kleingordon.test_norm(unit, quad).value
    return _quantity_table(table)


def cmd_rindler_scan(args) -> Table:
    frequencies = parse_floats(args.modes, "--modes")
    if args.temp_range is not None and args.accel_range is not None:
        raise DomainError("--temp-range and --accel-range are mutually exclusive")
    temp_range = "0.02:2.0:50" if args.temp_range is None else args.temp_range
    flag, text = (("--accel-range", args.accel_range) if args.accel_range is not None
                  else ("--temp-range", temp_range))
    grid = parse_range(text, flag)
    if len(frequencies) * grid.size > MAX_MODE_EVALUATIONS:
        raise DomainError(f"--modes ({len(frequencies)} frequencies) times {flag} "
                          f"({grid.size} steps) exceeds {MAX_MODE_EVALUATIONS} "
                          "mode evaluations")
    modes = rindler.RindlerModeSet(frequencies)
    if args.accel_range is not None:  # one array of T, each acceleration checked in order
        grid = np.fromiter(map(rindler.unruh_temperature, grid), float, grid.size)
    scan = rindler.temperature_scan(modes, grid)  # checks the array, read in place, before emit
    rows = ({"T": r.temperature, "tau": r.tau, "chsh": r.chsh, "flag": r.flag}
            for r in scan)  # each row and its dict made as emit draws them
    return ["T", "tau", "chsh", "flag"], rows, lambda: None


# ---------------------------------------------------------------------------
# parser


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help=f"output file; relative paths resolve against ${OUT_DIR_ENV}")


class _Parser(argparse.ArgumentParser):
    """Its usage error (its subparsers' too) keeps the first 50 and last 90
    characters of a message over 143, so an invalid choice still lists the
    choices and, with the usage lines, the text stays under 1,000 bytes."""

    def error(self, message):
        if len(message) > 143:
            message = f"{message[:50]}...{message[-90:]}"
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bellchsh",
        description="Bell-CHSH violations of singlets, squeezed states and "
                    "the accelerated vacuum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spin", help="spin singlet reproduction")
    p.add_argument("--angles", default=None, metavar="a1,a2,b1,b2",
                   help="override the measurement phases (radians; pi/4 literals ok)")
    _add_output_options(p)
    p.set_defaults(handler=cmd_spin)

    p = sub.add_parser("squeeze-scan", help="squeezed-oscillator CHSH scan")
    p.add_argument("--eta-range", default="0.1:0.9:9", metavar="LO:HI:STEPS",
                   help=_STEPS_HELP)
    p.add_argument("--cutoff", type=int, default=fock.DEFAULT_CUTOFF,
                   help=f"per-mode Fock cutoff (even, 4 to {fock.MAX_CUTOFF}; "
                        "default 40)")
    p.add_argument("--angles", default=None, metavar="a1,a2,b1,b2")
    _add_output_options(p)
    p.set_defaults(handler=cmd_squeeze_scan)

    p = sub.add_parser("optimize", help="exact measurement-phase optimum")
    p.add_argument("--closed-form", choices=("squeezed", "spin-one"),
                   default="squeezed")
    p.add_argument("--eta", type=float, default=0.7,
                   help="squeezing parameter for the squeezed form")
    _add_output_options(p)
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("kg-norm", help="test-function norm machinery")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--center", default="0,0,0", metavar="cx,cy,cz",
                   help="spatial center momentum (energy taken on shell)")
    p.add_argument("--center-energy", type=float, default=None,
                   help="override the on-shell center energy")
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--quad", default="128", metavar="RADIAL",
                   help=f"radial quadrature node count (at most {MAX_QUAD_RADIAL}); "
                        "the error estimate doubles it")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--normalize", action="store_true",
                   help="also rescale to unit norm and report the recheck")
    _add_output_options(p)
    p.set_defaults(handler=cmd_kg_norm)

    p = sub.add_parser("rindler-scan", help="Unruh-temperature scan")
    p.add_argument("--modes", default="1.0", metavar="w1,w2,...")
    p.add_argument("--temp-range", default=None, metavar="LO:HI:STEPS",
                   help=_STEPS_HELP)
    p.add_argument("--accel-range", default=None, metavar="LO:HI:STEPS",
                   help=_STEPS_HELP)
    _add_output_options(p)
    p.set_defaults(handler=cmd_rindler_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fields, rows, verdict = args.handler(args)
        emit(args.format, args.out, fields, rows)  # the verdict is known after the last row
        if (failure := verdict()) is not None:
            raise PrecisionError(failure)
    except DomainError as err:
        flag = ARGUMENT_FLAGS.get(err.argument)
        print(f"configuration error: {flag + ': ' if flag else ''}{err}", file=sys.stderr)
        return _EXIT_CONFIG
    except MemoryError as err:
        print(f"configuration error: not enough memory{': ' if str(err) else ''}{err}",
              file=sys.stderr)
        return _EXIT_CONFIG
    except PrecisionError as err:
        print(f"precision failure: {err}", file=sys.stderr)
        return _EXIT_CHECK
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
