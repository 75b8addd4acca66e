"""Command-line front end.

Subcommands
-----------
spin          singlet amplitudes, quadruple validation and CHSH values
              for the spin-1/2 and spin-1 singlets
squeeze-scan  closed form vs matrix CHSH over a squeezing-parameter grid
optimize      exact optimum of a closed-form correlator over the phases
kg-norm       mass-shell norm machinery for a Gaussian test packet
rindler-scan  Unruh-temperature scan of the vacuum CHSH value

All defaults reproduce the reference numbers with zero flags.  Output
is CSV (header row, 17 significant digits) or JSON records; identical
configs produce bit-identical output.  A relative ``--out`` path is
resolved against ``$BELLCHSH_OUT_DIR`` when that variable is set.

Exit codes: 0 success; 2 configuration error, raised as ``DomainError``
(a flag outside its domain, including a ``LO:HI:STEPS`` range of more
than ``MAX_STEPS`` points, an angle divided by zero or an ``--out`` path
that cannot be written, or a degenerate test function) or by argparse
for an unknown flag; 3 validation or tolerance failure, raised as
``PrecisionError`` (a numerical certificate, or a failed check in
``spin``/``squeeze-scan`` after its rows are written).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import fock, kleingordon, rindler, spin
from .chsh import (
    AngleSet,
    ClosedFormCorrelator,
    chsh_value,
    optimize_angles,
    validate_quadruple,
)
from .errors import DomainError, PrecisionError

OUT_DIR_ENV = "BELLCHSH_OUT_DIR"

#: Most points of a ``LO:HI:STEPS`` grid, checked before it is allocated.
MAX_STEPS = 100_000
_STEPS_HELP = f"inclusive grid of STEPS points, at most {MAX_STEPS}"

#: Largest ``--quad`` RADIAL: ``test_norm`` doubles it for its error
#: estimate, and a rule has at most ``kleingordon.MAX_RADIAL`` nodes.
MAX_QUAD_RADIAL = kleingordon.MAX_RADIAL // 2

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_CHECK = 3


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
                raise DomainError(f"angle {token!r} divides by zero")
            value /= den
        return -value if match.group("sign") == "-" else value
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"cannot parse angle {token!r}") from None


def parse_angles(text: str) -> AngleSet:
    """Parse 'a1,a2,b1,b2' into an AngleSet."""
    parts = text.split(",")
    if len(parts) != 4:
        raise DomainError(f"--angles needs 4 comma-separated values, got {text!r}")
    return AngleSet(*(parse_angle(p) for p in parts))


def parse_range(text: str, name: str) -> np.ndarray:
    """Parse 'LO:HI:STEPS' into an inclusive grid of STEPS points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"{name} must look like LO:HI:STEPS, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise DomainError(f"cannot parse {name} {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"{name} bounds must be finite, got {text!r}")
    if steps < 1:
        raise DomainError(f"{name} needs at least 1 step, got {steps}")
    if steps > MAX_STEPS:
        raise DomainError(f"{name} allows at most {MAX_STEPS} steps, got {steps}")
    if hi < lo:
        raise DomainError(f"{name} range is empty: {lo} > {hi}")
    return np.linspace(lo, hi, steps)


def parse_floats(text: str, name: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise DomainError(f"cannot parse {name} {text!r}") from None


def parse_quad(text: str) -> int:
    if "," in text:
        raise DomainError(f"--quad takes RADIAL only, got {text!r}: the ANGULAR count "
                          "was removed because the angular integral is closed form")
    try:
        radial = int(text)
    except ValueError:
        raise DomainError(f"cannot parse --quad {text!r}") from None
    if radial < 2:
        raise DomainError(f"--quad needs at least 2 radial nodes, got {text!r}")
    if radial > MAX_QUAD_RADIAL:
        raise DomainError(f"--quad radial node count must be <= {MAX_QUAD_RADIAL} "
                          f"(doubled for the error estimate), got {radial}")
    return radial


# ---------------------------------------------------------------------------
# output


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if v is None:
        return ""
    return str(v)


def emit(fmt: str, out: str | None, fields: list[str], rows: list[dict]) -> None:
    """Render rows as CSV or JSON (``fmt``) and write them to stdout, or
    to the file ``out``; a file that cannot be written raises
    ``DomainError``."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt_value(row.get(f)) for f in fields])
        text = buf.getvalue()
    else:
        text = json.dumps({"fields": fields, "rows": rows}, indent=2) + "\n"

    if out is None:
        sys.stdout.write(text)
        return
    path = out
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise DomainError(f"cannot write --out {path}: {err.strerror or err}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_spin(args) -> int:
    override = parse_angles(args.angles) if args.angles else None

    rows: list[dict] = []

    def add(quantity: str, value) -> None:
        rows.append({"quantity": quantity, "value": value})

    ok = True
    for name, kind, default_angles, closed in (
        ("spin_one", spin.SPIN_ONE, spin.SPIN_ONE_VIOLATION_ANGLES,
         spin.spin_one_chsh_closed),
        ("spin_half", spin.SPIN_HALF, spin.TSIRELSON_ANGLES,
         spin.spin_half_chsh_closed),
    ):
        angles = override or default_angles
        state = spin.singlet(kind)
        for i, amp in enumerate(state.ket.amplitudes):
            add(f"{name}_amplitude_{i}", float(amp.real))
        quadruple = spin.spin_quadruple(kind, angles)
        report = validate_quadruple(quadruple)
        add(f"{name}_validation_max_deviation", report.max_deviation)
        add(f"{name}_validation_passed", int(report.passed))
        ok = ok and report.passed
        matrix_value = chsh_value(state.ket, quadruple)
        add(f"{name}_chsh_closed", closed(angles))
        add(f"{name}_chsh_matrix", matrix_value)
        add(f"{name}_abs_chsh", abs(matrix_value))

    best_angles, best = optimize_angles(spin.spin_one_closed_form())
    add("spin_one_closed_form_optimum", best)
    for label, value in zip(("alpha1", "alpha2", "beta1", "beta2"),
                            best_angles.as_tuple()):
        add(f"spin_one_optimal_{label}", value)

    emit(args.format, args.out, ["quantity", "value"], rows)
    if not ok:
        raise PrecisionError("quadruple validation failed; see *_validation_* rows")
    return _EXIT_OK


def cmd_squeeze_scan(args) -> int:
    space = fock.FockSpace(args.cutoff)  # bounds the cutoff before any allocation
    cutoff = space.cutoff
    angles = parse_angles(args.angles) if args.angles else fock.MAX_VIOLATION_ANGLES
    grid = parse_range(args.eta_range, "--eta-range")
    if grid[0] <= 0.0 or grid[-1] >= 1.0:
        raise DomainError(
            f"--eta-range must stay inside the open interval (0, 1), got {args.eta_range!r}"
        )
    window_lo, _ = fock.violation_window()

    entries: list[tuple[float, str]] = [(float(e), "") for e in grid]
    entries.append((window_lo, "window-lower-endpoint"))
    entries.sort()

    rows = []
    ok = True
    for eta, note in entries:
        closed = fock.chsh_closed(eta, angles)
        matrix = fock.chsh_matrix(eta, space, angles)
        diff = abs(closed - matrix)
        tolerance = max(1e-8, 20.0 * eta ** (2 * cutoff))
        ok = ok and diff <= tolerance
        rows.append({
            "eta": eta, "chsh_closed": closed, "chsh_matrix": matrix,
            "abs_difference": diff, "note": note,
        })
    # open upper endpoint: the closed form extends continuously to eta = 1
    limit = ClosedFormCorrelator(prefactor=1.0, signs=(1.0, 1.0, 1.0, -1.0))
    rows.append({
        "eta": 1.0, "chsh_closed": limit.value(angles), "chsh_matrix": None,
        "abs_difference": None, "note": "window-upper-endpoint-limit",
    })

    emit(args.format, args.out,
         ["eta", "chsh_closed", "chsh_matrix", "abs_difference", "note"], rows)
    if not ok:
        raise PrecisionError("closed form and matrix value disagree beyond tolerance")
    return _EXIT_OK


def cmd_optimize(args) -> int:
    if args.closed_form == "spin-one":
        form = spin.spin_one_closed_form()
        rows = [{"quantity": "closed_form", "value": "spin-one"}]
    else:
        if not 0.0 < args.eta < 1.0:
            raise DomainError(f"--eta must lie in (0, 1), got {args.eta}")
        form = fock.squeezed_closed_form(args.eta)
        rows = [{"quantity": "closed_form", "value": "squeezed"},
                {"quantity": "eta", "value": args.eta}]
    angles, best = optimize_angles(form)
    for label, value in zip(("alpha1", "alpha2", "beta1", "beta2"),
                            angles.as_tuple()):
        rows.append({"quantity": label, "value": value})
    rows.append({"quantity": "optimum", "value": best})
    emit(args.format, args.out, ["quantity", "value"], rows)
    return _EXIT_OK


def cmd_kg_norm(args) -> int:
    # the packet domain (kleingordon.MAX_MOMENTUM), checked per flag
    bound = kleingordon.MAX_MOMENTUM
    center = parse_floats(args.center, "--center")
    if len(center) != 3 or not all(abs(c) <= bound for c in center):
        raise DomainError(f"--center needs cx,cy,cz within +-{bound:g}, got {args.center!r}")
    if not 1.0 / bound <= args.width <= bound:
        raise DomainError(f"--width must lie in [1/{bound:g}, {bound:g}], got {args.width}")
    if not 0.0 <= args.mass <= bound:
        raise DomainError(f"--mass must lie in [0, {bound:g}], got {args.mass}")
    if args.center_energy is not None and not abs(args.center_energy) <= 2.0 * bound:
        raise DomainError(f"--center-energy must lie within +-{2.0 * bound:g}, "
                          f"got {args.center_energy}")
    if not abs(args.amplitude) <= bound:
        raise DomainError(f"--amplitude must lie within +-{bound:g}, got {args.amplitude}")
    if not 0.0 < args.tol < math.inf:
        raise DomainError(f"--tol must be positive and finite, got {args.tol}")
    radial = parse_quad(args.quad)

    if args.center_energy is None:
        packet = kleingordon.GaussianPacket.on_shell(
            mass=args.mass, spatial_center=center, width=args.width,
            amplitude=args.amplitude,
        )
    else:
        packet = kleingordon.GaussianPacket(
            center=(args.center_energy, *center), width=args.width,
            mass=args.mass, amplitude=args.amplitude,
        )
    quad = kleingordon.ShellQuadrature.for_packets(packet, radial=radial, tol=args.tol)

    estimate = kleingordon.test_norm(packet, quad)
    if not estimate.value > 0.0:
        raise DomainError(f"test function norm is degenerate: {estimate.value!r}")
    rows = [
        {"quantity": "norm_sq", "value": estimate.value},
        {"quantity": "error_estimate", "value": estimate.error},
        {"quantity": "scale_factor", "value": 1.0 / math.sqrt(estimate.value)},
    ]
    if args.normalize:
        unit = kleingordon.normalize(packet, quad)
        rows.append({
            "quantity": "normalized_norm_sq",
            "value": kleingordon.test_norm(unit, quad).value,
        })
    emit(args.format, args.out, ["quantity", "value"], rows)
    return _EXIT_OK


def cmd_rindler_scan(args) -> int:
    frequencies = parse_floats(args.modes, "--modes")
    if args.temp_range and args.accel_range:
        raise DomainError("--temp-range and --accel-range are mutually exclusive")
    if args.accel_range:
        grid = parse_range(args.accel_range, "--accel-range") / (2.0 * math.pi)
    else:
        grid = parse_range(args.temp_range or "0.02:2.0:50", "--temp-range")
    modes = rindler.RindlerModeSet(frequencies)
    scan = rindler.temperature_scan(modes, grid)
    rows = [
        {"T": r.temperature, "tau": r.tau, "chsh": r.chsh, "flag": r.flag}
        for r in scan
    ]
    emit(args.format, args.out, ["T", "tau", "chsh", "flag"], rows)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help=f"output file; relative paths resolve against ${OUT_DIR_ENV}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        return args.handler(args)
    except DomainError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return _EXIT_CONFIG
    except PrecisionError as err:
        print(f"precision failure: {err}", file=sys.stderr)
        return _EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
