"""The cli-reference workload: fresh ``python -m bellchsh`` processes.

This module uses the standard library only.  A child's peak RSS as
``wait4`` reports it is at least the RSS of the process that started
it, so the process that starts the CLI children must stay small; it
never imports numpy or ``bellchsh``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import sys

import harness
from harness import CLI_ARGV

SQRT2 = math.sqrt(2.0)

#: The paper's reference numbers, checked to ``REFERENCE_TOL``.
REFERENCE = {
    "tsirelson": 2.0 * SQRT2,
    "spin_one_violation": 2.0 * (2.0 + SQRT2) / 3.0,
    "spin_one_optimum": (2.0 / 3.0) * (1.0 + 2.0 * SQRT2),
}
REFERENCE_TOL = 1e-6

#: CLI defaults the checks depend on.
DEFAULT_CUTOFF = 40
DEFAULT_ETA = 0.7


def rows(text: str):
    return csv.DictReader(io.StringIO(text))


def quantities(text: str) -> dict[str, str]:
    return {row["quantity"]: row["value"] for row in rows(text)}


def near(value, reference: float) -> bool:
    return abs(float(value) - reference) <= REFERENCE_TOL


def squeezed_chsh(eta: float) -> float:
    """Closed form at the maximal-violation phases: 2 sqrt(2) * 2 eta/(1+eta^2)."""
    return REFERENCE["tsirelson"] * 2.0 * eta / (1.0 + eta * eta)


def check_spin(text: str) -> bool:
    q = quantities(text)
    return (near(q["spin_half_abs_chsh"], REFERENCE["tsirelson"])
            and near(q["spin_one_abs_chsh"], REFERENCE["spin_one_violation"])
            and near(q["spin_one_closed_form_optimum"], REFERENCE["spin_one_optimum"])
            and q["spin_half_validation_passed"] == "1"
            and q["spin_one_validation_passed"] == "1")


def check_squeeze_scan(text: str) -> bool:
    """Every row within its closed-vs-matrix bound, on the reference curve,
    and the window endpoints at sqrt(2) - 1 (CHSH 2) and 1 (2 sqrt(2))."""
    table = list(rows(text))
    notes = [row["note"] for row in table]
    ok = (len(table) == 11 and "window-lower-endpoint" in notes
          and notes[-1] == "window-upper-endpoint-limit")
    for row in table:
        eta, closed = float(row["eta"]), float(row["chsh_closed"])
        ok = ok and near(closed, squeezed_chsh(eta))
        if row["note"] == "window-upper-endpoint-limit":
            continue
        if row["note"] == "window-lower-endpoint":
            ok = ok and near(eta, SQRT2 - 1.0) and near(closed, 2.0)
        bound = max(1e-8, 20.0 * eta ** (2 * DEFAULT_CUTOFF))
        ok = ok and abs(closed - float(row["chsh_matrix"])) <= bound
    return ok


def check_optimize(text: str) -> bool:
    return near(quantities(text)["optimum"], squeezed_chsh(DEFAULT_ETA))


def check_optimize_spin_one(text: str) -> bool:
    return near(quantities(text)["optimum"], REFERENCE["spin_one_optimum"])


def centred_norm_sq(step: float = 0.02, k_max: float = 12.0) -> float:
    """<f|f> of the CLI's default packet (centred, mass 1, width 1).

    The angular integral of a centred packet is 4 pi, which leaves a
    radial integral of an even, analytic integrand; the trapezoid rule
    on it converges geometrically.
    """
    total = 0.0
    for i in range(1, int(k_max / step) + 1):
        k = i * step
        omega = math.sqrt(k * k + 1.0)
        total += k * k / (2.0 * omega) * math.exp(-((omega - 1.0) ** 2 + k * k))
    return total * step * 4.0 * math.pi / (2.0 * math.pi) ** 3


def check_kg_norm(text: str, reference: float) -> bool:
    q = {name: float(value) for name, value in quantities(text).items()}
    ok = (abs(q["norm_sq"] - reference) <= 1e-8 * reference
          and q["error_estimate"] <= 1e-10 * q["norm_sq"]
          and math.isclose(q["scale_factor"], 1.0 / math.sqrt(q["norm_sq"]),
                           rel_tol=1e-15))
    if "normalized_norm_sq" in q:
        ok = ok and abs(q["normalized_norm_sq"] - 1.0) <= 1e-10
    return ok


def check_rindler(text: str, modes: tuple[float, ...], lo: float, hi: float,
                  steps: int) -> bool:
    """Each row: chsh = 2 sqrt(2) tau with tau = sum 1/cosh(w / 2T),
    recomputed here, and the supra-Tsirelson flag exactly when tau > 1."""
    count = 0
    ok = True
    for i, row in enumerate(rows(text)):
        temperature = float(row["T"])
        tau = sum(1.0 / math.cosh(w / (2.0 * temperature)) for w in modes)
        grid_t = lo + (hi - lo) * i / (steps - 1)
        ok = (ok and math.isclose(temperature, grid_t, rel_tol=1e-12)
              and math.isclose(float(row["tau"]), tau, rel_tol=1e-12)
              and math.isclose(float(row["chsh"]), REFERENCE["tsirelson"] * tau,
                               rel_tol=1e-12)
              and (row["flag"] != "") == (tau > 1.0))
        count += 1
    return ok and count == steps


class CliReference:
    """Fresh ``python -m bellchsh`` processes, one op per invocation.

    Chosen because this is how users meet the library: each process
    pays the import and cold set-up.  ``spin``, ``rindler`` and the
    phase optimizer are reached only here.  The seed fixes the order of
    the invocations within each round.
    """

    #: ``kg-norm`` twice per round puts the p75 tail inside its block of
    #: latencies and the median inside ``squeeze-scan``'s, away from the
    #: boundary between two invocation kinds.
    SIZES = {
        "full": {"mix": ["spin", "squeeze-scan", "optimize", "optimize-spin-one",
                         "kg-norm", "kg-norm", "kg-norm-normalize",
                         "rindler-scan", "rindler-scan-long"],
                 "min_rounds": 5},
        "tiny": {"mix": list(CLI_ARGV), "min_rounds": 3},
    }

    def __init__(self, seed: int, size: str):
        cfg = self.SIZES[size]
        self.rng = random.Random(seed)
        self.mix = cfg["mix"]
        self.min_rounds = cfg["min_rounds"]
        self.ops_per_round = len(self.mix)
        self.env = harness.worker_env()
        norm_sq = centred_norm_sq()
        self.checks = {
            "spin": check_spin,
            "squeeze-scan": check_squeeze_scan,
            "optimize": check_optimize,
            "optimize-spin-one": check_optimize_spin_one,
            "kg-norm": lambda text: check_kg_norm(text, norm_sq),
            "kg-norm-normalize": lambda text: check_kg_norm(text, norm_sq),
            "rindler-scan": lambda text: check_rindler(text, (1.0,), 0.02, 2.0, 50),
            "rindler-scan-long": lambda text: check_rindler(
                text, (0.5, 1.0, 2.0), 0.01, 5.0, 20000),
        }
        self._digests: dict[str, str] = {}

    def warm_up(self, rec) -> None:
        """Nothing: the CLI's set-up is measured from outside, with ``--help``."""

    def _invoke(self, rec, kind: str) -> bool:
        cmd = [sys.executable, "-m", "bellchsh", *CLI_ARGV[kind]]
        with rec.span("cli." + kind):
            out, status, rss_mb = harness.run_child(cmd, self.env)
        rec.size("peak_rss_mb", rss_mb)
        if status != 0:
            return False
        digest = hashlib.sha256(out).hexdigest()
        repeatable = self._digests.setdefault(kind, digest) == digest
        return repeatable and self.checks[kind](out.decode())

    def run_round(self, rec) -> None:
        order = list(self.mix)
        self.rng.shuffle(order)
        for kind in order:
            rec.op(kind, lambda: self._invoke(rec, kind))
