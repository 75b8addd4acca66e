"""Mutation rows: small deliberate faults the test suite must catch.

Each row of ``MUTANTS`` names a file, an ``old`` text that occurs in it
exactly once, the ``new`` text that replaces it, the test files that
should fail on the mutant, and why the line matters.  A row whose
``equivalent`` holds a reason changes no result, for that reason, and
is expected to survive.

The runner copies ``src``, ``tests``, ``demos`` (the contract tests
run the demos) and ``pyproject.toml`` into ``WORKERS`` temporary
directories, one per worker, and runs each pytest process on whichever
copy is free.  It first runs each set of test files named by
a row on an unmutated copy, where they must pass, since a test that
fails there would kill every mutant.  Then it applies each row to a
copy, never to the working tree, runs ``python -m pytest`` on the row's
test files there, and restores the file.  A mutant is killed when
pytest reports a failing test (exit 1).  The script prints one line per
row, in table order, and exits 1 if a row's file is missing or its
``old`` text does not occur exactly once, a row's tests fail on the
unmutated copy, pytest exits otherwise than 0 or 1, a mutant survives
that is not marked equivalent, or one marked equivalent is killed:

    python tests/mutants.py

It uses the standard library only; the tests it runs need numpy, pytest
and hypothesis.  Each row runs its test files in a fresh pytest
process, with ``-x``, so it stops at the first failure.  Tier-1 checks
the table alone (``tests/test_mutants.py``): each row's files exist and
its ``old`` text occurs once, so a row left behind by moved code fails
there too.
"""

from __future__ import annotations

import os
import pathlib
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    why: str
    equivalent: str | None = None


MUTANTS = (
    Mutant("src/bellchsh/chsh.py", "(q.a2 @ (y1 - y2))", "(q.a2 @ (y2 - y1))",
           ("tests/test_chsh.py",),
           "chsh_value's A2 term: the sign of B2 in the CHSH combination"),
    Mutant("src/bellchsh/chsh.py", "else mat @ right.T", "else mat @ right",
           ("tests/test_linalg.py",),
           "A (x) B acts on the amplitude matrix as A Psi B^T, not A Psi B"),
    Mutant("src/bellchsh/chsh.py", "arr.ndim != 2", "arr.ndim > 2", ("tests/test_linalg.py",),
           "a ket or factor is a matrix: a flat or 0-d array is refused"),
    Mutant("src/bellchsh/chsh.py", "arr.shape[0] != arr.shape[1]", "arr.shape[0] < arr.shape[1]",
           ("tests/test_linalg.py",), "a one-factor operator is square, tall or wide"),
    Mutant("src/bellchsh/chsh.py", "len(dims) != 1", "len(dims) > 1",
           ("tests/test_linalg.py",),
           "a side with no ndarray factor has no dimension: ShapeError, not KeyError"),
    Mutant("src/bellchsh/chsh.py", "if mat.shape != self.dims:",
           "if mat.shape[0] != self.dims[0]:", ("tests/test_linalg.py",),
           "apply checks both sides of the ket's shape, B as well as A"),
    Mutant("src/bellchsh/spin.py", "amp[i, levels - 1 - i]", "amp[i, i]",
           ("tests/test_spin.py",), "the singlet pairs m with -m: the anti-diagonal"),
    Mutant("src/bellchsh/fock.py", "amp /= math.sqrt(amp @ amp)", "amp /= 1.0",
           ("tests/test_fock.py",),
           "_schmidt renormalizes the truncated Schmidt weights, short by eta**(2 cutoff), "
           "for both squeezed_state's ket and chsh_matrix's pair Gram"),
    Mutant("src/bellchsh/fock.py", "gram = pairs.T @ pairs",
           "gram = pairs.T @ pairs * (1 + 1e-12)", ("tests/test_rounding_floor.py",),
           "a 1e-12 drift of chsh_matrix passes squeeze-scan's exit-3 tolerance but not "
           "the derived rounding bound to chsh_closed"),
    Mutant("src/bellchsh/chsh.py", "kernel = a1 * (b1 + b2) + a2 * (b1 - b2)",
           "kernel = a1 * (b1 + b2) + a2 * (b2 - b1)", ("tests/test_fock.py",),
           "the pair kernel's A2 term: the sign of B2 in chsh_matrix"),
    Mutant("src/bellchsh/cli.py", "max(1e-8, 20.0", "max(1e-6, 20.0", ("tests/test_cli.py",),
           "squeeze-scan holds closed form and matrix value to a 1e-8 floor"),
    Mutant("src/bellchsh/rindler.py", "supra_tsirelson=form > 1.0",
           "supra_tsirelson=form >= 1.0", ("tests/test_rindler.py",),
           "a summed form factor of exactly 1 is the Tsirelson bound, not past it"),
    Mutant("src/bellchsh/rindler.py", "return (ScanRow(", "return list(ScanRow(",
           ("tests/test_rindler.py",),
           "temperature_scan builds each row as it is drawn and holds no list of them"),
    Mutant("src/bellchsh/rindler.py", "(t_grid[0], t_grid[-1])", "(t_grid[0],)",
           ("tests/test_rindler.py",),
           "the scan checks its last temperature before a row is drawn, so a refused "
           "grid writes no partial table"),
    Mutant("src/bellchsh/rindler.py", "t_grid[1:] > t_grid[:-1]", "t_grid[1:] >= t_grid[:-1]",
           ("tests/test_rindler.py",), "a temperature grid with a repeated T is not ascending"),
    Mutant("src/bellchsh/rindler.py", "t_grid.ndim == 1", "t_grid.ndim >= 1",
           ("tests/test_rindler.py",), "a 2-D temperature array is refused unread as t_grid"),
    Mutant("src/bellchsh/kleingordon.py", "10.0 * p.momentum_width",
           "8.0 * p.momentum_width", ("tests/test_kleingordon.py",),
           "for_packets cuts the radial integral at center + 10 momentum widths"),
    Mutant("src/bellchsh/cli.py", "_EXIT_CHECK = 3", "_EXIT_CHECK = 1", ("tests/test_cli.py",),
           "a failed check exits 3, apart from usage and configuration errors (2)"),
    Mutant("src/bellchsh/chsh.py", "abs(value.imag) <= 1e-10", "abs(value.imag) <= 1e-9",
           ("tests/test_chsh.py",),
           "a CHSH correlator with an imaginary residue above 1e-10 is refused"),
    Mutant("src/bellchsh/chsh.py", "tolerance=1e-12 * dim,", "tolerance=1e-12,",
           ("tests/test_chsh.py",),
           "validate_quadruple's tolerance grows with the product dimension"),
    Mutant("src/bellchsh/chsh.py", "return -math.pi if wrapped == math.pi else wrapped",
           "return wrapped", ("tests/test_chsh.py",),
           "an angle one ulp below -pi wraps to -pi, not to pi outside [-pi, pi)"),
    Mutant("src/bellchsh/cli.py",
           "emit(args.format, args.out, fields, rows)  # the verdict is known after the last row\n"
           "        if (failure := verdict()) is not None:",
           "failure = verdict()\n        emit(args.format, args.out, fields, rows)\n"
           "        if failure is not None:", ("tests/test_cli.py",),
           "main reads a table's verdict after emit has drawn its last row"),
    Mutant("src/bellchsh/cli.py", "ok = ok and diff", "ok = ok or diff", ("tests/test_cli.py",),
           "one squeeze-scan row beyond its tolerance fails the whole scan"),
    Mutant("src/bellchsh/cli.py", '("]" if sep == "\\n"', '("\\n  ]" if sep == "\\n"',
           ("tests/test_cli.py",), "an empty JSON table closes as json.dumps closes it: []"),
    Mutant("src/bellchsh/cli.py",
           'heapq.merge(((float(e), "") for e in grid),\n'
           '                          [(fock.VIOLATION_WINDOW[0], "window-lower-endpoint")],',
           'heapq.merge([(fock.VIOLATION_WINDOW[0], "window-lower-endpoint")],\n'
           '                          ((float(e), "") for e in grid),', ("tests/test_cli.py",),
           "a grid point equal to the window endpoint is written before the endpoint row"),
    Mutant("src/bellchsh/cli.py", "MAX_STEPS = 100_000", "MAX_STEPS = 100_001",
           ("tests/test_cli.py",), "a LO:HI:STEPS grid has at most 100,000 points (README)"),
    Mutant("src/bellchsh/cli.py", "if steps > MAX_STEPS:", "if steps >= MAX_STEPS:",
           ("tests/test_cli.py",), "a grid of exactly MAX_STEPS points is allowed"),
    Mutant("src/bellchsh/cli.py", "MAX_MODE_EVALUATIONS = 100 * MAX_STEPS",
           "MAX_MODE_EVALUATIONS = 100 * MAX_STEPS + 1", ("tests/test_cli.py",),
           "a rindler-scan does at most 10,000,000 mode evaluations (README)"),
    Mutant("src/bellchsh/cli.py", "> MAX_MODE_EVALUATIONS:", ">= MAX_MODE_EVALUATIONS:",
           ("tests/test_cli.py",), "exactly MAX_MODE_EVALUATIONS mode evaluations are allowed"),
    Mutant("src/bellchsh/fock.py", "SQUEEZED_SIGNS = (1.0, 1.0, 1.0, -1.0)",
           "SQUEEZED_SIGNS = (1.0, 1.0, -1.0, 1.0)", ("tests/test_fock.py",),
           "the squeezed closed form's one minus sign is on cos(a2 + b2)"),
    Mutant("src/bellchsh/spin.py", "ClosedFormCorrelator(2.0 / 3.0,",
           "ClosedFormCorrelator(3.0 / 4.0,", ("tests/test_spin.py",),
           "spin one's closed form carries the prefactor 2/3"),
    Mutant("src/bellchsh/spin.py", "constant=1.0)", "constant=0.0)", ("tests/test_spin.py",),
           "spin one's closed form has the constant term 1 inside the prefactor"),
    Mutant("src/bellchsh/spin.py", "orientation=-1.0)", "orientation=1.0)",
           ("tests/test_spin.py",), "spin half's B phases subtract from its A phases"),
    Mutant("tests/cli_contract.py", 'err.count("\\n") == 1', 'err.count("\\n") >= 1',
           ("tests/test_cli_contract.py",), "a refused row writes one stderr line, not more"),
    Mutant("tests/cli_contract.py", 'and err.endswith("\\n")', 'and err.endswith("")',
           ("tests/test_cli_contract.py",), "a refused row's one stderr line ends in a newline"),
    Mutant("tests/cli_contract.py", 'STORED["rows"][name]):', 'thin(csv_text, stride)[1]):',
           ("tests/test_cli_contract.py",),
           "a pinned row's full row count is pinned, not only the rows its stride keeps"),
    Mutant("tests/cli_contract.py", "if md5(json_text) != json_md5:",
           "if md5(json_text) != md5(json_text):", ("tests/test_cli_contract.py",),
           "a pinned row's JSON stdout is held to its md5"),
)

#: The environment of each pytest run: the test suite's warning filters,
#: and no bytecode written into the copy.
ENV = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning,error::DeprecationWarning",
           PYTHONDONTWRITEBYTECODE="1")

#: Worker copies, each running one pytest process at a time: at most two,
#: so the step stays small on a shared machine.
WORKERS = min(2, os.cpu_count() or 1)


def occurrence_faults(mutants=MUTANTS, root=ROOT):
    """Yield ``(row, fault)`` for each row whose file is missing or whose
    ``old`` text does not occur exactly once in it."""
    for row in mutants:
        path = root / row.file
        if not path.is_file():
            yield row, f"{row.file} does not exist"
            continue
        count = path.read_text(encoding="utf-8").count(row.old)
        if count != 1:
            yield row, f"old text occurs {count} times in {row.file}, not once"


def run_tests(copy: pathlib.Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code on the test files ``tests`` of the copy."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=dict(ENV, PYTHONPATH=str(copy / "src")), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, timeout=600).returncode


def run_row(copy: pathlib.Path, row: Mutant) -> int:
    """Apply ``row`` to the copy, run its tests there, restore the file,
    and return pytest's exit code."""
    path = copy / row.file
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(row.old, row.new), encoding="utf-8")
    try:
        return run_tests(copy, row.tests)
    finally:
        path.write_text(text, encoding="utf-8")


def on_copies(copies, run, jobs):
    """Yield ``run(copy, job)`` for each of ``jobs``, in their order, run on
    one thread per copy; each job runs on a copy that no other job holds
    meanwhile."""
    free = queue.SimpleQueue()
    for copy in copies:
        free.put(copy)

    def on_free_copy(job):
        copy = free.get()
        try:
            return run(copy, job)
        finally:
            free.put(copy)

    with ThreadPoolExecutor(len(copies)) as pool:
        yield from pool.map(on_free_copy, jobs)


def verdict(row: Mutant, code: int) -> tuple[str, bool]:
    """The printed outcome of a row whose pytest exited ``code``, and
    whether it breaks the row's contract."""
    if code not in (0, 1):
        return f"pytest exited {code}", True
    killed = code == 1
    if row.equivalent:
        return (f"killed, but marked equivalent: {row.equivalent}" if killed
                else f"survived, equivalent: {row.equivalent}"), killed
    return ("killed" if killed else "SURVIVED"), not killed


def main() -> int:
    faults = list(occurrence_faults())
    for row, fault in faults:
        print(f"{row.file}: {row.old!r}: {fault}", file=sys.stderr)
    if faults:
        return 1
    broken = 0
    with tempfile.TemporaryDirectory() as tmp:
        copies = [pathlib.Path(tmp) / str(worker) for worker in range(WORKERS)]
        for copy in copies:
            for name in ("src", "tests", "demos"):
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            shutil.copy(ROOT / "pyproject.toml", copy)
        sets = list(dict.fromkeys(row.tests for row in MUTANTS))
        failing = [(tests, code) for tests, code in zip(sets, on_copies(copies, run_tests, sets))
                   if code]
        for tests, code in failing:
            print(f"{' '.join(tests)}: pytest exited {code} on the unmutated copy",
                  file=sys.stderr)
        if failing:
            return 1
        for row, code in zip(MUTANTS, on_copies(copies, run_row, MUTANTS)):
            outcome, fault = verdict(row, code)
            broken += fault
            print(f"{row.file}: {row.old!r} -> {row.new!r}: {outcome} ({row.why})", flush=True)
    print(f"{len(MUTANTS) - broken} of {len(MUTANTS)} mutation rows hold")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
