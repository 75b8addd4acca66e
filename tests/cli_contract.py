"""The command line's contract, one row per pinned invocation.

Every argv the CLI is checked with, and its exit code, is written here
once.  An argv is written as the shell would split it, on whitespace;
``$TMP`` stands for a temporary directory the runner makes.

- ``PINNED``: exit 0 with an empty stderr.  The CSV stdout is
  ``tests/reference/<name>.csv``, every ``stride``-th data row plus the
  last, and the ``--format json`` stdout has the md5 given.  Both pins
  are exact, so they are checked only on the platform whose key
  ``tests/reference/platform.json`` stores.
- ``PEAK_MB``: a bound on the peak RSS of a pinned row's CSV or JSON
  run, keyed by the row's name and the format.  The CLI is spawned by
  a small launcher process (``LAUNCHER``), so the reading is the CLI's
  own peak, not floored at the runner's.
- ``REFUSED``: exit 2 with one ``configuration error: `` line of under
  1,000 bytes on stderr, and no traceback.
- ``USAGE_ERRORS``: exit 2 from argparse, its usage lines and one
  ``error:`` line, under 1,000 bytes in all.
- ``DEMOS``: each script under ``demos/`` exits 0, and its stdout has
  the md5 given; the md5 is exact, so it is checked only on the stored
  platform, as the pins are.

``tests/test_cli_contract.py`` and ``tests/test_reference.py`` run the
rows in-process through ``run_in_process``, which runs each argv once,
and ``tests/reference/regenerate.py`` rewrites the CSV pins from them.
Run as a script, this module runs every row in a fresh
``python -m bellchsh`` process and every demo in a fresh ``python``
process, under the warning filters of the test suite, prints the peak
RSS of each bounded row next to its bound, and exits 1 if any row or
demo breaks its contract:

    python tests/cli_contract.py
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import platform
import signal
import subprocess
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference"
KEY_FILE = REFERENCE / "platform.json"

LONG = "x" * 5000

#: name -> (argv, stride, md5 of the ``--format json`` stdout)
PINNED = {
    "spin": ("spin", 1, "d57290f0672355c261e4285dab979d5d"),
    "squeeze-scan": ("squeeze-scan", 1, "dfc9e79c7a67374a3fdf5d96f4a3358c"),
    "optimize": ("optimize", 1, "2ac652b9e4ac963507e858c78971cfab"),
    "kg-norm": ("kg-norm", 1, "fe2ee7fe98df427f2be9b6704b2ad0a9"),
    "rindler-scan": ("rindler-scan", 1, "a08994228d78032275f697c395fe1d91"),
    "optimize-spin-one": ("optimize --closed-form spin-one", 1,
                          "fa2123844b38bc0676bb80d5285c92cc"),
    "kg-norm-normalize": ("kg-norm --normalize", 1, "01e96248a97a15c24638fcea47149580"),
    "kg-norm-center-energy": ("kg-norm --center-energy 1.5", 1,
                              "2f192d768a46ea760883505dd1569a92"),
    "kg-norm-center-width": ("kg-norm --center 0.5,-0.3,0.8 --width 0.8", 1,
                             "37a160047722bf7e5cf117a78ceeb048"),
    "kg-norm-amplitude-normalize": ("kg-norm --amplitude 1e18 --normalize", 1,
                                    "11d71982b9473bace084a5c6593cc633"),
    "kg-norm-quad-48": ("kg-norm --quad 48 --normalize --width 0.7", 1,
                        "0fafea759024d9f6b320cfb7c36cb75a"),
    "kg-norm-quad-2048-normalize": ("kg-norm --quad 2048 --normalize", 1,
                                    "8702c77d79befec86f8e4e7f6486d577"),
    "squeeze-scan-cutoff-512": ("squeeze-scan --cutoff 512", 1,
                                "37e2206a5e13be5547ae451788c950f8"),
    "squeeze-scan-cutoff-2048": ("squeeze-scan --cutoff 2048 --eta-range 0.5:0.9:3", 1,
                                 "852079017e5ef2eb612ef267818d6bc1"),
    "squeeze-scan-angles": ("squeeze-scan --angles 0.3,-1.2,2.1,0.7 --cutoff 200", 1,
                            "4bdff246d650e286e4cd462f7ecc1e97"),
    "rindler-scan-accel": ("rindler-scan --accel-range 0.1:30:500", 1,
                           "afd29a30e22bf0d6c1c0aa03506292c9"),
    "rindler-scan-long": ("rindler-scan --modes 0.5,1.0,2.0 --temp-range 0.01:5.0:20000", 40,
                          "7b782e832748d2c7ba6d267e808dd349"),
    "rindler-scan-underflow": ("rindler-scan --modes 2 --temp-range 0.001:0.01:4", 1,
                               "c4b5bcb6fce66b4e00012dbc979da9f4"),
    "rindler-scan-100k": ("rindler-scan --temp-range 0.01:5:100000", 1000,
                          "27ab4bde003d8594d0b3f85518af61b0"),
    "rindler-scan-accel-100k": ("rindler-scan --accel-range 0.1:30:100000", 1000,
                                "de30a662d88234ff6fa160c6085ac122"),
    "squeeze-scan-100k": ("squeeze-scan --eta-range 0.01:0.99:100000", 1000,
                          "b6f24eb4d5b9d8fe5fd140d372defd8b"),
    "squeeze-scan-cutoff-2048-100k": ("squeeze-scan --cutoff 2048 --eta-range 0.01:0.99:100000",
                                      1000, "67c56dfd3f739f7797cf5d1d24af4888"),
}

#: Pinned rows the in-process tests run.  The rest run in fresh processes
#: only: the two 4096-node Gauss-Legendre rules take ~8 s, the
#: 100,000-row scans are there for their peak RSS, and the cutoff-2048
#: one pins ``chsh_matrix`` where most powers of eta underflow.
IN_PROCESS = [name for name in PINNED if name not in (
    "kg-norm-quad-2048-normalize", "rindler-scan-100k", "rindler-scan-accel-100k",
    "squeeze-scan-100k", "squeeze-scan-cutoff-2048-100k")]

#: (name, format) -> bound in MB on the child's ``ru_maxrss``, read on Linux
#: only (in KiB).
PEAK_MB = {("squeeze-scan-cutoff-2048", "csv"): 50.0, ("rindler-scan-100k", "csv"): 40.0,
           ("rindler-scan-100k", "json"): 40.0, ("rindler-scan-accel-100k", "csv"): 40.0,
           ("rindler-scan-accel-100k", "json"): 40.0, ("squeeze-scan-100k", "csv"): 40.0,
           ("squeeze-scan-100k", "json"): 40.0, ("kg-norm-quad-2048-normalize", "csv"): 350.0,
           ("squeeze-scan-cutoff-2048-100k", "csv"): 40.0}
LINUX = sys.platform == "linux"

REFUSED = (
    "kg-norm --width 1e300",
    "kg-norm --center-energy 1e200",
    "kg-norm --amplitude 1e200",
    "kg-norm --quad 128,32",
    "kg-norm --amplitude 1e-40",
    "kg-norm --tol nan",
    "kg-norm --center 1,2",
    "kg-norm --center 1,2 --center-energy 3",
    "spin --out $TMP/missing/x.csv",
    "spin --angles=",
    f"spin --out {LONG}",
    "squeeze-scan --angles pi/0,0,0,0",
    "squeeze-scan --eta-range=-1.7e308:1.7e308:3",
    "squeeze-scan --cutoff 9",
    "squeeze-scan --angles=",
    "optimize --eta 1.0",
    "rindler-scan --accel-range 0:1:3",
    f"rindler-scan --modes {','.join(map(str, range(1, 102)))} --temp-range 0.1:1:100000",
    "rindler-scan --temp-range=-1.7e308:1.7e308:3",
    f"rindler-scan --modes {','.join(map(str, range(15000, 0, -1)))}",
    f"rindler-scan --modes {LONG}",
    "rindler-scan --temp-range=",
    "rindler-scan --accel-range=",
    "rindler-scan --temp-range 1:2:3 --accel-range=",
)

USAGE_ERRORS = (
    f"optimize --eta {LONG}",
)

#: demo file under ``demos/`` -> md5 of its stdout
DEMOS = {
    "field_smearing.py": "ef1e58df755ec3b18290e6cf57c0addd",
    "spin_singlets.py": "1792dddc2d3c0f6b0f37923d4b823071",
    "squeezed_oscillator.py": "55bfff6be6390829dd32497cc7850c15",
    "unruh_scan.py": "c8e21f17d0a8a252d3f4e2980abc7406",
}

#: The environment of a fresh ``python -m bellchsh``: ``src`` first on the
#: path, and the warning filters of the test suite (``pyproject.toml``).
FRESH_ENV = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning,error::DeprecationWarning",
                 PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                          os.environ.get("PYTHONPATH")))))

MAX_STDERR_BYTES = 1000


def argv(text: str, tmp: str = "") -> tuple[str, ...]:
    """The argv of a row, with ``$TMP`` replaced by the directory ``tmp``."""
    return tuple(text.replace("$TMP", tmp).split())


def abridged(text: str) -> str:
    """A short name for a row, for test ids and failure lines."""
    return text if len(text) <= 60 else f"{text[:40]}...{text[-16:]}"


def md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def platform_key() -> dict:
    """What decides the last bits of a float: numpy's version, the
    machine, and the SIMD features numpy dispatches its kernels on (it
    picks its ``exp`` by CPU)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "simd": sorted(name for name, found in __cpu_features__.items() if found),
    }


STORED = json.loads(KEY_FILE.read_text(encoding="utf-8"))
#: The pins hold exactly only where the files were made.
EXACT = STORED["key"] == platform_key()


def thin(text: str, stride: int) -> tuple[str, int]:
    """The header, every ``stride``-th data row and the last one, and the
    full data-row count."""
    header, *rows = text.splitlines(keepends=True)
    kept = rows[::stride]
    if rows and (len(rows) - 1) % stride:
        kept.append(rows[-1])
    return header + "".join(kept), len(rows)


def refusal_fault(code: int, err: str) -> str | None:
    """Why an exit of ``code`` with stderr ``err`` is not a ``REFUSED``
    row's, or None when it is."""
    if (code == 2 and err.startswith("configuration error: ") and err.count("\n") == 1
            and err.endswith("\n") and len(err.encode()) < MAX_STDERR_BYTES):
        return None
    return (f"exited {code} with {err.count(chr(10))} stderr lines of {len(err.encode())} "
            f"bytes, expected 2 with one configuration error line under {MAX_STDERR_BYTES} "
            f"bytes: {err[-2000:]}")


def usage_fault(code: int, err: str) -> str | None:
    """Why an exit of ``code`` with stderr ``err`` is not a ``USAGE_ERRORS``
    row's, or None when it is."""
    lines = err.splitlines()
    if (code == 2 and err.startswith("usage: bellchsh") and ": error: " in lines[-1]
            and len(err.encode()) < MAX_STDERR_BYTES):
        return None
    return (f"exited {code} with {len(err.encode())} stderr bytes, expected 2 with usage "
            f"lines and one error line under {MAX_STDERR_BYTES} bytes: {err[-2000:]}")


def pin_fault(name: str, stride: int, json_md5: str, csv_text: str,
              json_text: str) -> str | None:
    """Why the CSV and JSON stdout of a pinned row miss its pins, or None
    when they match or this is not the stored platform."""
    if not EXACT:
        return None
    if thin(csv_text, stride) != ((REFERENCE / f"{name}.csv").read_text(encoding="utf-8"),
                                  STORED["rows"][name]):
        return f"CSV stdout differs from tests/reference/{name}.csv or its row count"
    if md5(json_text) != json_md5:
        return f"JSON stdout has md5 {md5(json_text)}, pinned {json_md5}"
    return None


@functools.cache
def run_in_process(args: tuple[str, ...]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``bellchsh *args``, run once
    in-process; an argparse usage error's ``SystemExit`` is its exit code."""
    from bellchsh import cli  # here, so the fresh-process runner needs only numpy

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def pinned_stdout(name: str, *extra: str) -> str:
    """stdout of the pinned row ``name`` with ``extra`` flags, run in-process;
    it must exit 0 with an empty stderr."""
    code, out, err = run_in_process((*argv(PINNED[name][0]), *extra))
    if (code, err) != (0, ""):
        raise AssertionError(f"bellchsh {PINNED[name][0]} exited {code}: {err[-2000:]}")
    return out


#: Run by ``run_fresh`` on Linux in place of the CLI: it spawns ``python -m
#: bellchsh`` from its own small address space, waits for it, writes the
#: child's ``ru_maxrss`` (KiB) to the fd given first, and exits with the
#: child's code.  Linux carries the spawning process's high-water mark
#: into the child's ``ru_maxrss``, so a child spawned by the runner, after
#: the runner has read a large stdout, would read the runner's peak.
LAUNCHER = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "bellchsh", *sys.argv[2:]],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), str(usage.ru_maxrss).encode())
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_fresh(args: tuple[str, ...]) -> tuple[int, str, str, float | None]:
    """Exit code, stdout, stderr and, on Linux, peak RSS in MB (NaN if it
    was not read) of ``python -m bellchsh *args``, killed after 600 s."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        if LINUX:
            read, write = os.pipe()
            child = subprocess.Popen([sys.executable, "-c", LAUNCHER, str(write), *args],
                                     stdout=out, stderr=err, env=FRESH_ENV, pass_fds=(write,),
                                     start_new_session=True)
            os.close(write)
            try:
                child.wait(timeout=600)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)  # the launcher and the CLI
                child.wait()
            with os.fdopen(read, "rb") as peak:
                kib = peak.read()
            peak_mb = int(kib) / 1024 if kib else math.nan
        else:
            child = subprocess.Popen([sys.executable, "-m", "bellchsh", *args],
                                     stdout=out, stderr=err, env=FRESH_ENV)
            child.wait(timeout=600)
            peak_mb = None
        out.seek(0)
        err.seek(0)
        return (child.returncode, out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"), peak_mb)


def fresh_faults(tmp: str, pinned=PINNED, refused=REFUSED, usage_errors=USAGE_ERRORS,
                 peak_mb=PEAK_MB):
    """Run each row in a fresh process, print the peak RSS of each
    bounded run next to its bound, and yield ``(argv text, fault)`` for
    each way a row breaks its contract."""
    for name, (text, stride, json_md5) in pinned.items():
        code, csv_text, err, csv_peak = run_fresh(argv(text))
        json_code, json_text, json_err, json_peak = run_fresh((*argv(text), "--format", "json"))
        if (code, err, json_code, json_err) != (0, "", 0, ""):
            yield text, (f"exited {code} and {json_code} (CSV and JSON), expected 0 and 0 "
                         f"with empty stderr: {(err or json_err)[-2000:]}")
        elif fault := pin_fault(name, stride, json_md5, csv_text, json_text):
            yield text, fault
        for fmt, peak, run_text in (("csv", csv_peak, text),
                                    ("json", json_peak, f"{text} --format json")):
            if LINUX and (name, fmt) in peak_mb:
                reading = f"peak RSS {peak:.1f} MB, bound {peak_mb[name, fmt]:.0f} MB"
                print(f"bellchsh {abridged(run_text)}: {reading}")
                if peak > peak_mb[name, fmt]:
                    yield run_text, reading
    for rows, fault_of in ((refused, refusal_fault), (usage_errors, usage_fault)):
        for text in rows:
            code, _, err, _ = run_fresh(argv(text, tmp))
            if fault := fault_of(code, err):
                yield text, fault


def demo_faults(demos=DEMOS):
    """Run each demo in a fresh process and yield ``(demo, fault)`` for
    one that exits non-zero, or whose stdout misses its md5."""
    for name, stdout_md5 in demos.items():
        done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True,
                              text=True, env=FRESH_ENV, timeout=600)
        if done.returncode:
            yield name, f"exited {done.returncode}: {done.stderr[-2000:]}"
        elif EXACT and md5(done.stdout) != stdout_md5:
            yield name, f"stdout has md5 {md5(done.stdout)}, pinned {stdout_md5}"


def main() -> int:
    rows = len(PINNED) + len(REFUSED) + len(USAGE_ERRORS)
    with tempfile.TemporaryDirectory() as tmp:
        faults = list(fresh_faults(tmp))
    demos = list(demo_faults())
    for text, fault in faults:
        print(f"bellchsh {abridged(text)}: {fault}", file=sys.stderr)
    for name, fault in demos:
        print(f"demos/{name}: {fault}", file=sys.stderr)
    pins = "checked" if EXACT else "not checked: the platform key differs from the stored one"
    peaks = "checked" if LINUX else "not checked: ru_maxrss is read in KiB on Linux only"
    print(f"{rows - len(dict(faults))} of {rows} contract rows and {len(DEMOS) - len(demos)} "
          f"of {len(DEMOS)} demos hold in fresh processes (byte pins and demo md5s {pins}; "
          f"peak RSS bounds {peaks})")
    return 1 if faults or demos else 0


if __name__ == "__main__":
    sys.exit(main())
