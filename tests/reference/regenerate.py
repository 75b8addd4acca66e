"""Rewrite the reference outputs that ``tests/test_reference.py`` checks.

Each invocation in ``INVOCATIONS`` runs through ``bellchsh.cli.main``
in-process; its stdout goes to ``<name>.csv`` beside this script, and
``platform.json`` records the platform key the files were made on and
each file's full row count.  A long output keeps every ``stride``-th
data row plus the last.

    PYTHONPATH=src python tests/reference/regenerate.py

Regenerating changes what the reference test accepts: a change that
moves any file should name the moved rows and their largest change.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import platform

import numpy as np

from bellchsh import cli

HERE = pathlib.Path(__file__).resolve().parent
KEY_FILE = HERE / "platform.json"

#: name -> (argv, stride): the stdout of ``bellchsh *argv``, keeping every
#: ``stride``-th data row plus the last.
INVOCATIONS = {
    "spin": (["spin"], 1),
    "squeeze-scan": (["squeeze-scan"], 1),
    "optimize": (["optimize"], 1),
    "kg-norm": (["kg-norm"], 1),
    "rindler-scan": (["rindler-scan"], 1),
    "optimize-spin-one": (["optimize", "--closed-form", "spin-one"], 1),
    "kg-norm-normalize": (["kg-norm", "--normalize"], 1),
    "kg-norm-center-energy": (["kg-norm", "--center-energy", "1.5"], 1),
    "kg-norm-center-width": (["kg-norm", "--center", "0.5,-0.3,0.8", "--width", "0.8"], 1),
    "kg-norm-amplitude-normalize": (["kg-norm", "--amplitude", "1e18", "--normalize"], 1),
    "kg-norm-quad-48": (["kg-norm", "--quad", "48", "--normalize", "--width", "0.7"], 1),
    "squeeze-scan-cutoff-512": (["squeeze-scan", "--cutoff", "512"], 1),
    "squeeze-scan-angles": (["squeeze-scan", "--angles", "0.3,-1.2,2.1,0.7",
                             "--cutoff", "200"], 1),
    "rindler-scan-accel": (["rindler-scan", "--accel-range", "0.1:30:500"], 1),
    "rindler-scan-long": (["rindler-scan", "--modes", "0.5,1.0,2.0",
                           "--temp-range", "0.01:5.0:20000"], 40),
}


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


def capture(argv: list[str]) -> str:
    """stdout of ``bellchsh *argv``, run in-process; it must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"bellchsh {' '.join(argv)} exited {code}")
    return buf.getvalue()


def thin(text: str, stride: int) -> tuple[str, int]:
    """The header, every ``stride``-th data row and the last one, and the
    full data-row count."""
    header, *rows = text.splitlines(keepends=True)
    kept = rows[::stride]
    if rows and (len(rows) - 1) % stride:
        kept.append(rows[-1])
    return header + "".join(kept), len(rows)


def main() -> None:
    counts = {}
    for name, (argv, stride) in INVOCATIONS.items():
        text, counts[name] = thin(capture(argv), stride)
        (HERE / f"{name}.csv").write_text(text, encoding="utf-8")
    record = {"key": platform_key(), "rows": counts}
    KEY_FILE.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
