"""Every row of ``cli_contract``, run in-process through ``run_in_process``.

A pinned row's ``--format json`` stdout must have its md5 (its CSV is
``tests/test_reference.py``'s), a refused row must exit 2 with one
short ``configuration error`` line, and a usage row must exit 2 with
argparse's usage lines and one short ``error:`` line.  The demos run
in fresh processes only; here their runner is checked to report a
broken one.
"""

import re
import warnings

import pytest

from cli_contract import (
    DEMOS,
    EXACT,
    IN_PROCESS,
    LINUX,
    PINNED,
    REFUSED,
    USAGE_ERRORS,
    abridged,
    argv,
    demo_faults,
    fresh_faults,
    md5,
    pinned_stdout,
    refusal_fault,
    run_in_process,
    usage_fault,
)


@pytest.mark.parametrize("name", IN_PROCESS)
def test_json_stdout_matches_its_md5(name):
    out = pinned_stdout(name, "--format", "json")
    if not EXACT:
        warnings.warn(f"{name}: platform key differs from the stored one, so the "
                      "md5 of the JSON stdout was not compared")
        return
    assert md5(out) == PINNED[name][2]


@pytest.mark.parametrize("text", REFUSED, ids=abridged)
def test_refusal_is_one_short_line(tmp_path, text):
    code, out, err = run_in_process(argv(text, str(tmp_path)))
    assert refusal_fault(code, err) is None, err[-2000:]
    assert out == ""


@pytest.mark.parametrize("text", USAGE_ERRORS, ids=abridged)
def test_usage_error_is_short(text):
    code, out, err = run_in_process(argv(text))
    assert usage_fault(code, err) is None, err[-2000:]
    assert out == ""


def test_each_argv_is_one_row():
    texts = [text for text, _, _ in PINNED.values()] + [*REFUSED, *USAGE_ERRORS]
    assert len(set(texts)) == len(texts)


def test_faults_name_a_broken_contract():
    assert refusal_fault(1, "Traceback (most recent call last):\n  x\n")
    assert refusal_fault(2, "configuration error: " + "x" * 1000 + "\n")
    assert refusal_fault(2, "precision failure: x\n")
    assert usage_fault(2, "configuration error: x\n")
    assert usage_fault(2, "usage: bellchsh\n" + "x" * 1000 + ": error: x\n")
    assert usage_fault(0, "")


def test_fresh_process_run_reports_each_broken_row(tmp_path):
    # the script CI runs: a pin off by its md5, a CSV and a JSON peak RSS
    # over its bound and a "refusal" that exits 0 are reported, a usage row
    # that holds is not
    text, stride, _ = PINNED["rindler-scan-underflow"]
    faults = list(fresh_faults(str(tmp_path), {"rindler-scan-underflow": (
        text, stride, "0" * 32)}, ("spin",), USAGE_ERRORS,
        {("rindler-scan-underflow", "csv"): 1.0, ("rindler-scan-underflow", "json"): 1.0}))
    assert [row for row, _ in faults] == (
        [text] * EXACT + [text, f"{text} --format json"] * LINUX + ["spin"])
    if LINUX:
        for _, fault in faults[EXACT:EXACT + 2]:
            assert re.fullmatch(r"peak RSS \d+\.\d MB, bound 1 MB", fault)
    assert faults[-1][1].startswith("exited 0 ")


def test_demo_run_reports_each_broken_demo():
    # a demo off by its md5 and one that exits non-zero are reported
    faults = list(demo_faults({"spin_singlets.py": "0" * 32,
                               "missing.py": DEMOS["spin_singlets.py"]}))
    assert [name for name, _ in faults] == ["spin_singlets.py"] * EXACT + ["missing.py"]
    if EXACT:
        assert faults[0][1] == f"stdout has md5 {DEMOS['spin_singlets.py']}, pinned {'0' * 32}"
    assert faults[-1][1].startswith("exited 2: ")
