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
    pin_fault,
    pinned_stdout,
    refusal_fault,
    run_in_process,
    thin,
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
    assert refusal_fault(2, "configuration error: x\nconfiguration error: y\n")
    assert refusal_fault(2, "configuration error: x\ntrailing")
    assert refusal_fault(2, "configuration error: x\n") is None
    assert usage_fault(2, "configuration error: x\n")
    assert usage_fault(2, "usage: bellchsh\n" + "x" * 1000 + ": error: x\n")
    assert usage_fault(0, "")


def test_pin_fault_names_each_missed_pin():
    # the kept rows, the full row count and the JSON md5 are each pinned;
    # deleting a row the stride skips keeps every kept row but not the count
    name = "rindler-scan-long"
    _, stride, json_md5 = PINNED[name]
    csv_text, json_text = pinned_stdout(name), pinned_stdout(name, "--format", "json")
    lines = csv_text.splitlines(keepends=True)
    changed = lines[0] + lines[1].replace("0", "1", 1) + "".join(lines[2:])  # data row 0
    skipped = "".join(lines[:19971] + lines[19972:])  # data row 19970 of 20000
    assert thin(skipped, stride)[0] == thin(csv_text, stride)[0]
    faults = [pin_fault(name, stride, json_md5, csv_text, json_text),
              pin_fault(name, stride, json_md5, changed, json_text),
              pin_fault(name, stride, json_md5, skipped, json_text),
              pin_fault(name, stride, "0" * 32, csv_text, json_text)]
    if not EXACT:
        assert faults == [None] * 4
        return
    csv_fault = f"CSV stdout differs from tests/reference/{name}.csv or its row count"
    assert faults == [None, csv_fault, csv_fault,
                      f"JSON stdout has md5 {json_md5}, pinned {'0' * 32}"]


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
