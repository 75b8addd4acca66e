"""Every row of ``cli_contract``, run in-process through ``cli.main``.

A pinned row's ``--format json`` stdout must have its md5 (its CSV is
``tests/test_reference.py``'s), a refused row must exit 2 with one
short ``configuration error`` line, and a usage row must exit 2 with
argparse's usage lines and one short ``error:`` line.
"""

import warnings

import pytest

from bellchsh.cli import main
from cli_contract import (
    EXACT,
    FRESH_PROCESS_ONLY,
    PINNED,
    REFUSED,
    USAGE_ERRORS,
    abridged,
    argv,
    fresh_faults,
    md5,
    refusal_fault,
    usage_fault,
)


def run(capsys, args):
    """Exit code, stdout and stderr of ``bellchsh *args``; an argparse
    usage error's ``SystemExit`` is its exit code."""
    try:
        code = main(args)
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", list(PINNED))
def test_json_stdout_matches_its_md5(capsys, name):
    text, _, json_md5 = PINNED[name]
    if name in FRESH_PROCESS_ONLY:
        pytest.skip("checked by python tests/cli_contract.py in fresh processes")
    code, out, err = run(capsys, [*argv(text), "--format", "json"])
    assert (code, err) == (0, "")
    if not EXACT:
        warnings.warn(f"{name}: platform key differs from the stored one, so the "
                      "md5 of the JSON stdout was not compared")
        return
    assert md5(out) == json_md5


@pytest.mark.parametrize("text", REFUSED, ids=abridged)
def test_refusal_is_one_short_line(capsys, tmp_path, text):
    code, out, err = run(capsys, argv(text, str(tmp_path)))
    assert refusal_fault(code, err) is None, err[-2000:]
    assert out == ""


@pytest.mark.parametrize("text", USAGE_ERRORS, ids=abridged)
def test_usage_error_is_short(capsys, text):
    code, out, err = run(capsys, argv(text))
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
    # the script CI runs: a pin off by its md5 and a "refusal" that exits 0
    # are reported, a usage row that holds is not
    text, stride, _ = PINNED["rindler-scan-underflow"]
    faults = dict(fresh_faults(str(tmp_path), {"rindler-scan-underflow": (
        text, stride, "0" * 32)}, ("spin",), USAGE_ERRORS))
    assert sorted(faults) == sorted([text, "spin"] if EXACT else ["spin"])
    assert faults["spin"].startswith("exited 0 ")
