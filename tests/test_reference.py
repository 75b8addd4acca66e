"""stdout of the reference invocations, field by field against the files
in ``tests/reference/`` (rewritten by ``tests/reference/regenerate.py``).

Text fields, the header and the row counts must match exactly.  Float
fields must match exactly too (the same 17-digit text) when this
platform's key matches the one stored with the files; on another key
they may differ by at most 4 ulp, and the test warns that it ran that
looser comparison.
"""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from reference.regenerate import (
    HERE,
    INVOCATIONS,
    KEY_FILE,
    capture,
    platform_key,
    thin,
)

STORED = json.loads(KEY_FILE.read_text(encoding="utf-8"))
EXACT = STORED["key"] == platform_key()

#: Largest float difference, in units of the stored value's spacing, on
#: a platform other than the one the files were made on.
LOOSE_ULP = 4


def as_float(text: str):
    """The field's float value, or None for a text field."""
    try:
        return float(text)
    except ValueError:
        return None


def compare_field(got: str, want: str, where: str, exact: bool = EXACT) -> None:
    if exact or got == want:
        assert got == want, where
        return
    got_f, want_f = as_float(got), as_float(want)
    assert got_f is not None and want_f is not None, f"{where}: {got!r} != {want!r}"
    assert math.isfinite(want_f), f"{where}: {got!r} != {want!r}"
    ulps = abs(got_f - want_f) / np.spacing(abs(want_f))
    assert ulps <= LOOSE_ULP, f"{where}: {got} vs {want} ({ulps:.0f} ulp)"


def test_loose_comparison_allows_four_ulp_of_a_float_only():
    def ulps_from(x: float, n: int) -> str:
        return repr(float(x + n * np.spacing(x)))

    one_ulp = ulps_from(1.0, 1)
    compare_field(one_ulp, "1.0", "x", exact=False)
    compare_field(ulps_from(-2.5, 4), "-2.5", "x", exact=False)
    for got, want in ((ulps_from(1.0, 5), "1.0"),
                      ("supra", "supra-tsirelson"), ("", "0.0"), ("1.0", "inf")):
        with pytest.raises(AssertionError):
            compare_field(got, want, "x", exact=False)
    with pytest.raises(AssertionError):
        compare_field(one_ulp, "1.0", "x", exact=True)


def test_every_invocation_has_a_file():
    assert sorted(STORED["rows"]) == sorted(INVOCATIONS)
    assert sorted(p.stem for p in HERE.glob("*.csv")) == sorted(INVOCATIONS)


@pytest.mark.parametrize("name", list(INVOCATIONS))
def test_stdout_matches_reference(name):
    argv, stride = INVOCATIONS[name]
    text, count = thin(capture(argv), stride)
    assert count == STORED["rows"][name]
    got = list(csv.reader(text.splitlines()))
    want = list(csv.reader((HERE / f"{name}.csv").read_text(encoding="utf-8").splitlines()))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for i, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(got_row) == len(want_row), f"{name} row {i}"
        for field, g, w in zip(want[0], got_row, want_row):
            compare_field(g, w, f"{name} row {i} {field}")
    if not EXACT:
        warnings.warn(f"{name}: platform key differs from the stored one, so float "
                      f"fields were compared to {LOOSE_ULP} ulp, not exactly")


@pytest.mark.parametrize("name", list(INVOCATIONS))
def test_json_matches_csv(name):
    """``--format json`` carries the CSV's fields and rows: each float is
    the same double, and null is an empty field."""
    argv, _ = INVOCATIONS[name]
    header, *rows = csv.reader(capture(argv).splitlines())
    payload = json.loads(capture([*argv, "--format", "json"]))
    assert payload["fields"] == header
    assert len(payload["rows"]) == len(rows)
    for i, (record, row) in enumerate(zip(payload["rows"], rows), start=1):
        assert list(record) == header, f"{name} row {i}"
        for field, text in zip(header, row):
            value, where = record[field], f"{name} row {i} {field}"
            if value is None:
                assert text == "", where
            elif isinstance(value, float):
                assert repr(float(text)) == repr(value), where
            else:
                assert str(value) == text, where
