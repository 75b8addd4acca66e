"""Unit tests of ``errors.to_number``, the one reader of a scalar, and
``errors.named``, the one namer of a refused argument."""

import math
import tracemalloc

import numpy as np
import pytest

from bellchsh.errors import named, to_number


@pytest.mark.parametrize("value", [
    "0.5", "0_5", " 0.5 ", b"1", bytearray(b"1"), np.str_("1"), np.bytes_(b"1"),
    np.array("1.5"), np.array(b"1.5"), np.array([0.5]), np.array([[0.5]]),
], ids=["str", "underscore", "padded", "bytes", "bytearray", "np-str", "np-bytes",
        "0-d-str", "0-d-bytes", "1-entry", "1-entry-2-d"])
def test_text_and_arrays_that_are_not_0d_read_as_nan(value):
    # text is never parsed, whatever it spells; a 0-d array of text is text
    for kind in (float, complex):
        number = to_number(value, kind)
        assert type(number) is kind and math.isnan(number.real)


@pytest.mark.parametrize("value,expected", [
    (np.array(2.0), 2.0), (np.array(3), 3.0), (np.array(0.5 + 0j), 0.5),
    (np.array(0.5 + 0j, dtype=np.complex64), 0.5), (np.complex128(0.5), 0.5),
    (0.5 + 0j, 0.5), (np.float32(0.25), 0.25), (True, 1.0), (0.25, 0.25),
])
def test_0d_arrays_and_numbers_read_as_their_value(value, expected):
    number = to_number(value)
    assert type(number) is float and number == expected


@pytest.mark.parametrize("value", [np.array(0.5 + 1e-300j), 1j, 10**400, None, [0.5], (0.5,)])
def test_no_real_number_reads_as_nan(value):
    assert math.isnan(to_number(value))


def test_complex_kind_keeps_the_imaginary_part():
    assert to_number(np.array(0.5 + 1j), complex) == 0.5 + 1j
    assert to_number(np.array(2.0), complex) == 2.0 + 0j


@pytest.mark.parametrize("value,shown", [
    (np.array([[0, 2]]), "[[0, 2]]"),
    (np.arange(16), "[0, 1, 2, 3, 4, 5, ...]"),
    (np.array([0.5, math.nan]), "[0.5, nan]"),
    (np.array(2.0), "2.0"),
    (np.empty((0, 2), int), "[]"),
    (np.array(["x" * 100]), "['xxxxxxxxxxxx...xxxxxxxxxxxxx']"),
])
def test_array_of_at_most_16_entries_listed(value, shown):
    assert named(value) == shown == named(value.tolist())


@pytest.mark.parametrize("value,shown", [
    (np.arange(17), "array of shape (17,) and dtype int64"),
    (np.empty((2, 0)), "array of shape (2, 0) and dtype float64"),
    # no entry, but tolist() would make 10**12 empty lists
    (np.empty((10**12, 0)), "array of shape (1000000000000, 0) and dtype float64"),
])
def test_larger_array_named_by_shape(value, shown):
    assert named(value) == shown


def test_million_entries_named_by_shape_unlisted_and_uncopied():
    values = np.zeros(10**6)  # 8 MB, before tracing
    tracemalloc.start()
    try:
        nested = named([values, values])
        alone = named(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alone == "array of shape (1000000,) and dtype float64"
    assert nested == f"[{alone}, {alone}]"
    assert peak < 2**20


def test_depth_two_holds_for_lists_and_arrays():
    assert named([[[1]]]) == "[[[...]]]"
    assert named(np.zeros((2, 2, 2))) == "[[[...], [...]], [[...], [...]]]"
    assert named([[np.arange(3)]]) == "[[[...]]]"
    itself = []
    itself.append(itself)
    assert named(itself) == "[[[...]]]"
