"""Bounded property fuzz of ``cli.main`` over every flag of the five
subcommands: whatever the values, the run exits 0, 2 or 3 without an
uncaught exception or a ``RuntimeWarning`` (numpy's overflow and
invalid-value warnings are raised as errors), and a configuration error
(exit 2) writes nothing to stdout.

Sizes stay small (cutoff <= 64, --quad <= 256 nodes, <= 50 grid steps;
the one oversized step count drawn is 10**12, which must be rejected
before any grid is allocated), and the search is derandomized, so the
module runs in a few seconds and the same examples every time.
"""

import contextlib
import io
import os
import warnings
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bellchsh.cli import OUT_DIR_ENV, main  # noqa: E402

EXTREMES = (float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
            1e300, -1e300, 1e-300, -1e-300, 5e-324)


def number(lo, hi):
    """A float flag value: ordinary values in [lo, hi] plus the extremes."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(EXTREMES)).map(repr)


def joined(element, min_size, max_size):
    return st.lists(element, min_size=min_size, max_size=max_size).map(",".join)


ANGLE = st.one_of(number(-7.0, 7.0),
                  st.sampled_from(["pi", "-pi/4", "3pi/4", "2*pi/3", "pie", ""]))
ANGLES = joined(ANGLE, 3, 5)  # 4 is the valid count
STEPS = st.one_of(st.integers(-1, 50), st.just(10**12)).map(str)


def grid(lo, hi):
    return st.one_of(
        st.tuples(number(lo, hi), number(lo, hi), STEPS).map(":".join),
        st.sampled_from(["", "1:2", "0.1:0.9:x", "0.1:0.9:2:3"]),
    )


def optional(flag, values):
    """No flag, or ``flag=value`` (the ``=`` form lets values start with -)."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


def switch(flag):
    return st.sampled_from([[], [flag]])


def command(name, *parts):
    options = st.tuples(*parts, optional("--format", st.sampled_from(["csv", "json"])),
                        st.sampled_from([[], ["--out=fuzz.out"]]))
    return options.map(lambda opts: [name] + [arg for opt in opts for arg in opt])


SUBCOMMANDS = {
    "spin": command(
        "spin", optional("--angles", ANGLES), switch("--debug-corrupt-phase")),
    "squeeze-scan": command(
        "squeeze-scan", optional("--eta-range", grid(0.0, 1.0)),
        optional("--cutoff", st.integers(-2, 64).map(str)),
        optional("--angles", ANGLES)),
    "optimize": command(
        "optimize", optional("--closed-form", st.sampled_from(["squeezed", "spin-one"])),
        optional("--eta", number(0.0, 1.0))),
    "kg-norm": command(
        "kg-norm", optional("--mass", number(0.0, 5.0)),
        optional("--center", joined(number(-3.0, 3.0), 2, 4)),
        optional("--center-energy", number(0.0, 5.0)),
        optional("--width", number(0.05, 5.0)),
        optional("--amplitude", number(-3.0, 3.0)),
        optional("--quad", joined(st.integers(-1, 256).map(str), 1, 3)),
        optional("--tol", number(1e-14, 1e-2)),
        switch("--normalize")),
    "rindler-scan": command(
        "rindler-scan", optional("--modes", joined(number(0.0, 5.0), 1, 3)),
        optional("--temp-range", grid(0.0, 5.0)),
        optional("--accel-range", grid(0.0, 30.0))),
}


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_exit_code_contract(name, out_dir):
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(SUBCOMMANDS[name])
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {OUT_DIR_ENV: out_dir}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit_:  # argparse rejects the command line
                code = exit_.code
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == "", argv

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        check()
