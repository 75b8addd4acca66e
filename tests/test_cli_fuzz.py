"""Bounded property fuzz of ``cli.main`` over every flag of the five
subcommands: whatever the values, the run exits 0, 2 or 3 without an
uncaught exception or a ``RuntimeWarning`` (numpy's overflow and
invalid-value warnings are raised as errors), and a configuration error
(exit 2) writes nothing to stdout and under 1,000 bytes to stderr: one
line, or argparse's usage lines and its error line.  Each flag that a
message can echo is also given 5,000-character texts, every one of them
in an explicit example as well.

Sizes stay small (cutoff <= 64, --quad <= 256 nodes, <= 50 grid steps;
the oversized counts drawn, 10**12 and a 4,300-digit one, must be
rejected before any grid or rule is built), and the search is
derandomized, so the module runs in a few seconds and the same examples
every time.
"""

import contextlib
import io
import os
import warnings
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bellchsh.cli import OUT_DIR_ENV, main  # noqa: E402

EXTREMES = (float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
            1e300, -1e300, 1e-300, -1e-300, 5e-324)


#: 5,000-character flag texts: unparsed text, a list of 2,501 items, a
#: zero denominator, and a 4,300-digit count (the longest ``int`` reads)
#: as a grid's STEPS and as --quad's RADIAL
LONG_TEXTS = ("x" * 5000, "0," * 2500, "pi/" + "0" * 4997,
              "0:1:" + " " * 696 + "9" * 4300, " " * 700 + "9" * 4300)
LONG = st.sampled_from(LONG_TEXTS)


def number(lo, hi):
    """A float flag value: ordinary values in [lo, hi] plus the extremes."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(EXTREMES)).map(repr)


def joined(element, min_size, max_size):
    return st.lists(element, min_size=min_size, max_size=max_size).map(",".join)


ANGLE = st.one_of(number(-7.0, 7.0),
                  st.sampled_from(["pi", "-pi/4", "3pi/4", "2*pi/3", "pie", "", "pi/0", "3pi/0."]))
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


def echoed(flag, values):
    """``optional``, with a 5,000-character text drawn as well."""
    return optional(flag, st.one_of(values, LONG))


def switch(flag):
    return st.sampled_from([[], [flag]])


def command(name, *parts):
    options = st.tuples(*parts, optional("--format", st.sampled_from(["csv", "json"])),
                        st.sampled_from([[], ["--out=fuzz.out"], ["--out=missing/fuzz.out"]]))
    return options.map(lambda opts: [name] + [arg for opt in opts for arg in opt])


SUBCOMMANDS = {
    "spin": command(
        "spin", echoed("--angles", ANGLES)),
    "squeeze-scan": command(
        "squeeze-scan", echoed("--eta-range", grid(0.0, 1.0)),
        optional("--cutoff", st.integers(-2, 64).map(str)),
        echoed("--angles", ANGLES)),
    "optimize": command(
        "optimize", optional("--closed-form", st.sampled_from(["squeezed", "spin-one"])),
        optional("--eta", number(0.0, 1.0))),
    "kg-norm": command(
        "kg-norm", optional("--mass", number(0.0, 5.0)),
        echoed("--center", joined(number(-3.0, 3.0), 2, 4)),
        optional("--center-energy", number(0.0, 5.0)),
        optional("--width", number(0.05, 5.0)),
        optional("--amplitude", number(-3.0, 3.0)),
        echoed("--quad", joined(st.integers(-1, 256).map(str), 1, 3)),
        optional("--tol", number(1e-14, 1e-2)),
        switch("--normalize")),
    "rindler-scan": command(
        "rindler-scan", echoed("--modes", joined(number(0.0, 5.0), 1, 3)),
        echoed("--temp-range", grid(0.0, 5.0)),
        echoed("--accel-range", grid(0.0, 30.0))),
}

#: The flags of each subcommand that a configuration error can echo, the
#: ones argparse refuses (a float, an int or a choice) included.
ECHOED_FLAGS = {"spin": ["--angles", "--format"],
                "squeeze-scan": ["--eta-range", "--angles", "--cutoff"],
                "optimize": ["--eta"], "kg-norm": ["--center", "--quad", "--mass"],
                "rindler-scan": ["--modes", "--temp-range", "--accel-range"]}


def long_examples(name):
    """Decorate a ``@given`` test of ``name`` with an explicit example of
    every long text at every echoed flag."""
    def add(test):
        for flag in ECHOED_FLAGS[name]:
            for text in LONG_TEXTS:
                test = example([name, f"{flag}={text}"])(test)
        return test
    return add


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_exit_code_contract(name, out_dir):
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(SUBCOMMANDS[name])
    @long_examples(name)
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        by_argparse = False
        with mock.patch.dict(os.environ, {OUT_DIR_ENV: out_dir}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit_:  # argparse rejects the command line
                code, by_argparse = exit_.code, True
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        message = err.getvalue()
        if code == 2:
            assert out.getvalue() == "", argv
            assert len(message.encode()) < 1000, message[:2000]
        if code == 2 and not by_argparse:
            assert message.count("\n") == 1 and message.endswith("\n"), message[:2000]

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        check()
