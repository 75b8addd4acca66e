"""Bounded-failure property test of the package's public entry points.

Every export that checks a number, string or sequence argument is called
with hostile values: NaN, +-inf, zeros, negatives, integers up to 2**62
and beyond the float range, subnormals, 10**5-long lists, strings,
complex numbers, None and numpy arrays; an entry point that takes only
an ndarray is also given arrays that pass its type check and reach the
checks behind it.  Each call must return, or raise ``DomainError``,
``ShapeError`` or ``PrecisionError`` with a message under 1,000
characters, and a rejected call must peak under 1 MiB of traced
allocation.  A numpy ``RuntimeWarning`` is raised as an error.

A list that holds itself, which numpy or an unbounded repr would walk
forever or spell out at length, is passed to every entry point that
reads a list, in a child process with a timeout.

Arguments that are package objects (angles, Fock spaces, mode sets,
packets, rules) are valid ones; a sequence argument is also drawn as a
scalar, and a complex value as a Python or a numpy complex.  The hostile
sizes are ones a correct check refuses, or ``phase_flip`` dims beyond
any allocation, so a faulty build fails at once instead of allocating
gigabytes; a valid call stays small.  The search is derandomized, so
the module runs the same examples every time.
"""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import bellchsh  # noqa: E402
from bellchsh import (  # noqa: E402
    AngleSet,
    ChshQuadruple,
    ClosedFormCorrelator,
    DomainError,
    FactoredOperator,
    FockSpace,
    GaussianPacket,
    Ket,
    MAX_RADIAL,
    PrecisionError,
    RindlerModeSet,
    ShapeError,
    ShellQuadrature,
    bogoliubov_pair,
    chsh_closed,
    chsh_matrix,
    normalize,
    optimize_angles,
    phase_flip,
    rindler_chsh,
    singlet,
    spin_closed_form,
    spin_quadruple,
    squeezed_closed_form,
    squeezed_hamiltonian,
    squeezed_state,
    tau,
    temperature_scan,
    unruh_temperature,
)
from bellchsh.kleingordon import test_norm as norm_with_error  # noqa: E402

PACKAGE_ERRORS = (DomainError, ShapeError, PrecisionError)
MAX_MESSAGE = 1000
MAX_REJECTED_PEAK = 2**20
EXAMPLES = settings(max_examples=25, derandomize=True, database=None, deadline=None)

#: 10**5-long lists, built once: zeros, and an ascending run ending in NaN;
#: a Python list of 50,000 level pairs; and long text nested in a list.
ZEROS = [0.0] * 10**5
ASCENDING_THEN_NAN = [float(i) for i in range(1, 10**5)] + [math.nan]
LONG_PAIRS = [(0, 1)] * 50_000
NESTED_TEXT = [["x" * 10**5] * 3]

SHORT = st.one_of(
    st.sampled_from([
        math.nan, math.inf, -math.inf, 0, 0.0, -0.0, -1, -1.0, 5e-324, 1e-300,
        1e300, 2**62, -2**62, 10**400, True, None, "", "abc", "nan", "1.5",
        1j, 1 + 1e-300j, np.complex128(1 + 1j), np.complex128(0.5), np.complex64(1j),
        [0.5], [0.5, 0.5], np.float64(0.5), np.array([0.5, 1.0]),
    ]),
    st.floats(),
    st.integers(-2**62, 2**62),
)
SCALAR = st.one_of(SHORT, st.just("x" * 10**5))
LONG = st.sampled_from([ZEROS, ASCENDING_THEN_NAN])
HOSTILE = st.one_of(SCALAR, LONG)
SEQUENCE = st.one_of(st.lists(SCALAR, max_size=5), LONG, SCALAR)
#: temperature grids: any ``SEQUENCE``, which the scan refuses unread, or a
#: 1-D float array, which reaches its size, ascent and end checks: NaN,
#: +-inf, zero, negative, descending and repeated entries, the two long
#: lists as arrays, and ascending grids the scan accepts
T_GRID = st.one_of(
    SEQUENCE,
    st.lists(st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])),
             max_size=5).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5, unique=True).map(
        lambda v: np.array(sorted(v))),
    st.sampled_from([np.array([2.0, 1.0]), np.array([1.0, 1.0]), np.array([0.5, 2.0, 2.0]),
                     np.array(ZEROS), np.array(ASCENDING_THEN_NAN)]),
)
#: phase_flip arguments: dims that are small, or whose stack no machine
#: can hold, or no integer; a long stack of phases, nested text, long
#: pairs as an array, and any list or tuple of pairs or phases, are
#: invalid ones; the level pair (0, 1) and a 1-D array of floats, any of
#: them non-finite, are valid ones
DIM = st.one_of(st.integers(-3, 12), st.integers(2**32, 2**62),
                st.sampled_from([math.nan, math.inf, 2.0, 1e300, None, "2", 2j, [2], ZEROS]))
PAIRS = st.one_of(st.just(np.array([(0, 1)])), st.just([(0, 1)]),
                  st.lists(st.tuples(SHORT, SHORT), max_size=3),
                  st.sampled_from([np.zeros((10**5, 2), int), LONG_PAIRS, "ab"]))
PHASE = st.one_of(SCALAR, st.lists(SCALAR, max_size=5),
                  st.lists(st.floats(), max_size=4).map(np.array),
                  st.sampled_from([ASCENDING_THEN_NAN, NESTED_TEXT]))
SPIN = st.one_of(st.sampled_from(["half", "one", "HALF", ["half"], ("one",)]), HOSTILE)
#: ndarrays of four complex numbers, any of them non-finite: as a vector,
#: which a ket refuses, or as a (2, 2) matrix, a valid ket's amplitudes
#: or one-factor operator
FOUR_COMPLEX = st.lists(st.complex_numbers(), min_size=4, max_size=4).map(np.array)
VECTOR = st.one_of(st.just(np.array([0.6, 0.8])), FOUR_COMPLEX)
SQUARE = st.one_of(st.just(np.eye(2)), FOUR_COMPLEX.map(lambda v: v.reshape(2, 2)))
#: one-factor operator entries: hostile values, rows of them (square,
#: ragged or nested), text rows, a dict, lists that only an ndarray
#: would make valid, and valid matrices
MATRIX = st.one_of(HOSTILE, SEQUENCE, st.lists(st.lists(SHORT, max_size=3), max_size=3),
                   st.sampled_from([{}, [["a", "b"], ["c", "d"]], [[1, 0], [0]],
                                    [[[1]]], [[1, 0], [0, 1]]]), SQUARE)
#: a term's factor: ``None``, the identity on its side, or ``MATRIX``
IDENTITY_OR_MATRIX = st.one_of(st.none(), MATRIX)

ANGLES = AngleSet(0.1, 0.2, 0.3, 0.4)
SPACE = FockSpace(4)
MODES = RindlerModeSet((1.0,))


def small_norm(width, amplitude):
    """``test_norm`` of an on-shell packet on a 16-node rule: finite when
    it returns."""
    f = GaussianPacket.on_shell(1.0, (0.1, 0.0, 0.0), width, amplitude)
    estimate = norm_with_error(f, ShellQuadrature.for_packets(f, radial=16))
    assert math.isfinite(estimate.value) and math.isfinite(estimate.error)
    return estimate


#: name -> (strategy of the argument tuple, entry point)
TARGETS = {
    "AngleSet": (st.tuples(HOSTILE, HOSTILE, HOSTILE, HOSTILE), AngleSet),
    "phase_flip": (st.tuples(DIM, PAIRS, PHASE), phase_flip),
    "FockSpace": (st.tuples(HOSTILE), FockSpace),
    "squeezed_closed_form": (st.tuples(HOSTILE), squeezed_closed_form),
    "optimize_angles": (st.tuples(HOSTILE, HOSTILE),
                        lambda prefactor, constant: optimize_angles(ClosedFormCorrelator(
                            prefactor, (1.0, 1.0, 1.0, -1.0), constant))),
    "chsh_closed": (st.tuples(HOSTILE), lambda eta: chsh_closed(eta, ANGLES)),
    "chsh_matrix": (st.tuples(HOSTILE), lambda eta: chsh_matrix(eta, SPACE, ANGLES)),
    "squeezed_state": (st.tuples(HOSTILE), lambda eta: squeezed_state(eta, SPACE)),
    "bogoliubov_pair": (st.tuples(HOSTILE), lambda eta: bogoliubov_pair(eta, SPACE)),
    "squeezed_hamiltonian": (st.tuples(HOSTILE),
                             lambda eta: squeezed_hamiltonian(eta, SPACE)),
    "GaussianPacket": (st.tuples(SEQUENCE, HOSTILE, HOSTILE, HOSTILE),
                       lambda center, width, mass, amplitude: GaussianPacket(
                           center=center, width=width, mass=mass, amplitude=amplitude)),
    "GaussianPacket.on_shell": (st.tuples(HOSTILE, SEQUENCE, HOSTILE, HOSTILE),
                                GaussianPacket.on_shell),
    "ShellQuadrature": (st.tuples(HOSTILE, HOSTILE, HOSTILE),
                        lambda k_max, radial, tol: ShellQuadrature(
                            k_max=k_max, radial=radial, tol=tol)),
    "test_norm": (st.tuples(HOSTILE, HOSTILE), small_norm),
    "RindlerModeSet": (st.tuples(SEQUENCE), RindlerModeSet),
    "unruh_temperature": (st.tuples(HOSTILE), unruh_temperature),
    "tau": (st.tuples(HOSTILE), lambda t: tau(MODES, t)),
    "rindler_chsh": (st.tuples(HOSTILE), lambda t: rindler_chsh(MODES, t)),
    "temperature_scan": (st.tuples(T_GRID), lambda grid: list(temperature_scan(MODES, grid))),
    "singlet": (st.tuples(SPIN), singlet),
    "spin_closed_form": (st.tuples(SPIN), spin_closed_form),
    "spin_quadruple": (st.tuples(SPIN), lambda spin: spin_quadruple(spin, ANGLES)),
    "Ket": (st.tuples(st.one_of(HOSTILE, SEQUENCE, VECTOR, SQUARE)), Ket),
    "FactoredOperator-coefficient": (
        st.tuples(SHORT), lambda c: FactoredOperator(((c, np.eye(2), np.eye(2)),))),
    "FactoredOperator-term": (
        st.tuples(IDENTITY_OR_MATRIX, IDENTITY_OR_MATRIX),
        lambda left, right: FactoredOperator(((1.0, left, right), (0.5, None, np.eye(2))))),
    "ChshQuadruple": (st.one_of(st.tuples(MATRIX, MATRIX, MATRIX, MATRIX),
                                SQUARE.map(lambda m: (m,) * 4)), ChshQuadruple),
}


def call_bounded(entry, args):
    """Call ``entry(*args)``: it returns (None here), or it raises a package
    error with a short message and little allocated, which is returned."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            entry(*args)
    except PACKAGE_ERRORS as err:
        _, peak = tracemalloc.get_traced_memory()
        assert len(str(err)) < MAX_MESSAGE, str(err)[:2000]
        assert peak < MAX_REJECTED_PEAK, (type(err).__name__, peak)
        return err
    finally:
        tracemalloc.stop()
    return None


@pytest.mark.parametrize("name", sorted(TARGETS))
@EXAMPLES
@given(data=st.data())
def test_returns_or_raises_a_bounded_package_error(name, data):
    arguments, entry = TARGETS[name]
    call_bounded(entry, data.draw(arguments, label="args"))


#: Passes ``a``, a list that holds itself twice, and ``b``, one that holds
#: itself six times, to every entry point that reads a list, and prints
#: the seconds and message length of each package error raised.
SELF_REFERENTIAL_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from bellchsh import *
angles, modes = AngleSet(0.1, 0.2, 0.3, 0.4), RindlerModeSet((1.0,))
calls = {
    "GaussianPacket": lambda x: GaussianPacket(center=x, width=1.0),
    "GaussianPacket.on_shell": lambda x: GaussianPacket.on_shell(1.0, x, 1.0),
    "singlet": singlet,
    "spin_quadruple": lambda x: spin_quadruple(x, angles),
    "FockSpace": FockSpace,
    "ShellQuadrature": lambda x: ShellQuadrature(k_max=10.0, radial=x),
    "RindlerModeSet": RindlerModeSet,
    "temperature_scan": lambda x: list(temperature_scan(modes, x)),
    "phase_flip": lambda x: phase_flip(2, x, x),
    "Ket": Ket,
    "ChshQuadruple": lambda x: ChshQuadruple(x, x, x, x),
    "FactoredOperator": FactoredOperator,
    "FactoredOperator-term": lambda x: FactoredOperator(((1.0, x, x),)),
}
a, b = [], []
a.extend([a, a])
b.extend([b] * 6)
for name, call in calls.items():
    for label, x in (("a", a), ("b", b)):
        start = time.perf_counter()
        try:
            call(x)
        except (DomainError, ShapeError, PrecisionError) as err:
            print(name, label, time.perf_counter() - start, len(str(err)))
"""


def test_self_referential_lists_refused_at_once():
    # numpy walks a list that holds itself without end, and a repr of
    # depth 6 spells out 6**6 nested items of one that holds itself six
    # times; run in a child that the timeout kills
    src = os.path.dirname(os.path.dirname(bellchsh.__file__))
    done = subprocess.run([sys.executable, "-c", SELF_REFERENTIAL_CHILD, src],
                          capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr[-2000:]
    refused = {(name, label): (float(seconds), int(length)) for name, label, seconds, length
               in map(str.split, done.stdout.splitlines())}
    assert len(refused) == 26, sorted(refused)
    assert all(seconds < 1.0 and length < MAX_MESSAGE
               for seconds, length in refused.values()), refused


@pytest.mark.parametrize("entry,args", [
    (phase_flip, (2, np.array([(0, 1)]), "abc")),
    (phase_flip, (2, np.array([(0, 1)]), np.array([1j], dtype=object))),
    (phase_flip, (2, np.array([(0, 1)]), np.array([1 + 1j]))),
    (RindlerModeSet, (("a",),)),
    (RindlerModeSet, ((1j,),)),
    (RindlerModeSet, (1.0,)),
    (AngleSet, ("a", 0, 0, 0)),
    (AngleSet, (np.complex128(1 + 1j), 0, 0, 0)),
    (lambda t: tau(MODES, t), ("x",)),
    (lambda grid: list(temperature_scan(MODES, grid)), (1.0,)),
    (lambda grid: list(temperature_scan(MODES, grid)), ([0.5, 1.0],)),
    (lambda grid: list(temperature_scan(MODES, grid)), (np.array([[0.5, 1.0]]),)),
    (lambda grid: list(temperature_scan(MODES, grid)), (np.array([0.5, 1.0], dtype=complex),)),
    (lambda grid: list(temperature_scan(MODES, grid)), (np.array([0.5, 1.0], dtype=object),)),
    (unruh_temperature, ("x",)),
    (singlet, (["half"],)),
    (GaussianPacket.on_shell, (1.0, (0, 0), 1.0)),
    (GaussianPacket.on_shell, (1.0, 5.0, 1.0)),
    (lambda center: GaussianPacket(center=center, width=1.0), (5.0,)),
    (AngleSet, ("0.5", 0, 0, 0)),
    (AngleSet, ("0_5", 0, 0, 0)),
    (lambda t: tau(MODES, t), ("2",)),
    (unruh_temperature, (b"1.5",)),
    (RindlerModeSet, (("1.0",),)),
    (squeezed_closed_form, (" 0.5 ",)),
    (lambda k_max: ShellQuadrature(k_max=k_max), ("10.0",)),
], ids=["phase-str", "phase-complex", "phase-np-complex", "modes-str", "modes-complex",
        "modes-scalar", "angle-str", "angle-np-complex", "tau-str", "scan-scalar",
        "scan-list", "scan-2d", "scan-complex", "scan-object",
        "unruh-str", "singlet-list", "on-shell-short-center", "on-shell-scalar-center",
        "packet-scalar-center", "angle-number-text", "angle-underscore-text",
        "tau-number-text", "unruh-number-bytes", "modes-number-text",
        "squeezed-padded-text", "k-max-number-text"])
def test_wrong_types_raise_domain_error(entry, args):
    # each raised ValueError or TypeError before its domain check read
    # the argument as a number, or truncated a numpy complex to its real
    # part with a ComplexWarning; text that spells a number is text too
    assert isinstance(call_bounded(entry, args), DomainError)


def test_complex_with_zero_imaginary_part_is_its_real_part():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert AngleSet(np.complex128(0.5), 0, 0, 0).alpha1 == 0.5
        flip = phase_flip(2, np.array([(0, 1)]), np.array([0.3 + 0j, -0.2 + 0j]))
    assert flip.tobytes() == phase_flip(2, np.array([(0, 1)]), np.array([0.3, -0.2])).tobytes()


def test_nested_text_phase_refused_unread():
    # numpy would copy the text at four bytes a character; "1.5" is not parsed
    for phase in (NESTED_TEXT, [["1.5"]], [[0.5], ("1.5",)]):
        err = call_bounded(phase_flip, (2, np.array([(0, 1)]), phase))
        assert isinstance(err, DomainError) and "every phase finite" in str(err)


def test_long_pair_list_refused_unread():
    # numpy would convert the list at ~3x its size before the check
    err = call_bounded(phase_flip, (2**40, LONG_PAIRS, 0.0))
    assert isinstance(err, DomainError)
    assert "got pairs [(0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), ...]" in str(err)


@pytest.fixture
def leggauss_refused(monkeypatch):
    """Any Gauss-Legendre build fails the test: a MAX_RADIAL rule takes
    seconds and hundreds of MB."""
    def refused(n):
        raise AssertionError(f"leggauss({n}) was built")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refused)


@pytest.mark.parametrize("entry", [norm_with_error, normalize])
def test_over_limit_doubled_rule_refused_before_any_build(leggauss_refused, entry):
    f = GaussianPacket.on_shell(1.0, (0.0, 0.0, 0.0), 1.0)
    err = call_bounded(entry, (f, ShellQuadrature(k_max=10.0, radial=MAX_RADIAL)))
    assert isinstance(err, DomainError) and f"must be <= {MAX_RADIAL}" in str(err)
