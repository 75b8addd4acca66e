"""Property tests of ``chsh.AngleSet``: the wrap to [-pi, pi), and the
kernel and cosines each angle set builds once.

Every finite float must wrap into the half-open interval, the one ulp
below -pi included.  ``fock.chsh_matrix``, which reads
``AngleSet.pair_kernel``, and ``ClosedFormCorrelator.value`` and
``fock.chsh_closed``, which read ``AngleSet.pair_cosines``, must each give
the bytes of their per-call oracle on an angle set's first call, which
builds what it reads, on a later call, on an equal fresh set, and on a
copy, a deep copy and an unpickled copy of the built set.  The search
is derandomized, so the module runs the same examples every time.
"""

import copy
import itertools
import math
import pickle

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bellchsh import (  # noqa: E402
    AngleSet, ClosedFormCorrelator, FockSpace, chsh_closed, chsh_matrix)
from bellchsh.chsh import wrap_angle  # noqa: E402
from helpers import (  # noqa: E402
    four_call_chsh_matrix, per_call_chsh_closed, per_call_closed_value)

EXAMPLES = settings(max_examples=200, derandomize=True, database=None, deadline=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ODD_PATTERNS = [s for s in itertools.product((1.0, -1.0), repeat=4) if math.prod(s) < 0.0]


def first_later_fresh_and_copies(evaluate, phases) -> list[str]:
    """``evaluate`` on an angle set's first call, a later call, an equal
    fresh set, and a copy, a deep copy and an unpickled copy of the built
    set, each value as its ``.hex()``."""
    angles = AngleSet(*phases)
    values = [evaluate(angles), evaluate(angles), evaluate(AngleSet(*phases))]
    values += [evaluate(duplicate(angles)) for duplicate in (
        copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a)))]
    return [v.hex() for v in values]


@EXAMPLES
@given(FINITE)
@example(math.nextafter(-math.pi, -math.inf))
def test_every_finite_angle_wraps_into_the_half_open_interval(theta):
    wrapped = wrap_angle(theta)
    assert -math.pi <= wrapped < math.pi
    assert AngleSet(theta, 0.0, 0.0, 0.0).alpha1 == wrapped


@EXAMPLES
@given(st.lists(st.floats(-7.0, 7.0), min_size=4, max_size=4),
       st.floats(1e-8, 0.999), st.sampled_from([4, 40, 512, 2048]))
def test_first_later_and_fresh_equal_calls_agree_to_the_bit(phases, eta, cutoff):
    space = FockSpace(cutoff)
    oracle = four_call_chsh_matrix(eta, space, AngleSet(*phases)).real.hex()
    assert first_later_fresh_and_copies(lambda a: chsh_matrix(eta, space, a), phases) == [
        oracle] * 6


@pytest.mark.parametrize("orientation", [1.0, -1.0])
@pytest.mark.parametrize("signs", ODD_PATTERNS,
                         ids=lambda signs: "".join("+-"[s < 0.0] for s in signs))
@settings(EXAMPLES, max_examples=25)
@given(st.lists(FINITE, min_size=4, max_size=4), FINITE, FINITE)
def test_closed_form_value_is_the_per_call_oracle_to_the_bit(signs, orientation, phases,
                                                             prefactor, constant):
    form = ClosedFormCorrelator(prefactor, signs, constant, orientation)
    oracle = per_call_closed_value(form, AngleSet(*phases)).hex()
    assert first_later_fresh_and_copies(form.value, phases) == [oracle] * 6


@EXAMPLES
@given(st.lists(FINITE, min_size=4, max_size=4),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_chsh_closed_is_the_per_call_oracle_to_the_bit(phases, eta):
    oracle = per_call_chsh_closed(eta, AngleSet(*phases)).hex()
    assert first_later_fresh_and_copies(lambda a: chsh_closed(eta, a), phases) == [oracle] * 6
