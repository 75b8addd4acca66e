"""Property tests of ``chsh.AngleSet``: the wrap to [-pi, pi) and the
flips each angle set builds once.

Every finite float must wrap into the half-open interval, the one ulp
below -pi included.  ``fock.chsh_matrix`` must give the same bytes on an
angle set's first call, which builds ``AngleSet.pair_flips``, on a later
call, which reads them, and on an equal fresh set.  The search is
derandomized, so the module runs the same examples every time.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bellchsh import AngleSet, FockSpace, chsh_matrix  # noqa: E402
from bellchsh.chsh import wrap_angle  # noqa: E402

EXAMPLES = settings(max_examples=200, derandomize=True, database=None, deadline=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@EXAMPLES
@given(FINITE)
@example(math.nextafter(-math.pi, -math.inf))
def test_every_finite_angle_wraps_into_the_half_open_interval(theta):
    wrapped = wrap_angle(theta)
    assert -math.pi <= wrapped < math.pi
    assert AngleSet(theta, 0.0, 0.0, 0.0).alpha1 == wrapped


@EXAMPLES
@given(st.lists(st.floats(-7.0, 7.0), min_size=4, max_size=4),
       st.floats(1e-8, 0.999), st.sampled_from([4, 40, 512]))
def test_first_later_and_fresh_equal_calls_agree_to_the_bit(phases, eta, cutoff):
    angles, space = AngleSet(*phases), FockSpace(cutoff)
    first = chsh_matrix(eta, space, angles)
    later = chsh_matrix(eta, space, angles)
    fresh = chsh_matrix(eta, space, AngleSet(*phases))
    assert first.hex() == later.hex() == fresh.hex()
