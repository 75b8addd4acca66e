"""Property test of the powers ``fock.chsh_matrix`` computes.

``chsh_matrix`` computes ``eta**n`` only below ``n = live``, with
``live = ceil(1080 ln 2 / -ln eta) + 1``, and writes zeros from there
on.  Its value must have the bytes of the full-power oracle
``helpers.four_call_chsh_matrix``, over eta linear on (0, 1) and
log-uniform down to 5e-324, and over even cutoffs 4-2048.  The full
power vector ``helpers.full_powers`` must be zero from ``live`` on: the
bit identity rests on ``pow`` rounding every true value below 2**-1080
to zero, which IEEE 754 does not require of it.  The search is
derandomized, so the module runs the same examples every time.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bellchsh import AngleSet, FockSpace, chsh_matrix  # noqa: E402
from helpers import four_call_chsh_matrix, full_powers  # noqa: E402

EXAMPLES = settings(max_examples=300, derandomize=True, database=None, deadline=None)
LINEAR = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
LOG_UNIFORM = st.floats(-745.0, 0.0).map(math.exp).filter(lambda eta: 0.0 < eta < 1.0)
EVEN_CUTOFF = st.integers(2, 1024).map(lambda half: 2 * half)
PHASES = st.lists(st.floats(-7.0, 7.0), min_size=4, max_size=4)


def live_powers(eta: float) -> int:
    """The count of leading powers of eta that ``chsh_matrix`` computes."""
    return math.ceil(1080 * math.log(2.0) / -math.log(eta)) + 1


@EXAMPLES
@given(st.one_of(LINEAR, LOG_UNIFORM), EVEN_CUTOFF, PHASES)
@example(5e-324, 2048, [0.0, math.pi / 2, -math.pi / 4, math.pi / 4])
@example(0.01, 2048, [0.3, -1.2, 2.1, 0.7])
@example(0.7, 2048, [0.3, -1.2, 2.1, 0.7])
@example(math.nextafter(1.0, 0.0), 2048, [0.3, -1.2, 2.1, 0.7])
@example(math.nextafter(0.0, 1.0), 4, [0.3, -1.2, 2.1, 0.7])
def test_prefix_gives_the_full_power_bytes(eta, cutoff, phases):
    assert not full_powers(eta, cutoff)[live_powers(eta):].any()
    space, angles = FockSpace(cutoff), AngleSet(*phases)
    oracle = four_call_chsh_matrix(eta, space, angles).real
    assert chsh_matrix(eta, space, angles).hex() == oracle.hex()
