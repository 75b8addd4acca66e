"""Property test of ``chsh.phase_flip`` against ``helpers.loop_phase_flip``.

Valid draws: ``dim`` in [2, 12], disjoint pairs (some levels possibly
left fixed) and a scalar phase or a flat stack of finite phases; every
flip must equal its loop oracle byte for byte, and the same phases as a
two-dimensional stack must be refused.  Malformed draws, ``dim`` in
[1, 12]: overlapping, negative, ``>= dim``, empty, float and too many
rows; each must raise ``DomainError`` naming ``dim``.  The search is
derandomized, so the module runs the same examples every time.
"""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bellchsh import DomainError, phase_flip  # noqa: E402
from helpers import loop_phase_flip  # noqa: E402

PHASE = st.floats(-1e3, 1e3, allow_nan=False)
EXAMPLES = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@st.composite
def disjoint_pairs(draw, dim):
    """A permutation's first ``2k`` levels as ``k`` rows, ``1 <= k <= dim/2``."""
    levels = draw(st.permutations(range(dim)))
    count = draw(st.integers(1, dim // 2))
    return [tuple(levels[2 * i:2 * i + 2]) for i in range(count)]


@st.composite
def valid_flips(draw):
    dim = draw(st.integers(2, 12))
    pairs = draw(disjoint_pairs(dim))
    shape = draw(st.sampled_from([(), (1,), (4,), (6,)]))
    size = int(np.prod(shape))
    phases = draw(st.lists(PHASE, min_size=size, max_size=size))
    phase = phases[0] if shape == () else np.reshape(phases, shape)
    return dim, pairs, phase


@st.composite
def malformed_flips(draw):
    dim = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["overlapping", "negative", "beyond-dim", "empty",
                                 "float", "too-many-rows"]))
    rows = [tuple(draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2)))
            for _ in range(draw(st.integers(1, 3)))]
    at = (draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 1)))
    if kind == "overlapping":  # a level repeated, in one row or across two
        rows.append((rows[at[0]][at[1]], draw(st.integers(0, dim - 1))))
    elif kind in ("negative", "beyond-dim"):
        bad = (draw(st.integers(-2**62, -1)) if kind == "negative"
               else draw(st.one_of(st.integers(dim, dim + 3), st.integers(dim, 2**62))))
        row = list(rows[at[0]])
        row[at[1]] = bad
        rows[at[0]] = tuple(row)
    elif kind == "empty":
        rows = draw(st.sampled_from([[], np.empty((0, 2), dtype=int)]))
    elif kind == "float":
        rows = np.array(rows, dtype=float)
    else:  # more levels than dim: at least one repeats
        rows = [(i % dim, (i + 1) % dim) for i in range(dim // 2 + 1)]
    phase = draw(st.one_of(PHASE, st.lists(PHASE, min_size=1, max_size=4)))
    return dim, rows, phase


@EXAMPLES
@given(valid_flips())
def test_matches_loop_oracle_byte_for_byte(case):
    dim, pairs, phase = case
    flips = phase_flip(dim, pairs, phase)
    phases = np.asarray(phase, dtype=float)
    assert flips.shape == phases.shape + (dim, dim)
    assert not flips.flags.writeable
    for value, flip in zip(phases.ravel(), flips.reshape(-1, dim, dim)):
        assert flip.tobytes() == loop_phase_flip(dim, pairs, float(value)).tobytes()
    with pytest.raises(DomainError, match=re.escape(f"for dim {dim!r}")):
        phase_flip(dim, pairs, phases.reshape(1, -1))


@EXAMPLES
@given(malformed_flips())
def test_malformed_pairs_raise_domain_error_naming_dim(case):
    dim, pairs, phase = case
    with pytest.raises(DomainError, match=re.escape(f"for dim {dim!r}")):
        phase_flip(dim, pairs, phase)
