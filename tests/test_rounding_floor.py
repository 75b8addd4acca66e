"""Property test: ``fock.chsh_matrix`` and ``fock.chsh_closed`` agree to a
forward rounding bound derived from their operations.

For an even cutoff N the truncated, renormalized squeezed state gives the
closed form exactly: V = P F, with P = 2 eta / (1 + eta^2) and F =
cos(a1 + b1) + cos(a2 + b1) + cos(a1 + b2) - cos(a2 + b2) at the wrapped
phases that both routes read (the ``fock`` docstring).  So the routes
differ by rounding alone.  squeeze-scan's exit-3 tolerance, ``max(1e-8,
20 eta**(2N))``, sits millions of times above that, and a 1e-9 drift of
the matrix route passes it; the bound below does not let it pass.

Notation (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
ed., sections 2.1, 3.1 and 3.6): u = 2**-53, gamma_m = m u / (1 - m u),
and theta_m stands for any number with |theta_m| <= gamma_m.  A product
or quotient of m factors (1 + delta), |delta| <= u, is 1 + theta_m;
(1 + theta_j)(1 + theta_k) = 1 + theta_(j+k), and 1 / (1 + theta_j) =
1 + theta_(2j).  A dot product of m-vectors, in any order, puts one
1 + theta_m on each term; with nonnegative terms that is one 1 + theta_m
on the sum.  ``pow``, ``cos``, ``sin`` and ``exp`` are taken to be within
one ulp, a relative error of 2u.

Matrix route, ``fock._schmidt`` then ``chsh_matrix``:

1. s_n = fl(c fl(eta**n)) = c eta**n (1 + theta_3), where c = fl(sqrt(1 -
   eta^2)) is a common positive factor that the normalization cancels.
2. fl(s @ s) sums N nonnegative terms, each (1 + theta_3)^2 of its exact
   value: |c eta|^2 (1 + theta_(N+6)), with |eta|^2 = sum eta**(2n).
3. Its rounded square root is c |eta| (1 + theta_(N+7)), as
   |sqrt(1 + t) - 1| <= |t|.
4. Each normalized weight fl(s_n / norm) is its exact value times
   (1 + theta_4) / (1 + theta_(N+7)) = 1 + theta_(2N+18).
5. A Gram entry sums N/2 products of two weights, all nonnegative: its
   exact value times 1 + theta_(4N+36+N/2) = 1 + theta_(9N/2+36).  The
   exact entries off the diagonal are G_01 = G_10 = P / 2.
6. The kernel K = a1 o (b1 + b2) + a2 o (b1 - b2) of the 2 x 2 flip
   blocks is exactly 0 on its diagonal and has |K_pq| <= 4.  Off the
   diagonal, each unit entry e^(+-i phase) is within 2u; b1 +- b2 is
   within 6u; each complex product is within 2u * 2 + 6u + 4 sqrt(2) u
   (a product rounds within sqrt(2) gamma_2 of |a| |b1 +- b2| <= 2,
   Higham Lemma 3.5); the last sum adds u |K| <= 4u.  So |K^ - K| <=
   35.4 u to first order, within e_K = gamma_36.
7. The real part of sum G o K multiplies and sums four terms, which puts
   1 + theta_4 on each.  With g = gamma_(9N/2+40), only the two terms off
   the diagonal being nonzero:
   |matrix - V| <= (P/2) * 2 * (g (4 + e_K) + e_K) = P (g (4 + e_K) + e_K).

Closed route, ``chsh_closed``:

1. fl(P) = fl(2 eta / fl(1 + fl(eta^2))) = P (1 + theta_3); 2 eta is exact.
2. Each cosine reads fl(alpha + beta), off by at most 2 pi u for phases
   in [-pi, pi), and is rounded within 2u, so it is within (2 pi + 2) u.
   The signs are +-1, so each signed term is exact, and the sum of four
   terms adds gamma_3 times 4: |F^ - F| <= (8 pi + 20) u to first order,
   within e_F = gamma_46.
3. fl(fl(P) F^) = P F^ (1 + theta_4):
   |closed - V| <= P (e_F + gamma_4 (4 + e_F)).

Underflow.  A rounding with a subnormal result adds an absolute error of
at most 2**-1075 in place of a relative one (Higham section 2.1).  For
eta <= 1 - 2**-53, c >= 2**-27, and the norm is at least c, so after the
division each weight is within 2**-1047 in absolute terms; the weights
that ``_schmidt`` writes as zero are below 2**-1080.  Each product of
two weights of at most 1 is then within 2**-1045, a Gram entry within
N 2**-1046, and the kernel sum, two terms with |K| <= 4, within 9 N
2**-1046.  The closed route adds at most 2**-1072.  Both fit under
mu = N 2**-1041.

So

    |chsh_closed - chsh_matrix| <= P (g (4 + e_K) + e_K
                                      + e_F + gamma_4 (4 + e_F)) + mu,

with P at most fl(P) (1 + gamma_6).  Its relative part is about (18 N +
258) u: 8.7e-14 at cutoff 40 and eta = 0.5, against the largest gap in
the squeeze-scan reference files, 2.2e-15.  A Gram scaled by 1 + 1e-12
moves the matrix value by 1e-12 |V| = 1e-12 P |F|, beyond the bound
wherever |F| > (18 N + 258) u / 1e-12; at the phases of
``MAX_VIOLATION_ANGLES``, |F| = 2 sqrt(2), that is every cutoff up to
1400.  The bound is computed in floats, a few ulp of its own value off;
that is far inside its slack.  The search is derandomized, so the module
runs the same examples every time.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bellchsh import AngleSet, FockSpace, chsh_closed, chsh_matrix  # noqa: E402
from bellchsh.fock import MAX_VIOLATION_ANGLES, pair_amplitude  # noqa: E402

EXAMPLES = settings(max_examples=300, derandomize=True, database=None, deadline=None)
LOG_UNIFORM = st.floats(-745.0, 0.0).map(math.exp).filter(lambda eta: 0.0 < eta < 1.0)
EVEN_CUTOFF = st.integers(2, 1024).map(lambda half: 2 * half)
PHASES = st.lists(st.floats(-7.0, 7.0), min_size=4, max_size=4)
U = 2.0 ** -53


def gamma(m: float) -> float:
    """Higham's gamma_m = m u / (1 - m u)."""
    return m * U / (1.0 - m * U)


def rounding_bound(eta: float, cutoff: int) -> float:
    """The derived bound on |chsh_closed - chsh_matrix| (module docstring)."""
    g, e_k, e_f = gamma(9 * cutoff // 2 + 40), gamma(36), gamma(46)
    p = pair_amplitude(eta) * (1.0 + gamma(6))
    return p * (g * (4.0 + e_k) + e_k + e_f + gamma(4) * (4.0 + e_f)) + cutoff * 2.0 ** -1041


@EXAMPLES
@given(LOG_UNIFORM, EVEN_CUTOFF, PHASES)
@example(0.5, 40, list(MAX_VIOLATION_ANGLES.as_tuple()))
@example(0.99, 4, list(MAX_VIOLATION_ANGLES.as_tuple()))
@example(math.nextafter(1.0, 0.0), 2048, [0.3, -1.2, 2.1, 0.7])
@example(5e-324, 2048, list(MAX_VIOLATION_ANGLES.as_tuple()))
def test_routes_agree_to_the_derived_rounding_bound(eta, cutoff, phases):
    space, angles = FockSpace(cutoff), AngleSet(*phases)
    gap = abs(chsh_closed(eta, angles) - chsh_matrix(eta, space, angles))
    assert gap <= rounding_bound(eta, cutoff)
