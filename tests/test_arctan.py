"""Truncated arctangent sums: the two evaluation paths and their agreement."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from arcpi.arctan import (
    arctan_closed_form,
    arctan_derivative_form,
    closed_form_block,
    closed_form_nodes,
)
from arcpi.pi import GAUSS_TERMS, arctan_taylor_reference, reference_pi
from arcpi.quadrature import ComputationParams

F = Fraction
P = ComputationParams


def _pair_recip_pow(z: tuple[F, F], k: int) -> tuple[F, F]:
    """(re + im*i)**(-k) over Fraction pairs, as (conj(z)/norm(z))**k."""
    re, im = z
    norm = re * re + im * im
    inv_re, inv_im = re / norm, -im / norm
    out_re, out_im = F(1), F(0)
    for _ in range(k):
        out_re, out_im = (out_re * inv_re - out_im * inv_im,
                          out_re * inv_im + out_im * inv_re)
    return out_re, out_im


def arctan_complex_bracket(x: F, p: P) -> F:
    """The same truncated sum written with explicit conjugate brackets.

    i * sum over l, m of (1/(2m-1)) * (w^-(2m-1) - conj(w)^-(2m-1)) with
    w = (2l-1) + 2iL/x.  Both bracket terms are computed independently,
    over Fraction pairs; nothing is shared with the production
    Gaussian-integer path.
    """
    if x == 0:
        return F(0)
    total_re = total_im = F(0)
    for ell in range(1, p.L + 1):
        w = (F(2 * ell - 1), F(2 * p.L) / x)
        w_bar = (w[0], -w[1])
        for m in range(1, p.inner_terms + 1):
            k = 2 * m - 1
            a, b = _pair_recip_pow(w, k), _pair_recip_pow(w_bar, k)
            total_re += (a[0] - b[0]) / k
            total_im += (a[1] - b[1]) / k
    assert total_re == 0  # i * total must be real
    return -total_im


def closed_form_block_reference(x: F, p: P, ells) -> F:
    """The closed-form block summed term by term into one ``Fraction``.

    The per-term loop the production block replaced: every term
    2 num**(2m-1) Im(w**(2m-1)) / ((2m-1) norm**(2m-1)) is added to a
    running total, so each addition reduces by a gcd.
    """
    if x == 0:
        return F(0)
    num, den = x.numerator, x.denominator
    two_l_den = 2 * p.L * den
    total = F(0)
    for ell in ells:
        re, im = num * (2 * ell - 1), two_l_den
        w2_re, w2_im = re * re - im * im, 2 * re * im
        norm = re * re + im * im
        for m in range(1, p.inner_terms + 1):
            if m > 1:
                re, im = re * w2_re - im * w2_im, re * w2_im + im * w2_re
            total += F(2 * num ** (2 * m - 1) * im,
                       (2 * m - 1) * norm ** (2 * m - 1))
    return total


class TestClosedForm:
    def test_zero_argument(self):
        for p in (P(1, 1), P(5, 5), P(8, 0)):
            assert arctan_closed_form(F(0), p) == 0

    def test_unit_argument_single_term(self):
        assert arctan_closed_form(F(1), P(1, 1)) == F(4, 5)

    def test_unit_argument_two_terms(self):
        # m=1 gives 4/5, m=2 adds -4/375
        assert arctan_closed_form(F(1), P(1, 2)) == F(296, 375)

    def test_negated_unit_argument(self):
        assert arctan_closed_form(F(-1), P(1, 1)) == F(-4, 5)

    @pytest.mark.parametrize("x", [F(1), F(1, 5), F(-2, 3), F(5), F(1, 239)])
    def test_odd_symmetry(self, x):
        p = P(3, 4)
        assert arctan_closed_form(-x, p) == -arctan_closed_form(x, p)

    def test_converges_toward_float_atan(self):
        value = arctan_closed_form(F(1, 5), P(20, 20))
        assert abs(float(value) - math.atan(0.2)) < 1e-15


class TestDerivativeForm:
    def test_zero_argument(self):
        assert arctan_derivative_form(F(0), P(4, 4)) == 0

    def test_matches_hand_value(self):
        assert arctan_derivative_form(F(1), P(1, 2)) == F(296, 375)

    def test_odd_symmetry(self):
        p = P(2, 5)
        x = F(3, 7)
        assert arctan_derivative_form(-x, p) == -arctan_derivative_form(x, p)


@pytest.mark.parametrize("x", [F(1), F(-1), F(1, 5), F(-1, 5),
                               F(5), F(-5), F(1, 239)])
@pytest.mark.parametrize("L", [1, 2, 5, 8])
def test_paths_identical(x, L):
    for M in range(9):
        p = P(L, M)
        assert arctan_closed_form(x, p) == arctan_derivative_form(x, p), \
            (x, L, M)


@settings(max_examples=50, deadline=None)
@given(
    st.fractions(min_value=-30, max_value=30, max_denominator=30),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=6),
)
@example(F(0), 3, 4)
def test_paths_identical_on_random_rationals(x, L, M):
    p = P(L, M)
    assert arctan_closed_form(x, p) == arctan_derivative_form(x, p)


@pytest.mark.parametrize("x, L, M", [
    *((F(1, recip), 1, 250) for _, recip in GAUSS_TERMS),
    (F(1, 5257), 1, 1000),
])
def test_paths_identical_at_planner_shapes(x, L, M):
    """One node and hundreds of orders, the shapes that certify about
    1000 pi digits from the nine Gauss terms: both routes give the same
    rational there too."""
    p = P(L, M)
    assert arctan_derivative_form(x, p) == arctan_closed_form(x, p)


@pytest.mark.parametrize("x", [F(1), F(1, 5), F(-2, 7), F(239)])
def test_complex_bracket_route_agrees(x):
    """Production code reduces to real arithmetic; re-deriving the sum from
    the conjugate-bracket form must give the identical rational."""
    for p in (P(1, 1), P(2, 3), P(5, 8), P(8, 4)):
        assert arctan_complex_bracket(x, p) == arctan_closed_form(x, p)


def test_smaller_argument_is_more_accurate():
    p = P(8, 8)
    ref_fifth = arctan_taylor_reference(F(1, 5), 40)
    ref_one = F(int(reference_pi(40).digits()), 4 * 10**40)
    err_fifth = abs(arctan_closed_form(F(1, 5), p) - ref_fifth)
    err_one = abs(arctan_closed_form(F(1), p) - ref_one)
    assert err_fifth < err_one


def test_first_digits_at_one_fifth():
    value = arctan_closed_form(F(1, 5), P(12, 12))
    reference = arctan_taylor_reference(F(1, 5), 10)
    assert abs(value - reference) < F(1, 10**10)


def closed_form_nodes_reference(
        x: F, p: P, ells) -> tuple[list[tuple[int, int]], int, int]:
    """The closed-form nodes by the Horner loop in norm**2 that the
    production code ran before its reduced pass in conj(w)**2: every term
    steps w**(2m-1) forward by w**2 and multiplies it by its coefficient
    (odd_lcm/(2m-1)) num**(2m-1), formed here inside the node loop.  The
    same ``(nodes, odd_lcm, 2K-1)`` shape, nodes as (2 * acc, norm)."""
    num, den = x.numerator, x.denominator
    two_l_den = 2 * p.L * den
    k = p.inner_terms
    odd_lcm = math.lcm(*range(1, 2 * k, 2))
    num2 = num * num
    nodes = []
    for ell in ells:
        re, im = num * (2 * ell - 1), two_l_den
        w2_re, w2_im = re * re - im * im, 2 * re * im
        norm = re * re + im * im
        norm2 = norm * norm
        num_pow = num
        acc = 0
        for m in range(1, k + 1):
            if m > 1:
                re, im = re * w2_re - im * w2_im, re * w2_im + im * w2_re
                num_pow *= num2
            acc = acc * norm2 + odd_lcm // (2 * m - 1) * num_pow * im
        nodes.append((2 * acc, norm))
    return nodes, odd_lcm, 2 * k - 1


@pytest.mark.parametrize("L, M", [(1, 0), (3, 5), (8, 8), (46, 1), (5, 46),
                                  (46, 46)])
@pytest.mark.parametrize("x", [F(0), F(1), F(-7, 3), F(1, 5257),
                               F(139, 10567)])
def test_nodes_equal_the_per_node_coefficient_loop(x, L, M):
    """The same unreduced (num, norm) pairs, odd_lcm and exponent, not
    merely equal values."""
    p, ells = P(L, M), range(1, L + 1)
    assert closed_form_nodes(x, p, ells) == \
        closed_form_nodes_reference(x, p, ells)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=-40, max_value=40, max_denominator=50000),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=600))
@example(F(0), 3, 600)
@example(F(0), 1, 0)
@example(F(-1, 485298), 1, 1)
@example(F(-39, 2), 2, 0)
@example(F(7, 3), 3, 599)
@example(F(-5257), 1, 250)
def test_nodes_equal_the_norm_horner_loop_on_random_shapes(x, L, M):
    """The reduced pass gives the same unreduced (num, norm) pairs as the
    Horner loop in norm**2, at one to three nodes and up to 301 terms."""
    p, ells = P(L, M), range(1, L + 1)
    assert closed_form_nodes(x, p, ells) == \
        closed_form_nodes_reference(x, p, ells)


class TestBlocksAndWorkers:
    """Blocks of the outer sum add up to the whole closed form."""

    def test_block_partition(self):
        x, p = F(1, 3), P(8, 6)
        whole = arctan_closed_form(x, p)
        parts = closed_form_block(x, p, [1, 2]) + \
            closed_form_block(x, p, [3, 4, 5]) + \
            closed_form_block(x, p, [6, 7, 8])
        assert parts == whole


signed_rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=60)


@st.composite
def block_cases(draw):
    """x, (L, M) and a random subset of 1..L, in random order."""
    x = draw(signed_rationals)
    L = draw(st.integers(min_value=1, max_value=9))
    M = draw(st.integers(min_value=0, max_value=10))
    ells = draw(st.lists(st.integers(min_value=1, max_value=L),
                         unique=True, max_size=L))
    return x, P(L, M), ells


@settings(max_examples=60, deadline=None)
@given(block_cases())
@example((F(3, 7), P(1, 4), [1]))
@example((F(-5, 2), P(6, 0), [2, 5, 1]))
@example((F(1, 3), P(1, 0), [1]))
@example((F(2), P(4, 3), []))
@example((F(0), P(3, 3), [1, 2]))
def test_block_equals_term_by_term_sum(case):
    """The block has the value of the per-term Fraction loop."""
    x, p, ells = case
    assert closed_form_block(x, p, ells) == \
        closed_form_block_reference(x, p, ells)


@settings(max_examples=40, deadline=None)
@given(signed_rationals, st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=10), st.data())
@example(F(1, 5), 1, 3, None)
@example(F(-7, 3), 5, 0, None)
def test_block_partition_sums_to_the_whole(x, L, M, data):
    """Any partition of 1..L into blocks sums to the whole-range block."""
    p = P(L, M)
    if data is None:
        labels = [ell % 2 for ell in range(1, L + 1)]
    else:
        labels = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                    min_size=L, max_size=L))
    blocks = [[ell for ell, b in zip(range(1, L + 1), labels) if b == label]
              for label in set(labels)]
    assert sum(closed_form_block(x, p, b) for b in blocks) == \
        closed_form_block(x, p, range(1, L + 1))


# The arguments of the dual-route benchmark workload at seed 1: 1, whose
# arctangent is pi/4 (``pi_closed_form`` and ``pi_derivative_form`` are 4
# times these two), the largest and the smallest Gauss-term argument, and
# four seeded signed p/q.
DUAL_ROUTE_XS = (F(1), F(1, 5257), F(1, 485298), F(151, 13627),
                 F(-139, 10567), F(149, 12907), F(-199, 12653))


@pytest.mark.parametrize("x", DUAL_ROUTE_XS)
def test_routes_agree_on_the_dual_route_arguments(x):
    """At L = M = 32 the closed form, added by ``exact.power_base_sum``,
    and the derivative form, added by ``quadrature.node_sum``, give the
    same numerator and denominator: two adders that share no code."""
    p = P(32, 32)
    closed = arctan_closed_form(x, p)
    derivative = arctan_derivative_form(x, p)
    assert (closed.numerator, closed.denominator) == \
        (derivative.numerator, derivative.denominator)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(F(0)), signed_rationals),
       st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=10))
@example(F(0), 3, 3)
@example(F(-7, 3), 5, 4)
@example(F(5, 2), 2, 0)
def test_nodes_have_positive_denominators_and_sum_to_the_closed_form(x, L, M):
    """One node fraction per index, every den = odd_lcm * norm**e > 0, as
    the gauss floor certificate needs; the nodes add up to the closed
    form."""
    p = P(L, M)
    nodes, odd_lcm, e = closed_form_nodes(x, p, range(1, L + 1))
    assert len(nodes) == L
    assert odd_lcm > 0 and e == 2 * p.inner_terms - 1
    assert all(norm > 0 for _, norm in nodes)
    assert sum((F(num, odd_lcm * norm**e) for num, norm in nodes), F(0)) \
        == arctan_closed_form(x, p)
