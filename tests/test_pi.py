"""Pi evaluators, the dual-sourced reference, and digit measurement."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from arcpi import pi
from arcpi.errors import DomainError
from arcpi.exact import decimal_expand, matching_digits, power_base_sum
from arcpi.pi import (
    EQ17_TERMS,
    GAUSS_TERMS,
    MACHIN_TERMS,
    METHODS,
    TAYLOR_MAX_BITS,
    _term_nodes,
    arctan_taylor_reference,
    closed_form_expansion,
    measure,
    pi_closed_form,
    pi_derivative_form,
    pi_gauss,
    reference_pi,
    taylor_pi,
)
from arcpi.arctan import arctan_closed_form
from arcpi.quadrature import ComputationParams

F = Fraction
P = ComputationParams

# Nine multiplier/reciprocal pairs, pinned. The combination is exact:
# 4 * sum of mult * arctan(1/recip) equals pi, verified against the
# independent Taylor reference below and frozen here so silent edits fail.
FROZEN_TERMS = (
    (2805, 5257),
    (-398, 9466),
    (1950, 12943),
    (1850, 34208),
    (2021, 44179),
    (2097, 85353),
    (1484, 114669),
    (1389, 330182),
    (808, 485298),
)


class TestClosedFormValues:
    def test_single_term(self):
        assert pi_closed_form(P(1, 1)) == F(16, 5)

    def test_two_inner_terms(self):
        assert pi_closed_form(P(1, 2)) == F(1184, 375)

    def test_is_four_arctans_of_one(self):
        for p in (P(1, 1), P(3, 4), P(5, 2)):
            assert pi_closed_form(p) == 4 * arctan_closed_form(F(1), p)


class TestDerivativeFormValues:
    def test_midpoint_only_single_interval(self):
        # 4 * 2/(2*1) * 1/(1 + 1/4) = 16/5
        assert pi_derivative_form(P(1, 0)) == F(16, 5)

    def test_midpoint_only_two_intervals(self):
        # 4 * (1/2) * (16/17 + 16/25) = 1344/425
        assert pi_derivative_form(P(2, 0)) == F(1344, 425)

    def test_matches_closed_form_hand_value(self):
        assert pi_derivative_form(P(1, 2)) == F(1184, 375)

    def test_deeper_case(self):
        assert pi_derivative_form(P(2, 3)) == F(241169792, 76765625)
        assert pi_closed_form(P(2, 3)) == F(241169792, 76765625)


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("M", range(5))
def test_paths_identical_small_grid(L, M):
    p = P(L, M)
    assert pi_closed_form(p) == pi_derivative_form(p)


class TestGaussCombination:
    def test_terms_are_pinned(self):
        assert GAUSS_TERMS == FROZEN_TERMS

    def test_combination_hits_reference_digits(self):
        total = 4 * sum(
            mult * arctan_taylor_reference(F(1, recip), 60)
            for mult, recip in GAUSS_TERMS)
        got = decimal_expand(total, 60)
        assert matching_digits(got, reference_pi(60)) >= 55

    def test_small_params_regression(self):
        assert measure("gauss", P(4, 4), 50).matched_digits == 28

    def test_ladder_regression(self):
        counts = {n: measure("gauss", P(n, n), 120).matched_digits
                  for n in (4, 8, 16)}
        assert counts == {4: 28, 8: 50, 16: 95}

    @pytest.mark.parametrize("p", [P(1, 0), P(3, 4), P(5, 2)])
    def test_pair_is_the_sum_of_reduced_terms(self, p):
        nodes, odd_lcm, e = _term_nodes(GAUSS_TERMS, p)
        assert len(nodes) == 9 * p.L
        assert odd_lcm > 0 and all(norm > 0 for _, norm in nodes)
        assert sum(F(num, odd_lcm * norm**e) for num, norm in nodes) == \
            pi_gauss(p) == \
            4 * sum(mult * arctan_closed_form(F(1, recip), p)
                    for mult, recip in GAUSS_TERMS)


def _recording(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


def _exact_pair_test(*examples):
    """A drawn-shape test of ``closed_form_expansion`` against the exact
    sum, with each (L, M, n) of ``examples`` run too; each class takes its
    own, since hypothesis ties a test function to one class."""
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 13), st.integers(0, 40), st.integers(1, 400))
    def test(self, L, M, n):
        p = P(L, M)
        assert self.expansion(p, n) == decimal_expand(self.exact(p), n)
    for shape in examples:
        test = example(*shape)(test)
    return test


class _ExpansionTests:
    """The certified digits of ``closed_form_expansion`` over ``TERMS``
    against the expansion of the exact sum, ``exact(p)``.  Every exact sum
    goes through ``power_base_sum``, so a run that records no call built
    none.  ``TestGaussExpansion`` runs these over ``GAUSS_TERMS``, whose
    interval comes from the power series, and ``TestEq17Expansion`` over
    ``EQ17_TERMS``, whose interval comes from the node floors."""

    def expansion(self, p, n):
        return closed_form_expansion(self.TERMS, p, n)

    def test_one_node_per_term_at_a_thousand_digits(self):
        # 251 inner terms per node: the shape that certifies 1000 Gauss digits
        p = P(1, 500)
        assert self.expansion(p, 1000) == decimal_expand(self.exact(p), 1000)

    @pytest.mark.parametrize("size", [8, 16, 32, 46])
    def test_golden_sizes_certify_without_the_pair(self, monkeypatch, size):
        p = P(size, size)
        exact = decimal_expand(self.exact(p), 400)
        calls = []
        monkeypatch.setattr(pi, "power_base_sum",
                            _recording(pi.power_base_sum, calls))
        assert self.expansion(p, 400) == exact
        assert calls == []

    def test_no_guard_falls_back_to_the_pair(self, monkeypatch):
        p = P(4, 6)
        want = decimal_expand(self.exact(p), 50)
        monkeypatch.setattr(pi, "_guard_digits", lambda width: 0)
        calls = []
        monkeypatch.setattr(pi, "_term_nodes",
                            _recording(pi._term_nodes, calls))
        assert self.expansion(p, 50) == want
        # the fallback sums the nodes it holds
        assert calls == [(self.TERMS, p)]

    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("M", range(6))
    def test_one_guard_digit_still_gives_exact_digits(self, monkeypatch,
                                                      L, M):
        # the certificate interval now often straddles a digit boundary:
        # the bound must catch every such case
        monkeypatch.setattr(pi, "_guard_digits", lambda width: 1)
        p = P(L, M)
        exact = self.exact(p)
        for n in (1, 5, 20, 50):
            assert self.expansion(p, n) == decimal_expand(exact, n)


class TestGaussExpansion(_ExpansionTests):
    """``closed_form_expansion`` over the nine Gauss terms, whose exact
    sum is ``pi_gauss``: every recip is >= 2, so the certificate comes
    from the power series."""

    TERMS = GAUSS_TERMS
    exact = staticmethod(pi_gauss)
    # the gauss-274 shape, the smallest 1000-digit rung (every order keeps
    # its complement), a deep node pair and the Taylor table alone
    test_matches_the_exact_pair = _exact_pair_test(
        (46, 46, 400), (8, 8, 1000), (2, 40, 400), (1, 0, 1000))

    def test_straddling_coefficients_fall_back_once(self, monkeypatch):
        # a zero coefficient table makes the floor sum 0, so the interval
        # [-w, w] holds the boundary 0 and its two ends differ in sign
        p = P(4, 6)
        want = decimal_expand(self.exact(p), 50)
        monkeypatch.setattr(pi, "_series_coefficients",
                            lambda p, count, scale, recip_min: [0] * count)
        calls = []
        monkeypatch.setattr(pi, "power_base_sum",
                            _recording(pi.power_base_sum, calls))
        assert self.expansion(p, 50) == want
        assert len(calls) == 1

    @pytest.mark.parametrize("end", ["lower", "upper"])
    def test_interval_ends_reach_the_error_budget(self, monkeypatch, end):
        # a floor sum S whose interval [S - w, S + w], w = 16 * sum(|mult|),
        # has one end on a digit boundary: the value may lie on it, so the
        # certificate falls back, where one unit less of width would not
        n_digits = 5
        width = 16 * sum(abs(mult) for mult, _ in self.TERMS)

        def floor_sum(terms, p, scale):
            boundary = 314159 * (scale // 10**n_digits)
            return boundary + width if end == "lower" else boundary - width

        p = P(2, 2)
        want = decimal_expand(self.exact(p), n_digits)
        monkeypatch.setattr(pi, "_series_floor", floor_sum)
        calls = []
        monkeypatch.setattr(pi, "power_base_sum",
                            _recording(pi.power_base_sum, calls))
        assert self.expansion(p, n_digits) == want
        assert len(calls) == 1


class TestEq17Expansion(_ExpansionTests):
    """``closed_form_expansion`` over eq17's one-term table, whose exact
    sum is ``pi_closed_form``: at x = 1 the series does not decay, so the
    certificate comes from the node floors."""

    TERMS = EQ17_TERMS
    exact = staticmethod(pi_closed_form)
    # the divisor outgrows the scale at the first two shapes, and 16/5 at
    # (1, 1, 5) terminates, so only the exact sum gives its digits
    test_matches_the_exact_pair = _exact_pair_test(
        (1, 400, 200), (46, 46, 20), (1, 1, 5), (100, 100, 1000))

    @pytest.mark.parametrize("below, digits", [(1, "314159"), (0, "314158")],
                             ids=["inside", "upper"])
    def test_floors_a_unit_below_their_nodes_are_not_certified(
            self, monkeypatch, below, digits):
        # 200 stub nodes, each 1/gap short of a unit above its floor, so
        # that v * s lies just under S + n, and a digit boundary at
        # S + n - below.  At S + n - 1, v lies above it, so an interval that
        # ends below it would certify the digits under it; at S + n, the
        # interval's upper end, v lies just under it, where one unit less
        # of width would certify
        n_digits, count, gap = 5, 200, 10**9
        scale = 10 ** (n_digits + pi._guard_digits(count))
        boundary = 314159 * (scale // 10**n_digits)
        # common 1 and exponent 1: each stub node (num, norm) is num / norm,
        # and num = (q + 1) * gap - 1 puts its floor at q
        floors = [0] * (count - 1) + [boundary - count + below]
        nodes = [((q + 1) * gap - 1, scale * gap) for q in floors]
        monkeypatch.setattr(pi, "_term_nodes", lambda terms, p: (nodes, 1, 1))
        calls = []
        monkeypatch.setattr(pi, "power_base_sum",
                            _recording(pi.power_base_sum, calls))
        got = self.expansion(P(1, 0), n_digits)
        assert len(calls) == 1
        value = sum(F(num, norm) for num, norm in nodes)
        assert got == decimal_expand(value, n_digits)
        assert got.digits() == digits

    def test_exact_decimal_is_not_certified_as_truncated(self, monkeypatch):
        # stub nodes making every floored term exact, each term adding
        # sign(mult)/4 (1/4 for eq17): the floors alone cannot tell that
        # sum from a value just above it, so the fallback sums the stub
        # nodes
        mults = {recip: mult for mult, recip in self.TERMS}

        def nodes(x, p, ells):
            mult = mults[x.denominator]
            # 4 * mult * 2 / (1 * (32 * |mult|)**1)
            return [(2, 32 * abs(mult))], 1, 1

        calls = []
        monkeypatch.setattr(pi, "closed_form_nodes", nodes)
        monkeypatch.setattr(pi, "power_base_sum",
                            _recording(pi.power_base_sum, calls))
        got = self.expansion(P(1, 0), 5)
        assert len(calls) == 1
        value = F(sum(1 if mult > 0 else -1 for mult, _ in self.TERMS), 4)
        assert got == decimal_expand(value, 5)
        assert not got.truncated


TAKANO_TERMS = ((12, 49), (32, 57), (-5, 239), (12, 110443))


@pytest.mark.parametrize("terms", [
    MACHIN_TERMS, TAKANO_TERMS, ((1, 2),), ((3, 7), (-2, 3)),
], ids=["machin", "takano", "half", "mixed-signs"])
@settings(max_examples=25, deadline=None)
@given(st.integers(1, 13), st.integers(0, 40), st.integers(1, 400))
@example(1, 0, 1)
@example(13, 40, 400)
def test_series_tables_match_the_exact_sum(terms, L, M, n):
    # tables with every recip >= 2 take the series producer, as Gauss does
    p = P(L, M)
    assert closed_form_expansion(terms, p, n) == \
        decimal_expand(power_base_sum(*_term_nodes(terms, p)), n)


def series_coefficient(L: int, K: int, n: int) -> F:
    """c_n of the closed form's power series at L nodes and K inner terms,
    by its defining sum over m <= min(K, (n+1)/2), in Fractions."""
    def power_sum(j):
        return sum((2 * l - 1) ** j for l in range(1, L + 1))
    inner = sum(F(math.comb(n - 1, 2 * m - 2) * power_sum(n - 2 * m + 1),
                  2 * m - 1)
                for m in range(1, min(K, (n + 1) // 2) + 1))
    return 2 * inner / (2 * L) ** n


def series_sign(n: int) -> int:
    return 1 if n % 4 == 1 else -1


def tapered_table(L: int, M: int, count: int, scale: int,
                  recip_min: int) -> tuple[list[int], list[int]]:
    """The contract of ``pi._series_coefficients``, in Fractions, and the
    orders past x**(2K-1) that keep their complement.

    The table is in u = 2**k x, k = bits(recip_min) - 2.  An order keeps
    its complement exactly where the cutoff rule says so, and is then the
    floor of s_n c_n scale / 2**(k n).  A dropped order is the floor of the
    Taylor coefficient's s_n scale / (n 2**(k n)), and its complement
    reaches a term with recip >= recip_min by less than 2**-n units of
    1/scale.
    """
    K = P(L, M).inner_terms
    k = recip_min.bit_length() - 2
    cut = (2 * K + 1) * (2 * L) ** (2 * K)
    want, kept = [], []
    for n in range(1, 2 * count, 2):
        c = series_coefficient(L, K, n)
        if n > 2 * K:
            if math.comb(n - 1, 2 * K) * scale * 2**n >= cut * recip_min**n:
                kept.append(n)
            else:
                assert (F(1, n) - c) * scale * 2**n < recip_min**n
                c = F(1, n)
        want.append(math.floor(series_sign(n) * c * F(scale, 2 ** (k * n))))
    return want, kept


class TestClosedFormSeries:
    """The closed form at (L, M) as a power series in x, checked with exact
    rationals: a failure is a fault in the identity or in its bound."""

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 46])
    @pytest.mark.parametrize("K", [1, 2, 5, 24])
    def test_taylor_part_and_first_differing_coefficient(self, L, K):
        for n in range(1, 2 * K, 2):
            assert series_coefficient(L, K, n) == F(1, n)
        n = 2 * K + 1
        assert series_coefficient(L, K, n) == \
            F(1, n) - F(1, n * (2 * L) ** (2 * K))

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 46])
    @pytest.mark.parametrize("K", [1, 2, 5, 24])
    def test_coefficients_are_at_most_one(self, L, K):
        for n in range(1, 2 * K + 22, 2):
            assert abs(series_coefficient(L, K, n)) <= 1

    @pytest.mark.parametrize("L, M", [(1, 0), (1, 5), (2, 3), (3, 6)])
    @pytest.mark.parametrize("recip", [2, 3, 7, 239, 5257])
    def test_truncation_is_within_the_tail_bound(self, L, M, recip):
        p = P(L, M)
        x = F(1, recip)
        value = arctan_closed_form(x, p)
        K = p.inner_terms
        for N in (1, 2 * K - 1, 2 * K + 1, 2 * K + 7):
            partial = sum(series_sign(n) * series_coefficient(L, K, n)
                          * x**n for n in range(1, N + 1, 2))
            assert abs(value - partial) <= x ** (N + 2) / (1 - x * x)

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 46])
    @pytest.mark.parametrize("K", [1, 2, 5, 24])
    def test_complement_is_within_its_bound(self, L, K):
        # 0 <= 1/n - c_n <= C(n-1, 2K) / ((2K+1) (2L)**(2K)), equal at the
        # first order past the Taylor part (both sides are 0 before it)
        def bound(n):
            return F(math.comb(n - 1, 2 * K),
                     (2 * K + 1) * (2 * L) ** (2 * K))
        for n in range(1, 2 * K + 22, 2):
            assert 0 <= F(1, n) - series_coefficient(L, K, n) <= bound(n)
        n = 2 * K + 1
        assert F(1, n) - series_coefficient(L, K, n) == bound(n)

    @pytest.mark.parametrize("L, M, count", [
        (5, 10, 3),     # every n in the Taylor part
        (1, 0, 12),     # K = 1: the direct sum over m <= K
        (3, 4, 20),     # the direct sum past n = 4K - 1
        (2, 40, 25),    # K = 21: the sum over m > K
        (46, 46, 40),   # both forms
    ])
    @pytest.mark.parametrize("scale", [10**30, 2**100 + 7])
    def test_fixed_point_table_is_the_floor(self, L, M, count, scale):
        for recip_min in (2, 3, 7, 239, 5257):
            want, _ = tapered_table(L, M, count, scale, recip_min)
            assert pi._series_coefficients(P(L, M), count, scale,
                                           recip_min) == want

    def test_gauss_274_table_keeps_one_run_of_complements(self):
        # L = M = 46 at 400 digits: orders 49..101 keep their complement,
        # and the seven orders 103..115 take 1/n
        want, kept = tapered_table(46, 46, 58, 10**416, 5257)
        assert kept == list(range(49, 102, 2))
        assert pi._series_coefficients(P(46, 46), 58, 10**416, 5257) == want

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3000, 3000).filter(bool),
                              st.integers(2, 10**6)),
                    min_size=1, max_size=4),
           st.integers(1, 6), st.integers(0, 12), st.integers(0, 80))
    @example([(1, 2)], 1, 0, 0)
    @example([(2805, 5257), (-398, 9466)], 3, 4, 60)
    def test_floor_sum_is_within_the_error_budget(self, terms, L, M,
                                                  digits):
        p = P(L, M)
        scale = 10**digits
        value = 4 * sum(mult * arctan_closed_form(F(1, recip), p)
                        for mult, recip in terms)
        total = pi._series_floor(tuple(terms), p, scale)
        assert abs(value * scale - total) < \
            16 * sum(abs(mult) for mult, _ in terms)

    def test_floor_sum_at_the_gauss_274_shape(self):
        # the scale closed_form_expansion takes for 400 digits at L = M = 46,
        # where 27 of the 34 orders past x**(2K-1) keep their complement
        p, width = P(46, 46), 16 * sum(abs(mult) for mult, _ in GAUSS_TERMS)
        scale = 10 ** (400 + pi._guard_digits(2 * width))
        assert scale == 10**416
        total = pi._series_floor(GAUSS_TERMS, p, scale)
        assert abs(pi_gauss(p) * scale - total) < width


def taylor_reference_by_terms(x: F, n_digits: int) -> F:
    """The Taylor reference summed term by term into one ``Fraction``.

    The loop ``arctan_taylor_reference`` replaced: the same stopping rule,
    with each term added by ``Fraction +=``, so each addition reduces by a
    gcd.
    """
    threshold = F(1, 10 ** (n_digits + 5))
    total = F(0)
    power = x          # x**(2k+1)
    x2 = x * x
    k = 0
    while abs(power) / (2 * k + 1) >= threshold:
        term = power / (2 * k + 1)
        total += -term if k % 2 else term
        power *= x2
        k += 1
    return total


class TestTaylorReference:
    def test_zero(self):
        assert arctan_taylor_reference(F(0), 10) == 0

    def test_one_fifth_digits(self):
        e = decimal_expand(arctan_taylor_reference(F(1, 5), 10), 10)
        assert str(e) == "0.1973955598"

    def test_negation(self):
        x = F(3, 11)
        assert arctan_taylor_reference(-x, 20) == \
            -arctan_taylor_reference(x, 20)

    @pytest.mark.parametrize("x", [F(1), F(-1), F(7, 5)])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            arctan_taylor_reference(x, 10)

    def test_remainder_bound_respected(self):
        # deepening the request never shifts the already-delivered digits
        a = arctan_taylor_reference(F(1, 3), 20)
        b = arctan_taylor_reference(F(1, 3), 40)
        assert abs(a - b) < F(1, 10**23)

    @pytest.mark.parametrize("n", [20, 40])
    @pytest.mark.parametrize("x", [F(0), F(1, 5), F(-1, 5), F(1, 239),
                                   F(-1, 239), F(1, 3)])
    def test_equals_the_term_by_term_sum(self, x, n):
        assert arctan_taylor_reference(x, n) == taylor_reference_by_terms(x, n)

    @pytest.mark.parametrize("n", [1005, 1010, 1020])
    @pytest.mark.parametrize("x", [F(1, 5), F(1, 239)])
    def test_machin_shapes_equal_the_term_by_term_sum(self, x, n):
        # the arguments and depths reference_pi(1000) asks for
        assert arctan_taylor_reference(x, n) == taylor_reference_by_terms(x, n)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10**6), st.data(), st.integers(1, 80))
    def test_hypothesis_equals_the_term_by_term_sum(self, q, data, n):
        p = data.draw(st.integers(-(q // 2), q // 2))  # |x| <= 1/2
        x = F(p, q)
        assert arctan_taylor_reference(x, n) == taylor_reference_by_terms(x, n)

    def test_argument_below_the_precision_gives_zero(self):
        # no term reaches 10**-(n+5): the sum is empty, as term by term
        x = F(1, 10**40)
        assert arctan_taylor_reference(x, 30) == 0 == \
            taylor_reference_by_terms(x, 30)

    @pytest.mark.parametrize("x, n", [
        (F(999, 1000), 30),                  # |x| near 1: ~40,000 terms
        (F(10**500 - 1, 10**500), 1),        # 1 - |x| underflows a float
        (F(1, 10**40000 + 1), 10**6),        # a huge q at a huge depth
        (F(1, 5), 10**7),                    # a huge depth
    ])
    def test_runaway_series_refused_up_front(self, x, n):
        # each case would run for minutes or more if any of it were summed
        with pytest.raises(DomainError, match=f"{TAYLOR_MAX_BITS}-bit"):
            arctan_taylor_reference(x, n)

    def test_ceiling_admits_the_machin_reference_with_guard_room(self):
        # reference_pi(1000) asks for 1005 digits and doubles its guard if
        # a digit boundary falls inside the error interval
        for x in (F(1, 5), F(1, 239)):
            assert pi._taylor_size_estimate(
                x.numerator, x.denominator, 8000)[1] < TAYLOR_MAX_BITS

    @pytest.mark.parametrize("x, n", [(F(1, 5), 1005), (F(1, 239), 1020),
                                      (F(99, 100), 30), (F(-2, 3), 500)])
    def test_estimate_bounds_the_actual_sum(self, x, n):
        p, q = x.numerator, x.denominator
        terms, bits = pi._taylor_size_estimate(p, q, n)
        k, power, threshold = 0, abs(x), F(1, 10 ** (n + 5))
        while power >= (2 * k + 1) * threshold:
            k, power = k + 1, power * x * x
        odd_lcm = math.lcm(*range(1, 2 * k, 2))
        assert k <= terms
        assert (odd_lcm * q ** (2 * k - 1)).bit_length() <= bits


class TestTaylorPi:
    @pytest.mark.parametrize("n", [1, 10, 400, 1005])
    def test_machin_table_gives_the_two_term_formula(self, n):
        a = arctan_taylor_reference(F(1, 5), n)
        b = arctan_taylor_reference(F(1, 239), n)
        assert taylor_pi(MACHIN_TERMS, n) == \
            (16 * a - 4 * b, F(20, 10 ** (n + 5)))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(2, 10**5)),
                    max_size=4),
           st.integers(1, 60))
    def test_term_table_equals_the_term_by_term_sum(self, terms, n):
        terms = tuple(terms)
        assert taylor_pi(terms, n) == (
            4 * sum(mult * taylor_reference_by_terms(F(1, recip), n)
                    for mult, recip in terms),
            F(4 * sum(abs(mult) for mult, _ in terms), 10 ** (n + 5)))


class TestReference:
    def test_first_ten_digits(self):
        assert str(reference_pi(10)) == "3.1415926535"

    def test_single_digit(self):
        assert str(reference_pi(1)) == "3.1"

    def test_machin_value_is_close(self):
        e = decimal_expand(taylor_pi(MACHIN_TERMS, 30)[0], 30)
        assert matching_digits(e, reference_pi(30)) >= 30

    def test_full_embedded_length(self):
        e = reference_pi(1000)
        assert len(e.digits()) == 1001
        # repeated-digit stretch deep in the expansion, a transcription canary
        assert e.digits()[762:768] == "999999"
        assert e.digits().endswith("201989")

    @pytest.mark.parametrize("n", [0, -3, 1001])
    def test_domain_limits(self, n):
        with pytest.raises(DomainError):
            reference_pi(n)

    @pytest.fixture
    def fresh_reference_caches(self):
        # the stubbed bounds below must not reach, or come from, the caches
        # other tests share
        pi.reference_pi.cache_clear()
        yield
        pi.reference_pi.cache_clear()

    def test_straddling_interval_widens_and_retries(
            self, monkeypatch, fresh_reference_caches):
        # a bound of 10**-n puts a digit boundary inside every interval
        # until the guard reaches 20
        n, guards = 50, []
        taylor = pi.taylor_pi

        def stub(terms, n_digits):
            guard = n_digits - n
            guards.append(guard)
            value, bound = taylor(terms, n_digits)
            return value, F(1, 10**n) if guard < 20 else bound

        monkeypatch.setattr(pi, "taylor_pi", stub)
        assert reference_pi(n).digits() == pi._embedded_digits()[: n + 1]
        assert guards == [5, 10, 20]


class TestMeasure:
    def test_coarse_run(self):
        r = measure("eq17", P(1, 1), 10)
        assert r.expansion == decimal_expand(F(16, 5), 10)
        assert r.matched_digits == 1
        assert r.method == "eq17"
        assert r.elapsed_ms >= 0

    @pytest.mark.parametrize("n", [200, 763, 1000])
    def test_machin_method(self, n):
        # the reference's own certified sum; 763 digits end inside the
        # Feynman point's 9s, where the Taylor sum at that precision
        # expands past a digit boundary
        r = measure("machin", P(1, 1), n)
        assert r.matched_digits == n + 1
        assert r.expansion == reference_pi(n)

    @pytest.mark.parametrize("method", ["eq17", "gauss"])
    def test_result_keeps_graded_expansion(self, method):
        p = P(4, 4)
        r = measure(method, p, 40)
        exact = pi_gauss(p) if method == "gauss" else pi_closed_form(p)
        assert r.expansion == decimal_expand(exact, 40)
        assert r.matched_digits == matching_digits(
            r.expansion, reference_pi(40))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 13), st.integers(0, 40), st.integers(1, 400))
    def test_eq17_matches_the_derivative_route(self, L, M, n):
        # the floor certificate against the other route's exact rational
        p = P(L, M)
        assert measure("eq17", p, n).expansion == \
            decimal_expand(pi_derivative_form(p), n)

    def test_methods_list(self):
        assert set(METHODS) == {"eq17", "eq18", "gauss", "machin"}

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            measure("simpson", P(1, 1), 10)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n", [0, -3, 1001])
    def test_ungradable_digits_rejected_before_computing(
            self, monkeypatch, method, n):
        calls = []

        def recorder(name, value):
            def evaluator(*args, **kwargs):
                calls.append(name)
                return value
            return evaluator

        reference_pi(10)  # cached, so grading below calls no stub
        for name, value in (("pi_derivative_form", F(3)),
                            ("closed_form_expansion",
                             decimal_expand(F(3), 10)),
                            ("taylor_pi", (F(3), F(0)))):
            monkeypatch.setattr(pi, name, recorder(name, value))
        with pytest.raises(DomainError):
            measure(method, P(46, 46), n)
        assert calls == []
        measure(method, P(46, 46), 10)  # the stubs do record a valid run
        assert len(calls) == 1
