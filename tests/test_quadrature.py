"""Derivative-corrected midpoint rules on [0, 1]."""

import math
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

import arcpi.exact
import arcpi.quadrature
from arcpi.exact import power_base_sum
from arcpi.kernels import arctan_derivs_scaled, inv_one_plus_t2_derivs
from arcpi.quadrature import (
    ComputationParams,
    integrate_all_orders,
    integrate_even_orders,
    midpoint_nodes,
    monomial_oracle,
    node_sum,
)

F = Fraction


def constant(t, orders):
    return 1, [(1 if m == 0 else 0, 0) for m in orders]


class TestComputationParams:
    def test_valid(self):
        p = ComputationParams(3, 0)
        assert (p.L, p.M) == (3, 0)

    @pytest.mark.parametrize("L, M", [(0, 2), (-1, 0), (2, -1)])
    def test_invalid(self, L, M):
        with pytest.raises(ValueError):
            ComputationParams(L, M)

    @pytest.mark.parametrize("M, want", [
        (0, 1), (1, 1), (2, 2), (3, 2), (5, 3), (46, 24),
    ])
    def test_inner_term_count(self, M, want):
        assert ComputationParams(1, M).inner_terms == want


def test_monomial_oracle_rejects_negative_degree():
    with pytest.raises(ValueError):
        monomial_oracle(-2)


def test_midpoint_nodes():
    assert midpoint_nodes(1) == [F(1, 2)]
    assert midpoint_nodes(2) == [F(1, 4), F(3, 4)]
    assert midpoint_nodes(5)[2] == F(1, 2)


class TestAllOrdersRule:
    def test_constant_integrand(self):
        for L, M in ((1, 0), (3, 4), (7, 2)):
            assert integrate_all_orders(constant, ComputationParams(L, M)) == 1

    def test_linear_midpoint_only(self):
        p = ComputationParams(2, 0)
        assert integrate_all_orders(monomial_oracle(1), p) == F(1, 2)

    def test_quadratic_single_interval(self):
        # one midpoint at 1/2: 2*(f(1/2)/2 + f''(1/2)/48) = 2*(1/8 + 2/48)
        p = ComputationParams(1, 2)
        assert integrate_all_orders(monomial_oracle(2), p) == F(1, 3)


class TestEvenOrdersRule:
    def test_constant_integrand(self):
        assert integrate_even_orders(constant, ComputationParams(3, 0)) == 1

    def test_quadratic_single_interval(self):
        p = ComputationParams(1, 2)
        assert integrate_even_orders(monomial_oracle(2), p) == F(1, 3)

    def test_kernel_cross_path(self):
        p = ComputationParams(1, 2)
        assert integrate_even_orders(inv_one_plus_t2_derivs, p) == \
            integrate_all_orders(inv_one_plus_t2_derivs, p)


@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize("M", range(7))
def test_rules_identical(L, M):
    """Odd orders contribute a zero factor, so both forms agree exactly."""
    p = ComputationParams(L, M)
    for f in (inv_one_plus_t2_derivs, monomial_oracle(3)):
        assert integrate_all_orders(f, p) == integrate_even_orders(f, p)


@pytest.mark.parametrize("L", [1, 2, 5])
@pytest.mark.parametrize("M", [4, 6, 61])
def test_polynomial_exactness(L, M):
    p = ComputationParams(L, M)
    for d in range(M + 1):
        for rule in (integrate_all_orders, integrate_even_orders):
            assert rule(monomial_oracle(d), p) == F(1, d + 1)


def test_exactness_stops_past_the_order_bound():
    # plain midpoint on one interval: t^2 gives 1/4, not 1/3
    p = ComputationParams(1, 0)
    assert integrate_even_orders(monomial_oracle(2), p) == F(1, 4)


@pytest.mark.parametrize("M", [0, 1])
def test_midpoint_reduction(M):
    for L in (1, 4):
        p = ComputationParams(L, M)
        plain = sum(t**3 for t in midpoint_nodes(L)) / L
        assert integrate_even_orders(monomial_oracle(3), p) == plain
        assert integrate_all_orders(monomial_oracle(3), p) == plain


class TestIntegrationError:
    """The error |rule(f, p) - exact integral| of both rules, read off the
    rule's value: zero on the polynomials the rules integrate exactly."""

    rules = (integrate_all_orders, integrate_even_orders)

    def test_exact_for_low_degree(self):
        p = ComputationParams(1, 2)
        assert all(rule(monomial_oracle(2), p) == F(1, 3)
                   for rule in self.rules)

    def test_constant(self):
        p = ComputationParams(5, 4)
        assert all(rule(constant, p) == 1 for rule in self.rules)

    def test_cubic_odd_moments_cancel(self):
        p = ComputationParams(1, 2)
        assert all(rule(monomial_oracle(3), p) == F(1, 4)
                   for rule in self.rules)

    def test_nonzero_error_is_positive(self):
        p = ComputationParams(1, 2)
        assert all(rule(inv_one_plus_t2_derivs, p) != F(1, 3)
                   for rule in self.rules)


# --- accumulation order ---------------------------------------------------
#
# The rules sum each node by Horner in its base and add the nodes by
# ``node_sum``; these references add every weighted term to one running
# total, node by node, with the weights written out from the rule's
# formulas, and ask the oracle for one order at a time.

def value(f, m, t):
    """f^(m)(t) = num / base**k from the oracle f, asked for order m
    alone."""
    base, [(num, k)] = f(t, [m])
    return F(num, base**k)


def sequential_all_orders(f, p):
    total = F(0)
    for node in midpoint_nodes(p.L):
        for m in range(p.M + 1):
            w = F((-1) ** m + 1, (2 * p.L) ** (m + 1) * factorial(m + 1))
            total += w * value(f, m, node)
    return total


def sequential_even_orders(f, p):
    total = F(0)
    for node in midpoint_nodes(p.L):
        for m in range(1, p.M // 2 + 2):
            w = F(2, (2 * p.L) ** (2 * m - 1) * factorial(2 * m - 1))
            total += w * value(f, 2 * m - 2, node)
    return total


def arctan_integrand(x):
    """Derivative oracle of x/(1 + x**2 t**2), the t-derivative of
    arctan(x*t)."""
    def f(t, orders):
        return arctan_derivs_scaled(x, t, [m + 1 for m in orders])
    return f


def partly_shared_bases(t, orders):
    """An oracle whose node bases (n + 1)(n + 3) d, for t = n/d, share
    factors with their neighbours', not always all of them, so
    ``node_sum`` merges with gcds > 1.  Its exponents do not follow the
    orders and differ from node to node, so nodes are lifted to one
    exponent."""
    n, d = t.numerator, t.denominator
    return (n + 1) * (n + 3) * d, [((-n) ** m + 1, (m * 5 + n) % 7)
                                   for m in orders]


oracles = st.one_of(
    st.integers(min_value=0, max_value=10).map(monomial_oracle),
    st.fractions(min_value=-20, max_value=20, max_denominator=60)
    .map(arctan_integrand),
    st.just(partly_shared_bases),
)
sizes = st.integers(min_value=1, max_value=8)


@settings(max_examples=40, deadline=None)
@given(oracles, sizes, st.integers(min_value=0, max_value=8))
def test_rules_equal_sequential_sum(f, L, M):
    p = ComputationParams(L, M)
    assert integrate_all_orders(f, p) == sequential_all_orders(f, p)
    assert integrate_even_orders(f, p) == sequential_even_orders(f, p)


@pytest.mark.parametrize("L, M", [(32, 32), (1, 121), (3, 61)])
def test_even_rule_equals_sequential_sum_at_dual_route_size(L, M):
    """The dual-route size, and lifted weights over 60 and 30 even
    orders, an odd M each."""
    f = arctan_integrand(F(-139, 10567))
    p = ComputationParams(L, M)
    assert integrate_even_orders(f, p) == sequential_even_orders(f, p)


@pytest.mark.parametrize("rule, orders", [
    (integrate_all_orders, [0, 1, 2, 3, 4]),
    (integrate_even_orders, [0, 2, 4]),
])
def test_oracle_called_once_per_node_and_order_in_order(rule, orders):
    """Each node is asked once, for all of the rule's orders in increasing
    order, and the nodes are asked in order."""
    calls = []

    def f(t, asked):
        calls.append((t, list(asked)))
        return inv_one_plus_t2_derivs(t, asked)

    rule(f, ComputationParams(3, 4))
    assert calls == [(t, orders) for t in midpoint_nodes(3)]


@pytest.mark.parametrize("count", [2, 4])
def test_oracle_must_yield_one_value_per_order(count):
    def f(t, orders):
        return 1, [(1, 0)] * count

    with pytest.raises(ValueError):
        integrate_even_orders(f, ComputationParams(2, 4))


@pytest.mark.parametrize("rule", [integrate_all_orders,
                                  integrate_even_orders])
@pytest.mark.parametrize("base, k", [(0, 1), (-3, 1), (5, -1)])
def test_oracle_base_and_exponents_are_checked(rule, base, k):
    """A base < 1 or an exponent < 0 is refused, not summed."""
    def f(t, orders):
        return base, [(1, k) for _ in orders]

    with pytest.raises(ValueError):
        rule(f, ComputationParams(2, 4))


# --- node_sum ---------------------------------------------------------------

# Bases built from a few small primes, so that neighbours, and the common
# factor, often share primes.
small_prime_bases = st.builds(
    lambda factors, rest: math.prod(factors) * rest,
    st.lists(st.sampled_from([2, 3, 5, 7, 7, 7]), max_size=4),
    st.integers(1, 10**6))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**40, 10**40), small_prime_bases),
                max_size=13),
       small_prime_bases, st.integers(0, 9))
@example([], 1, 1)
@example([(-6, 14)], 1, 1)  # one node
@example([(12, 2)], 6, 0)  # e = 0
@example([(0, 3), (0, 10), (0, 3)], 6, 3)  # all-zero numerators
@example([(5, 2), (-5, 2)], 3, 2)  # cancels over equal bases
@example([(4, 2), (-1, 1)], 5, 2)  # cancels over different bases
@example([(1, 6), (5, 6), (7, 6), (-2, 6)], 1, 3)  # equal bases
@example([(1, 15), (2, 21), (4, 35)], 105, 2)  # bases share W's primes
@example([(2, 5257), (3 * 7**33, 7 * 751), (7**40, 7)], 3 * 7, 33)
def test_node_sum_is_the_reduced_exact_sum(nodes, common, exponent):
    """The same reduced ``Fraction`` as ``Fraction +``: equal numerator,
    denominator and hash, so a result left unreduced would fail."""
    got = node_sum(nodes, common, exponent)
    want = sum((F(num, common * base**exponent) for num, base in nodes),
               F(0))
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == \
        (want.numerator, want.denominator)
    assert hash(got) == hash(want)


@pytest.mark.parametrize("k", [1, 2, 600, 1023, 1024, 5000])
def test_node_sum_strips_a_prime_power_in_logarithmic_rounds(
        monkeypatch, k):
    """Both adders, ``node_sum`` and ``exact.power_base_sum``, reduce
    2**k / 2**k to 1 and 2**k / 6**k to 1 / 3**k in at most bit_length(k)
    rounds, one gcd each, plus the gcd that finds nothing left: t is
    squared, not divided out one factor at a time.  Only the first
    remainder is by the radical (2, then 6); each later one is by the
    previous round's first t."""
    for module, adder in ((arcpi.quadrature, node_sum),
                          (arcpi.exact, power_base_sum)):
        for base, want in ((2, F(1)), (6, F(1, 3**k))):
            gcds = []

            def counting_gcd(*args):
                gcds.append((args, math.gcd(*args)))
                return gcds[-1][1]

            monkeypatch.setattr(module, "gcd", counting_gcd)
            assert adder([(2**k, base)], 1, k) == want
            assert len(gcds) <= k.bit_length() + 1
            assert gcds[0][0][1] == base
            for (_, t), ((rem, s, _), _) in zip(gcds, gcds[1:]):
                assert s == t and 0 <= rem < s
