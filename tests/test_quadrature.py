"""Derivative-corrected midpoint rules on [0, 1]."""

from fractions import Fraction

import pytest

from arcpi.kernels import deriv_inv_one_plus_t2
from arcpi.quadrature import (
    ComputationParams,
    integrate_all_orders,
    integrate_even_orders,
    integration_error,
    midpoint_nodes,
    monomial_oracle,
)

F = Fraction


def constant(m, t):
    return F(1) if m == 0 else F(0)


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
        assert integrate_even_orders(deriv_inv_one_plus_t2, p) == \
            integrate_all_orders(deriv_inv_one_plus_t2, p)


@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize("M", range(7))
def test_rules_identical(L, M):
    """Odd orders contribute a zero factor, so both forms agree exactly."""
    p = ComputationParams(L, M)
    for f in (deriv_inv_one_plus_t2, monomial_oracle(3)):
        assert integrate_all_orders(f, p) == integrate_even_orders(f, p)


@pytest.mark.parametrize("L", [1, 2, 5])
@pytest.mark.parametrize("M", [4, 6])
def test_polynomial_exactness(L, M):
    p = ComputationParams(L, M)
    for d in range(M + 1):
        assert integrate_even_orders(monomial_oracle(d), p) == F(1, d + 1)


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
    def test_exact_for_low_degree(self):
        assert integration_error(
            monomial_oracle(2), ComputationParams(1, 2), F(1, 3)) == 0

    def test_constant(self):
        assert integration_error(
            constant, ComputationParams(5, 4), F(1)) == 0

    def test_cubic_odd_moments_cancel(self):
        assert integration_error(
            monomial_oracle(3), ComputationParams(1, 2), F(1, 4)) == 0

    def test_nonzero_error_is_positive(self):
        err = integration_error(
            deriv_inv_one_plus_t2, ComputationParams(1, 2), F(1, 3))
        assert err > 0


def test_block_partition_invariance():
    p = ComputationParams(5, 6)
    f = deriv_inv_one_plus_t2
    whole = integrate_all_orders(f, p)
    split = integrate_all_orders(f, p, block=[1, 2]) + \
        integrate_all_orders(f, p, block=[3, 4, 5])
    assert split == whole
    uneven = sum(integrate_even_orders(f, p, block=[ell])
                 for ell in range(1, 6))
    assert uneven == whole
