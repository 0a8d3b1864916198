"""Closed-form derivative evaluators against hand values and the oracle."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from arcpi.errors import OrderError, PoleError
from arcpi.kernels import (
    arctan_deriv,
    arctan_derivs_scaled,
    arctan_deriv_sine_form,
    deriv_inv_one_minus_u2,
    inv_one_plus_t2_derivs,
)
from arcpi.exact import gaussian_pow
from arcpi.oracle import RationalFunction

F = Fraction

ONE_PLUS = RationalFunction.one_over_one_plus_square()
ONE_MINUS = RationalFunction.one_over_one_minus_square()

# signed rationals, with 0 drawn often: it zeroes x**m or the argument x*t
signed_rationals = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)


def values(oracle_values: tuple[int, list[tuple[int, int]]]) -> list[F]:
    """The ``Fraction``s num / base**k of one oracle call's values."""
    base, nums = oracle_values
    return [F(num, base**k) for num, k in nums]


def one_plus_t2(m: int, t: F) -> F:
    """m-th derivative of 1/(1 + t**2), read off the values after they
    have stepped up through every order from 0."""
    return values(inv_one_plus_t2_derivs(t, range(m + 1)))[-1]


def scaled(m: int, x: F, t: F) -> F:
    """m-th derivative of arctan(x*t), read off the values after they
    have stepped up through every order from 1."""
    return values(arctan_derivs_scaled(x, t, range(1, m + 1)))[-1]


def arctan_deriv_scaled_reference(m: int, x: F, t: F) -> F:
    """The per-order kernel the node stream replaced: one Gaussian-integer
    power from scratch and one reduced ``Fraction`` per order,

        (-1)**(m+1) (m-1)! (a*d)**m Im((p+iq)**m) / (p**2+q**2)**m

    with x = a/b, t = c/d, p = a*c and q = b*d.
    """
    a, b = x.numerator, x.denominator
    c, d = t.numerator, t.denominator
    p, q = a * c, b * d
    _, im = gaussian_pow(p, q, m)
    return F((-1) ** (m + 1) * factorial(m - 1) * (a * d) ** m * im,
             (p * p + q * q) ** m)


class TestEvenKernel:
    """d^m/du^m of 1/(1 - u**2)."""

    @pytest.mark.parametrize("m, u, want", [
        (0, F(0), F(1)),
        (1, F(0), F(0)),          # even function, odd derivative
        (1, F(1, 2), F(16, 9)),   # 2u/(1-u^2)^2 at 1/2
        (2, F(0), F(2)),
    ])
    def test_hand_values(self, m, u, want):
        assert deriv_inv_one_minus_u2(m, u) == want

    @pytest.mark.parametrize("u", [F(1), F(-1)])
    def test_poles(self, u):
        with pytest.raises(PoleError):
            deriv_inv_one_minus_u2(0, u)

    def test_negative_order(self):
        with pytest.raises(OrderError):
            deriv_inv_one_minus_u2(-1, F(0))


class TestOddKernel:
    """d^m/dt^m of 1/(1 + t**2); no real poles."""

    @pytest.mark.parametrize("m, t, want", [
        (0, F(2), F(1, 5)),
        (1, F(1), F(-1, 2)),     # -2t/(1+t^2)^2 at 1
        (2, F(0), F(-2)),        # series 1 - t^2 + ..., so f''(0) = -2
    ])
    def test_hand_values(self, m, t, want):
        assert one_plus_t2(m, t) == want

    def test_large_order_stays_rational(self):
        norm, nums = inv_one_plus_t2_derivs(F(7, 5), range(21))
        num, k = nums[-1]
        assert type(num) is int and type(norm) is int and norm >= 1
        assert k == 21
        assert F(num, norm**k) == arctan_deriv(21, F(7, 5))

    def test_negative_order(self):
        with pytest.raises(OrderError):
            inv_one_plus_t2_derivs(F(0), [-2])


class TestArctanDeriv:
    @pytest.mark.parametrize("m, t, want", [
        (1, F(0), F(1)),
        (2, F(1), F(-1, 2)),
        (3, F(0), F(-2)),        # Taylor coefficient -1/3 times 3!
    ])
    def test_hand_values(self, m, t, want):
        assert arctan_deriv(m, t) == want

    def test_order_zero_excluded(self):
        with pytest.raises(OrderError):
            arctan_deriv(0, F(1))

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("t", [F(0), F(1, 3), F(-7, 5), F(10)])
    def test_antiderivative_shift(self, m, t):
        assert arctan_deriv(m, t) == one_plus_t2(m - 1, t)

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("t", [F(1, 2), F(2), F(13, 7)])
    def test_parity(self, m, t):
        assert arctan_deriv(m, -t) == (-1) ** (m + 1) * arctan_deriv(m, t)


class TestScaledVariant:
    @pytest.mark.parametrize("m, x, t, want", [
        (1, F(1), F(0), F(1)),
        (3, F(0), F(5), F(0)),   # x**m factor annihilates
        (1, F(2), F(0), F(2)),
    ])
    def test_hand_values(self, m, x, t, want):
        assert scaled(m, x, t) == want

    @pytest.mark.parametrize("m", range(1, 8))
    def test_unit_scale_reduces(self, m):
        t = F(3, 7)
        assert scaled(m, F(1), t) == arctan_deriv(m, t)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=15), signed_rationals,
           signed_rationals)
    def test_chain_rule_against_quotient_rule_oracle(self, m, x, t):
        stream = values(arctan_derivs_scaled(x, t, range(1, m + 1)))
        assert stream == [x**k * g.evaluate(x * t) for k, g
                          in enumerate(ONE_PLUS.derivatives(m), start=1)]

    def test_chain_rule_against_shifted_kernel(self):
        x, t = F(2, 3), F(1, 4)
        for m in range(1, 8):
            assert scaled(m, x, t) == x**m * one_plus_t2(m - 1, x * t)


# the three order lists the callers ask for: every order (the all-order
# rule and deriv-paths), the odd orders of the even-order rule, and one
# large order (`deriv -m 2000`)
consecutive_orders = st.integers(min_value=1, max_value=40).map(
    lambda n: list(range(1, n + 1)))
odd_orders = st.integers(min_value=1, max_value=25).map(
    lambda n: list(range(1, 2 * n, 2)))
single_order = st.integers(min_value=1, max_value=2000).map(lambda m: [m])


class TestNodeStream:
    """``arctan_derivs_scaled`` against the per-order reference kernel."""

    @settings(max_examples=60, deadline=None)
    @given(signed_rationals, signed_rationals,
           st.one_of(consecutive_orders, odd_orders, single_order))
    def test_equals_reference_order_by_order(self, x, t, orders):
        norm, nums = arctan_derivs_scaled(x, t, orders)
        assert norm == (x.numerator * t.numerator) ** 2 \
            + (x.denominator * t.denominator) ** 2
        assert [k for _, k in nums] == orders
        for m, (num, k) in zip(orders, nums):
            assert F(num, norm**k) == arctan_deriv_scaled_reference(m, x, t)

    @pytest.mark.parametrize("x, t", [(F(0), F(3)), (F(-7, 2), F(0)),
                                      (F(5, 3), F(-11, 4))])
    def test_large_order_after_small_ones(self, x, t):
        """A jump from order 3 to 700 steps the running power through."""
        assert values(arctan_derivs_scaled(x, t, [1, 3, 700])) == [
            arctan_deriv_scaled_reference(m, x, t) for m in (1, 3, 700)]

    @pytest.mark.parametrize("orders", [[0], [2, 2], [3, 1], [1, -1]])
    def test_orders_must_increase_from_one(self, orders):
        with pytest.raises(OrderError):
            arctan_derivs_scaled(F(1, 2), F(3), orders)

    def test_empty_orders(self):
        assert arctan_derivs_scaled(F(1, 2), F(3), []) == (13, [])

    def test_inv_one_plus_t2_stream_is_one_order_up(self):
        t = F(-7, 5)
        assert values(inv_one_plus_t2_derivs(t, range(9))) == \
            [arctan_deriv(m + 1, t) for m in range(9)]


class TestSineForm:
    def test_value_at_origin(self):
        assert arctan_deriv_sine_form(1, 0.0) == 1.0

    def test_matches_exact_second_derivative(self):
        assert arctan_deriv_sine_form(2, 1.0) == pytest.approx(-0.5)
        assert arctan_deriv_sine_form(2, -1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("m", [0, 21, -3])
    def test_order_cap(self, m):
        with pytest.raises(OrderError):
            arctan_deriv_sine_form(m, 0.5)

    def test_cross_formula_grid(self):
        """Floating form tracks the exact one to 1e-10 on the shared grid.

        Deviation is scaled by max(1, |exact|).  Points where the exact
        derivative is identically zero get an absolute bound instead: the
        sine factor vanishes there (t = 0 at even m, and t = +/-1 whenever
        the angle lands on a multiple of pi), so the floating value is pure
        argument-rounding noise.  At m = 12, t = +/-1 that noise is the
        distance from the double nearest 3*pi, amplified by 11!/2**6 to
        about 1.3e-9, an irreducible floor for this formula in doubles.
        """
        grid = [F(2), F(-2), F(1), F(-1), F(1, 2), F(-1, 2),
                F(1, 10), F(-1, 10)]
        for m in range(1, 13):
            points = grid + ([F(0)] if m % 2 else [])
            for t in points:
                exact = float(arctan_deriv(m, t))
                approx = arctan_deriv_sine_form(m, float(t))
                if exact == 0.0:
                    assert abs(approx) <= 1e-8, (m, t, approx)
                else:
                    deviation = abs(approx - exact) / max(1.0, abs(exact))
                    assert deviation <= 1e-10, (m, t, deviation)


class TestOracle:
    @pytest.mark.parametrize("m, f, t, want", [
        (0, ONE_PLUS, F(2), F(1, 5)),
        (1, ONE_PLUS, F(1), F(-1, 2)),
        (2, ONE_MINUS, F(0), F(2)),
    ])
    def test_hand_values(self, m, f, t, want):
        assert f.derivatives(m + 1)[m].evaluate(t) == want

    def test_pole_detection(self):
        with pytest.raises(PoleError):
            ONE_MINUS.derivatives(4)[3].evaluate(F(1))

    def test_zero_denominator_rejected_at_construction(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction.from_pair([1], [0])

    def test_general_quotient(self):
        # (t^2 + 1) / (t + 2), first derivative at t = 0 is -1/4
        f = RationalFunction.from_pair([1, 0, 1], [2, 1])
        assert f.derivative().evaluate(F(0)) == F(-1, 4)


T_GRID = [F(0), F(1, 3), F(-1, 3), F(1), F(-1), F(7, 5), F(-7, 5), F(10)]
U_GRID = [u for u in T_GRID if abs(u) != 1]


def oracle_derivative_reference(m: int, f: RationalFunction, t: F) -> F:
    """The per-order loop that ``RationalFunction.derivatives`` replaced:
    m quotient-rule steps from f, then one evaluation."""
    for _ in range(m):
        f = f.derivative()
    return f.evaluate(t)


# criterion 4's grid: the closed forms are checked against the chain there
CRITERION_4_GRID = [F(0), F(1, 3), F(-1, 3), F(1), F(-1), F(7, 5),
                    F(-7, 5), F(-2, 5), F(10)]


class TestDerivativeChain:
    def test_chain_starts_at_f_and_steps_by_derivative(self):
        chain = ONE_PLUS.derivatives(4)
        assert chain[0] == ONE_PLUS
        assert [g.derivative() for g in chain[:-1]] == chain[1:]
        assert ONE_PLUS.derivatives(0) == []
        assert ONE_PLUS.derivatives(1) == [ONE_PLUS]

    @pytest.mark.parametrize("f, grid", [
        (ONE_PLUS, CRITERION_4_GRID),
        (ONE_MINUS, [u for u in CRITERION_4_GRID if abs(u) != 1]),
    ])
    def test_chain_equals_the_per_order_loop_on_the_grid(self, f, grid):
        chain = f.derivatives(16)
        for t in grid:
            want = [oracle_derivative_reference(m, f, t) for m in range(16)]
            assert [g.evaluate(t) for g in chain] == want

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([ONE_PLUS, ONE_MINUS]), st.integers(0, 15),
           st.fractions(min_value=-100, max_value=100, max_denominator=100))
    def test_chain_equals_the_per_order_loop_on_random_rationals(
            self, f, m, t):
        assume(f == ONE_PLUS or abs(t) != 1)  # the poles of 1/(1 - u**2)
        want = [oracle_derivative_reference(k, f, t) for k in range(m + 1)]
        assert [g.evaluate(t) for g in f.derivatives(m + 1)] == want


@pytest.mark.parametrize("m", range(16))
def test_oracle_agrees_with_odd_kernel(m):
    g = ONE_PLUS.derivatives(m + 1)[m]
    for t in T_GRID:
        assert one_plus_t2(m, t) == g.evaluate(t)


@pytest.mark.parametrize("m", range(16))
def test_oracle_agrees_with_even_kernel(m):
    g = ONE_MINUS.derivatives(m + 1)[m]
    for u in U_GRID:
        assert deriv_inv_one_minus_u2(m, u) == g.evaluate(u)


@pytest.mark.parametrize("m", range(1, 16))
def test_oracle_agrees_with_arctan_derivative(m):
    g = ONE_PLUS.derivatives(m)[m - 1]
    for t in T_GRID:
        assert arctan_deriv(m, t) == g.evaluate(t)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=12),
       st.fractions(min_value=-100, max_value=100, max_denominator=100))
def test_odd_kernel_matches_oracle_on_random_rationals(m, t):
    assert values(inv_one_plus_t2_derivs(t, range(m + 1))) == \
        [g.evaluate(t) for g in ONE_PLUS.derivatives(m + 1)]
