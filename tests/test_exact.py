"""Rational and Gaussian-integer arithmetic groundwork."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from arcpi.exact import (
    decimal_expand,
    decimal_to_int,
    exact_str,
    gaussian_pow,
    int_to_decimal,
    matching_digits,
    parse_rational,
    power_base_sum,
)

F = Fraction


class TestParseRational:
    def test_plain_integer(self):
        assert parse_rational("239") == F(239)

    def test_negative_fraction_canonicalized(self):
        r = parse_rational("-4/6")
        assert r == F(-2, 3)
        assert r.denominator == 3

    def test_explicit_plus_sign(self):
        assert parse_rational("+3/9") == F(1, 3)

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "", "a/b", "1//2", "1/-2"])
    def test_rejects_non_exact_input(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")

    def test_past_the_int_str_limit(self):
        r = parse_rational("-1" + "0" * 5000 + "/" + "3" * 4400)
        assert r.numerator == -(10**5000)
        assert int_to_decimal(r.denominator) == "3" * 4400


class TestDecimalToInt:
    """The inverse of ``int_to_decimal``, past python's str-to-int limit."""

    @pytest.mark.parametrize(
        "text", ["0", "7", "-0", "+12", "-256", "007", "4" * 256, "5" * 257])
    def test_short_strings_match_int(self, text):
        assert decimal_to_int(text) == int(text)

    @pytest.mark.parametrize("k", [255, 256, 257, 512, 513, 4301, 30000])
    def test_digit_patterns_past_the_limit(self, k):
        assert decimal_to_int("1" + "0" * k) == 10**k
        assert decimal_to_int("-" + "9" * k) == 1 - 10**k
        assert decimal_to_int("0" * k + "5") == 5

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30000), st.randoms(use_true_random=False),
           st.booleans())
    def test_round_trips_with_int_to_decimal(self, n_digits, rng, negative):
        n = rng.randrange(10 ** (n_digits - 1), 10**n_digits)
        n = -n if negative else n
        text = int_to_decimal(n)
        assert len(text.lstrip("-")) == n_digits
        assert decimal_to_int(text) == n
        assert int_to_decimal(decimal_to_int(text)) == text

    @pytest.mark.parametrize(
        "bad", ["", "+", "-", "--1", "+-1", "1_000", " 1", "1.5", "1e3",
                "\u00b2"])
    def test_rejects_non_decimal_text(self, bad):
        with pytest.raises(ValueError):
            decimal_to_int(bad)


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=999)


class TestGaussianPow:
    def test_square(self):
        assert gaussian_pow(1, 2, 2) == (-3, 4)

    def test_zeroth_power_is_one(self):
        assert gaussian_pow(3, 2, 0) == (1, 0)
        assert gaussian_pow(0, 0, 0) == (1, 0)

    def test_cube(self):
        # (3+2i)^2 = 5+12i, then (5+12i)(3+2i) = -9+46i
        assert gaussian_pow(3, 2, 3) == (-9, 46)

    def test_zero_base(self):
        for k in range(1, 6):
            assert gaussian_pow(0, 0, k) == (0, 0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            gaussian_pow(1, 1, -1)


small_ints = st.integers(min_value=-30, max_value=30)
exponents = st.integers(min_value=0, max_value=9)


@given(small_ints, small_ints, exponents)
def test_gaussian_pow_matches_repeated_multiplication(re, im, k):
    want_re, want_im = 1, 0
    for _ in range(k):
        want_re, want_im = (want_re * re - want_im * im,
                            want_re * im + want_im * re)
    assert gaussian_pow(re, im, k) == (want_re, want_im)


@given(small_ints, small_ints, st.integers(min_value=0, max_value=6))
def test_gaussian_pow_matches_python_complex(re, im, k):
    """|re + i*im|**6 < 2**53 here, so the complex power is exact."""
    z = complex(re, im) ** k
    assert gaussian_pow(re, im, k) == (z.real, z.imag)


@given(small_ints, small_ints, exponents)
def test_conjugate_commutes_with_gaussian_pow(re, im, k):
    power_re, power_im = gaussian_pow(re, im, k)
    assert gaussian_pow(re, -im, k) == (power_re, -power_im)


class TestDecimalExpand:
    def test_repeating(self):
        e = decimal_expand(F(1, 3), 5)
        assert str(e) == "0.33333"
        assert e.truncated

    def test_twenty_two_sevenths(self):
        e = decimal_expand(F(22, 7), 6)
        assert str(e) == "3.142857"
        assert e.truncated

    def test_terminating(self):
        e = decimal_expand(F(1, 2), 4)
        assert str(e) == "0.5000"
        assert not e.truncated

    def test_negative_value(self):
        e = decimal_expand(F(-22, 7), 3)
        assert e.sign == "-"
        assert str(e) == "-3.142"

    def test_rejects_zero_digits(self):
        with pytest.raises(ValueError):
            decimal_expand(F(1, 3), 0)


    @pytest.mark.parametrize("pair", [(1, 0), (1, -3), (0, 0)])
    def test_rejects_non_positive_denominator(self, pair):
        with pytest.raises(ValueError):
            decimal_expand(pair, 3)

    def test_fraction_digits_past_the_int_str_limit(self):
        e = decimal_expand(F(1, 7), 5000)
        assert e.fraction_digits == ("142857" * 834)[:5000]
        assert e.truncated

    def test_integer_digits_past_the_int_str_limit(self):
        e = decimal_expand((2 * 10**5000 + 2, 6), 2)  # (10**5000 + 1) / 3
        assert e.integer_digits == "3" * 5000
        assert e.fraction_digits == "66"


@given(rationals, st.integers(min_value=1, max_value=10**30),
       st.integers(min_value=1, max_value=60))
def test_unreduced_pair_expands_like_the_fraction(r, k, n):
    """A (num, den) pair scaled by any common factor, with a signed num,
    expands to the same digits as the reduced Fraction."""
    assert decimal_expand((r.numerator * k, r.denominator * k), n) == \
        decimal_expand(r, n)


@given(rationals, st.integers(min_value=1, max_value=25))
def test_expand_round_trip_error_bound(r, n):
    """Reading the digits back lands within 10**-n of the source."""
    e = decimal_expand(r, n)
    read_back = F(int(e.digits()), 10**n) * (-1 if e.sign == "-" else 1)
    assert abs(read_back - r) < F(1, 10**n)
    assert e.truncated == (read_back != r)


# signed values that are 0, exact decimals (denominator 2**i * 5**j) or any
# rational, the three kinds whose expansions end differently
interval_ends = st.one_of(
    st.just(F(0)),
    st.builds(lambda k, i, j: F(k, 2**i * 5**j),
              st.integers(-10**6, 10**6), st.integers(0, 6),
              st.integers(0, 6)),
    rationals)


@settings(max_examples=500)
@given(interval_ends, st.fractions(0, 2, max_denominator=100),
       st.fractions(0, 1, max_denominator=1000),
       st.integers(min_value=1, max_value=8))
def test_equal_end_expansions_hold_for_every_value_between(lo, width, t, n):
    """The certificate rule of ``decimal_expand``: when lo <= hi expand
    alike, so does every v in [lo, hi].  hi - lo is of order 10**-n, so
    the two ends often expand alike."""
    delta = width / 10**n
    expansion = decimal_expand(lo, n)
    if expansion == decimal_expand(lo + delta, n):
        assert decimal_expand(lo + t * delta, n) == expansion


class TestMatchingDigits:
    def test_common_prefix(self):
        a = decimal_expand(F(314159, 100000), 5)
        b = decimal_expand(F(314158, 100000), 5)
        assert matching_digits(a, b) == 5

    def test_identical(self):
        a = decimal_expand(F(31415, 10000), 4)
        assert matching_digits(a, a) == 5  # every digit, integer one included

    def test_only_leading_digit(self):
        a = decimal_expand(F(16, 5), 2)    # 3.20
        b = decimal_expand(F(22, 7), 2)    # 3.14
        assert matching_digits(a, b) == 1

    def test_symmetry(self):
        a = decimal_expand(F(1, 7), 8)
        b = decimal_expand(F(1, 6), 8)
        assert matching_digits(a, b) == matching_digits(b, a)

    def test_integer_length_mismatch_counts_zero(self):
        a = decimal_expand(F(123, 10), 2)  # 12.30
        b = decimal_expand(F(123, 100), 2)  # 1.23
        assert matching_digits(a, b) == 0

    def test_sign_mismatch_counts_zero(self):
        a = decimal_expand(F(1, 3), 3)
        b = decimal_expand(F(-1, 3), 3)
        assert matching_digits(a, b) == 0


# Bases built from a few small primes, so that neighbours, and the common
# factor, often share primes.
_small_prime_bases = st.builds(
    lambda factors, rest: math.prod(factors) * rest,
    st.lists(st.sampled_from([2, 3, 5, 7, 7, 7]), max_size=4),
    st.integers(1, 10**6))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**40, 10**40), _small_prime_bases),
                max_size=13),
       _small_prime_bases, st.integers(0, 9))
@example([], 1, 1)
@example([(0, 3), (0, 10), (0, 3)], 6, 3)  # all-zero numerators
@example([(5, 2), (-5, 2)], 3, 2)  # cancels over equal bases
@example([(4, 2), (-1, 1)], 5, 2)  # cancels over different bases
@example([(1, 6), (5, 6), (7, 6), (-2, 6)], 1, 3)  # equal bases
@example([(1, 15), (2, 21), (4, 35)], 105, 2)  # bases share common's primes
@example([(2, 5257), (3 * 7**33, 7 * 751), (7**40, 7)], 3 * 7, 33)
@example([(3, 4), (5, 6), (-1, 9), (1, 1)], 2, 1)  # e = 1
def test_power_base_sum_is_the_reduced_exact_sum(terms, common, exponent):
    """The same reduced ``Fraction`` as ``Fraction +``: equal numerator,
    denominator and hash, so a result left unreduced would fail."""
    got = power_base_sum(terms, common, exponent)
    want = sum((Fraction(num, common * base**exponent)
                for num, base in terms), Fraction(0))
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == \
        (want.numerator, want.denominator)
    assert hash(got) == hash(want)


class TestIntToDecimal:
    """``int_to_decimal`` agrees with ``str`` below python's int-to-str
    limit and rebuilds the int exactly above it, at any limit setting."""

    @pytest.mark.parametrize("n", [
        0, 7, -7, 10**255, 10**256 - 1, 10**256, 10**256 + 1, -(10**511),
        10**512 + 10**256, 10**599 + 3])
    def test_small_ints_match_str(self, n):
        assert int_to_decimal(n) == str(n)

    @given(st.integers(min_value=-10**600, max_value=10**600))
    def test_matches_str_below_the_limit(self, n):
        assert int_to_decimal(n) == str(n)

    @pytest.mark.parametrize("k", [4096, 4301, 8192, 8193, 16384])
    @pytest.mark.parametrize("shape", ["power", "below", "above", "gap"])
    def test_zero_heavy_ints_past_the_limit(self, read_rational, k, shape):
        n = {"power": 10**k, "below": 10**k - 1, "above": 10**k + 1,
             "gap": 7 * 10**k + 10**(k // 2)}[shape]
        text = int_to_decimal(n)
        assert read_rational(text) == n
        assert len(text) == k + (shape != "below")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=4301, max_value=30000),
           st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    def test_rebuilds_random_ints_past_the_limit(
            self, read_rational, n_digits, seed, negative):
        n = random.Random(seed).randrange(10 ** (n_digits - 1), 10**n_digits)
        if negative:
            n = -n
        text = int_to_decimal(n)
        assert read_rational(text) == n
        assert len(text) == n_digits + negative

    def test_exact_str_of_a_long_fraction(self, read_rational):
        r = F(10**5000 + 1, 3**7000)
        assert read_rational(exact_str(r)) == r
        assert exact_str(F(-5)) == "-5"
        assert exact_str(F(-6, 4)) == "-3/2"
