"""Exact arbitrary-precision arithmetic: rationals and Gaussian-integer
powers, the closed form's exact adder, decimal expansion and
digit-agreement counting.

Rationals are python's ``fractions.Fraction``, which already keeps the
canonical form this library relies on everywhere: positive denominator,
coprime numerator/denominator, zero stored as 0/1.  A Gaussian integer is
a plain ``(re, im)`` pair of ints; every complex power the library needs
is a nonnegative power of one, so all the heavy lifting stays in integer
arithmetic and a single big denominator appears only when the result is
turned into a ``Fraction``.

``power_base_sum`` adds the closed form's nodes num / (common * base**e),
whose denominators differ only in a small base, with gcds of bases, never
of denominators.  The derivative form's nodes have the same shape, and
``quadrature.node_sum``, which shares no code with ``power_base_sum``,
adds them, so the two routes meet through two independent adders.  Both
build their reduced result with ``coprime_fraction``.  ``decimal_expand``
also takes an unreduced pair, so a value that only feeds an expansion
needs no gcd.  It is also the one way digits are certified: every value
between two values with equal expansions has that expansion too.  Decimal
strings come from ``int_to_decimal`` and go back through
``decimal_to_int``, both free of python's int/str digit limit.

Every value here is immutable and every operation is a pure function.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable

_RATIONAL_RE = _re.compile(r"^([+-]?\d+)(?:/(\d+))?$")

# int_to_decimal and decimal_to_int convert chunks of at most _CHUNK_DIGITS
# digits with str() and int(); 256 is under python's smallest int/str limit
# (640 digits).
_CHUNK_DIGITS = 256


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a plain integer string into an exact rational.

    Decimal notation is rejected on purpose: a decimal literal would be
    silently approximated, and exactness is the whole point.
    """
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(
            f"not an exact rational: {text!r} (use 'p/q' or an integer)")
    num = decimal_to_int(m.group(1))
    den = decimal_to_int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def coprime_fraction(num: int, den: int) -> Fraction:
    """The ``Fraction`` num/den of coprime ints with den > 0, built without
    the gcd that ``Fraction(num, den)`` would take again.

    It writes the two slots every ``Fraction`` keeps, ``_numerator`` and
    ``_denominator`` (the same on python 3.10 to 3.13), as the standard
    library's own ``Fraction._from_coprime_ints`` does on 3.12 and later.
    """
    r = object.__new__(Fraction)
    r._numerator = num
    r._denominator = den
    return r


def power_base_sum(terms: Iterable[tuple[int, int]], common: int,
                   exponent: int) -> Fraction:
    """Exact sum of num / (common * base**exponent) over the ``(num, base)``
    int pairs of ``terms``, as a reduced ``Fraction``; common > 0, every
    base > 0 and exponent >= 0.  ``[]`` sums to 0.

    Tree: with e = exponent, (A, P) and (B, Q) stand for A / (common * P**e)
    and B / (common * Q**e).  With g = gcd(P, Q), P * (Q/g) = Q * (P/g) =
    lcm(P, Q), so their sum is the term (A * (Q/g)**e + B * (P/g)**e,
    P/g * Q).  Neighbours merge so, then the halved list again, until one
    term is left; each merge takes a gcd of two bases, never of two
    denominators.

    Reduction: the tree leaves n / d with d = common * R**e for the root
    base R.  Every prime of d divides s = common * R, so n / d is reduced
    once t = gcd(n mod s, s, d) is 1, and no gcd of n and d is taken.
    While t > 1, t is squared as long as t**2 still divides n and d, and
    both are divided by t; the squaring strips a prime power p**k in about
    log2(k) rounds rather than k.  A prime that n and d still share after
    a round divided that round's first t, so that t is the next round's s:
    only the first remainder is by the radical.
    """
    level = list(terms)
    while len(level) > 1:
        paired = []
        for (a, p), (b, q) in zip(level[0::2], level[1::2]):
            g = gcd(p, q)
            p_g, q_g = p // g, q // g
            paired.append((a * q_g**exponent + b * p_g**exponent, p_g * q))
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    if not level or level[0][0] == 0:
        return Fraction(0)
    num, root = level[0]
    den = common * root**exponent
    radical = common * root
    while (t := gcd(num % radical, radical, den)) > 1:
        radical = t
        while num % (square := t * t) == 0 and den % square == 0:
            t = square
        num //= t
        den //= t
    return coprime_fraction(num, den)


def gaussian_pow(re: int, im: int, k: int) -> tuple[int, int]:
    """(re + i*im)**k as a pair of ints, for k >= 0, by repeated squaring.

    0**0 is 1, as for python ints.
    """
    if k < 0:
        raise ValueError("Gaussian-integer powers need k >= 0")
    out_re, out_im = 1, 0
    while k:
        if k & 1:
            out_re, out_im = (out_re * re - out_im * im,
                              out_re * im + out_im * re)
        k >>= 1
        if k:
            re, im = re * re - im * im, 2 * re * im
    return out_re, out_im


@dataclass(frozen=True, slots=True)
class DecimalExpansion:
    """Truncated decimal expansion of an exact rational.

    ``truncated`` is set when digits were cut off, i.e. the expansion is not
    the exact value.  Truncation never rounds: the digits shown are exactly
    the leading digits of the value.
    """

    sign: str  # '+' or '-'
    integer_digits: str
    fraction_digits: str
    truncated: bool

    def digits(self) -> str:
        """Integer and fraction digits concatenated, decimal point dropped."""
        return self.integer_digits + self.fraction_digits

    def __str__(self) -> str:
        body = f"{self.integer_digits}.{self.fraction_digits}"
        return "-" + body if self.sign == "-" else body


def int_to_decimal(n: int) -> str:
    """Decimal string of an int, the same as ``str(n)`` but with no digit
    limit.

    Divide and conquer: n is split by 10**(c * 2**k) into a high and a
    zero-padded low half until every piece is below 10**c, and only those
    pieces go through ``str``.  ``sys.set_int_max_str_digits`` is never
    touched.
    """
    if n < 0:
        return "-" + int_to_decimal(-n)
    powers = [10**_CHUNK_DIGITS]  # powers[k] = 10**(_CHUNK_DIGITS * 2**k)
    while (square := powers[-1] * powers[-1]) <= n:
        powers.append(square)

    def convert(v: int, level: int, width: int) -> str:
        # v < powers[level + 1]; width 0 means no leading zeros
        if level < 0:
            return str(v).zfill(width)
        high, low = divmod(v, powers[level])
        half = _CHUNK_DIGITS << level
        if not (high or width):
            return convert(low, level - 1, 0)
        return (convert(high, level - 1, width - half if width else 0)
                + convert(low, level - 1, half))

    return convert(n, len(powers) - 1, 0)


def decimal_to_int(text: str) -> int:
    """Int of a decimal digit string with an optional sign, the same as
    ``int(text)`` but with no digit limit: the inverse of
    ``int_to_decimal``.

    Divide and conquer: the low 10**(c * 2**k) digits are split off until
    every piece has at most c digits, only those pieces go through
    ``int``, and the halves are joined as high * 10**(c * 2**k) + low.
    ``sys.set_int_max_str_digits`` is never touched.
    """
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits.isdecimal():
        raise ValueError(f"not a decimal integer: {text!r}")
    powers = [10**_CHUNK_DIGITS]  # powers[k] = 10**(_CHUNK_DIGITS * 2**k)
    while _CHUNK_DIGITS << len(powers) < len(digits):
        powers.append(powers[-1] * powers[-1])

    def convert(piece: str, level: int) -> int:
        # len(piece) <= _CHUNK_DIGITS << (level + 1)
        if level < 0:
            return int(piece)
        half = _CHUNK_DIGITS << level
        if len(piece) <= half:
            return convert(piece, level - 1)
        return (convert(piece[:-half], level - 1) * powers[level]
                + convert(piece[-half:], level - 1))

    value = convert(digits, len(powers) - 1)
    return -value if text[:1] == "-" else value


def exact_str(r: Fraction) -> str:
    """``str(r)`` for a ``Fraction`` ("p/q", or "p" when q is 1), with no
    digit limit."""
    num = int_to_decimal(r.numerator)
    if r.denominator == 1:
        return num
    return f"{num}/{int_to_decimal(r.denominator)}"


def decimal_expand(
    r: Fraction | tuple[int, int], n_fraction_digits: int
) -> DecimalExpansion:
    """Expand ``r`` to exactly ``n_fraction_digits`` fractional digits by
    long division, truncating (never rounding) the remainder.

    ``r`` is a ``Fraction`` or a ``(num, den)`` pair of ints with den > 0,
    reduced or not: the digits depend only on the value, so a pair never
    needs the gcd that building a ``Fraction`` would take.

    Certified digits: if lo <= hi have equal expansions (the same sign,
    digits and ``truncated``), every v in [lo, hi] has that expansion too.
    Equal signs put lo, v and hi on one side of 0, where |v| lies between
    |lo| and |hi| and the truncated digits floor(|v| * 10**n) are monotone
    in |v|, so they are equal for all three.  If both ends are truncated,
    |v| * 10**n lies strictly above those digits and below them plus one,
    so v is truncated as well; if neither is, lo == hi == v.  So the digits
    of an interval [lo, hi] are those of ``decimal_expand(lo, n)`` when it
    equals ``decimal_expand(hi, n)``, and ``matching_digits`` of the two
    counts the leading digits that every value in it shares.
    """
    if n_fraction_digits < 1:
        raise ValueError("need at least one fraction digit")
    num, den = r if isinstance(r, tuple) else r.as_integer_ratio()
    if den <= 0:
        raise ValueError("decimal expansion needs a positive denominator")
    sign = "-" if num < 0 else "+"
    integer_part, remainder = divmod(abs(num), den)
    scaled, tail = divmod(remainder * 10**n_fraction_digits, den)
    return DecimalExpansion(
        sign=sign,
        integer_digits=int_to_decimal(integer_part),
        fraction_digits=int_to_decimal(scaled).zfill(n_fraction_digits),
        truncated=tail != 0,
    )


def matching_digits(a: DecimalExpansion, b: DecimalExpansion) -> int:
    """Length of the common leading-digit prefix of two expansions.

    The decimal point is ignored, so the count includes integer digits.
    Expansions of different signs, or whose integer parts have different
    lengths, share no leading significant digit and count 0.
    """
    if a.sign != b.sign or len(a.integer_digits) != len(b.integer_digits):
        return 0
    count = 0
    for da, db in zip(a.digits(), b.digits()):
        if da != db:
            break
        count += 1
    return count
