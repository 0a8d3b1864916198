"""Exact arbitrary-precision arithmetic: rationals and Gaussian-integer
powers, pairwise rational summation, decimal expansion and digit-agreement
counting.

Rationals are python's ``fractions.Fraction``, which already keeps the
canonical form this library relies on everywhere: positive denominator,
coprime numerator/denominator, zero stored as 0/1.  A Gaussian integer is
a plain ``(re, im)`` pair of ints; every complex power the library needs
is a nonnegative power of one, so all the heavy lifting stays in integer
arithmetic and a single big denominator appears only when the result is
turned into a ``Fraction``.

Every value here is immutable and every operation is a pure function, so
values can be shipped freely between worker processes.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ComparisonError

_RATIONAL_RE = _re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a plain integer string into an exact rational.

    Decimal notation is rejected on purpose: a decimal literal would be
    silently approximated, and exactness is the whole point.
    """
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(
            f"not an exact rational: {text!r} (use 'p/q' or an integer)")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def pairwise_sum(values: Iterable[Fraction]) -> Fraction:
    """Exact sum by pairwise addition: neighbours are added, then the
    halved list again, until one value is left; ``[]`` sums to 0.

    Each ``Fraction +`` reduces by a gcd whose cost grows with the operand
    sizes.  A running total makes every addition pay for the whole sum so
    far; the pairwise tree adds operands of similar size, so only the last
    few additions are large.
    """
    level = list(values)
    if not level:
        return Fraction(0)
    while len(level) > 1:
        paired = [a + b for a, b in zip(level[0::2], level[1::2])]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


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

    def to_fraction(self) -> Fraction:
        """The rational the digit string denotes (a lower bound in magnitude
        on the source value when ``truncated``)."""
        scale = 10 ** len(self.fraction_digits)
        value = Fraction(int(self.integer_digits + self.fraction_digits), scale)
        return -value if self.sign == "-" else value

    def __str__(self) -> str:
        body = f"{self.integer_digits}.{self.fraction_digits}"
        return "-" + body if self.sign == "-" else body


def decimal_expand(r: Fraction, n_fraction_digits: int) -> DecimalExpansion:
    """Expand ``r`` to exactly ``n_fraction_digits`` fractional digits by
    long division, truncating (never rounding) the remainder."""
    if n_fraction_digits < 1:
        raise ValueError("need at least one fraction digit")
    sign = "-" if r < 0 else "+"
    num, den = abs(r.numerator), r.denominator
    integer_part, remainder = divmod(num, den)
    scaled, tail = divmod(remainder * 10**n_fraction_digits, den)
    return DecimalExpansion(
        sign=sign,
        integer_digits=str(integer_part),
        fraction_digits=str(scaled).zfill(n_fraction_digits),
        truncated=tail != 0,
    )


def matching_digits(a: DecimalExpansion, b: DecimalExpansion) -> int:
    """Length of the common leading-digit prefix of two expansions.

    The decimal point is ignored, so the count includes integer digits.
    Expansions whose integer parts have different lengths share no leading
    significant digit and count 0.
    """
    if a.sign != b.sign:
        raise ComparisonError("cannot compare expansions of different sign")
    if len(a.integer_digits) != len(b.integer_digits):
        return 0
    count = 0
    for da, db in zip(a.digits(), b.digits()):
        if da != db:
            break
        count += 1
    return count
