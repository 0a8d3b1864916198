"""Quotient-rule differentiation oracle for rational functions.

Knows nothing about the closed forms in ``kernels``; it is the independent
route they are validated against.  Only validation code imports it:
``arcpi.acceptance`` and, when they run, the ``deriv --formula oracle``
and ``bench --suite deriv-paths`` commands.

Rational functions are kept as num / base**power with dense coefficient
tuples (lowest degree first).  Differentiating num/base**k gives
(num'*base - k*num*base') / base**(k+1), so degrees grow linearly with
the order instead of doubling.  A caller that reads many orders
builds the chain f, f', f'', ... once (``RationalFunction.derivatives``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import PoleError

Poly = tuple[Fraction, ...]


def _poly(coeffs: Sequence[Fraction | int]) -> Poly:
    c = tuple(Fraction(x) for x in coeffs)
    while c and not c[-1]:
        c = c[:-1]
    return c


def _poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly(out)


def _poly_sub(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly(out)


def _poly_deriv(a: Poly) -> Poly:
    return _poly([i * ai for i, ai in enumerate(a)][1:])


def _poly_scale(a: Poly, s: Fraction) -> Poly:
    return _poly([ai * s for ai in a])


def poly_eval(a: Poly, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for ai in reversed(a):
        acc = acc * t + ai
    return acc


@dataclass(frozen=True)
class RationalFunction:
    """num / base**power with exact polynomial coefficients."""

    num: Poly
    base: Poly
    power: int = 1

    @classmethod
    def from_pair(
        cls,
        numerator: Sequence[Fraction | int],
        denominator: Sequence[Fraction | int],
    ) -> RationalFunction:
        den = _poly(denominator)
        if not den:
            raise ZeroDivisionError("denominator is the zero polynomial")
        return cls(_poly(numerator), den, 1)

    @classmethod
    def one_over_one_plus_square(cls) -> RationalFunction:
        """1 / (1 + t**2)"""
        return cls.from_pair([1], [1, 0, 1])

    @classmethod
    def one_over_one_minus_square(cls) -> RationalFunction:
        """1 / (1 - u**2)"""
        return cls.from_pair([1], [1, 0, -1])

    def derivative(self) -> RationalFunction:
        new_num = _poly_sub(
            _poly_mul(_poly_deriv(self.num), self.base),
            _poly_scale(_poly_mul(self.num, _poly_deriv(self.base)),
                        Fraction(self.power)),
        )
        return RationalFunction(new_num, self.base, self.power + 1)

    def derivatives(self, count: int) -> list[RationalFunction]:
        """[f, f', f'', ...]: the first ``count`` functions of the chain,
        each the quotient-rule ``derivative`` of the one before."""
        chain = [self]
        while len(chain) < count:
            chain.append(chain[-1].derivative())
        return chain[:count]

    def evaluate(self, t: Fraction) -> Fraction:
        b = poly_eval(self.base, t)
        if not b:
            raise PoleError(f"denominator vanishes at {t}")
        return poly_eval(self.num, t) / b**self.power
