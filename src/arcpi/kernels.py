"""Closed-form derivative evaluators for the two rational kernels
1/(1 - u**2) and 1/(1 + t**2), and for arctan.  The independent
quotient-rule oracle they are validated against is ``arcpi.oracle``.

Partial fractions give both closed forms.  Writing

    1/(1 - u**2) = (1/2) (1/(u + 1) - 1/(u - 1))

and differentiating term by term gives, for every m >= 0,

    d^m/du^m 1/(1 - u**2)
        = (-1)^m (m!/2) ((u + 1)**-(m+1) - (u - 1)**-(m+1)).

Substituting u -> i t turns the same bracket into a pair of complex
conjugates, so for arctan, whose derivative is 1/(1 + t**2), only an
imaginary part survives.  For a rational t = p/q it collapses to a single
Gaussian-integer power, for every m >= 1:

    arctan^(m)(p/q)
        = (-1)^(m+1) (m-1)! q**m Im((p + i q)**m) / (p**2 + q**2)**m.

Every derivative at t = p/q is a numerator over a power of one node norm,
p**2 + q**2.  The derivatives of 1/(1 + t**2) are the arctan derivatives
one order up.  The formula is written once, in ``arctan_derivs_scaled``,
which gives the derivatives of arctan(x*t) at one t over increasing orders
in the quadrature's derivative oracle shape: the norm, and each order's
numerator with its exponent of the norm.  ``inv_one_plus_t2_derivs`` and
the one-order ``arctan_deriv`` are views of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial
from typing import Iterable

from .errors import OrderError, PoleError
from .exact import gaussian_pow


def deriv_inv_one_minus_u2(m: int, u: Fraction) -> Fraction:
    """m-th derivative of 1/(1 - u**2) at u, for m >= 0.

    Evaluates (-1)**m (m!/2) ((u+1)**-(m+1) - (u-1)**-(m+1)) in plain
    rational arithmetic.
    """
    if m < 0:
        raise OrderError("derivative order must be >= 0")
    if u == 1 or u == -1:
        raise PoleError("1/(1 - u**2) has poles at u = +/-1")
    bracket = (u + 1) ** -(m + 1) - (u - 1) ** -(m + 1)
    return Fraction((-1) ** m * factorial(m), 2) * bracket


def inv_one_plus_t2_derivs(
    t: Fraction, orders: Iterable[int]
) -> tuple[int, list[tuple[int, int]]]:
    """The derivatives of 1/(1 + t**2) at t for increasing orders >= 0, as
    a quadrature derivative oracle: the arctan values one order up."""
    return arctan_derivs_scaled(Fraction(1), t, [m + 1 for m in orders])


def arctan_deriv(m: int, t: Fraction) -> Fraction:
    """m-th derivative of arctan at t, for m >= 1: the
    ``arctan_derivs_scaled`` value at order m with x = 1, reduced."""
    norm, [(num, k)] = arctan_derivs_scaled(Fraction(1), t, [m])
    return Fraction(num, norm**k)


def arctan_derivs_scaled(
    x: Fraction, t: Fraction, orders: Iterable[int]
) -> tuple[int, list[tuple[int, int]]]:
    """The derivatives of arctan(x*t) with respect to t at increasing
    orders >= 1, as ``(norm, [(num, m), ...])``: the m-th is
    num / norm**m, with norm >= 1.

    The m-th is x**m arctan^(m)(x*t).  The formula is homogeneous of
    degree 0 in (p, q), so for x = a/b, t = c/d take p = a*c, q = b*d;
    x**m q**m is then (a*d)**m, and with w = p + iq the paper's identity
    gives the numerator over norm**m, norm = p**2 + q**2 = |w|**2:

        num = (-1)**(m+1) (m-1)! (a*d)**m Im(w**m).

    The first order's power is one ``gaussian_pow``; each later order
    steps w**k and the coefficient forward one k at a time.  No power of
    the norm is formed.
    """
    a, b = x.numerator, x.denominator
    c, d = t.numerator, t.denominator
    p, q = a * c, b * d
    ad = a * d
    nums = []
    k = 0
    for m in orders:
        if m <= k:
            raise OrderError("arctan derivative orders must be increasing "
                             "and >= 1")
        if k == 0:
            re, im = gaussian_pow(p, q, m)
            coef = (-1) ** (m + 1) * factorial(m - 1) * ad**m
        else:
            for j in range(k, m):  # order j to j + 1
                re, im = re * p - im * q, re * q + im * p
                coef *= -j * ad
        k = m
        nums.append((coef * im, m))
    return p * p + q * q, nums


def arctan_deriv_sine_form(m: int, t: float) -> float:
    """m-th arctan derivative via the Adegoke-Layeni-Lampret closed form.

    Floating-point only: sgn(-t)**(m-1) (m-1)! / (1+t**2)**(m/2)
    * sin(m*arcsin(1/sqrt(1+t**2))), with sgn(0) == 1.  Orders above 20
    are rejected because (m-1)! exceeds what a double carries exactly.
    """
    if not 1 <= m <= 20:
        raise OrderError("sine form supports orders 1..20 only")
    sgn = 1.0 if -t >= 0 else -1.0
    hypot2 = 1.0 + t * t
    return (
        sgn ** (m - 1)
        * factorial(m - 1)
        / hypot2 ** (m / 2)
        * math.sin(m * math.asin(1.0 / math.sqrt(hypot2)))
    )
