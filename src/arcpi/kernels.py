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

The derivatives of 1/(1 + t**2) are the arctan derivatives one order up.
The formula is written once, in ``arctan_deriv_scaled`` (the derivatives
of arctan(x*t)); ``arctan_deriv`` is its x = 1 case.  No complex division
happens anywhere: the power runs over integers and one Fraction is formed
at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial

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


def deriv_inv_one_plus_t2(m: int, t: Fraction) -> Fraction:
    """m-th derivative of 1/(1 + t**2) at t, for m >= 0.

    1/(1 + t**2) is the derivative of arctan, so this is the (m+1)-th
    arctan derivative.
    """
    if m < 0:
        raise OrderError("derivative order must be >= 0")
    return arctan_deriv(m + 1, t)


def arctan_deriv(m: int, t: Fraction) -> Fraction:
    """m-th derivative of arctan at t, for m >= 1.

    For t = p/q evaluates (-1)**(m+1) (m-1)! q**m Im((p+iq)**m)
    / (p**2+q**2)**m with one Gaussian-integer power.  Order 0 is
    excluded: arctan itself is not a rational function.
    """
    return arctan_deriv_scaled(m, Fraction(1), t)


def arctan_deriv_scaled(m: int, x: Fraction, t: Fraction) -> Fraction:
    """m-th derivative of arctan(x*t) with respect to t, for m >= 1.

    By the chain rule this is x**m arctan^(m)(x*t).  The arctan formula
    is homogeneous of degree 0 in (p, q), so x*t = p/q need not be in
    lowest terms: for x = a/b and t = c/d take p = a*c and q = b*d, and
    x**m q**m collapses to (a*d)**m.  The value

        (-1)**(m+1) (m-1)! (a*d)**m Im((p+iq)**m) / (p**2+q**2)**m

    is built from ints and reduced once, as a single ``Fraction``.
    """
    if m < 1:
        raise OrderError("arctan derivatives need order >= 1")
    a, b = x.numerator, x.denominator
    c, d = t.numerator, t.denominator
    p, q = a * c, b * d
    _, im = gaussian_pow(p, q, m)
    return Fraction((-1) ** (m + 1) * factorial(m - 1) * (a * d) ** m * im,
                    (p * p + q * q) ** m)


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
