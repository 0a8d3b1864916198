"""Two exact evaluators for the truncated arctangent sum.

Both compute the same double sum over L midpoint nodes and the even
derivative orders up to M, but by unrelated routes:

* ``arctan_closed_form`` pushes everything into Gaussian-integer powers.
  At node l the relevant complex number is w = (2l-1) + 2iL/x, and the
  conjugate-pair bracket collapses to 2*Im(w**(2m-1))/norm(w)**(2m-1), so
  for rational x = p/q the whole inner sum runs over powers of the
  Gaussian integer p*(2l-1) + 2iLq.

* ``arctan_derivative_form`` treats arctan(x) as the integral of
  x/(1 + x**2 t**2) over [0, 1] and applies the derivative-corrected
  midpoint rule, with the integrand's derivatives supplied in closed form:
  the m-th derivative of the integrand is the (m+1)-th derivative of
  arctan(x*t).

The two routes agree exactly, rational to rational, for every x, L, M;
that equality is the library's central invariant.

Both accumulate each node in ints, and the two routes add their nodes by
two adders that share no code.  The closed form writes node l as
num_l / (odd_lcm * norm_l**(2K-1)) and builds num_l by one Horner pass in
conj(w)**2, reduced modulo the quadratic that conj(w)**2 solves, so each
inner term costs two multiplications by node-sized ints and one addition
(``closed_form_nodes``).  Its nodes differ only in the small norm_l, so
``exact.power_base_sum`` adds them with gcds of norms.  The derivative form
asks each node once for all its orders, and ``kernels.arctan_derivs_scaled``
gives them as the paper's identity does: numerators over powers of the one
node norm.  The rule sums each node by Horner in that norm, with no gcd,
and adds the nodes by ``quadrature.node_sum``, with gcds of norms
(``arcpi.quadrature``).

Neither route needs a case for x = 0: there every Gaussian integer is
still nonzero (w = 2iL*den), and each term carries a factor num**(2m-1)
or (num*d)**m (``kernels.arctan_derivs_scaled``), so both sums are exactly 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exact import gaussian_pow, power_base_sum
from .kernels import arctan_derivs_scaled
from .quadrature import ComputationParams, integrate_even_orders


def closed_form_nodes(
    x: Fraction, p: ComputationParams, ells: Sequence[int]
) -> tuple[list[tuple[int, int]], int, int]:
    """The closed-form node sums over the given outer indices, as
    ``(nodes, odd_lcm, e)``: one unreduced ``(2 * acc, norm)`` pair per
    index, every norm > 0, standing for the node 2 * acc / (odd_lcm *
    norm**e), with e = 2K-1.  ``exact.power_base_sum`` takes these three.

    Here odd_lcm = lcm(1, 3, ..., 2K-1), x = num/den,
    w = num*(2l-1) + 2iL*den, norm = |w|**2 and

        acc = sum_{m=1..K} c_m Im(w**(2m-1)) norm**(2K-2m),
        c_m = (odd_lcm/(2m-1)) num**(2m-1)

    (module docstring).  The c_m do not depend on l and are built once.

    Since norm = w * conj(w) is real, Im(w**(2m-1)) norm**(2K-2m) =
    Im(h * Y**(K-m)) with h = w**(2K-1) and Y = conj(w)**2, so
    acc = Im(h * C(Y)) for the integer polynomial C(Y) = sum_m c_m Y**(K-m).
    Y is a root of Y**2 - t*Y + N, with t = 2 Re(w**2) and N = norm**2, so
    C(Y) = a + b*Y for the ints a, b that one Horner pass reduced modulo
    that polynomial leaves: (a + b*Y) * Y + c = (c - b*N) + (a + b*t) * Y.
    Each coefficient costs two multiplications by the node-sized t and N
    and one addition; the big c_m are never multiplied.  With w**2 = u + iv
    (so Y = u - iv) and h = hr + i*hi, acc = hi * (a + b*u) - hr * b * v.
    K = 1 needs no case: then a = c_1, b = 0 and h = w.  No gcd is taken.
    """
    num, den = x.numerator, x.denominator
    two_l_den = 2 * p.L * den
    im2 = two_l_den * two_l_den  # Im(w)**2, the same at every node
    k = p.inner_terms
    odd_lcm = math.lcm(*range(1, 2 * k, 2))
    num2 = num * num
    coefs = []
    num_pow = num  # num**(2m-1), carries the sign of x
    for m in range(1, k + 1):
        coefs.append(odd_lcm // (2 * m - 1) * num_pow)
        num_pow *= num2
    nodes = []
    for ell in ells:
        re = num * (2 * ell - 1)
        re2 = re * re
        u, v = re2 - im2, 2 * re * two_l_den  # w**2
        norm = re2 + im2
        t, n = 2 * u, norm * norm
        a = b = 0  # C(Y) = a + b*Y
        for c in coefs:
            a, b = c - b * n, a + b * t
        hr, hi = gaussian_pow(re, two_l_den, 2 * k - 1)  # h = w**(2K-1)
        acc = hi * (a + b * u) - hr * b * v
        nodes.append((2 * acc, norm))
    return nodes, odd_lcm, 2 * k - 1


def closed_form_block(
    x: Fraction, p: ComputationParams, ells: Sequence[int]
) -> Fraction:
    """Partial closed-form sum over the given outer indices: the nodes of
    ``closed_form_nodes``, added by ``exact.power_base_sum``."""
    return power_base_sum(*closed_form_nodes(x, p, ells))


def arctan_closed_form(x: Fraction, p: ComputationParams) -> Fraction:
    """Truncated arctangent sum via Gaussian-integer powers: the block of
    all L nodes."""
    return closed_form_block(x, p, range(1, p.L + 1))


def arctan_derivative_form(x: Fraction, p: ComputationParams) -> Fraction:
    """Truncated arctangent sum via the corrected midpoint rule on
    x/(1 + x**2 t**2), whose m-th derivative is the (m+1)-th derivative of
    arctan(x*t): no symbolic engine is needed."""
    return integrate_even_orders(
        lambda t, orders: arctan_derivs_scaled(x, t, [m + 1 for m in orders]),
        p)
