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
that equality is the library's central invariant.  The outer l-sum of the
closed form can be partitioned across worker processes; exact addition
makes the parallel result identical to the serial one.
"""

from __future__ import annotations

import multiprocessing
import os
from fractions import Fraction
from typing import Sequence

from .exact import GaussianInteger, pairwise_sum
from .kernels import arctan_deriv_scaled
from .quadrature import ComputationParams, integrate_even_orders


def closed_form_block(
    x: Fraction, p: ComputationParams, ells: Sequence[int]
) -> Fraction:
    """Partial closed-form sum over the given outer indices."""
    if x == 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    two_l_den = 2 * p.L * den
    mmax = p.inner_terms
    total = Fraction(0)
    for ell in ells:
        w = GaussianInteger(num * (2 * ell - 1), two_l_den)
        w2 = w * w
        norm = w.norm()
        wp = w          # w**(2m-1)
        norm_pow = norm  # norm**(2m-1)
        num_pow = num    # num**(2m-1), carries the sign of x
        for m in range(1, mmax + 1):
            if m > 1:
                wp = wp * w2
                norm_pow *= norm * norm
                num_pow *= num * num
            total += Fraction(2 * num_pow * wp.im, (2 * m - 1) * norm_pow)
    return total


def _block_worker(args: tuple[Fraction, ComputationParams, range]) -> Fraction:
    x, p, ells = args
    return closed_form_block(x, p, ells)


def arctan_closed_form(
    x: Fraction, p: ComputationParams, workers: int | None = None
) -> Fraction:
    """Truncated arctangent sum via Gaussian-integer powers.

    x = 0 is special-cased to exact 0 (the node terms 2iL/x are undefined
    there, and arctan(0) = 0).  ``workers`` > 1 splits the outer sum into
    contiguous blocks evaluated in separate processes.  The pool gets
    min(workers, L, os.cpu_count()) processes; a count of 1 runs serially.
    """
    if x == 0:
        return Fraction(0)
    ells = range(1, p.L + 1)
    workers = min(workers or 1, p.L, os.cpu_count() or 1)
    if workers <= 1:
        return closed_form_block(x, p, ells)
    size = -(-p.L // workers)
    blocks = [ells[i : i + size] for i in range(0, p.L, size)]
    with multiprocessing.Pool(workers) as pool:
        partials = pool.map(_block_worker, [(x, p, b) for b in blocks])
    return pairwise_sum(partials)


def arctan_derivative_form(x: Fraction, p: ComputationParams) -> Fraction:
    """Truncated arctangent sum via the corrected midpoint rule.

    Integrates x/(1 + x**2 t**2) over [0, 1]; since that integrand is the
    t-derivative of arctan(x*t), its m-th derivative at a node is the
    (m+1)-th scaled arctangent derivative, so no symbolic engine is needed.
    """
    if x == 0:
        return Fraction(0)

    def integrand_deriv(m: int, t: Fraction) -> Fraction:
        return arctan_deriv_scaled(m + 1, x, t)

    return integrate_even_orders(integrand_deriv, p)
