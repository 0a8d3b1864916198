"""Derivative-corrected midpoint integration over [0, 1].

The base rule samples an integrand's derivatives at the L midpoint nodes
(2*l - 1) / (2*L) and sums them with exact rational weights:

    sum_{l=1..L} sum_{m=0..M} ((-1)**m + 1) / ((2L)**(m+1) (m+1)!) f^(m)(node_l)

Odd orders carry the factor ((-1)**m + 1) == 0, which is why the rule can
be recast over even orders only, with m running to floor(M/2) + 1:

    2 sum_{l=1..L} sum_{m=1..} 1 / ((2L)**(2m-1) (2m-1)!) f^(2m-2)(node_l)

Both forms are finite truncations, exact over rationals, and agree term by
term: they differ only in the orders they ask the integrand for, 0..M or
the even ones.

An integrand is a ``DerivativeOracle``: asked once per node, node by node,
for all of the rule's orders in increasing order, it returns one int base
>= 1 and, per order, an int numerator with an exponent k >= 0:
f^(order)(node) = num / base**k.  The paper's identity gives every arctan
derivative at a node in this shape, a numerator over a power of one node
norm (``kernels.arctan_derivs_scaled``); a generic rational fits as
(common_den, [(num, 1), ...]).

The weight of an even order m is weight(m) = 2 / ((2L)**(m+1) (m+1)!),
and weight(m - 2) = weight(m) (2L)**2 m (m + 1): each divides the one
before, so their lcm is the top one's denominator.  They lift to int
coefficients c_m = W * weight(m) by one running product from the top
even order T, c_T = 1 and c_(m-2) = c_m (2L)**2 m (m + 1), over
W = L c_0, as weight(0) = 1/L; no lcm and no division.  A node then sums by Horner in its base, with no gcd:
sum c * num * base**(e - k) over W * base**e, e the largest k.
``node_sum`` adds the nodes with gcds of bases, never of the node
denominators, and reduces once.  Exact addition is associative: the result
is that of a term-by-term sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from typing import Callable, Iterable, Sequence

from .exact import coprime_fraction

DerivativeOracle = Callable[
    [Fraction, Sequence[int]], tuple[int, Iterable[tuple[int, int]]]]


@dataclass(frozen=True, slots=True)
class ComputationParams:
    """Truncation sizes: L midpoint nodes, derivative orders up to M."""

    L: int
    M: int

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.M < 0:
            raise ValueError("M must be >= 0")

    @property
    def inner_terms(self) -> int:
        """Number of terms in the even-order form: floor(M/2) + 1."""
        return self.M // 2 + 1


def midpoint_nodes(L: int) -> list[Fraction]:
    """The L subinterval midpoints (2*l - 1) / (2*L), l = 1..L."""
    return [Fraction(2 * l - 1, 2 * L) for l in range(1, L + 1)]


def monomial_oracle(degree: int) -> DerivativeOracle:
    """Derivative oracle for t**degree, degree >= 0; its integral is
    1/(degree + 1).  At t = c/d its values are over the base d: the m-th
    derivative is degree!/(degree - m)! c**(degree - m) / d**(degree - m),
    and 0 past the degree."""
    if degree < 0:
        raise ValueError("monomial degree must be >= 0")

    def f(t: Fraction, orders: Sequence[int]) -> tuple[int, list]:
        return t.denominator, [
            (factorial(degree) // factorial(degree - m)
             * t.numerator ** (degree - m), degree - m)
            if m <= degree else (0, 0) for m in orders]
    return f


def _corrected_midpoint(
    f: DerivativeOracle, p: ComputationParams, orders: range
) -> Fraction:
    """sum over l = 1..L and the ``orders`` of weight(order) *
    f^(order)(node_l): each node by Horner in its base over W * base**e,
    then ``node_sum``.

    Raises ValueError when the oracle gives a base < 1, an exponent < 0 or
    not one value per order.
    """
    top_even = p.M - p.M % 2
    step = (2 * p.L) ** 2
    lifted = {top_even: 1}  # c_m = W * weight(m) for even m
    for m in range(top_even, 0, -2):
        lifted[m - 2] = lifted[m] * step * m * (m + 1)
    coefs = [lifted.get(m, 0) for m in orders]
    common = p.L * lifted[0]
    nodes = []
    for node in midpoint_nodes(p.L):
        base, values = f(node, orders)
        if base < 1:
            raise ValueError("a derivative oracle's base must be >= 1")
        acc = e = 0  # acc / base**e
        for c, (num, k) in zip(coefs, values, strict=True):
            if k < 0:
                raise ValueError(
                    "a derivative oracle's exponents must be >= 0")
            if not c:  # odd orders of the all-order form weigh 0
                continue
            if k >= e:
                acc = acc * base ** (k - e) + c * num
                e = k
            else:
                acc += c * num * base ** (e - k)
        nodes.append((acc, base, e))
    top = max(e for _, _, e in nodes)
    return node_sum(
        [(acc * base ** (top - e), base) for acc, base, e in nodes],
        common, top)


def node_sum(nodes: Sequence[tuple[int, int]], common: int,
             exponent: int) -> Fraction:
    """Exact sum of n / (common * base**exponent) over the ``(n, base)`` int
    pairs of ``nodes``, as a reduced ``Fraction``; common >= 1, every
    base >= 1 and exponent >= 0.  ``[]`` sums to 0.

    Merge: the halves of the list are summed first.  With e = exponent
    and g = gcd(P, Q), the nodes (A, P) and (B, Q) have the common
    denominator common * (P/g * Q)**e, so their sum is the node
    (A * (Q/g)**e + B * (P/g)**e, P/g * Q).  Every gcd is one of two
    bases, never of two denominators.

    Reduction: the merge leaves n / d, d = common * R**e for the root
    base R.  Every prime of d divides the radical s = common * R, so n / d
    is reduced once t = gcd(n mod s, s, d) is 1, and no gcd of n and d is
    taken.  Each round squares t while the square still divides n and d,
    then divides both by t, so a prime power p**k goes in about log2(k)
    rounds rather than k.  Every prime that n and d still share divided
    the round's first t, so that t is the next round's s: only the first
    remainder is by the ~1 kbit radical.
    """
    if not nodes:
        return Fraction(0)
    num, root = _merge(nodes, exponent)
    if num == 0:
        return Fraction(0)
    den = common * root**exponent
    shared = common * root  # the radical
    while (t := gcd(num % shared, shared, den)) > 1:
        shared = t
        square = t * t
        while num % square == 0 and den % square == 0:
            t = square
            square = t * t
        num //= t
        den //= t
    return coprime_fraction(num, den)


def _merge(nodes: Sequence[tuple[int, int]], e: int) -> tuple[int, int]:
    """The one node ``(n, base)`` that ``node_sum`` reduces: the merged
    halves of a non-empty list."""
    if len(nodes) == 1:
        return nodes[0]
    half = len(nodes) // 2
    a, p = _merge(nodes[:half], e)
    b, q = _merge(nodes[half:], e)
    g = gcd(p, q)
    p_g, q_g = p // g, q // g
    return a * q_g**e + b * p_g**e, p_g * q


def integrate_all_orders(
    f: DerivativeOracle, p: ComputationParams
) -> Fraction:
    """Truncated corrected-midpoint sum over every order 0..M.

    Odd orders are evaluated and weighted by their (zero) coefficient, so
    the oracle must be defined for them too.
    """
    return _corrected_midpoint(f, p, range(p.M + 1))


def integrate_even_orders(
    f: DerivativeOracle, p: ComputationParams
) -> Fraction:
    """Truncated corrected-midpoint sum querying even orders only.

    Queries f at orders 0, 2, ..., 2*floor(M/2); equal to
    ``integrate_all_orders`` on every input.
    """
    return _corrected_midpoint(f, p, range(0, p.M + 1, 2))
