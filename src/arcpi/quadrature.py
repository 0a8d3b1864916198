"""Derivative-corrected midpoint integration over [0, 1].

The base rule samples an integrand's derivatives at the L midpoint nodes
(2*l - 1) / (2*L) and sums them with exact rational weights:

    sum_{l=1..L} sum_{m=0..M} ((-1)**m + 1) / ((2L)**(m+1) (m+1)!) f^(m)(node_l)

Odd orders carry the factor ((-1)**m + 1) == 0, which is why the rule can
be recast over even orders only, with m running to floor(M/2) + 1:

    2 sum_{l=1..L} sum_{m=1..} 1 / ((2L)**(2m-1) (2m-1)!) f^(2m-2)(node_l)

Both forms are finite truncations, exact over rationals, and agree term by
term.  One weight table serves both: (m, numerator, denominator) int
triples in lowest terms for m = 0..M, of which the even-order form keeps
the rows with a nonzero numerator.

An integrand is a ``DerivativeOracle``: asked once per node, node by node,
for all of the rule's orders in increasing order, it returns each
f^(order)(node) as an unreduced (num, den) int pair with den > 0.  A node's
weighted pairs are added in ints by an lcm add (with g = gcd(den, td):
num = num*(td/g) + tn*(den/g), den = den*(td/g)), and ``exact.pairwise_sum``
reduces each node sum once and adds the node sums pairwise.
Exact addition is associative: the result is that of a term-by-term sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from typing import Callable, Iterable, Sequence

from .exact import pairwise_sum

DerivativeOracle = Callable[
    [Fraction, Sequence[int]], Iterable[tuple[int, int]]]


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
    1/(degree + 1)."""
    if degree < 0:
        raise ValueError("monomial degree must be >= 0")

    def f(t: Fraction, orders: Sequence[int]) -> list[tuple[int, int]]:
        return [(factorial(degree) // factorial(degree - m)
                 * t.numerator ** (degree - m), t.denominator ** (degree - m))
                if m <= degree else (0, 1) for m in orders]
    return f


def _weights(p: ComputationParams) -> list[tuple[int, int, int]]:
    """The all-order weights ((-1)**m + 1) / ((2L)**(m+1) (m+1)!) as
    (m, numerator, denominator) int triples in lowest terms, m = 0..M:
    (m, 1, (2L)**(m+1) (m+1)! / 2) for even m and (m, 0, 1) for odd m."""
    two_l = 2 * p.L
    weights = []
    denom = 1
    for m in range(p.M + 1):
        denom *= two_l * (m + 1)  # (2L)**(m+1) * (m+1)!
        weights.append((m, 1, denom // 2) if m % 2 == 0 else (m, 0, 1))
    return weights


def _corrected_midpoint(
    f: DerivativeOracle,
    p: ComputationParams,
    weights: list[tuple[int, int, int]],
) -> Fraction:
    """sum over l = 1..L and (order, wn, wd) of wn/wd * f^(order)(node_l),
    summed in ints within each node, then added pairwise across nodes."""
    orders = [order for order, _, _ in weights]
    node_sums = []
    for node in midpoint_nodes(p.L):
        num, den = 0, 1
        for (_, wn, wd), (vn, vd) in zip(weights, f(node, orders),
                                         strict=True):
            if wn:  # odd orders of the all-order form weigh 0
                tn, td = wn * vn, wd * vd
                g = gcd(den, td)
                step = td // g
                num = num * step + tn * (den // g)
                den *= step
        node_sums.append((num, den))
    return pairwise_sum(node_sums)


def integrate_all_orders(
    f: DerivativeOracle, p: ComputationParams
) -> Fraction:
    """Truncated corrected-midpoint sum over every order 0..M.

    Odd orders are evaluated and weighted by their (zero) coefficient, so
    the oracle must be defined for them too.
    """
    return _corrected_midpoint(f, p, _weights(p))


def integrate_even_orders(
    f: DerivativeOracle, p: ComputationParams
) -> Fraction:
    """Truncated corrected-midpoint sum querying even orders only.

    Queries f at orders 0, 2, ..., 2*floor(M/2); equal to
    ``integrate_all_orders`` on every input.
    """
    return _corrected_midpoint(
        f, p, [row for row in _weights(p) if row[1]])
