"""Derivative-corrected midpoint integration over [0, 1].

The base rule samples an integrand's derivatives at the L midpoint nodes
(2*l - 1) / (2*L) and sums them with exact rational weights:

    sum_{l=1..L} sum_{m=0..M} ((-1)**m + 1) / ((2L)**(m+1) (m+1)!) f^(m)(node_l)

Odd orders carry the factor ((-1)**m + 1) == 0, which is why the rule can
be recast over even orders only, with m running to floor(M/2) + 1:

    2 sum_{l=1..L} sum_{m=1..} 1 / ((2L)**(2m-1) (2m-1)!) f^(2m-2)(node_l)

Both forms are finite truncations, exact over rationals, and agree term by
term; integrands are supplied as derivative oracles returning exact values.
One weight table serves both: (m, numerator, denominator) int triples in
lowest terms for m = 0..M, of which the even-order form keeps the rows
with a nonzero numerator.

Accumulation order: each node's weighted terms are summed in plain ints.
Each term w * f(order, node) joins the node's unreduced (num, den) by an
lcm add: with g = gcd(den, td), num = num*(td/g) + tn*(den/g) and
den = den*(td/g).  That is one gcd per term and no ``Fraction`` until the
node is done, where one ``Fraction`` reduces the node sum (a ``Fraction``
product and sum per term would cost several gcds each).  The L node sums
are then combined pairwise (``exact.pairwise_sum``), whose tree adds
operands of similar size.  Exact addition is associative, so the result
is the same reduced rational as a sequential sum; the oracle is called
once per (node, order), node by node and in increasing order within a
node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from typing import Callable

from .exact import pairwise_sum

DerivativeOracle = Callable[[int, Fraction], Fraction]
"""Maps (order, node) to the exact value of f^(order)(node)."""


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

    def f(m: int, t: Fraction) -> Fraction:
        if m > degree:
            return Fraction(0)
        return factorial(degree) // factorial(degree - m) * t ** (degree - m)
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
    """sum over l = 1..L of sum over (order, wn, wd) of
    wn/wd * f(order, node_l), summed in ints within each node, then added
    pairwise across nodes."""
    node_sums = []
    for node in midpoint_nodes(p.L):
        num, den = 0, 1
        for order, wn, wd in weights:
            value = f(order, node)
            if wn:  # odd orders of the all-order form weigh 0
                tn, td = wn * value.numerator, wd * value.denominator
                g = gcd(den, td)
                num = num * (td // g) + tn * (den // g)
                den *= td // g
        node_sums.append(Fraction(num, den))
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
