"""Pi computation and digit-agreement measurement.

Three exact evaluators share the truncation parameters (L, M):

* ``pi_closed_form``   -- 4 * arctan(1) via the Gaussian-integer sum.
* ``pi_derivative_form`` -- 4 * arctan(1) via the corrected midpoint rule,
  that is the rule applied to 4/(1 + t**2).
* ``pi_gauss``         -- the nine-term Gauss arctangent combination,
  every term evaluated with the closed-form sum.  Small arguments make
  the truncation far more accurate at equal (L, M).

The closed-form values are one evaluator over Machin-like term tables
(``EQ17_TERMS``, ``GAUSS_TERMS``): len(terms) * L exact nodes over one
shared odd_lcm and exponent (``_term_nodes``), which ``pi_closed_form`` and
``pi_gauss`` add with ``exact.power_base_sum``.  ``measure`` grades
``eq17`` and ``gauss`` by ``closed_form_expansion``, which takes the
expansion that both ends of a certificate interval share.  For a table
whose recips are all >= 2, such as Gauss's, the interval comes from the
closed form's power series in x, arctan's Maclaurin series through
x**(2K-1) with coefficients c_n <= 1 past it (``_series_floor``): one
shared table of fixed-point coefficients and one int Horner pass per
term.  At x = 1 (eq17) the series does not decay, and the interval comes
from the exact int floor of each node at the certificate's scale.  The
exact sum of the nodes (711 kbit for ``gauss`` at L = M = 46) is built
only when the two ends differ.  The public ``pi_*`` evaluators return
reduced ``Fraction``s.

Digit counts are measured against a dual-sourced reference: an embedded
published 1000-digit constant, and the ``certified_expansion`` of Machin's
formula, summed by ``taylor_pi(MACHIN_TERMS, d)`` with a rigorous
alternating-series error bound.  The two must agree digit for digit or a
ReferenceIntegrityError is raised.  ``taylor_pi`` sums any term table by
``arctan_taylor_reference``, which uses nothing from ``arctan``, ``kernels``
or ``quadrature``, the routes it grades; the ``machin`` method and
criterion 7 (``GAUSS_TERMS``) expand their sums the same way.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Callable

from .arctan import arctan_derivative_form, closed_form_nodes
from .errors import DomainError, ReferenceIntegrityError
from .exact import (
    DecimalExpansion,
    decimal_expand,
    matching_digits,
    power_base_sum,
)
from .quadrature import ComputationParams

# Machin-like term tables: pi = 4 * sum of mult * arctan(1/recip).
MACHIN_TERMS: tuple[tuple[int, int], ...] = ((4, 5), (-1, 239))
EQ17_TERMS: tuple[tuple[int, int], ...] = ((1, 1),)  # the paper's 4*arctan(1)
# The nine-term Gauss decomposition.  Its multipliers are pinned by the tests:
# the sum must stay exact to hundreds of digits, so edits here need the same
# independent re-verification.
GAUSS_TERMS: tuple[tuple[int, int], ...] = (
    (2805, 5257),
    (-398, 9466),
    (1950, 12943),
    (1850, 34208),
    (2021, 44179),
    (2097, 85353),
    (1484, 114669),
    (1389, 330182),
    (808, 485298),
)

REFERENCE_DIGITS = 1000  # embedded constant length (fraction digits)

METHODS = ("eq17", "eq18", "gauss", "machin")


@dataclass(frozen=True, slots=True)
class PiResult:
    """One measured pi run: ``expansion`` is the computed value's graded
    decimal expansion."""

    expansion: DecimalExpansion
    method: str
    matched_digits: int
    elapsed_ms: float


def pi_closed_form(p: ComputationParams) -> Fraction:
    """4 * arctan(1), arctangent taken as the closed-form truncated sum:
    the nodes of ``EQ17_TERMS``, added by ``exact.power_base_sum``."""
    return power_base_sum(*_term_nodes(EQ17_TERMS, p))


def pi_derivative_form(p: ComputationParams) -> Fraction:
    """4 * arctan(1), arctangent taken as the corrected midpoint rule.
    Exactly equal to ``pi_closed_form`` for every (L, M)."""
    return 4 * arctan_derivative_form(Fraction(1), p)


def _term_nodes(terms: tuple[tuple[int, int], ...], p: ComputationParams
                ) -> tuple[list[tuple[int, int]], int, int]:
    """The len(terms) * L nodes whose sum is 4 * sum of mult *
    arctan(1/recip) by the closed form, in the ``(nodes, odd_lcm, e)``
    shape of ``closed_form_nodes``.  Node (num, norm) stands for
    num / (odd_lcm * norm**e); odd_lcm and e depend only on p, so every
    term shares them."""
    ells = range(1, p.L + 1)
    nodes = []
    for mult, recip in terms:
        term, common, exponent = closed_form_nodes(Fraction(1, recip), p,
                                                   ells)
        nodes += [(4 * mult * num, norm) for num, norm in term]
    return nodes, common, exponent


def _guard_digits(width: int) -> int:
    """Guard digits for a certificate interval ``width`` units of 1/s wide:
    room for the width, and ten digits more."""
    return len(str(width)) + 10


def _series_coefficients(p: ComputationParams, count: int, scale: int,
                         recip_min: int) -> list[int]:
    """The closed form's power series at p in fixed point, tapered by
    u = 2**k x with k = bits(recip_min) - 2, the largest k with
    2**(k+1) <= recip_min: for the odd n < 2 * count, in increasing order,
    floor(s_n * c * scale / 2**(k*n)), a number of bits(scale) - k*n bits.
    c is c_n where the complement 1/n - c_n is kept, and 1/n where it is
    provably negligible for every term with recip >= recip_min.
    ``_series_floor`` proves the sums, the bound and the rule used here.

    The kept orders are one run of odd n, found by testing the rule from
    each end.  If the run's last order has half = (n+1)/2 <= 3K, its
    complement sum is at most twice the direct one, and every kept order
    takes the complement, which reads only the T_j with j < 2(half - K):
    26 rows past T_0 instead of 57 at L = M = 46 and 400 digits.
    Otherwise each order takes the shorter sum.
    """
    K, two_l = p.inner_terms, 2 * p.L
    k = recip_min.bit_length() - 2
    coefs = [((scale if n % 4 == 1 else -scale) >> k * n) // n
             for n in range(1, 2 * count, 2)]
    cut = (2 * K + 1) * two_l ** (2 * K)

    def kept(n: int) -> bool:  # else (1/n - c_n) scale / recip_min**n < 2**-n
        return math.comb(n - 1, 2 * K) * scale << n >= cut * recip_min ** n

    first, last = 2 * K + 1, 2 * count - 1
    while first <= last and not kept(first):
        first += 2
    while last > first and not kept(last):
        last -= 2
    if first > last:
        return coefs
    top = (last + 1) // 2
    complement_only = top <= 3 * K
    squares = [r * r for r in range(1, two_l, 2)]
    powers = [1] * p.L
    sums = [p.L]  # sums[i] = T_(2i)
    for _ in range((top - K if complement_only else top) - 1):
        powers = [a * b for a, b in zip(powers, squares)]
        sums.append(sum(powers))
    for n in range(first, last + 1, 2):
        half = (n + 1) // 2
        direct = half >= 2 * K and not complement_only
        part = sum(math.comb(n, 2 * m - 1) * sums[half - m]
                   for m in (range(1, K + 1) if direct
                             else range(K + 1, half + 1)))
        power = two_l ** n
        total = 2 * part if direct else power - 2 * part  # n (2L)**n c_n
        coefs[n // 2] = ((total if n % 4 == 1 else -total) * scale
                         >> k * n) // (n * power)
    return coefs


def _series_floor(terms: tuple[tuple[int, int], ...], p: ComputationParams,
                  scale: int) -> int:
    """An int S with |v * scale - S| < 16 * sum(|mult|), where v is the
    table's closed-form value 4 * sum of mult * A(1/recip), A =
    ``arctan_closed_form`` at p, for a table whose recips are all >= 2.

    Series: let K = p.inner_terms, r_l = 2l - 1, T_j = sum over l = 1..L
    of r_l**j and s_n = (-1)**((n-1)/2).  Node l of A(x) is
    2 Im sum_{m=1..K} z**(2m-1)/(2m-1), with z = num/conj(w) =
    1/(r_l - 2iL/x) (``closed_form_nodes``).  With y = x/(2L),
    z = iy/(1 + i r_l y), so z**(2m-1) = (iy)**(2m-1) * sum_{j>=0}
    C(2m-2+j, j) (-i r_l y)**j, which converges while |r_l y| < 1, that is
    for |x| < 2L/(2L-1) and so for every |x| <= 1/2.  The term in y**n,
    n = 2m-1+j, carries i**(2m-1) (-i)**j = (-1)**j i**n: real for even n,
    and s_n i for odd n (then j is even).  Summed over l and m, with
    C(n-1, 2m-2)/(2m-1) = C(n, 2m-1)/n,

        A(x) = sum over odd n of s_n c_n x**n,  c_n = 2 C_n / (n (2L)**n),
        C_n = sum_{m=1..min(K, (n+1)/2)} C(n, 2m-1) T_(n-2m+1).

    Taylor part: for n <= 2K-1 the m-sum takes every odd i = 2m-1 <= n,
    and sum over odd i of C(n, i) r**(n-i) = ((r+1)**n - (r-1)**n)/2 by
    the binomial theorem.  With r_l + 1 = 2l and r_l - 1 = 2l - 2 that
    telescopes over l = 1..L to (2L)**n/2, so c_n = 1/n: A agrees with
    arctan's Maclaurin series through x**(2K-1).

    Tail: every term of the m-sum is positive, and over all m <= (n+1)/2
    it gives 1/n, so 0 < c_n <= 1/n <= 1 for every odd n.  The series past
    x**N is therefore below the sum of |x|**n over odd n >= N + 2, that is
    |x|**(N+2)/(1 - x**2).

    Complement: for n >= 2K+1, 1/n - c_n = 2 D_n/(n (2L)**n), where D_n
    sums the (n+1)/2 - K terms with m > K, so ``_series_coefficients``
    can take either sum, and n (2L)**n c_n is an int either way.  Its
    size: 0 <= 1/n - c_n <= C(n-1, 2K)/((2K+1) (2L)**(2K)), with equality
    at n = 2K+1.  In the form 2/(2L)**n sum_{m>K} C(n-1, i) T_(n-1-i)/(i+1),
    i = 2m-2 >= 2K even, use 1/(i+1) <= 1/(2K+1), T_j <= L (2L-1)**j and
    C(n-1, i) <= C(n-1, 2K) C(n-1-2K, i-2K); the sum of
    C(n-1-2K, i-2K) (2L-1)**(n-1-i) over the even i is at most
    (2L)**(n-1-2K) by the binomial theorem, and the factors collect to the
    bound.  At n = 2K+1 the only term is m = K+1, i = 2K, T_0 = L: equal.

    Dropped complements: where C(n-1, 2K) scale 2**n < (2K+1) (2L)**(2K)
    recip_min**n, the complement reaches A(x) scale, |x| <= 1/recip_min,
    by less than 2**-n, and the table takes 1/n.  The left side over the
    right, f(n), has f(n+2)/f(n) = 4 (n+1) n / ((n+1-2K)(n-2K)
    recip_min**2), which falls as n grows, so log f is concave and the
    orders that keep their complement are one run.

    Error budget, for one term x = 1/q, q >= recip_min >= 2: take the odd
    n <= N = 2 * count - 1, count = floor(E/2), E = ceil((bits(scale) + 1)
    / (bits(q) - 1)).  Then N + 2 >= E and q**(N+2) >= 2**((bits(q)-1) E)
    >= 2 * scale, so with 1 - x**2 >= 3/4 the tail is below 2/3 of a unit
    of 1/scale.  Let u = 2**k x <= 1/2, so that A(x) scale is the sum of
    s_n c_n scale/2**(kn) u**n.  The table's floors b_n err by less than
    1 each, together by less than the sum of u**n over odd n,
    u/(1 - u**2) <= 2/3, and the dropped complements by less than the sum
    of 2**-n, also 2/3.  Horner takes h = b_N, then h = b_n + floor(h u**2)
    for n = N-2 down to 1, and R = floor(h u), in ints: floor(h u**2) =
    (h << 2k) // q**2 and floor(h u) = (h << k) // q.  The floor made in
    forming h_n errs by less than 1 and reaches R scaled by u**n, so these
    floors err by less than 2/3 in all, and the last by less than 1.  So
    |A(x) scale - R| < 4 * 2/3 + 1 = 11/3 < 4, and S = sum of 4 mult R
    errs by less than 16 sum(|mult|).  The tail comes from the bit lengths
    alone, so no q**N is computed.
    """
    budget = scale.bit_length() + 1
    counts = [-(-budget // (recip.bit_length() - 1)) // 2
              for _, recip in terms]
    recip_min = min(recip for _, recip in terms)
    k = recip_min.bit_length() - 2  # the table's taper
    coefs = _series_coefficients(p, max(counts), scale, recip_min)
    total = 0
    for (mult, recip), count in zip(terms, counts):
        square, acc = recip * recip, 0
        for b in reversed(coefs[:count]):
            acc = b + (acc << 2 * k) // square
        total += 4 * mult * ((acc << k) // recip)
    return total


def closed_form_expansion(terms: tuple[tuple[int, int], ...],
                          p: ComputationParams, n_digits: int
                          ) -> DecimalExpansion:
    """The expansion of the table's closed-form value v, certified from an
    interval of floors at the scale s = 10**(n_digits + g), so that the
    exact sum is rarely built.

    Series, for a table whose recips are all >= 2 (``GAUSS_TERMS``): the
    power series of ``_series_floor``, whose floor sum S puts v in
    [(S - w) / s, (S + w) / s], w = 16 * sum(|mult|).  Nodes otherwise
    (``EQ17_TERMS``, at x = 1, where the series does not decay): v is the
    sum of the n = len(terms) * L node fractions num / den of
    ``_term_nodes``, den = odd_lcm * norm**e > 0, and S is the sum of the
    n exact floors num * s // den.  Each lies less than 1 below
    num * s / den and never above it, so v lies in [S / s, (S + n) / s].

    When the interval's two ends have equal expansions, so does v (the rule
    in ``decimal_expand``).  Otherwise the digits come from the exact sum
    of the nodes, ``power_base_sum``, which is v; the node producer's nodes
    are built once either way.  With g = ``_guard_digits`` of the
    interval's width, it straddles a digit boundary with a chance under
    1e-10.
    """
    nodes = None
    if all(recip >= 2 for _, recip in terms):
        width = 16 * sum(abs(mult) for mult, _ in terms)
        scale = 10 ** (n_digits + _guard_digits(2 * width))
        total = _series_floor(terms, p, scale)
        low, high = total - width, total + width
    else:
        nodes = _term_nodes(terms, p)
        node_list, common, exponent = nodes
        n = len(node_list)
        scale = 10 ** (n_digits + _guard_digits(n))
        total = sum(num * scale // (common * norm**exponent)
                    for num, norm in node_list)
        low, high = total, total + n
    expansion = decimal_expand((low, scale), n_digits)
    if expansion == decimal_expand((high, scale), n_digits):
        return expansion
    return decimal_expand(power_base_sum(*(nodes or _term_nodes(terms, p))),
                          n_digits)


def pi_gauss(p: ComputationParams) -> Fraction:
    """Nine-term Gauss arctangent combination at shared (L, M): the nodes
    of ``GAUSS_TERMS``, added by ``exact.power_base_sum``."""
    return power_base_sum(*_term_nodes(GAUSS_TERMS, p))


TAYLOR_MAX_BITS = 2**17  # ceiling on the reference's common denominator


def _taylor_size_estimate(p: int, q: int,
                          n_digits: int) -> tuple[float, float]:
    """Upper estimates of the term count K and of the bits of the common
    denominator odd_lcm * q**(2K-1) of ``arctan_taylor_reference(p/q)``,
    from floats alone.

    A kept term has |p|**(2k+1) * 10**(n+5) >= (2k+1) * q**(2k+1) >= q**(2k+1),
    so (2k+1) * ln(q/|p|) <= (n+5) * ln(10) and 2K - 1 <= (n+5) * ln(10) /
    ln(q/|p|).  ln(q/|p|) is taken as at least 1 - |p|/q, which stays
    positive when the two logarithms round to the same float.  The odd lcm
    is below lcm(1, ..., 2K-1) < 3**(2K-1), so the denominator has fewer
    than (2K-1) * (bit_length(q) + log2(3)) bits.
    """
    a = abs(p)
    log_ratio = max(math.log(q) - math.log(a), (q - a) / q)
    odd_span = (n_digits + 5) * math.log(10) / log_ratio if log_ratio \
        else math.inf  # 2K - 1
    return (odd_span + 1) / 2, odd_span * (q.bit_length() + math.log2(3))


def arctan_taylor_reference(x: Fraction, n_digits: int) -> Fraction:
    """arctan(x) for |x| < 1 by the alternating Taylor series, exactly.

    Stopping rule: with x = p/q, term k, (-1)**k x**(2k+1)/(2k+1), is kept
    while |x|**(2k+1)/(2k+1) >= 10**-(n_digits + 5), that is while
    |p|**(2k+1) * 10**(n_digits+5) >= (2k+1) * q**(2k+1), which is tested in
    ints.  The terms shrink, so the first term that fails bounds the
    alternating remainder: |result - arctan(x)| < 10**-(n_digits + 5).

    Sum: the K kept terms share the denominator odd_lcm * q**(2K-1), with
    odd_lcm = lcm(1, 3, ..., 2K-1).  One Horner pass in q**2 builds the
    numerator, acc = acc * q**2 + (-1)**k c_k with c_k = odd_lcm/(2k+1) *
    p**(2k+1).  Each c_k comes from c_(k-1) * (2k-1) * p**2 // (2k+1), an
    exact division since c_(k-1) * (2k-1) = odd_lcm * p**(2k-1), so every
    step multiplies a big int by small ones only.  The result is the reduced
    ``Fraction`` of the term-by-term sum, with one gcd in all.

    A request whose denominator is estimated past ``TAYLOR_MAX_BITS`` bits
    (|x| near 1, a huge q, or a huge n_digits) raises DomainError before
    any big-int work.
    """
    if abs(x) >= 1:
        raise DomainError("Taylor reference needs |x| < 1")
    if n_digits < 1:
        raise ValueError("n_digits must be >= 1")
    p, q = x.numerator, x.denominator
    if p == 0:
        return Fraction(0)
    terms, bits = _taylor_size_estimate(p, q, n_digits)
    if bits > TAYLOR_MAX_BITS:
        raise DomainError(
            f"Taylor reference to {n_digits} digits at this x needs about "
            f"{terms:.3g} terms over a {bits:.3g}-bit denominator, past the "
            f"{TAYLOR_MAX_BITS}-bit ceiling")
    a = abs(p)
    a2, q2 = a * a, q * q
    lhs, rhs = a * 10 ** (n_digits + 5), q  # the rule's two sides at term K
    K = 0
    while lhs >= (2 * K + 1) * rhs:
        lhs *= a2
        rhs *= q2
        K += 1
    if K == 0:
        return Fraction(0)
    odd_lcm = math.lcm(*range(1, 2 * K, 2))
    p2 = p * p
    c = odd_lcm * p  # c_k, carries the sign of x
    acc = 0
    for k in range(K):
        if k:
            c = c * (2 * k - 1) * p2 // (2 * k + 1)
        acc = acc * q2 + (-c if k % 2 else c)
    return Fraction(acc, odd_lcm * q ** (2 * K - 1))


def taylor_pi(terms: tuple[tuple[int, int], ...],
              n_digits: int) -> tuple[Fraction, Fraction]:
    """4 * sum of mult * ``arctan_taylor_reference(1/recip, n_digits)``,
    and its error bound 4 * sum(|mult|) * 10**-(n_digits + 5), since each
    series errs by less than 10**-(n_digits + 5)."""
    value = 4 * sum(mult * arctan_taylor_reference(Fraction(1, recip),
                                                   n_digits)
                    for mult, recip in terms)
    bound = Fraction(4 * sum(abs(mult) for mult, _ in terms),
                     10 ** (n_digits + 5))
    return value, bound


def certified_expansion(evaluate: Callable[[int], tuple[Fraction, Fraction]],
                        n_digits: int) -> DecimalExpansion:
    """The expansion to n_digits of a value that ``evaluate(d)`` gives as a
    ``(value, bound)`` pair at working precision d, |true - value| <= bound.

    d starts at n_digits + 5 and its guard doubles until both ends of
    [value - bound, value + bound] have the same expansion, which the true
    value then shares (the rule in ``decimal_expand``).  ``evaluate`` may
    refuse a precision by raising, and the error propagates.
    """
    guard = 5
    while True:
        value, bound = evaluate(n_digits + guard)
        expansion = decimal_expand(value - bound, n_digits)
        if expansion == decimal_expand(value + bound, n_digits):
            return expansion
        guard *= 2  # digit boundary inside the interval; widen and retry


@lru_cache(maxsize=None)
def _embedded_digits() -> str:
    """Digit string '3' + 1000 fraction digits from the bundled constant."""
    path = resources.files("arcpi") / "data" / "pi_digits.txt"
    compact = "".join(path.read_text("ascii").split())
    if not compact.startswith("3."):
        raise ReferenceIntegrityError("reference digits file is malformed")
    digits = "3" + compact[2:]
    if len(digits) != REFERENCE_DIGITS + 1 or not digits.isdigit():
        raise ReferenceIntegrityError("reference digits file is corrupted")
    return digits


def _check_reference_digits(n_digits: int) -> None:
    if not 1 <= n_digits <= REFERENCE_DIGITS:
        raise DomainError(
            f"reference expansion limited to 1..{REFERENCE_DIGITS} digits")


@lru_cache(maxsize=None)
def reference_pi(n_digits: int) -> DecimalExpansion:
    """Verified reference expansion of pi to n_digits fraction digits.

    The Machin value and bound, ``taylor_pi(MACHIN_TERMS, d)``, give pi's
    ``certified_expansion``.  That expansion is checked digit for digit
    against the embedded published constant.  Any disagreement is fatal.
    """
    _check_reference_digits(n_digits)
    expansion = certified_expansion(lambda d: taylor_pi(MACHIN_TERMS, d),
                                    n_digits)
    if expansion.digits() != _embedded_digits()[: n_digits + 1]:
        raise ReferenceIntegrityError(
            "Machin computation disagrees with the embedded pi constant")
    return expansion


def measure(method: str, p: ComputationParams, n_digits: int) -> PiResult:
    """Run one method, count digits agreeing with the reference, and time it.

    ``n_digits`` outside 1..REFERENCE_DIGITS raises DomainError before any
    computation starts, since no result could be graded.  ``eq17`` and
    ``gauss`` take ``closed_form_expansion``, certified by eq17's node
    floors or gauss's power series.  ``eq18`` expands its ``Fraction``;
    ``machin`` is the reference's own certified sum, so it matches all
    n_digits + 1 digits by construction.  ``elapsed_ms`` times the
    computation and the expansion, not the grading.
    """
    _check_reference_digits(n_digits)
    start = time.perf_counter()
    if method in ("eq17", "gauss"):
        terms = EQ17_TERMS if method == "eq17" else GAUSS_TERMS
        expansion = closed_form_expansion(terms, p, n_digits)
    elif method == "eq18":
        expansion = decimal_expand(pi_derivative_form(p), n_digits)
    elif method == "machin":
        expansion = certified_expansion(
            lambda d: taylor_pi(MACHIN_TERMS, d), n_digits)
    else:
        raise ValueError(f"unknown method {method!r} (want one of {METHODS})")
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return PiResult(
        expansion=expansion,
        method=method,
        matched_digits=matching_digits(expansion, reference_pi(n_digits)),
        elapsed_ms=elapsed_ms,
    )
