"""Acceptance checks: criteria 3-7 of the acceptance suite, defined
once and built on the references, not copies of them: one oracle chain
per kernel, and ``pi.taylor_pi``.  ``arcpi selftest`` runs this table
and tests/test_acceptance.py asserts on the same entries.  Each check
returns (ok, detail) and never relies on ``assert``, so a broken kernel
still fails under ``python -O``.

This is validation code, as is the quotient-rule oracle it imports, so
neither sits on the import path of the computing modules: ``arcpi.cli``
imports this module only inside ``selftest``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .arctan import arctan_closed_form, arctan_derivative_form
from .exact import matching_digits
from .kernels import (
    arctan_deriv,
    arctan_deriv_sine_form,
    deriv_inv_one_minus_u2,
    inv_one_plus_t2_derivs,
)
from .oracle import RationalFunction
from .pi import (
    GAUSS_TERMS,
    certified_expansion,
    pi_closed_form,
    pi_derivative_form,
    reference_pi,
    taylor_pi,
)
from .quadrature import (
    ComputationParams,
    integrate_all_orders,
    integrate_even_orders,
    midpoint_nodes,
    monomial_oracle,
)

P = ComputationParams
F = Fraction


def _check_path_identity() -> tuple[bool, str]:
    sizes = (1, 2, 5, 10, 23)
    pi_ok = all(
        pi_closed_form(P(L, M)) == pi_derivative_form(P(L, M))
        for L in sizes for M in sizes)
    xs = (F(1), F(-1), F(1, 5), F(-1, 5), F(1, 239))
    arctan_ok = all(
        arctan_closed_form(x, P(L, M)) == arctan_derivative_form(x, P(L, M))
        for x in xs for L in (1, 2, 5, 8) for M in range(9))
    return (pi_ok and arctan_ok,
            f"pi grid {len(sizes)**2} pairs, arctan grid {len(xs) * 4 * 9}")


def _check_oracle_equivalence() -> tuple[bool, str]:
    """The closed forms against the quotient-rule oracle, orders 0..15.

    1/(1 + t**2) is read as the quadrature reads it: one oracle call per t
    for all sixteen orders, so every step of ``arctan_derivs_scaled``
    runs, not only its first order.
    """
    orders = range(16)
    plus = RationalFunction.one_over_one_plus_square().derivatives(16)
    minus = RationalFunction.one_over_one_minus_square().derivatives(16)
    t_grid = (F(0), F(1, 3), F(-1, 3), F(1), F(-1), F(7, 5), F(-7, 5),
              F(-2, 5), F(10))
    u_grid = [u for u in t_grid if abs(u) != 1]
    mismatches = 0
    for t in t_grid:
        want = [f.evaluate(t) for f in plus]
        norm, nums = inv_one_plus_t2_derivs(t, orders)
        stream = [F(num, norm**k) for num, k in nums]
        mismatches += abs(len(stream) - len(want)) + sum(
            got != w for got, w in zip(stream, want))
        mismatches += sum(
            arctan_deriv(m + 1, t) != w for m, w in zip(orders, want))
    for u in u_grid:
        mismatches += sum(
            deriv_inv_one_minus_u2(m, u) != f.evaluate(u)
            for m, f in zip(orders, minus))
    return mismatches == 0, f"{mismatches} mismatches"


def _check_sine_form() -> tuple[bool, str]:
    """The sine/arcsine form stays within 1e-10 of the exact values.

    Grid points whose exact derivative is identically zero (t = 0 at even
    m, t = +/-1 at m divisible by 4) are held to an absolute 1e-8 bound:
    the floating value there is argument-rounding noise around a true zero,
    which no double-precision evaluation of this formula shape can push
    below roughly 1e-9 at m = 12.
    """
    grid = [F(2), F(-2), F(1), F(-1), F(1, 2), F(-1, 2), F(1, 10),
            F(-1, 10), F(1, 3), F(-1, 3), F(7, 4), F(-7, 4)]
    worst_rel = 0.0
    worst_zero = 0.0
    ok = True
    for m in range(1, 13):
        for t in grid + ([F(0)] if m % 2 else []):
            exact = float(arctan_deriv(m, t))
            approx = arctan_deriv_sine_form(m, float(t))
            if exact == 0.0:
                worst_zero = max(worst_zero, abs(approx))
                ok &= abs(approx) <= 1e-8
            else:
                deviation = abs(approx - exact) / max(1.0, abs(exact))
                worst_rel = max(worst_rel, deviation)
                ok &= deviation <= 1e-10
    return ok, (f"worst rel {worst_rel:.1e}, "
                f"worst zero-point abs {worst_zero:.1e}")


def _check_quadrature() -> tuple[bool, str]:
    def value(f, t):  # f(t) from the oracle f
        base, [(num, k)] = f(t, [0])
        return F(num, base**k)

    kernel = inv_one_plus_t2_derivs
    cubic = monomial_oracle(3)
    rules_ok = all(
        integrate_all_orders(f, P(L, M)) == integrate_even_orders(f, P(L, M))
        for L in (1, 2, 3, 4) for M in range(7) for f in (kernel, cubic))
    poly_ok = all(
        rule(monomial_oracle(d), P(L, M)) == F(1, d + 1)
        for L, M in ((1, 4), (3, 6), (5, 5)) for d in range(M + 1)
        for rule in (integrate_all_orders, integrate_even_orders))
    midpoint_ok = all(
        integrate_even_orders(f, P(L, M))
        == sum(value(f, t) for t in midpoint_nodes(L)) / L
        for f in (kernel, cubic) for L in (1, 4) for M in (0, 1))
    return rules_ok and poly_ok and midpoint_ok, ""


def _check_reference() -> tuple[bool, str]:
    expansion = reference_pi(1000)  # raises on any embedded-digit mismatch
    gauss = certified_expansion(lambda d: taylor_pi(GAUSS_TERMS, d), 60)
    matched = matching_digits(gauss, reference_pi(60))
    return (len(expansion.digits()) == 1001 and matched == 61,
            f"combination matches reference in {matched} digits")


ACCEPTANCE_CHECKS: tuple[
    tuple[int, str, Callable[[], tuple[bool, str]]], ...] = (
    (3, "both evaluation paths give identical rationals",
     _check_path_identity),
    (4, "closed forms equal the quotient-rule oracle, m <= 15",
     _check_oracle_equivalence),
    (5, "floating sine form agrees within tolerance", _check_sine_form),
    (6, "quadrature identities and polynomial exactness", _check_quadrature),
    (7, "dual-sourced reference verified to 1000 digits", _check_reference),
)


def check_line(number: int, label: str, ok: bool, detail: str = "") -> str:
    """One PASS/FAIL report line for an acceptance criterion."""
    suffix = f" [{detail}]" if detail else ""
    return f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}{suffix}"
