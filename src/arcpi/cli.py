"""Command-line front end.

Subcommands::

    pi        compute pi by one of four methods and grade matched digits
    arctan    evaluate the truncated closed-form arctangent sum
    deriv     evaluate arctan derivatives by one of three routes
    quad      run the corrected midpoint rule on a built-in integrand
    bench     timing/digit tables over the standard ladders
    selftest  run the acceptance checks, exit 1 on any failure

All rational inputs are exact "p/q" or integer strings; decimals are
rejected rather than silently approximated.  JSON output (``--format
json``) emits every numeric field as a decimal string so arbitrary
precision survives the round trip.

Exit codes: 0 success, 2 usage error, 3 domain/precondition error,
4 reference-integrity failure, 1 selftest failure.

The acceptance table (``arcpi.acceptance``) and the quotient-rule oracle
(``arcpi.oracle``) are validation code.  The subcommands that use them
import them when they run, so ``import arcpi.cli`` loads only the modules
that compute.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from fractions import Fraction
from typing import Callable, Sequence

from . import pi
from .arctan import arctan_closed_form
from .errors import DomainError, OrderError, ReferenceIntegrityError
from .exact import decimal_expand, exact_str, matching_digits, parse_rational
from .kernels import (
    arctan_deriv,
    arctan_deriv_sine_form,
    inv_one_plus_t2_derivs,
)
from .pi import METHODS, arctan_taylor_reference, certified_expansion, measure
from .quadrature import (
    ComputationParams,
    integrate_all_orders,
    integrate_even_orders,
    midpoint_nodes,
    monomial_oracle,
)

LADDER_SIZES = (8, 16, 32, 46)

DOMAIN_EXIT = 3
INTEGRITY_EXIT = 4


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(
            f"zero denominator: {text!r}") from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _emit(args: argparse.Namespace, record: dict[str, object],
          text_lines: Sequence[str]) -> None:
    """One report: a JSON object or plain text lines."""
    if args.format == "json":
        print(json.dumps({k: v for k, v in record.items() if v is not None}))
    else:
        for line in text_lines:
            print(line)


def _sizes(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("sizes must be >= 1")
    return values


# --- pi -------------------------------------------------------------------

def _run_pi(args: argparse.Namespace) -> int:
    params = ComputationParams(args.L, args.M)
    result = measure(args.method, params, args.digits)
    expansion = result.expansion
    _emit(args, {
        "method": result.method,
        "L": str(args.L),
        "M": str(args.M),
        "digits_requested": str(args.digits),
        "approx_decimal": str(expansion),
        "matched_digits": str(result.matched_digits),
        "elapsed_ms": f"{result.elapsed_ms:.3f}",
    }, [
        f"method={result.method} L={args.L} M={args.M}",
        str(expansion),
        f"matched digits: {result.matched_digits}",
        f"elapsed: {result.elapsed_ms:.1f} ms",
    ])
    return 0


# --- arctan ---------------------------------------------------------------

def _arctan_reference(x: Fraction, d: int) -> tuple[Fraction, Fraction]:
    """arctan(x), 0 < |x| < 1, at working precision d as ``(value, bound)``:
    the Taylor series, which errs by less than 10**-(d + 5), or, where it
    refuses, x itself with the alternating bound |arctan(x) - x| <= |x|**3/3
    while that bound is below 10**-d.  Past both, the refusal propagates."""
    try:
        return arctan_taylor_reference(x, d), Fraction(1, 10 ** (d + 5))
    except DomainError:
        bound = abs(x) ** 3 / 3
        if bound * 10**d >= 1:
            raise
        return x, bound


def _run_arctan(args: argparse.Namespace) -> int:
    params = ComputationParams(args.L, args.M)
    start = time.perf_counter()
    value = arctan_closed_form(args.x, params)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    expansion = decimal_expand(value, args.digits)
    exact = exact_str(value) if args.exact else None
    approx = str(expansion) if value else "0"
    matched: int | None = None
    if 0 < abs(args.x) < 1:
        try:
            reference = certified_expansion(
                lambda d: _arctan_reference(args.x, d), args.digits)
        except DomainError as exc:  # past the series' ceiling: value only
            print(f"note: no series reference: {exc}", file=sys.stderr)
        else:
            matched = matching_digits(expansion, reference)

    lines = [exact or approx]
    if matched is not None:
        lines.append(f"matched digits vs series reference: {matched}")
    _emit(args, {
        "x": exact_str(args.x),
        "L": str(args.L),
        "M": str(args.M),
        "digits_requested": str(args.digits),
        "exact": exact,
        "approx_decimal": approx,
        "matched_digits": None if matched is None else str(matched),
        "elapsed_ms": f"{elapsed_ms:.3f}",
    }, lines)
    return 0


# --- deriv ----------------------------------------------------------------

def _shown(value: Fraction | float) -> str:
    return exact_str(value) if isinstance(value, Fraction) else str(value)


def _deriv_value(formula: str, m: int, t: Fraction) -> Fraction | float:
    if formula == "eq7":
        return arctan_deriv(m, t)
    if formula == "eq2":
        return arctan_deriv_sine_form(m, float(t))
    # quotient rule on the kernel; order shifts down by one for arctan
    if m < 1:
        raise OrderError("arctan derivatives need order >= 1")
    from .oracle import RationalFunction
    return RationalFunction.one_over_one_plus_square().derivatives(m)[
        m - 1].evaluate(t)


def _run_deriv(args: argparse.Namespace) -> int:
    value = _deriv_value(args.formula, args.m, args.t)
    record: dict[str, object] = {
        "m": str(args.m),
        "t": exact_str(args.t),
        "formula": args.formula,
        "value": _shown(value),
    }
    lines = [_shown(value)]
    if args.compare:
        other = _deriv_value(args.compare, args.m, args.t)
        if isinstance(value, Fraction) and isinstance(other, Fraction):
            deviation: Fraction | float = value - other
        else:
            deviation = abs(float(value) - float(other))
        record["compare"] = args.compare
        record["deviation"] = _shown(deviation)
        lines.append(f"deviation vs {args.compare}: {_shown(deviation)}")
    _emit(args, record, lines)
    return 0


# --- quad -----------------------------------------------------------------

def _run_quad(args: argparse.Namespace) -> int:
    params = ComputationParams(args.L, args.M)
    if args.integrand == "kernel":
        f = inv_one_plus_t2_derivs
        label = "1/(1+t^2)"
        truth = None
    else:
        f = monomial_oracle(args.degree)
        label = f"t^{args.degree}"
        truth = Fraction(1, args.degree + 1)
    rule = (integrate_all_orders if args.rule == "eq9"
            else integrate_even_orders)
    value = rule(f, params)
    shown = exact_str(value) if args.exact \
        else str(decimal_expand(value, args.digits))
    lines = [f"rule={args.rule} integrand={label} L={args.L} M={args.M}",
             shown]
    record: dict[str, object] = {
        "rule": args.rule,
        "integrand": label,
        "L": str(args.L),
        "M": str(args.M),
        "value": shown,
    }
    if truth is not None:
        error = abs(value - truth)
        record["exact_integral"] = exact_str(truth)
        record["abs_error"] = exact_str(error)
        lines.append(f"exact integral: {exact_str(truth)}")
        lines.append(f"abs error: {exact_str(error)}")
    _emit(args, record, lines)
    return 0


# --- bench ----------------------------------------------------------------

def _median_ms(fn: Callable[[], object], repetitions: int) -> float:
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def _bench_pi_ladder(args: argparse.Namespace) -> list[dict[str, str]]:
    """Digits and time of eq17, eq18 and gauss at each size.

    eq17 and eq18 are the same rational by two routes, ``pi_closed_form``
    and ``pi_derivative_form``, which must be equal at every size before
    any row is printed (ReferenceIntegrityError otherwise)."""
    rows = []
    for size in args.sizes:
        params = ComputationParams(size, size)
        if pi.pi_closed_form(params) != pi.pi_derivative_form(params):
            raise ReferenceIntegrityError(
                f"eq17 and eq18 disagree at L = M = {size} (arithmetic bug)")
        for method in ("eq17", "eq18", "gauss"):
            # each elapsed_ms leaves the grading out
            results = [measure(method, params, args.digits)
                       for _ in range(args.repetitions)]
            result = results[0]
            elapsed = statistics.median(r.elapsed_ms for r in results)
            rows.append({
                "method": method,
                "L": str(size),
                "M": str(size),
                "matched_digits": str(result.matched_digits),
                # all --digits fraction digits and the leading 3 agree: the
                # count is the grading cap, not the method's accuracy
                "capped": ("yes" if result.matched_digits == args.digits + 1
                           else "no"),
                "elapsed_ms": f"{elapsed:.3f}",
            })
    return rows


def _bench_deriv_paths(args: argparse.Namespace) -> list[dict[str, str]]:
    """Closed-form kernel derivatives vs the quotient-rule oracle, one row
    pair per size.

    Both paths produce every g(l, m) = (d/dt)^m 1/(1+t^2), m = 0..M, at the
    midpoint nodes: ``eq5`` as the quadrature's oracle values, numerators
    over powers of one node norm, the oracle as ``Fraction``s.  The values
    must be identical at every size before any size is timed
    (ReferenceIntegrityError otherwise); only the clock differs.
    """
    from .oracle import RationalFunction

    def routes(size: int) -> dict[str, Callable[[], list]]:
        nodes = midpoint_nodes(size)
        orders = range(size + 1)

        def closed() -> list[tuple[int, list[tuple[int, int]]]]:
            return [inv_one_plus_t2_derivs(t, orders) for t in nodes]

        def oracle() -> list[list[Fraction]]:
            fs = RationalFunction.one_over_one_plus_square().derivatives(
                len(orders))
            return [[f.evaluate(t) for f in fs] for t in nodes]
        return {"eq5": closed, "oracle": oracle}

    paths = [(size, routes(size)) for size in args.sizes]
    for size, fns in paths:
        if [[Fraction(num, norm**k) for num, k in nums]
                for norm, nums in fns["eq5"]()] != fns["oracle"]():
            raise ReferenceIntegrityError(
                "closed-form and quotient-rule derivatives disagree at "
                f"L = M = {size} (arithmetic bug)")
    return [{"method": name, "L": str(size), "M": str(size),
             "elapsed_ms": f"{_median_ms(fn, args.repetitions):.3f}"}
            for size, fns in paths for name, fn in fns.items()]


def _run_bench(args: argparse.Namespace) -> int:
    rows = (_bench_pi_ladder(args) if args.suite == "pi-ladder"
            else _bench_deriv_paths(args))
    if args.format == "json":
        for row in rows:
            print(json.dumps(row))
        return 0
    header = list(rows[0])
    widths = [max(len(h), *(len(r[h]) for r in rows)) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(row[h].ljust(w) for h, w in zip(header, widths)))
    return 0


# --- selftest -------------------------------------------------------------

def _run_selftest(args: argparse.Namespace) -> int:
    from .acceptance import ACCEPTANCE_CHECKS, check_line
    checks = []
    for number, label, check in ACCEPTANCE_CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # report every failure, keep going
            ok, detail = False, repr(exc)
        checks.append({"criterion": str(number), "label": label,
                       "ok": bool(ok), "detail": detail})
        if args.format == "text":
            print(check_line(number, label, ok, detail), flush=True)
    failures = sum(not c["ok"] for c in checks)
    if args.format == "json":
        print(json.dumps({"checks": checks, "failures": str(failures)}))
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    if args.format == "text":
        print("all checks passed")
    return 0


# --- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcpi",
        description="Exact-arithmetic arctangent sums, derivative-corrected "
                    "midpoint quadrature, and pi digit experiments.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    def add_params(p: argparse.ArgumentParser, L: int, M: int) -> None:
        p.add_argument("-L", type=_positive_int, default=L,
                       help=f"subinterval count (default {L})")
        p.add_argument("-M", type=_non_negative_int, default=M,
                       help=f"highest correction order (default {M})")

    p = sub.add_parser("pi", help="compute pi and grade digits")
    p.add_argument("--method", choices=METHODS, default="eq17",
                   help="eq17: closed-form sum at 1; eq18: corrected "
                        "midpoint rule on 4/(1+t^2); gauss: nine-term "
                        "combination; machin: two-term reference")
    add_params(p, 46, 46)
    p.add_argument("--digits", type=_positive_int, default=400)
    p.add_argument("--workers", type=_positive_int,
                   help="ignored; still parsed, so older command lines run")
    add_format(p)
    p.set_defaults(run=_run_pi)

    p = sub.add_parser("arctan", help="truncated closed-form arctangent")
    p.add_argument("--x", type=_rational, required=True,
                   help="argument as 'p/q' or integer")
    add_params(p, 8, 8)
    p.add_argument("--digits", type=_positive_int, default=30)
    p.add_argument("--exact", action="store_true",
                   help="print the exact rational instead of decimals")
    add_format(p)
    p.set_defaults(run=_run_arctan)

    p = sub.add_parser("deriv", help="arctan derivative evaluators")
    p.add_argument("-m", type=int, required=True, help="derivative order")
    p.add_argument("--t", type=_rational, required=True)
    p.add_argument("--formula", choices=("eq7", "eq2", "oracle"),
                   default="eq7",
                   help="eq7: exact complex-pair form; eq2: floating "
                        "sine/arcsine form; oracle: quotient rule")
    p.add_argument("--compare", choices=("eq7", "eq2", "oracle"),
                   default=None, help="also print deviation vs this formula")
    add_format(p)
    p.set_defaults(run=_run_deriv)

    p = sub.add_parser("quad", help="derivative-corrected midpoint rule")
    p.add_argument("--integrand", choices=("kernel", "monomial"),
                   default="kernel",
                   help="kernel: 1/(1+t^2); monomial: t^degree")
    p.add_argument("--degree", type=_non_negative_int, default=3,
                   help="monomial degree (default 3)")
    add_params(p, 5, 5)
    p.add_argument("--rule", choices=("eq9", "eq10"), default="eq9",
                   help="eq9: all orders; eq10: even orders only")
    p.add_argument("--digits", type=_positive_int, default=30)
    p.add_argument("--exact", action="store_true")
    add_format(p)
    p.set_defaults(run=_run_quad)

    p = sub.add_parser("bench", help="timing and digit tables")
    p.add_argument("--suite", choices=("pi-ladder", "deriv-paths"),
                   required=True)
    p.add_argument("--repetitions", type=_positive_int, default=1)
    p.add_argument("--sizes", type=_sizes,
                   default=LADDER_SIZES,
                   help="comma-separated L=M sizes (default 8,16,32,46)")
    p.add_argument("--digits", type=_positive_int, default=400)
    add_format(p)
    p.set_defaults(run=_run_bench)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    add_format(p)
    p.set_defaults(run=_run_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ReferenceIntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTEGRITY_EXIT
    # OrderError and DomainError are ValueErrors, PoleError a ZeroDivisionError
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
