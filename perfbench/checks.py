"""Correctness checks for benchmark outputs, independent of arcpi.

Nothing here imports the program under test.  Digits are graded against
the published constant read straight from the data file, decimal
expansions are computed with plain integer arithmetic, and arctangent
values are compared with ``math.atan``.  Every check raises ``CheckError``
on a wrong answer and returns ``None`` otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

CONSTANT_FILE = Path("src") / "arcpi" / "data" / "pi_digits.txt"


class CheckError(Exception):
    """A program output failed an independent correctness check."""


def constant_digits(root: Path) -> str:
    """'3' followed by every fraction digit of the published constant."""
    compact = "".join((root / CONSTANT_FILE).read_text("ascii").split())
    if not compact.startswith("3.") or not compact[2:].isdigit():
        raise CheckError(f"{CONSTANT_FILE} does not hold a decimal constant")
    return "3" + compact[2:]


def leading_match(digits: str, reference: str) -> int:
    """Length of the common prefix of two digit strings."""
    count = 0
    for a, b in zip(digits, reference):
        if a != b:
            break
        count += 1
    return count


def truncated_digits(value: Fraction, n_fraction: int) -> str:
    """Integer digits of a positive rational followed by its first
    ``n_fraction`` fraction digits, truncated, decimal point dropped."""
    if value <= 0:
        raise CheckError(f"expected a positive value, got {value}")
    whole, rest = divmod(value.numerator, value.denominator)
    return str(whole) + str(rest * 10**n_fraction // value.denominator).zfill(
        n_fraction)


def check_cli_pi_report(stdout: str, reference: str, expected: int) -> None:
    """Grade one ``arcpi pi --format json`` report.

    ``approx_decimal`` must agree with the constant in exactly ``expected``
    leading digits, and the report's own ``matched_digits`` must say so.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise CheckError("the pi command printed nothing")
    try:
        record = json.loads(lines[-1])
        approx = record["approx_decimal"]
        claimed = record["matched_digits"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"malformed pi report: {exc!r}") from None
    if not isinstance(approx, str) or approx.count(".") != 1:
        raise CheckError(f"approx_decimal is not a decimal string: {approx!r}")
    digits = approx.replace(".", "")
    if not digits.isdigit():
        raise CheckError(f"approx_decimal is not a decimal string: {approx!r}")
    matched = leading_match(digits, reference)
    if matched != expected:
        raise CheckError(
            f"approx_decimal matches the constant in {matched} digits, "
            f"expected {expected}")
    if claimed != str(expected):
        raise CheckError(
            f"report claims {claimed!r} matched digits, expected {expected}")


def check_pi_pair(
    closed: Fraction, derivative: Fraction, reference: str, expected: int
) -> None:
    """Both pi routes give one rational that matches ``expected`` digits."""
    if closed != derivative:
        raise CheckError("closed-form and derivative-form pi differ")
    matched = leading_match(
        truncated_digits(closed, len(reference) - 1), reference)
    if matched != expected:
        raise CheckError(
            f"pi matches the constant in {matched} digits, expected {expected}")


def check_arctan_pair(
    x: Fraction, closed: Fraction, derivative: Fraction, max_ulps: int = 4
) -> None:
    """Both arctangent routes agree exactly and sit within ``max_ulps``
    units in the last place of ``math.atan(x)``."""
    if closed != derivative:
        raise CheckError(f"closed and derivative forms differ at x={x}")
    expected = math.atan(float(x))
    error = abs(float(closed) - expected)
    if error > max_ulps * math.ulp(expected):
        raise CheckError(
            f"arctan({x}) off by {error / math.ulp(expected):.1f} ulp")
