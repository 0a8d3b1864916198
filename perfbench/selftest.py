"""Self-tests of the benchmark's checkers: each must pass a right answer
and reject a wrong one.

    python3 perfbench/selftest.py

The right answers are built from the published constant and from
``math.atan``, so these tests run in well under a second and do not need
arcpi itself.  ``python3 perfbench/run.py --quick`` runs the real
checkers on one op of every workload.
"""

from __future__ import annotations

import json
import math
import unittest
from fractions import Fraction
from pathlib import Path

import checks
from workloads import DUAL_PI_DIGITS, GAUSS_DIGITS, seeded_arguments

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = checks.constant_digits(ROOT)


def _differ(digit: str) -> str:
    return str((int(digit) + 1) % 10)


def _matching(n: int, length: int) -> str:
    """A digit string agreeing with the constant in exactly n digits."""
    return REFERENCE[:n] + _differ(REFERENCE[n]) + REFERENCE[n + 1:length]


def _report(digits: str, matched: str) -> str:
    record = {"method": "gauss", "approx_decimal": f"3.{digits[1:]}",
              "matched_digits": matched}
    return "method=gauss\n" + json.dumps(record) + "\n"


class ConstantTest(unittest.TestCase):
    def test_constant_digits(self):
        self.assertEqual(len(REFERENCE), 1001)
        self.assertTrue(REFERENCE.startswith("31415926535897932384"))

    def test_truncated_digits(self):
        self.assertEqual(checks.truncated_digits(Fraction(22, 7), 3), "3142")
        self.assertEqual(checks.truncated_digits(Fraction(1, 8), 2), "012")
        with self.assertRaises(checks.CheckError):
            checks.truncated_digits(Fraction(-1, 3), 2)


class CliPiReportTest(unittest.TestCase):
    right = _matching(GAUSS_DIGITS, 401)

    def test_accepts_right_report(self):
        checks.check_cli_pi_report(
            _report(self.right, str(GAUSS_DIGITS)), REFERENCE, GAUSS_DIGITS)

    def test_rejects_one_changed_digit(self):
        for pos in (1, 100, GAUSS_DIGITS - 1):
            wrong = self.right[:pos] + _differ(self.right[pos]) \
                + self.right[pos + 1:]
            with self.subTest(pos=pos), self.assertRaises(checks.CheckError):
                checks.check_cli_pi_report(
                    _report(wrong, str(GAUSS_DIGITS)), REFERENCE, GAUSS_DIGITS)

    def test_rejects_one_digit_too_many(self):
        longer = _matching(GAUSS_DIGITS + 1, 401)
        with self.assertRaises(checks.CheckError):
            checks.check_cli_pi_report(
                _report(longer, str(GAUSS_DIGITS)), REFERENCE, GAUSS_DIGITS)

    def test_rejects_matched_count_273(self):
        with self.assertRaises(checks.CheckError):
            checks.check_cli_pi_report(
                _report(self.right, "273"), REFERENCE, GAUSS_DIGITS)

    def test_rejects_malformed_output(self):
        for text in ("", "matched digits: 274\n", '{"approx_decimal": 3}\n'):
            with self.subTest(text=text), self.assertRaises(checks.CheckError):
                checks.check_cli_pi_report(text, REFERENCE, GAUSS_DIGITS)


class PiPairTest(unittest.TestCase):
    right = Fraction(int(_matching(DUAL_PI_DIGITS, 90)), 10**89)

    def test_accepts_right_pair(self):
        checks.check_pi_pair(self.right, self.right, REFERENCE,
                             DUAL_PI_DIGITS)

    def test_rejects_rational_off_by_one_over_den_squared(self):
        off = self.right + Fraction(1, self.right.denominator**2)
        with self.assertRaises(checks.CheckError):
            checks.check_pi_pair(self.right, off, REFERENCE, DUAL_PI_DIGITS)

    def test_rejects_68_digits(self):
        short = Fraction(int(_matching(DUAL_PI_DIGITS - 1, 90)), 10**89)
        with self.assertRaises(checks.CheckError):
            checks.check_pi_pair(short, short, REFERENCE, DUAL_PI_DIGITS)


class ArctanPairTest(unittest.TestCase):
    xs = (Fraction(1, 5257), Fraction(1, 485298)) + seeded_arguments(1)

    def test_accepts_right_pair(self):
        for x in self.xs:
            value = Fraction(math.atan(float(x)))
            checks.check_arctan_pair(x, value, value)

    def test_rejects_rational_off_by_one_over_den_squared(self):
        for x in self.xs:
            value = Fraction(math.atan(float(x)))
            off = value + Fraction(1, value.denominator**2)
            with self.subTest(x=x), self.assertRaises(checks.CheckError):
                checks.check_arctan_pair(x, value, off)

    def test_rejects_value_off_by_many_ulp(self):
        for x in self.xs:
            far = Fraction(math.atan(float(x))) * (1 + Fraction(1, 10**12))
            with self.subTest(x=x), self.assertRaises(checks.CheckError):
                checks.check_arctan_pair(x, far, far)


class SeededArgumentsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(seeded_arguments(7), seeded_arguments(7))
        self.assertNotEqual(seeded_arguments(7), seeded_arguments(8))

    def test_signed_and_below_one(self):
        for seed in range(20):
            xs = seeded_arguments(seed)
            self.assertEqual([x > 0 for x in xs], [True, False, True, False])
            self.assertTrue(all(abs(x) < Fraction(1, 16) for x in xs))


if __name__ == "__main__":
    unittest.main()
