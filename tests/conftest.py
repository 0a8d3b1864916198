"""Fixtures shared by the test modules."""

import sys
from fractions import Fraction

import pytest


def _chunk_digits() -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return min(4000, limit) if limit else 4000


def parse_long_rational(text: str) -> Fraction:
    """``Fraction(text)`` for "p/q" or "p" of any length: every int is
    rebuilt from chunks of at most 4000 digits (fewer under a lower
    ``-X int_max_str_digits``), so python's digit limit never applies."""
    chunk = _chunk_digits()

    def parse_int(digits: str) -> int:
        sign = -1 if digits.startswith("-") else 1
        digits = digits.removeprefix("-")
        assert digits.isdigit() and (digits == "0" or digits[0] != "0")
        value = 0
        for i in range(0, len(digits), chunk):
            part = digits[i:i + chunk]
            value = value * 10 ** len(part) + int(part)
        return sign * value

    num, _, den = text.partition("/")
    return Fraction(parse_int(num), parse_int(den) if den else 1)


@pytest.fixture(scope="session")
def read_rational():
    """The ``parse_long_rational`` function."""
    return parse_long_rational
