"""The benchmark's workloads: inputs made from a seed, one operation each,
and the independent check of every operation's output.

Each operation calls arcpi through module attributes (``mods.pi.pi_gauss``
and so on), never through names bound at import, so the traced run can
wrap the same calls without changing the route.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable

import checks

GAUSS_ARGV = ("pi", "--method", "gauss", "-L", "46", "-M", "46",
              "--digits", "400", "--format", "json")
GAUSS_DIGITS = 274   # pinned reproduction: the nine-term sum at L=M=46
DUAL_SIZE = 32       # L = M for every call of the dual-route pass
DUAL_PI_DIGITS = 69  # pinned ladder rung at L=M=32
# Two of the Gauss-term arguments: the largest and the smallest.
DUAL_FIXED_X = (Fraction(1, 5257), Fraction(1, 485298))
# Seeded arguments +-p/q: p and q are primes of these exact bit lengths,
# so every seed gives p/q in lowest terms, coprime to every node index,
# and close to the same amount of work.  |p/q| < 1/32 keeps the truncated
# sum within a few ulp of arctan.
DUAL_SEEDED_COUNT = 4
DUAL_P_BITS = 8
DUAL_Q_BITS = 14


@dataclass(frozen=True)
class Workload:
    name: str
    digits: int  # pi digits graded; set-up warms reference_pi for these
    make_inputs: Callable[[int], Any]
    op: Callable[[SimpleNamespace, Any], Any]
    check: Callable[[Any, Any, str], None]


def _gauss_argv(workers: int | None) -> Callable[[int], tuple[str, ...]]:
    extra = ("--workers", str(workers)) if workers else ()
    return lambda seed: GAUSS_ARGV + extra


def _run_cli(mods: SimpleNamespace, argv: tuple[str, ...]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mods.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"arcpi {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _check_gauss(stdout: str, argv: tuple[str, ...], reference: str) -> None:
    checks.check_cli_pi_report(stdout, reference, GAUSS_DIGITS)


@functools.cache
def _primes(bits: int) -> tuple[int, ...]:
    """The primes with exactly ``bits`` bits (bits >= 3)."""
    return tuple(n for n in range(2 ** (bits - 1) + 1, 2**bits, 2)
                 if all(n % d for d in range(3, math.isqrt(n) + 1, 2)))


def seeded_arguments(seed: int) -> tuple[Fraction, ...]:
    """The four seeded signed rationals of the dual-route set, alternately
    positive and negative."""
    rng = random.Random(seed)
    ps, qs = _primes(DUAL_P_BITS), _primes(DUAL_Q_BITS)
    return tuple(Fraction((-1) ** i * rng.choice(ps), rng.choice(qs))
                 for i in range(DUAL_SEEDED_COUNT))


def _dual_inputs(seed: int) -> SimpleNamespace:
    return SimpleNamespace(size=DUAL_SIZE,
                           xs=DUAL_FIXED_X + seeded_arguments(seed))


def _dual_op(mods: SimpleNamespace, inputs: SimpleNamespace) -> SimpleNamespace:
    p = mods.quadrature.ComputationParams(inputs.size, inputs.size)
    pi_pair = (mods.pi.pi_closed_form(p), mods.pi.pi_derivative_form(p))
    arctan_pairs = [
        (mods.arctan.arctan_closed_form(x, p),
         mods.arctan.arctan_derivative_form(x, p))
        for x in inputs.xs]
    return SimpleNamespace(pi_pair=pi_pair, arctan_pairs=arctan_pairs)


def _check_dual(out: SimpleNamespace, inputs: SimpleNamespace,
                reference: str) -> None:
    checks.check_pi_pair(*out.pi_pair, reference, DUAL_PI_DIGITS)
    for x, (closed, derivative) in zip(inputs.xs, out.arctan_pairs,
                                       strict=True):
        checks.check_arctan_pair(x, closed, derivative)


WORKLOADS = {
    w.name: w for w in (
        Workload("gauss-274", 400, _gauss_argv(None), _run_cli,
                 _check_gauss),
        Workload("dual-route", 100, _dual_inputs, _dual_op, _check_dual),
        # Not in BENCHMARK.json: on a shared 2-core machine its run-to-run
        # spread is too wide to gate on (see README).  Run it by name.
        Workload("gauss-274-w2", 400, _gauss_argv(2), _run_cli,
                 _check_gauss),
    )
}
