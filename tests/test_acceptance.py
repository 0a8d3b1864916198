"""Acceptance gate: one test per shipping criterion, one printed line each.

Each test prints PASS/FAIL through the capture bypass so the verdict is
visible in any pytest run, then asserts.  Criteria 3-7 run the
entries of ``acceptance.ACCEPTANCE_CHECKS``, the same table ``arcpi
selftest`` runs.  Expensive intermediate results are cached at module level;
everything here is deterministic exact arithmetic except wall-clock
fields, which are never asserted on.
"""

import json
from functools import lru_cache

import pytest

from arcpi import acceptance, cli
from arcpi.pi import measure
from arcpi.quadrature import ComputationParams

P = ComputationParams

# Matched-digit counts observed on the first verified run; exact arithmetic
# makes them machine-independent, so they are pinned as regression values.
EQ17_LADDER = {8: 15, 16: 32, 32: 69, 46: 105}
GAUSS_AT_46 = 274


CHECKS = {number: (label, check)
          for number, label, check in acceptance.ACCEPTANCE_CHECKS}


def _report(capsys, number: int, label: str, ok: bool, detail: str = ""):
    line = acceptance.check_line(number, label, ok, detail)
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _run_check(capsys, number: int) -> str:
    label, check = CHECKS[number]
    ok, detail = check()
    _report(capsys, number, label, ok, detail)
    return detail


@lru_cache(maxsize=None)
def _cli_pi(method: str) -> dict:
    """One full-size CLI run, parsed from its JSON report."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["pi", "--method", method, "-L", "46", "-M", "46",
                         "--format", "json"])
    assert code == 0
    return json.loads(buf.getvalue())


def test_criterion_1_pi_digit_reproduction(capsys):
    record = _cli_pi("eq17")
    matched = int(record["matched_digits"])
    _report(capsys, 1, "closed-form pi at L=M=46 reaches 105 digits",
            103 <= matched <= 107, f"matched={matched}")


def test_criterion_2_gauss_reproduction(capsys):
    record = _cli_pi("gauss")
    matched = int(record["matched_digits"])
    baseline = int(_cli_pi("eq17")["matched_digits"])
    ok = 272 <= matched <= 276 and matched > baseline \
        and matched == GAUSS_AT_46
    _report(capsys, 2, "nine-term combination at L=M=46 reaches 274 digits",
            ok, f"matched={matched} vs baseline={baseline}")


def test_criterion_3_exact_path_identity(capsys):
    _run_check(capsys, 3)


def test_criterion_4_oracle_equivalence(capsys):
    _run_check(capsys, 4)


def test_criterion_5_floating_cross_formula(capsys):
    _run_check(capsys, 5)


def test_criterion_6_quadrature_properties(capsys):
    _run_check(capsys, 6)


def test_criterion_7_reference_integrity(capsys):
    # the certified Gauss Taylor sum matches every one of its 61 digits
    assert _run_check(capsys, 7) == \
        "combination matches reference in 61 digits"


def test_criterion_8_convergence_ladder(capsys):
    counts = {n: measure("eq17", P(n, n), 200).matched_digits
              for n in (8, 16, 32, 46)}
    increasing = all(
        counts[a] < counts[b] for a, b in ((8, 16), (16, 32), (32, 46)))
    _report(capsys, 8, "matched digits strictly increase along the ladder",
            increasing and counts == EQ17_LADDER, f"{counts}")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
