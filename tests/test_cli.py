"""Command-line behavior: output shapes, exit codes, JSON contract."""

import contextlib
import io
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from arcpi import acceptance, cli, pi
from arcpi.arctan import arctan_closed_form
from arcpi.errors import DomainError, ReferenceIntegrityError
from arcpi.exact import decimal_expand
from arcpi.kernels import arctan_deriv
from arcpi.quadrature import ComputationParams, integrate_all_orders

# `pi --format json` reports of the ladder, elapsed_ms removed, as printed
# before pi digits were graded from unreduced pairs.
GOLDEN_PI_JSON = (Path(__file__).parent / "data" /
                  "pi_json_golden.jsonl").read_text().splitlines()


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


class TestPiCommand:
    def test_coarse_text_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "pi", "--method", "eq17", "-L", "1", "-M", "1",
            "--digits", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "3.20000"
        assert "matched digits: 1" in out
        assert "elapsed:" in out

    def test_json_schema(self, capsys):
        record = run_json(
            capsys, "pi", "--method", "eq18", "-L", "2", "-M", "3",
            "--digits", "12")
        assert set(record) == {
            "method", "L", "M", "digits_requested", "approx_decimal",
            "matched_digits", "elapsed_ms"}
        # numeric fields travel as decimal strings
        assert all(isinstance(v, str) for v in record.values())
        assert record["method"] == "eq18"
        assert record["approx_decimal"].startswith("3.1416")
        assert int(record["matched_digits"]) == 4
        float(record["elapsed_ms"])

    def test_machin_method(self, capsys):
        record = run_json(capsys, "pi", "--method", "machin",
                          "--digits", "40")
        assert int(record["matched_digits"]) == 41

    def test_workers_flag(self, capsys):
        """``--workers`` is parsed and ignored.  Also with the certificate
        forced to fail, it changes neither the report nor the modules
        loaded: nothing imports ``multiprocessing``."""
        argv = ("pi", "--method", "gauss", "-L", "6", "-M", "6",
                "--digits", "40")
        serial = run_json(capsys, *argv)
        parallel = run_json(capsys, *argv, "--workers", "2")
        assert serial["approx_decimal"] == parallel["approx_decimal"]

        script = (
            "import sys\n"
            "from arcpi import cli, pi\n"
            "pi._guard_digits = lambda terms: 0\n"
            "code = cli.main(sys.argv[1:])\n"
            "print('multiprocessing' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)\n")
        argv = ["pi", "--method", "gauss", "-L", "4", "-M", "6",
                "--digits", "50", "--format", "json"]
        reports = []
        for extra in ([], ["--workers", "4"]):
            out = subprocess.run([sys.executable, "-c", script, *argv, *extra],
                                 capture_output=True, text=True, timeout=60)
            assert out.returncode == 0, out.stderr
            assert out.stderr.strip() == "False"
            record = json.loads(out.stdout)
            del record["elapsed_ms"]
            reports.append(record)
        assert reports[0] == reports[1]

    def test_digits_beyond_reference_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "pi", "-L", "1", "-M", "1",
                               "--digits", "1001")
        assert code == 3
        assert "error:" in err


@pytest.mark.parametrize(
    "golden", GOLDEN_PI_JSON,
    ids=[f"{r['method']}-{r['L']}" for r in map(json.loads, GOLDEN_PI_JSON)])
def test_pi_json_matches_golden_bytes(capsys, golden):
    record = json.loads(golden)
    code, out, err = run_cli(
        capsys, "pi", "--method", record["method"], "-L", record["L"],
        "-M", record["M"], "--digits", record["digits_requested"],
        "--format", "json")
    assert code == 0, err
    assert re.sub(r', "elapsed_ms": "[0-9.]+"', "", out) == golden + "\n"


def test_gauss_report_never_reduces(capsys, monkeypatch):
    """`pi --method gauss` certifies its digits from the power series: it
    builds no exact sum."""
    def build(*args, **kwargs):
        raise AssertionError("power_base_sum called by the pi command")
    monkeypatch.setattr(pi, "power_base_sum", build)
    record = run_json(capsys, "pi", "--method", "gauss", "-L", "8", "-M", "8",
                      "--digits", "60")
    assert record["matched_digits"] == "50"


def test_eq17_report_never_reduces(capsys, monkeypatch):
    """`pi --method eq17` certifies its digits from the same per-node floors
    as gauss: it builds no exact sum either."""
    def build(*args, **kwargs):
        raise AssertionError("power_base_sum called by the pi command")
    monkeypatch.setattr(pi, "power_base_sum", build)
    record = run_json(capsys, "pi", "--method", "eq17", "-L", "46", "-M",
                      "46", "--digits", "200")
    assert record["matched_digits"] == "105"


@pytest.mark.parametrize("method, digits, matched, node_calls", [
    ("gauss", "400", "274", 0),  # the series: no node, no exact sum
    ("eq17", "200", "105", 1),   # one term's nodes, floored
])
def test_only_eq17_builds_closed_form_nodes(capsys, monkeypatch, method,
                                            digits, matched, node_calls):
    calls = {"closed_form_nodes": [], "power_base_sum": []}
    for name, seen in calls.items():
        def recording(*args, fn=getattr(pi, name), seen=seen):
            seen.append(args)
            return fn(*args)
        monkeypatch.setattr(pi, name, recording)
    record = run_json(capsys, "pi", "--method", method, "-L", "46", "-M",
                      "46", "--digits", digits)
    assert record["matched_digits"] == matched
    assert len(calls["closed_form_nodes"]) == node_calls
    assert calls["power_base_sum"] == []


class TestIntStrLimit:
    """Exact printers and decimal expansions past python's 4300-digit
    int-to-str limit."""

    def test_arctan_exact(self, capsys, read_rational):
        code, out, err = run_cli(capsys, "arctan", "--x", "1/485298",
                                 "-L", "46", "-M", "46", "--exact")
        assert code == 0, err
        shown = out.splitlines()[0]
        assert max(len(part) for part in shown.split("/")) > 4300
        assert read_rational(shown) == arctan_closed_form(
            Fraction(1, 485298), ComputationParams(46, 46))

    def test_arctan_digits(self, capsys):
        code, out, err = run_cli(capsys, "arctan", "--x", "1/5", "-L", "4",
                                 "-M", "4", "--digits", "5000")
        assert code == 0, err
        assert len(out.splitlines()[0]) == len("0.") + 5000

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_arctan_argument(self, capsys, read_rational, fmt):
        x = "1/" + "1" + "0" * 4399
        code, out, err = run_cli(capsys, "arctan", "--x", x, "-L", "1",
                                 "-M", "0", "--digits", "20", "--format", fmt)
        assert code == 0, err
        if fmt == "json":
            record = json.loads(out)
            assert read_rational(record["x"]) == read_rational(x)
            assert record["approx_decimal"] == "0." + "0" * 20
        else:
            assert out.splitlines()[0] == "0." + "0" * 20

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_deriv_argument(self, capsys, read_rational, fmt):
        t = "1/" + "1" + "0" * 4401
        code, out, err = run_cli(capsys, "deriv", "-m", "1", "--t", t,
                                 "--format", fmt)
        assert code == 0, err
        want = arctan_deriv(1, read_rational(t))
        if fmt == "json":
            record = json.loads(out)
            assert read_rational(record["t"]) == read_rational(t)
            assert read_rational(record["value"]) == want
        else:
            assert read_rational(out.splitlines()[0]) == want

    def test_deriv_value(self, capsys, read_rational):
        code, out, err = run_cli(capsys, "deriv", "-m", "2000", "--t", "1/3")
        assert code == 0, err
        assert len(out.splitlines()[0]) > 4300
        assert read_rational(out.splitlines()[0]) == \
            arctan_deriv(2000, Fraction(1, 3))

    def test_quad_exact(self, capsys, read_rational):
        code, out, err = run_cli(capsys, "quad", "-L", "30", "-M", "60",
                                 "--exact")
        assert code == 0, err
        shown = out.splitlines()[1]
        assert max(len(part) for part in shown.split("/")) > 4300
        assert read_rational(shown) == integrate_all_orders(
            cli.inv_one_plus_t2_derivs, ComputationParams(30, 60))


class TestArctanCommand:
    def test_exact_output(self, capsys):
        code, out, _ = run_cli(capsys, "arctan", "--x", "1",
                               "-L", "1", "-M", "2", "--exact")
        assert code == 0
        assert out.splitlines()[0] == "296/375"

    def test_zero_argument_prints_bare_zero(self, capsys):
        code, out, _ = run_cli(capsys, "arctan", "--x", "0", "-L", "5",
                               "-M", "5")
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_negative_exact(self, capsys):
        code, out, _ = run_cli(capsys, "arctan", "--x", "-1",
                               "-L", "1", "-M", "1", "--exact")
        assert code == 0
        assert out.splitlines()[0] == "-4/5"

    def test_small_argument_reports_reference_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "arctan", "--x", "1/5",
                               "-L", "10", "-M", "10", "--digits", "12")
        assert code == 0
        assert "matched digits vs series reference:" in out

    @pytest.mark.parametrize("x, digits, matched", [
        ("13075/64501", 3, 4),         # arctan(x) = 0.19999999999486...
        ("588001/2900700", 6, 7),
        ("19978959/98559299", 4, 5),
    ])
    def test_graded_against_certified_series_digits(self, capsys, x, digits,
                                                    matched):
        # arctan(x) lies within 10**-(digits + 5) of a digit boundary, so
        # the series value at that depth can expand on the wrong side of
        # it; the reference's digits are those its whole interval shares
        record = run_json(capsys, "arctan", "--x", x, "-L", "8", "-M", "8",
                          "--digits", str(digits))
        assert record["matched_digits"] == str(matched) == \
            str(len(record["approx_decimal"]) - 1)

    def test_refusal_at_a_wider_guard_is_noted(self, capsys, monkeypatch):
        # the first depth's interval straddles 0.1999|0.2000 and the next
        # depth is refused: the value is printed ungraded, as at the ceiling
        depths = []

        def series(x, n_digits):
            depths.append(n_digits)
            if len(depths) > 1:
                raise DomainError("past the 131072-bit ceiling")
            return Fraction(1, 5)

        monkeypatch.setattr(cli, "arctan_taylor_reference", series)
        code, out, err = run_cli(capsys, "arctan", "--x", "1/5", "-L", "2",
                                 "-M", "2", "--digits", "4")
        assert code == 0, err
        assert depths == [9, 14]
        assert "note: no series reference:" in err
        assert "matched digits" not in out

    def test_tiny_argument_past_the_ceiling_is_graded(self, capsys):
        # the series interval around 0 straddles the sign until the depth
        # passes 40,000 digits, where the series refuses; x itself, within
        # |x|**3/3 of arctan(x), certifies the 21 digits
        code, out, err = run_cli(capsys, "arctan", "--x", "1/1" + "0" * 40000,
                                 "-L", "1", "-M", "0", "--digits", "20")
        assert code == 0, err
        assert err == ""
        assert out.splitlines() == ["0." + "0" * 20,
                                    "matched digits vs series reference: 21"]

    def test_json_fields(self, capsys):
        record = run_json(capsys, "arctan", "--x", "1/5", "-L", "4",
                          "-M", "4", "--digits", "10", "--exact")
        assert record["x"] == "1/5"
        assert "/" in record["exact"]
        assert record["approx_decimal"].startswith("0.19739")
        assert int(record["matched_digits"]) > 0

    def test_decimal_input_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["arctan", "--x", "0.2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_zero_denominator_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["arctan", "--x", "1/0"])
        assert exc.value.code == 2
        assert "zero denominator" in capsys.readouterr().err

    RUNAWAY_EXACT = "98482826560039992000/124850134932026994001"

    @staticmethod
    def _run_runaway(*extra):
        # |x| near 1 needs ~40,000 Taylor terms at the default 30 digits;
        # the reference refuses up front instead of running for minutes,
        # and the value is printed ungraded
        out = subprocess.run(
            [sys.executable, "-m", "arcpi.cli", "arctan", "--x", "999/1000",
             "-L", "1", "-M", "2", "--exact", *extra],
            capture_output=True, text=True, timeout=10)
        assert out.returncode == 0, out.stdout + out.stderr
        assert "note: no series reference:" in out.stderr
        assert "ceiling" in out.stderr
        return out.stdout

    def test_runaway_series_reference_refused_promptly(self):
        assert self._run_runaway().splitlines() == [self.RUNAWAY_EXACT]

    def test_runaway_series_reference_json_has_no_matched_digits(self):
        record = json.loads(self._run_runaway("--format", "json"))
        assert record["exact"] == self.RUNAWAY_EXACT
        assert "matched_digits" not in record

    def test_near_one_within_the_ceiling_is_graded(self):
        out = subprocess.run(
            [sys.executable, "-m", "arcpi.cli", "arctan", "--x", "99/100"],
            capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert "matched digits vs series reference:" in out.stdout


class TestDerivCommand:
    def test_exact_formula(self, capsys):
        code, out, _ = run_cli(capsys, "deriv", "-m", "2", "--t", "1",
                               "--formula", "eq7")
        assert code == 0
        assert out.splitlines()[0] == "-1/2"

    def test_floating_formula(self, capsys):
        code, out, _ = run_cli(capsys, "deriv", "-m", "1", "--t", "0",
                               "--formula", "eq2")
        assert code == 0
        assert out.splitlines()[0] == "1.0"

    def test_oracle_with_comparison(self, capsys):
        code, out, _ = run_cli(capsys, "deriv", "-m", "6", "--t", "1/3",
                               "--formula", "oracle", "--compare", "eq7")
        assert code == 0
        assert "deviation vs eq7: 0" in out

    def test_exact_vs_floating_comparison(self, capsys):
        record = run_json(capsys, "deriv", "-m", "3", "--t", "1/2",
                          "--formula", "eq7", "--compare", "eq2")
        assert float(record["deviation"]) < 1e-10

    def test_order_zero_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "deriv", "-m", "0", "--t", "1")
        assert code == 3
        assert "order" in err

    def test_floating_order_cap(self, capsys):
        code, _, _ = run_cli(capsys, "deriv", "-m", "25", "--t", "1",
                             "--formula", "eq2")
        assert code == 3

    def test_zero_denominator_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["deriv", "-m", "2", "--t", "1/0"])
        assert exc.value.code == 2
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--formula", "eq2"),
        ("--formula", "eq7", "--compare", "eq2"),
    ])
    def test_argument_past_float_range_is_domain_error(self, capsys, flags):
        code, _, err = run_cli(capsys, "deriv", "-m", "2",
                               "--t", str(10**400), *flags)
        assert code == 3
        assert "error:" in err


class TestQuadCommand:
    def test_monomial_with_error_report(self, capsys):
        code, out, _ = run_cli(capsys, "quad", "--integrand", "monomial",
                               "--degree", "4", "-L", "3", "-M", "6",
                               "--exact")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "1/5"
        assert "abs error: 0" in out

    def test_kernel_value(self, capsys):
        record = run_json(capsys, "quad", "-L", "2", "-M", "4",
                          "--rule", "eq10", "--digits", "12")
        assert record["value"].startswith("0.78539")

    def test_negative_degree_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["quad", "--integrand", "monomial", "--degree", "-2",
                      "-L", "2", "-M", "2", "--exact"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_rules_give_same_value(self, capsys):
        a = run_json(capsys, "quad", "-L", "3", "-M", "5", "--exact")
        b = run_json(capsys, "quad", "-L", "3", "-M", "5", "--rule", "eq10",
                     "--exact")
        assert a["value"] == b["value"]


class TestBenchCommand:
    def test_ladder_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--suite", "pi-ladder",
                               "--sizes", "2,3", "--digits", "30")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split()[:2] == ["method", "L"]
        assert len(lines) == 1 + 2 * 3  # header, two sizes, three methods
        column = lines[0].split().index("capped")
        assert [line.split()[column] for line in lines[1:]] == ["no"] * 6

    def test_ladder_json_records(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--suite", "pi-ladder",
                               "--sizes", "2", "--digits", "20",
                               "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["method"] for r in records] == ["eq17", "eq18", "gauss"]
        for r in records:
            assert set(r) == {"method", "L", "M", "matched_digits",
                              "capped", "elapsed_ms"}
            assert r["capped"] == "no"

    def test_ladder_flags_rows_at_the_digit_cap(self, capsys):
        """At L = M = 100 every method agrees past 50 digits, so each row
        reads the 51-digit cap (50 fraction digits and the 3)."""
        code, out, _ = run_cli(capsys, "bench", "--suite", "pi-ladder",
                               "--sizes", "100", "--digits", "50",
                               "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [(r["matched_digits"], r["capped"]) for r in records] == \
            [("51", "yes")] * 3

    def test_deriv_paths(self, capsys):
        """One eq5/oracle row pair per size, in the order given."""
        code, out, _ = run_cli(capsys, "bench", "--suite", "deriv-paths",
                               "--sizes", "6,3", "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [(r["method"], r["L"], r["M"]) for r in records] == [
            ("eq5", "6", "6"), ("oracle", "6", "6"),
            ("eq5", "3", "3"), ("oracle", "3", "3")]

    @pytest.mark.parametrize("bad_size", [3, 5])
    def test_deriv_paths_checks_every_size_before_any_row(
            self, capsys, monkeypatch, bad_size):
        """A mismatch at either size exits 4 and prints no row, not even
        the rows of a size that agrees."""
        kernel = cli.inv_one_plus_t2_derivs

        def broken(t, orders):  # adds 1 to order 0 at the nodes of bad_size
            norm, nums = kernel(t, orders)
            if t.denominator != 2 * bad_size:
                return norm, nums
            return norm, [(num + (m == 0) * norm**k, k)
                          for m, (num, k) in zip(orders, nums)]

        monkeypatch.setattr(cli, "inv_one_plus_t2_derivs", broken)
        code, out, err = run_cli(capsys, "bench", "--suite", "deriv-paths",
                                 "--sizes", "3,5")
        assert code == cli.INTEGRITY_EXIT == 4
        assert out == ""
        assert f"L = M = {bad_size}" in err

    def test_deriv_paths_disagreement_is_integrity_error(self, capsys,
                                                         monkeypatch):
        kernel = cli.inv_one_plus_t2_derivs

        def broken(t, orders):  # adds 1 to every order-2 value
            norm, nums = kernel(t, orders)
            return norm, [(num + (m == 2) * norm**k, k)
                          for m, (num, k) in zip(orders, nums)]

        monkeypatch.setattr(cli, "inv_one_plus_t2_derivs", broken)
        code, out, err = run_cli(capsys, "bench", "--suite", "deriv-paths",
                                 "--sizes", "3")
        assert code == cli.INTEGRITY_EXIT == 4
        assert out == ""
        assert "disagree" in err

    def test_ladder_route_disagreement_is_integrity_error(self, capsys,
                                                         monkeypatch):
        # the routes are compared as rationals: an error of 10**-60 lies far
        # below the 20 graded digits, where equal expansions would hide it
        closed = pi.pi_closed_form
        monkeypatch.setattr(
            pi, "pi_closed_form",
            lambda params: closed(params) + Fraction(1, 10**60))
        code, out, err = run_cli(capsys, "bench", "--suite", "pi-ladder",
                                 "--sizes", "2", "--digits", "20")
        assert code == cli.INTEGRITY_EXIT == 4
        assert out == ""
        assert "eq17 and eq18" in err and "disagree" in err

    def test_repetitions(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--suite", "pi-ladder",
                               "--sizes", "2", "--digits", "20",
                               "--repetitions", "3")
        assert code == 0

    @pytest.mark.parametrize("repetitions, want_ms", [(1, "7.000"),
                                                      (3, "5.000"),
                                                      (4, "6.000")])
    def test_ladder_reports_the_median_of_measured_elapsed_ms(
            self, capsys, monkeypatch, repetitions, want_ms):
        # each row runs `measure` exactly N times and reports the median of
        # its elapsed_ms, which leaves the grading out of the clock
        samples = iter([7.0, 5.0, 1.0, 9.0] * 6)
        calls = []

        def stub(method, params, n_digits):
            calls.append((method, params.L))
            return pi.PiResult(decimal_expand(Fraction(3), n_digits), method,
                               1, next(samples))

        monkeypatch.setattr(cli, "measure", stub)
        code, out, _ = run_cli(capsys, "bench", "--suite", "pi-ladder",
                               "--sizes", "2", "--digits", "20",
                               "--repetitions", str(repetitions),
                               "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert calls == [(m, 2) for m in ("eq17", "eq18", "gauss")
                         for _ in range(repetitions)]
        assert records[0]["elapsed_ms"] == want_ms


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_broken_kernel_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "inv_one_plus_t2_derivs",
                            lambda t, orders: (1, [(0, 0) for _ in orders]))
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        assert "FAIL criterion 4" in out

    def test_json_report(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--format", "json")
        assert code == 0, err
        report = json.loads(out)
        assert report["failures"] == "0"
        assert [c["criterion"] for c in report["checks"]] == \
            [str(number) for number, _, _ in acceptance.ACCEPTANCE_CHECKS]
        for c in report["checks"]:
            assert set(c) == {"criterion", "label", "ok", "detail"}
            assert c["ok"] is True

    def test_json_report_of_broken_kernel(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "inv_one_plus_t2_derivs",
                            lambda t, orders: (1, [(0, 0) for _ in orders]))
        code, out, _ = run_cli(capsys, "selftest", "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["failures"] == "1"
        failed = [c["criterion"] for c in report["checks"] if not c["ok"]]
        assert failed == ["4"]

    def test_broken_kernel_fails_under_optimize_flag(self):
        """The checks must not depend on ``assert``, which -O strips."""
        script = (
            "from arcpi import acceptance, cli\n"
            "acceptance.inv_one_plus_t2_derivs = "
            "lambda t, orders: (1, [(0, 0) for _ in orders])\n"
            "raise SystemExit(cli.main(['selftest']))\n")
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 1, out.stdout + out.stderr
        assert "FAIL criterion 4" in out.stdout


class TestErrorPaths:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["integrate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_zero_L_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pi", "-L", "0"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_negative_M_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pi", "-L", "2", "-M", "-1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_reference_integrity_exit_code(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ReferenceIntegrityError("digits disagree")
        monkeypatch.setattr(cli, "measure", broken)
        code, _, err = run_cli(capsys, "pi", "-L", "1", "-M", "1",
                               "--digits", "5")
        assert code == 4
        assert "digits disagree" in err


# --- argv fuzzing ---------------------------------------------------------

SMALL = st.integers(min_value=-2, max_value=8).map(str)
DIGITS = st.integers(min_value=-1, max_value=60).map(str)
RATIONAL_TEXT = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6).map(str),
    st.tuples(st.integers(min_value=-10**6, max_value=10**6),
              st.integers(min_value=-3, max_value=10**6))
    .map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.integers(min_value=300, max_value=320).map(lambda k: str(10**k)),
    st.sampled_from(["1/0", "0/0", "-7/0", "0.2", "1e3", "x", "", "+3/9",
                     "1/-2", " 5 "]),
)
FORMULAS = st.sampled_from(["eq7", "eq2", "oracle"])


def _flags(draw, *pairs):
    """Each optional (flag, value strategy) pair, drawn or left out."""
    argv = []
    for flag, values in pairs:
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


@st.composite
def cli_argvs(draw):
    """argv lists over every computing subcommand: valid and invalid
    flag values, rationals with q = 0, arguments past float range.
    L, M <= 8, --digits <= 60 and -m <= 30 keep each run fast."""
    sub = draw(st.sampled_from(["pi", "arctan", "deriv", "quad", "bench"]))
    digits = ("--digits", DIGITS)
    sizes = [("-L", SMALL), ("-M", SMALL)]
    fmt = ("--format", st.sampled_from(["text", "json"]))
    # pi and bench default to sizes up to 46 and 400 digits: always set them
    if sub == "pi":
        argv = ["pi", "--method", draw(st.sampled_from(pi.METHODS)),
                "-L", draw(SMALL), "-M", draw(SMALL), "--digits", draw(DIGITS)]
        argv += _flags(draw, fmt, (
            "--workers", st.sampled_from(["0", "1", "3", "-1", "two"])))
    elif sub == "arctan":
        argv = ["arctan", "--x", draw(RATIONAL_TEXT)]
        argv += _flags(draw, *sizes, digits, ("--exact", None), fmt)
    elif sub == "deriv":
        argv = ["deriv", "-m", str(draw(st.integers(-2, 30))),
                "--t", draw(RATIONAL_TEXT)]
        argv += _flags(draw, ("--formula", FORMULAS),
                       ("--compare", FORMULAS), fmt)
    elif sub == "quad":
        argv = ["quad"] + _flags(
            draw, ("--integrand", st.sampled_from(["kernel", "monomial"])),
            ("--degree", st.integers(-1, 10).map(str)), *sizes,
            ("--rule", st.sampled_from(["eq9", "eq10"])), digits,
            ("--exact", None), fmt)
    else:
        argv = ["bench", "--suite",
                draw(st.sampled_from(["pi-ladder", "deriv-paths"])),
                "--sizes", ",".join(draw(st.lists(SMALL, min_size=1,
                                                  max_size=2))),
                "--digits", draw(DIGITS)]
        argv += _flags(draw, ("--repetitions", st.sampled_from(
            ["1", "2", "0"])), fmt)
    return argv


@settings(max_examples=150, deadline=None)
@given(cli_argvs())
@example(["arctan", "--x", "1/0"])
@example(["arctan", "--x", "999/1000"])
@example(["deriv", "-m", "2", "--t", "-3/0", "--compare", "oracle"])
@example(["deriv", "-m", "2", "--t", str(10**400), "--formula", "eq2"])
@example(["pi", "--method", "gauss", "-L", "2", "-M", "2", "--digits", "20",
          "--workers", "3"])
def test_fuzzed_argv_only_exits_with_a_defined_code(argv):
    """Any argv ends in exit 0, 2 (usage), 3 (domain) or 4 (integrity),
    never in another exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "arcpi.cli", "pi", "-L", "1", "-M", "1",
         "--digits", "5"],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert "3.20000" in out.stdout


class TestImportPath:
    """Validation code stays off the path that ``import arcpi.cli`` loads;
    the commands that need it import it when they run."""

    def test_cli_import_leaves_validation_modules_unloaded(self):
        script = (
            "import sys\n"
            "import arcpi.cli\n"
            "print(sorted(m for m in ('arcpi.acceptance', 'arcpi.oracle',\n"
            "                          'multiprocessing')\n"
            "             if m in sys.modules))\n")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["selftest"],
        ["deriv", "-m", "6", "--t", "1/3", "--formula", "oracle",
         "--compare", "eq7"],
        ["bench", "--suite", "deriv-paths", "--sizes", "3"],
    ])
    def test_validation_commands_run(self, argv):
        out = subprocess.run([sys.executable, "-m", "arcpi.cli", *argv],
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stdout + out.stderr

