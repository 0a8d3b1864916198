"""Command-line behavior: output shapes, exit codes, JSON contract."""

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arcpi import acceptance, cli
from arcpi.arctan import arctan_closed_form
from arcpi.errors import ReferenceIntegrityError
from arcpi.kernels import arctan_deriv
from arcpi.pi import PiResult
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
        serial = run_json(capsys, "pi", "-L", "6", "-M", "6", "--digits", "8")
        parallel = run_json(capsys, "pi", "-L", "6", "-M", "6",
                            "--digits", "8", "--workers", "2")
        assert serial["approx_decimal"] == parallel["approx_decimal"]

    def test_worker_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("ARCPI_MAX_WORKERS", "1")
        record = run_json(capsys, "pi", "-L", "4", "-M", "4",
                          "--digits", "8", "--workers", "64")
        assert record["approx_decimal"].startswith("3.141")

    def test_malformed_worker_env_cap_is_usage_error(self, capsys,
                                                     monkeypatch):
        monkeypatch.setenv("ARCPI_MAX_WORKERS", "abc")
        with pytest.raises(SystemExit) as exc:
            cli.main(["pi", "-L", "2", "-M", "2", "--workers", "2"])
        assert exc.value.code == 2
        assert "ARCPI_MAX_WORKERS" in capsys.readouterr().err

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
    """Grading and printing `pi --method gauss` read no reduced rational."""
    def reduce(self):
        raise AssertionError("PiResult.approx read by the pi command")
    monkeypatch.setattr(PiResult, "approx", property(reduce))
    record = run_json(capsys, "pi", "--method", "gauss", "-L", "8", "-M", "8",
                      "--digits", "60")
    assert record["matched_digits"] == "50"


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
            cli.deriv_inv_one_plus_t2, ComputationParams(30, 60))


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

    def test_ladder_json_records(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--suite", "pi-ladder",
                               "--sizes", "2", "--digits", "20",
                               "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["method"] for r in records] == ["eq17", "eq18", "gauss"]
        for r in records:
            assert set(r) == {"method", "L", "M", "matched_digits",
                              "elapsed_ms"}

    def test_deriv_paths(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--suite", "deriv-paths",
                               "--sizes", "6", "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["method"] for r in records] == ["eq5", "oracle"]

    def test_deriv_paths_disagreement_is_integrity_error(self, capsys,
                                                         monkeypatch):
        kernel = cli.deriv_inv_one_plus_t2
        monkeypatch.setattr(cli, "deriv_inv_one_plus_t2",
                            lambda m, t: kernel(m, t) + (m == 2))
        code, out, err = run_cli(capsys, "bench", "--suite", "deriv-paths",
                                 "--sizes", "3")
        assert code == cli.INTEGRITY_EXIT == 4
        assert out == ""
        assert "disagree" in err

    def test_repetitions(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--suite", "pi-ladder",
                               "--sizes", "2", "--digits", "20",
                               "--repetitions", "3")
        assert code == 0


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_broken_kernel_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "deriv_inv_one_plus_t2",
                            lambda m, t: Fraction(0))
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
        monkeypatch.setattr(acceptance, "deriv_inv_one_plus_t2",
                            lambda m, t: Fraction(0))
        code, out, _ = run_cli(capsys, "selftest", "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["failures"] == "1"
        failed = [c["criterion"] for c in report["checks"] if not c["ok"]]
        assert failed == ["4"]

    def test_broken_kernel_fails_under_optimize_flag(self):
        """The checks must not depend on ``assert``, which -O strips."""
        script = (
            "from fractions import Fraction\n"
            "from arcpi import acceptance, cli\n"
            "acceptance.deriv_inv_one_plus_t2 = lambda m, t: Fraction(0)\n"
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
            "print(sorted(m for m in ('arcpi.acceptance', 'arcpi.oracle')\n"
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

