"""End-to-end checks of the command-line interface and its run records."""

import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from jsonschema import validate as validate_schema

import imspe
from imspe import CovarianceFamily, imspe_value
from imspe.cli import main
from imspe.search import SearchResult


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    return code, json.loads(out), err


def load_schema():
    from importlib import resources

    payload = resources.files("imspe.data").joinpath("runrecord.schema.json")
    return json.loads(payload.read_text(encoding="utf-8"))


class TestEval:
    def test_record_matches_library_bit_for_bit(self, capsys):
        code, record, _ = run_json(
            [
                "eval",
                "--family", "matern32",
                "--theta", "2.0",
                "--points", "-0.5",
                "--points", "0.25",
                "--points", "0.75",
            ],
            capsys,
        )
        assert code == 0
        fam = CovarianceFamily("matern32", [2.0])
        expected = imspe_value(fam, [-0.5, 0.25, 0.75])
        assert record["command"] == "eval"
        assert record["version"] == imspe.__version__
        assert record["outputs"]["imspe_hex"] == expected.hex()
        assert float(record["outputs"]["imspe"]) == expected
        assert record["outputs"]["n"] == 3
        assert record["outputs"]["d"] == 1

    def test_negative_multicoordinate_points_parse(self, capsys):
        # "--points -0.4,0.2" exercises the negative-value token merge
        code, record, _ = run_json(
            [
                "eval",
                "--family", "gaussian",
                "--theta", "2.0",
                "--theta", "0.5",
                "--points", "-0.4,0.2",
                "--points", "0.3,-0.9",
            ],
            capsys,
        )
        assert code == 0
        fam = CovarianceFamily("gaussian", [2.0, 0.5])
        expected = imspe_value(fam, [[-0.4, 0.2], [0.3, -0.9]])
        assert record["outputs"]["imspe_hex"] == expected.hex()
        assert record["inputs"]["points"] == [[-0.4, 0.2], [0.3, -0.9]]

    def test_diagnostics_block(self, capsys):
        code, record, _ = run_json(
            ["eval", "--family", "exponential", "--theta", "1",
             "--points", "-0.3", "--points", "0.6", "--diagnostics"],
            capsys,
        )
        assert code == 0
        diag = record["outputs"]["diagnostics"]
        R = np.array(diag["R"])
        assert R.shape == (2, 2)
        assert R[0, 0] == 1.0
        assert len(diag["v"]) == 2
        assert np.array(diag["W"]).shape == (2, 2)

    def test_coincident_points_exit_singular(self, capsys):
        code, out, err = run_cli(
            ["eval", "--family", "exponential", "--theta", "1",
             "--points", "0.5", "--points", "0.5"],
            capsys,
        )
        assert code == 3
        assert "singular" in err.lower()

    def test_bad_theta_exit_usage(self, capsys):
        code, _, err = run_cli(
            ["eval", "--family", "exponential", "--theta", "-1", "--points", "0.0"],
            capsys,
        )
        assert code == 2
        assert "error" in err.lower()

    def test_huge_theta_exit_usage(self, capsys):
        with np.errstate(all="ignore"):
            code, _, err = run_cli(
                ["eval", "--family", "matern52", "--theta", "1e200",
                 "--points", "-0.5", "--points", "0.5"],
                capsys,
            )
        assert code == 2
        assert "matern52" in err and "1e+200" in err

    def test_unknown_family_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--family", "cubic", "--theta", "1", "--points", "0"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_point_outside_box_exit_usage(self, capsys):
        code, _, err = run_cli(
            ["eval", "--family", "gaussian", "--theta", "1", "--points", "1.5"],
            capsys,
        )
        assert code == 2

    def test_ragged_points_exit_usage_with_the_design_message(self, capsys):
        code, out, err = run_cli(
            ["eval", "--family", "gaussian", "--theta", "1", "--points", "0.1,0.2", "--points", "0.3"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: points must form an n x d array, not a ragged sequence\n"


class TestIntegral:
    def test_single_value_matches_frozen_oracle(self, capsys):
        # mpmath: average of exp(-10 h^2) kernel against a point at the origin
        code, record, _ = run_json(
            ["integral", "--family", "gaussian", "--theta", "10", "--a", "0"],
            capsys,
        )
        assert code == 0
        assert record["outputs"]["kind"] == "single"
        value = float(record["outputs"]["value"])
        assert value == pytest.approx(0.28024739050664274, rel=1e-14)

    def test_pair_both_methods_agree(self, capsys):
        code, record, _ = run_json(
            ["integral", "--family", "matern52", "--theta", "3.7",
             "--a", "0.31", "--b", "-0.64", "--method", "both"],
            capsys,
        )
        assert code == 0
        assert record["outputs"]["kind"] == "pair"
        assert float(record["outputs"]["relative_discrepancy"]) <= 1e-12
        closed = float.fromhex(record["outputs"]["value_hex"])
        oracle = float.fromhex(record["outputs"]["quadrature_value_hex"])
        assert closed == pytest.approx(oracle, rel=1e-12)

    def test_negative_anchor_tokens_parse(self, capsys):
        code, record, _ = run_json(
            ["integral", "--family", "exponential", "--theta", "1",
             "--a", "-0.5", "--b", "-0.25"],
            capsys,
        )
        assert code == 0
        assert record["inputs"]["a"] == -0.5
        assert record["inputs"]["b"] == -0.25

    def test_nonfinite_closed_form_exit_usage(self, capsys):
        with np.errstate(all="ignore"):
            code, out, err = run_cli(
                ["integral", "--family", "matern52", "--theta", "1e300", "--a", "0.3", "--b", "0.1"],
                capsys,
            )
        assert code == 2
        assert out == ""
        assert "matern52" in err and "1e+300" in err

    def test_nonfinite_oracle_exit_usage(self, capsys):
        with np.errstate(all="ignore"):
            code, out, err = run_cli(
                ["integral", "--method", "quadrature", "--family", "matern32", "--theta", "1e308",
                 "--a", "0.3", "--b", "-0.2"],
                capsys,
            )
        assert code == 2
        assert out == ""
        assert "matern32" in err and "1e+308" in err

    def test_anchor_outside_box_exit_usage(self, capsys):
        for anchor in (["--a", "1.2"], ["--a", "nan", "--method", "quadrature"]):
            code, _, err = run_cli(
                ["integral", "--family", "exponential", "--theta", "1"] + anchor,
                capsys,
            )
            assert code == 2
            assert "[-1, 1]" in err


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    import imspe.cli as cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(None) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["integral", "--family", "gaussian", "--theta", "1", "--a", "0"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    capsys.readouterr()


class TestSearch:
    def test_two_point_exponential_long_range(self, capsys):
        code, record, _ = run_json(
            ["search", "--family", "exponential", "--theta", "0.1",
             "--n", "2", "--seed", "1", "--quiet"],
            capsys,
        )
        assert code == 0
        best = sorted(row[0] for row in record["outputs"]["best_design"])
        assert best[0] == pytest.approx(-0.5953720850982667, abs=5e-7)
        assert best[1] == pytest.approx(+0.5953720850982667, abs=5e-7)
        value = float.fromhex(record["outputs"]["best_imspe_hex"])
        assert value == pytest.approx(0.03975156744848410, rel=1e-12)
        assert record["outputs"]["starts_converged"] >= 1
        assert record["outputs"]["iterations_total"] > 0

    def test_no_convergence_exit_code_and_record(self, capsys):
        # two-point search cannot measure an exactly zero projected gradient,
        # so an unreachable tolerance plus a tiny iteration cap converges nowhere
        code, out, err = run_cli(
            ["search", "--family", "matern32", "--theta", "1", "--n", "2",
             "--starts", "3", "--max-iterations", "2", "--tol-opt", "1e-18",
             "--format", "json"],
            capsys,
        )
        assert code == 4
        record = json.loads(out)
        assert record["outputs"]["best_design"] is None
        assert record["outputs"]["best_imspe"] is None
        assert record["outputs"]["starts_converged"] == 0
        assert "no start converged" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_tolerance_exit_usage_before_any_start(self, tol, capsys, monkeypatch):
        def no_search(*args):
            raise AssertionError("a start ran")

        monkeypatch.setattr("imspe.cli.multistart_search", no_search)
        code, out, err = run_cli(
            ["search", "--family", "matern32", "--theta", "1", "--n", "2",
             "--starts", "1", "--max-iterations", "3", "--tol-opt", tol],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "optimality_tol" in err

    def test_deterministic_records_modulo_timing(self, capsys):
        argv = ["search", "--family", "matern52", "--theta", "1",
                "--n", "2", "--starts", "6", "--seed", "3"]
        _, first, _ = run_json(argv, capsys)
        _, second, _ = run_json(argv, capsys)
        first.pop("timing_ms")
        second.pop("timing_ms")
        assert first == second

    def test_bad_dimension_exit_usage(self, capsys):
        for bad in (
            ["--theta", "1", "--n", "0"],
            ["--theta", "1", "--theta", "2", "--d", "3", "--n", "2"],
        ):
            code, _, _ = run_cli(["search", "--family", "gaussian"] + bad, capsys)
            assert code == 2


class TestReproduceTables:
    def test_a_search_that_converges_nowhere_is_a_fail_row(self, capsys, monkeypatch):
        monkeypatch.setattr("imspe.cli.multistart_search", lambda *args: SearchResult((), ()))
        code, record, _ = run_json(["reproduce-tables", "--table", "1", "--quiet"], capsys)
        assert code == 1
        rows = record["outputs"]["rows"]
        assert [(row["status"], row["converged"]) for row in rows] == [("FAIL", False)] * 3
        computed = ("computed_design", "computed_imspe", "computed_imspe_hex", "max_coord_error", "rel_error")
        assert all(row[key] is None for row in rows for key in computed)
        assert record["outputs"]["overall"] == "FAIL"
        validate_schema(instance=record, schema=load_schema())

    def test_table_one_passes(self, capsys):
        code, record, _ = run_json(
            ["reproduce-tables", "--table", "1", "--quiet"], capsys
        )
        assert code == 0
        rows = record["outputs"]["rows"]
        assert len(rows) == 3
        assert all(row["status"] == "PASS" for row in rows)
        assert record["outputs"]["overall"] == "PASS"

    def test_human_table_printed_unless_quiet(self, capsys):
        code, out, _ = run_cli(["reproduce-tables", "--table", "1"], capsys)
        assert code == 0
        assert "overall: PASS (3/3 rows)" in out
        assert "status" in out.splitlines()[0]


class TestRecordFormats:
    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--family", "gaussian", "--theta", "1",
             "--points", "0.2", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        table = dict(rows[1:])
        assert table["command"] == "eval"
        assert table["inputs.points[0][0]"] == "0.2"
        expected = imspe_value(CovarianceFamily("gaussian", [1.0]), [0.2])
        assert float(table["outputs.imspe"]) == expected
        assert float.fromhex(table["outputs.imspe_hex"]) == expected

    def test_csv_writes_bools_as_true_and_false(self, capsys):
        code, out, _ = run_cli(["reproduce-tables", "--table", "1", "--quiet", "--format", "csv"], capsys)
        assert code == 0
        table = dict(list(csv.reader(io.StringIO(out)))[1:])
        assert [table[f"outputs.rows[{i}].converged"] for i in range(3)] == ["true"] * 3

    def test_csv_writes_none_as_an_empty_value(self, capsys):
        code, out, _ = run_cli(
            ["search", "--family", "matern32", "--theta", "1", "--n", "2",
             "--starts", "3", "--max-iterations", "2", "--tol-opt", "1e-18", "--format", "csv"],
            capsys,
        )
        assert code == 4
        table = dict(list(csv.reader(io.StringIO(out)))[1:])
        assert table["outputs.best_design"] == ""
        assert table["outputs.best_imspe"] == ""

    def test_all_commands_validate_against_schema(self, capsys):
        schema = load_schema()
        invocations = [
            ["eval", "--family", "exponential", "--theta", "1", "--points", "0.1"],
            ["integral", "--family", "gaussian", "--theta", "1",
             "--a", "0.2", "--b", "0.4", "--method", "both"],
            ["search", "--family", "matern32", "--theta", "1",
             "--n", "1", "--starts", "4"],
            ["reproduce-tables", "--table", "1", "--quiet"],
        ]
        for argv in invocations:
            code, record, _ = run_json(argv, capsys)
            assert code == 0, argv
            validate_schema(instance=record, schema=schema)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "imspe", "eval", "--family", "matern52",
             "--theta", "1.5", "--points", "-0.2", "--points", "0.8"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        expected = imspe_value(CovarianceFamily("matern52", [1.5]), [-0.2, 0.8])
        assert record["outputs"]["imspe_hex"] == expected.hex()
