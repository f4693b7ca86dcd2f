"""Report serialization contract and the command-line front end."""

import csv
import json
import math

import pytest
from click.testing import CliRunner

from urlab.cli import main
from urlab.errors import UrlabError
from urlab.report import (
    CSV_COLUMNS,
    Row,
    RunReport,
    emit,
    eq_row,
    flag_row,
    ge_row,
    le_row,
    parse_report,
)


class TestRows:
    def test_status_validation(self):
        with pytest.raises(UrlabError):
            Row("q", 1.0, 2.0, "maybe")

    def test_le_ge_eq(self):
        assert le_row("q", 1.0, 2.0).status == "pass"
        assert le_row("q", 3.0, 2.0).status == "fail"
        assert ge_row("q", 3.0, 2.0).status == "pass"
        assert eq_row("q", 1.0 + 1e-12, 1.0, atol=1e-10).status == "pass"
        assert eq_row("q", 1.1, 1.0, atol=1e-10).status == "fail"

    def test_infinite_values(self):
        r = le_row("q", math.inf, 2.0)
        assert r.status == "infinite"
        assert math.isinf(r.gap)

    def test_flag_row(self):
        assert flag_row("q", True).status == "pass"
        assert flag_row("q", False).status == "fail"

    def test_all_pass_ignores_infinite(self):
        rep = RunReport("s", [le_row("a", 1.0, 2.0), le_row("b", math.inf, 2.0)])
        assert rep.all_pass
        rep2 = RunReport("s", [le_row("a", 3.0, 2.0)])
        assert not rep2.all_pass


class TestEmit:
    def _report(self):
        return RunReport(
            scenario="demo",
            rows=[le_row("finite", 1.5, 2.0), le_row("endless", math.inf, 2.0)],
            metadata={"seed": 0, "dims": [2]},
        )

    def test_csv_contract(self, tmp_path):
        path = tmp_path / "out.csv"
        emit(self._report(), "csv", str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert rows[1][0] == "demo"
        assert rows[1][1] == "finite"
        assert float(rows[1][2]) == 1.5
        assert float(rows[1][4]) == -0.5
        assert rows[2][2] == "inf"
        assert rows[2][4] == "inf"
        assert rows[2][5] == "infinite"

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        emit(self._report(), "json", str(path))
        data = parse_report(str(path))
        assert data["scenario"] == "demo"
        assert data["rows"][0]["value"] == "1.5"
        assert data["rows"][1]["value"] == "inf"
        assert data["metadata"]["seed"] == 0

    def test_unknown_format(self, tmp_path):
        with pytest.raises(UrlabError):
            emit(self._report(), "yaml", str(tmp_path / "x"))

    def test_unwritable_path(self):
        with pytest.raises(UrlabError):
            emit(self._report(), "csv", "/nonexistent-dir/out.csv")


@pytest.fixture
def runner():
    return CliRunner()


class TestScenarioCommand:
    def test_list(self, runner):
        res = runner.invoke(main, ["scenario", "list"])
        assert res.exit_code == 0
        names = res.output.split()
        assert "qubit-unsharp" in names and "oscillator" in names

    def test_qubit_unsharp_passes(self, runner, tmp_path):
        out = tmp_path / "r.csv"
        res = runner.invoke(
            main, ["scenario", "qubit-unsharp", "--out", str(out), "--format", "csv"]
        )
        assert res.exit_code == 0, res.output
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        statuses = {r[5] for r in rows[1:]}
        assert statuses <= {"pass", "infinite"}

    def test_param_override(self, runner):
        res = runner.invoke(
            main, ["scenario", "qubit-unsharp", "--param", "eta=0.9"]
        )
        assert res.exit_code == 0, res.output
        # epsilon = 1/0.81 - 1
        assert "0.234568" in res.output

    def test_bad_param_is_usage_error(self, runner):
        res = runner.invoke(main, ["scenario", "qubit-unsharp", "--param", "eta"])
        assert res.exit_code != 0
        res = runner.invoke(main, ["scenario", "qubit-unsharp", "--param", "eta=x"])
        assert res.exit_code != 0

    def test_unknown_scenario(self, runner):
        res = runner.invoke(main, ["scenario", "nonesuch"])
        assert res.exit_code != 0
        assert "unknown scenario" in res.output

    def test_json_determinism(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            res = runner.invoke(
                main,
                ["scenario", "qutrit-random", "--seed", "5", "--dim", "3",
                 "--out", str(out), "--format", "json"],
            )
            assert res.exit_code == 0, res.output
        d1, d2 = parse_report(str(out1)), parse_report(str(out2))
        assert d1["rows"] == d2["rows"]

    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"eta": 0.9}, "seed": 3}))
        res = runner.invoke(
            main, ["scenario", "qubit-unsharp", "--config", str(cfg)]
        )
        assert res.exit_code == 0, res.output
        assert "0.234568" in res.output

    @pytest.mark.parametrize(
        "content",
        [{"seed": 3, "bogus": 1}, [{"seed": 3}], {"params": {"eta": "high"}}],
        ids=["unknown-key", "not-an-object", "non-numeric-param"],
    )
    def test_bad_config_is_click_error(self, runner, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        res = runner.invoke(
            main, ["scenario", "qubit-unsharp", "--config", str(cfg)]
        )
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output.startswith("Error: ")


class TestVerifyCommand:
    def test_classical_suite_passes(self, runner):
        res = runner.invoke(
            main, ["verify", "--suite", "classical", "--trials", "5",
                   "--dim-max", "3"]
        )
        assert res.exit_code == 0, res.output

    def test_quantum_suite_passes(self, runner, tmp_path):
        out = tmp_path / "v.csv"
        res = runner.invoke(
            main, ["verify", "--suite", "quantum", "--trials", "5",
                   "--dim-max", "3", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(r[5] == "pass" for r in rows[1:])

    def test_uncertainty_suite_passes(self, runner):
        res = runner.invoke(
            main, ["verify", "--suite", "uncertainty", "--trials", "5",
                   "--dim-max", "3"]
        )
        assert res.exit_code == 0, res.output

    def test_bad_trials_rejected(self, runner):
        res = runner.invoke(main, ["verify", "--trials", "0"])
        assert res.exit_code != 0


class TestSweepCommand:
    def test_oscillator_sweep(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        res = runner.invoke(
            main, ["sweep", "oscillator", "--cutoffs", "8,12",
                   "--mean-photon", "0.5", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        quantities = [r[1] for r in rows[1:]]
        assert "epsilon_q_cutoff8" in quantities
        assert "eta_q_relative_drift" in quantities

    def test_bad_cutoffs(self, runner):
        res = runner.invoke(main, ["sweep", "oscillator", "--cutoffs", "8,x"])
        assert res.exit_code != 0
