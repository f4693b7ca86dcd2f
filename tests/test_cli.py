"""Report serialization contract and the command-line front end."""

import csv
import json
import math
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from urlab import qfisher, scenarios
from urlab.cli import main
from urlab.errors import UrlabError
from urlab.operator_core import SLD_FUNCTION
from urlab.qfisher import quantum_fisher
from urlab.randoms import random_state
from urlab.report import (
    CSV_COLUMNS,
    Row,
    RunReport,
    emit,
    eq_row,
    flag_row,
    ge_row,
    le_row,
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
        # above a bound of 1 the tolerance is relative
        assert eq_row("q", 9998.999999999758, 9998.999999999982, atol=1e-10).status == "pass"
        assert eq_row("q", 1e4 * (1 + 2e-10), 1e4, atol=1e-10).status == "fail"
        assert eq_row("q", 1e-3 + 2e-10, 1e-3, atol=1e-10).status == "fail"
        assert eq_row("q", 1e300, math.inf, atol=1e-10).status == "fail"

    def test_infinite_values(self):
        r = le_row("q", math.inf, 2.0)
        assert r.status == "infinite"
        assert math.isinf(r.gap)

    def test_flag_row(self):
        assert flag_row("q", True).status == "pass"
        assert flag_row("q", False).status == "fail"

    def test_flag_row_keeps_nan(self):
        # a NaN gap must show as NaN and fail, not print as 0.0
        row = flag_row("q", False, value=math.nan)
        assert math.isnan(row.value)
        assert row.status == "fail"

    @pytest.mark.parametrize("kind, bound", [("le", 2.0), ("ge", 0.0)])
    @pytest.mark.parametrize("nan_first", [True, False], ids=["nan-first", "nan-last"])
    def test_nan_trial_fails_its_row_in_either_order(self, kind, bound, nan_first):
        # builtin max and min drop a NaN that is not first, so the row passed
        trials = [{"q": math.nan}, {"q": 1.0}]
        (row,) = scenarios._extremes(trials if nan_first else trials[::-1],
                                     (("q", kind, bound, 0.0),))
        assert math.isnan(row.value) and row.status == "fail"

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
        data = json.loads(path.read_text())
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

    def test_qubit_instrument_passes(self, runner, tmp_path):
        out = tmp_path / "r.json"
        res = runner.invoke(
            main, ["scenario", "qubit-instrument", "--out", str(out), "--format", "json"]
        )
        assert res.exit_code == 0, res.output
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 7
        assert all(r["status"] == "pass" for r in rows), rows

    @pytest.mark.parametrize(
        "name, param",
        [("qubit-instrument", "p=0.99"), ("qubit-instrument", "p=0.999"),
         ("qubit-instrument", "eta=0.01"), ("qubit-unsharp", "eta=0.001")],
    )
    def test_large_closed_forms_pass_to_relative_rounding(self, runner, name, param):
        # each closed form is near 1e4 or 1e6, and once failed its absolute 1e-10
        res = runner.invoke(main, ["scenario", name, "--param", param])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize(
        "name, param, row",
        [("qubit-unsharp", "eta=1e-200", "epsilon_sz"),
         ("qubit-instrument", "eta=1e-300", "epsilon_sz_instrument")],
    )
    def test_closed_form_of_an_underflowing_eta_is_infinite(self, runner, name, param, row):
        # eta^2 underflows to 0 below about 1.6e-162, inside (0, 1]: 1 / eta^2 - 1 is inf
        res = runner.invoke(main, ["scenario", name, "--param", param])
        assert res.exit_code == 0, res.output
        line = next(x for x in res.output.splitlines() if f" {row} " in x)
        assert "value=inf bound=inf [infinite]" in line

    @pytest.mark.parametrize("eta", ["1.0", "0", "1.5", "-0.5"])
    def test_qubit_instrument_rejects_eta_outside_open_unit_interval(self, runner, eta):
        res = runner.invoke(main, ["scenario", "qubit-instrument", "--param", f"eta={eta}"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "Error: eta must be in (0, 1)" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("r", ["2", "-1.5", "nan"])
    def test_qubit_unsharp_rejects_bloch_length_outside_unit_interval(self, runner, r):
        res = runner.invoke(main, ["scenario", "qubit-unsharp", "--param", f"r={r}"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "Error: r must be in [-1, 1]" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("r", ["1", "-1"])
    def test_qubit_unsharp_accepts_a_pure_state(self, runner, r):
        res = runner.invoke(main, ["scenario", "qubit-unsharp", "--param", f"r={r}"])
        assert res.exit_code == 0, res.output

    def test_unknown_param_is_rejected(self, runner):
        res = runner.invoke(main, ["scenario", "oscillator", "--param", "dephasng=0.9"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("Error: unknown parameter(s) dephasng")
        assert "accepted: mean_photon, dephasing" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("trials", ["0", "-3", "nan", "inf", "2.5"])
    @pytest.mark.parametrize("name", ["qubit-unsharp", "qutrit-random"])
    def test_scenario_trials_must_be_a_positive_integer(self, runner, name, trials):
        res = runner.invoke(main, ["scenario", name, "--param", f"trials={trials}"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "Error: trials must be an integer >= 1" in res.output
        assert "Traceback" not in res.output

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

    def test_qutrit_random_runs_the_quantum_trial_at_dimension_3(self, monkeypatch):
        drawn = []

        def recording(rng, d):
            drawn.append(d)
            return random_state(rng, d)

        monkeypatch.setattr(scenarios, "random_state", recording)
        rep = scenarios.run_scenario(scenarios.ScenarioConfig("qutrit-random"))
        assert rep.metadata["dims"] == [3]
        assert [r.quantity for r in rep.rows] == [q[0] for q in scenarios._QUANTUM_TABLE]
        assert drawn == [3] * 25

    @pytest.mark.parametrize("seed", range(10))
    def test_qutrit_random_passes(self, seed):
        assert scenarios.run_scenario(scenarios.ScenarioConfig("qutrit-random", seed=seed)).all_pass

    def test_json_determinism(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            res = runner.invoke(
                main,
                ["scenario", "qutrit-random", "--seed", "5",
                 "--out", str(out), "--format", "json"],
            )
            assert res.exit_code == 0, res.output
        d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert d1["rows"] == d2["rows"]

    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"eta": 0.9}, "seed": 3}))
        res = runner.invoke(
            main, ["scenario", "qubit-unsharp", "--config", str(cfg)]
        )
        assert res.exit_code == 0, res.output
        assert "0.234568" in res.output

    def test_json_report_records_the_run_inputs(self, runner, tmp_path):
        # a config may repeat the command's NAME; the report keeps what the run read
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg.write_text(json.dumps({"name": "qubit-unsharp", "params": {"eta": 0.9, "trials": 3}}))
        res = runner.invoke(main, ["scenario", "qubit-unsharp", "--config", str(cfg), "--seed",
                                   "4", "--param", "r=0.25", "--out", str(out), "--format", "json"])
        assert res.exit_code == 0, res.output
        meta = json.loads(out.read_text())["metadata"]
        assert meta["params"] == {"eta": 0.9, "trials": 3.0, "r": 0.25}
        assert (meta["seed"], meta["cutoffs"]) == (4, [])
        res = runner.invoke(main, ["verify", "--suite", "classical", "--trials", "3", "--seed",
                                   "5", "--dim-max", "3", "--out", str(out), "--format", "json"])
        assert res.exit_code == 0, res.output
        meta = json.loads(out.read_text())["metadata"]
        assert {k: meta[k] for k in ("suite", "trials", "seed", "dim_max", "dims")} == {
            "suite": "classical", "trials": 3, "seed": 5, "dim_max": 3, "dims": [2, 3]}

    @pytest.mark.parametrize("seed_args, seed", [([], 3), (["--seed", "4"], 4), (["--seed", "0"], 0)],
                             ids=["default-yields", "explicit-wins", "explicit-default-value-wins"])
    def test_explicit_seed_beats_config_seed(self, runner, tmp_path, seed_args, seed):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg.write_text(json.dumps({"seed": 3, "params": {"trials": 2}}))
        res = runner.invoke(main, ["scenario", "qubit-unsharp", "--config", str(cfg), *seed_args,
                                   "--out", str(out), "--format", "json"])
        assert res.exit_code == 0, res.output
        assert json.loads(out.read_text())["metadata"]["seed"] == seed

    @pytest.mark.parametrize(
        "content",
        [{"seed": 3, "bogus": 1}, [{"seed": 3}], {"params": {"eta": "high"}},
         {"dim": 3}, {"seed": 1.5}, {"cutoffs": ["a"]}, {"cutoffs": 8},
         {"params": {"etaa": 0.9}}, {"cutoffs": [4, 8]}, {"seed": True},
         {"params": {"trials": True}}, {"params": {"eta": True}}, {"name": "qubit-instrument"},
         '{"params": {"eta": 1%s}}' % ("0" * 400), '{"params": {"eta": 1%s}}' % ("0" * 5000)],
        ids=["unknown-key", "not-an-object", "non-numeric-param", "unknown-dim-key",
             "float-seed", "non-integer-cutoff", "scalar-cutoffs", "unknown-param",
             "unread-cutoffs", "boolean-seed", "boolean-trials", "boolean-eta", "other-name",
             "int-past-float-range", "int-past-str-limit"],
    )
    def test_bad_config_is_click_error(self, runner, tmp_path, content):
        # a string is written as it stands: json.dumps cannot write a 5001-digit int
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content if isinstance(content, str) else json.dumps(content))
        res = runner.invoke(
            main, ["scenario", "qubit-unsharp", "--config", str(cfg)]
        )
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output.startswith("Error: ")
        assert "set_int_max_str_digits" not in res.output  # no Python call for a CLI user


    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_config_is_click_error(self, runner, tmp_path, kind):
        cfg = tmp_path / "cfg.json"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b'{"seed": 3, "name": "caf\xe9"}')
        res = runner.invoke(main, ["scenario", "qubit-unsharp", "--config", str(cfg)])
        assert res.exit_code != 0
        assert isinstance(res.exception, SystemExit), res.exception
        assert "Error: " in res.output


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

    def test_classical_suite_seed_2_passes(self, runner):
        # the Penrose residual P s P - P is relative to max(|P|, 1), not |s|
        res = runner.invoke(
            main, ["verify", "--suite", "classical", "--trials", "200", "--seed", "2"]
        )
        assert res.exit_code == 0, res.output

    def test_one_fisher_operator_per_trial_input(self, monkeypatch):
        # each trial builds the Fisher operator of a (state, function,
        # channel) once and reuses it for every check that needs it, the
        # quantum Cramer-Rao check included
        keys = []

        def recording(s, f=SLD_FUNCTION, pushforward=None):
            rho = np.asarray(getattr(s, "rho", s))
            channel = None if pushforward is None else id(pushforward)
            keys.append((rho.tobytes(), f.name, channel))
            return quantum_fisher(s, f, pushforward)

        monkeypatch.setattr(scenarios, "quantum_fisher", recording)
        monkeypatch.setattr(qfisher, "quantum_fisher", recording)
        scenarios.run_verify("all", trials=3)
        scenarios.run_scenario(scenarios.ScenarioConfig("qutrit-random", params={"trials": 3}))
        assert keys
        assert [key[1:] for key, n in Counter(keys).items() if n > 1] == []

    def test_uncertainty_suite_passes(self, runner):
        res = runner.invoke(
            main, ["verify", "--suite", "uncertainty", "--trials", "5",
                   "--dim-max", "3"]
        )
        assert res.exit_code == 0, res.output

    def test_bad_trials_rejected(self, runner):
        res = runner.invoke(main, ["verify", "--trials", "0"])
        assert res.exit_code != 0

    @pytest.mark.parametrize("seed", ["-1", "-8000"])
    def test_negative_seed_is_rejected(self, runner, seed):
        # -1 would run on shifted streams, -8000 ended in a numpy traceback
        res = runner.invoke(main, ["verify", "--seed", seed, "--trials", "1"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert f"Error: seed must be an integer >= 0, got {seed}" in res.output
        assert "Traceback" not in res.output


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

    def test_repeated_cutoffs_are_rejected(self, runner):
        # 8,8 would pass by comparing d=8 with itself
        res = runner.invoke(main, ["sweep", "oscillator", "--cutoffs", "8,8"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "Error: oscillator needs at least two distinct cutoffs" in res.output

    def test_full_dephasing_drift_is_infinite(self, runner):
        # every eta_q is infinite: the drift row must not turn |inf - inf| / inf into a NaN fail
        res = runner.invoke(
            main, ["sweep", "oscillator", "--cutoffs", "12,8", "--dephasing", "1.0"]
        )
        assert res.exit_code == 0, res.output
        drift = [line for line in res.output.splitlines() if "eta_q_relative_drift" in line]
        assert len(drift) == 1 and drift[0].endswith("[infinite]"), res.output

    @pytest.mark.parametrize("cutoffs", ["4,8", "8,16"])
    def test_undephased_drift_passes(self, runner, cutoffs):
        # eta_q is 0 without dephasing: 0 at d=8 ended in a ZeroDivisionError,
        # -6.7e-16 at d=16 gave a drift of 1
        res = runner.invoke(
            main, ["sweep", "oscillator", "--cutoffs", cutoffs, "--dephasing", "0"]
        )
        assert res.exit_code == 0, res.output
        drift = [line for line in res.output.splitlines() if "eta_q_relative_drift" in line]
        assert len(drift) == 1 and drift[0].endswith("[pass]"), res.output

    @pytest.mark.parametrize("infinite_at", [8, 12])
    def test_finite_against_infinite_drift_fails(self, monkeypatch, infinite_at):
        dephasing = scenarios.oscillator.number_dephasing_channel
        monkeypatch.setattr(
            scenarios.oscillator,
            "number_dephasing_channel",
            lambda d, strength: dephasing(d, 1.0 if d == infinite_at else strength),
        )
        cfg = scenarios.ScenarioConfig(name="oscillator", cutoffs=(8, 12))
        rows = {r.quantity: r for r in scenarios.run_scenario(cfg).rows}
        assert rows[f"eta_q_cutoff{infinite_at}"].status == "infinite"
        assert rows["eta_q_relative_drift"].status == "fail"

    @pytest.mark.parametrize("mean_photon", ["nan", "inf"])
    def test_nonfinite_mean_photon_is_rejected(self, runner, mean_photon):
        # both used to fail later with "state is not Hermitian"
        res = runner.invoke(main, ["sweep", "oscillator", "--mean-photon", mean_photon])
        assert res.exit_code == 1
        assert "Error: mean photon number must be positive and finite" in res.output

    def test_refused_allocation_is_click_error(self, runner, monkeypatch):
        # a cutoff of 100000 asks numpy for 74.5 GiB; the stand-in raises without allocating
        def refuse(cfg):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr("urlab.cli.run_scenario", refuse)
        res = runner.invoke(main, ["sweep", "oscillator", "--cutoffs", "8,100000"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "Error: out of memory: Unable to allocate 74.5 GiB" in res.output

    def test_bad_cutoffs(self, runner):
        res = runner.invoke(main, ["sweep", "oscillator", "--cutoffs", "8,x"])
        assert res.exit_code != 0
        # an empty list is a usage error, not the default sweep
        res = runner.invoke(main, ["sweep", "oscillator", "--cutoffs", ","])
        assert res.exit_code == 2, res.output


@pytest.mark.parametrize(
    "args",
    [
        ["scenario", "qubit-instrument"],
        ["verify", "--suite", "classical", "--trials", "1"],
        ["sweep", "oscillator", "--cutoffs", "4,6"],
    ],
    ids=["scenario", "verify", "sweep"],
)
def test_unwritable_out_is_click_error(runner, tmp_path, args):
    # the report is computed, then writing it fails: an error line, not a traceback
    out = tmp_path / "missing" / "report.csv"
    res = runner.invoke(main, args + ["--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert f"Error: cannot write {out}" in res.output
