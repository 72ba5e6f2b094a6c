"""Command-line interface: formats, exit codes, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dicebayes
from dicebayes import multiplicity_model
from dicebayes.cli import main

# the child interpreter imports the same dicebayes as this one
SRC = str(Path(dicebayes.__file__).resolve().parents[1])


def run_cli(*argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dicebayes.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestEval:
    def test_text_output(self, capsys):
        assert main(["eval", "--n", "2", "--avg", "5", "--model", "fair",
                     "--throw", "old"]) == 0
        out = capsys.readouterr().out
        assert "(0.0, 0.0, 0.0, 33.3, 33.3, 33.3) % [H=1.099 nat]" in out
        assert "method: closed-form" in out

    def test_json_output(self, capsys):
        assert main(["eval", "--n", "2", "--avg", "5", "--model", "johnson",
                     "--param", "1", "--throw", "new", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "closed-form"
        assert payload["probs"][4] == pytest.approx(0.25)

    def test_fraction_average(self, capsys):
        assert main(["eval", "--n", "4", "--avg", "7/2", "--model", "fair",
                     "--throw", "old"]) == 0
        assert "14.4" in capsys.readouterr().out  # 21/146

    def test_contradictory_exit_code(self, capsys):
        assert main(["eval", "--n", "1", "--avg", "3.5", "--model", "fair",
                     "--throw", "old"]) == 2
        assert "undefined (contradictory data)" in capsys.readouterr().out

    def test_usage_error_exit_code(self):
        assert main(["eval", "--n", "2", "--avg", "5", "--model", "nonsense",
                     "--throw", "old"]) == 3
        # model-specific requirements are usage errors too
        assert main(["eval", "--n", "2", "--avg", "5", "--model", "johnson",
                     "--throw", "old"]) == 3
        assert main(["eval", "--n", "2", "--avg", "5", "--model", "fair"]) == 3

    def test_maxent_needs_no_throw(self, capsys):
        assert main(["eval", "--large-n", "--avg", "5", "--model",
                     "maxent-shannon"]) == 0
        assert "47.8" in capsys.readouterr().out

    def test_min_kl_requires_base(self, capsys):
        assert main(["eval", "--large-n", "--avg", "5", "--model", "min-kl"]) == 3
        assert main(["eval", "--large-n", "--avg", "5", "--model", "min-kl",
                     "--m", "1,1,1,1,1,1"]) == 0

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    @pytest.mark.parametrize("model, avg", [("johnson", "5"), ("johnson", "4.25"),
                                            ("multiplicity", "5"), ("fair", "5")])
    def test_non_finite_param_is_usage_error(self, capsys, value, model, avg):
        # 'large' is the only way to ask for the parameter-large limit
        assert main(["eval", "--n", "2", "--avg", avg, "--model", model,
                     f"--param={value}", "--throw", "old"]) == 3
        assert "--param must be a finite number or 'large'" in capsys.readouterr().err

    def test_param_large_is_the_fair_limit(self, capsys):
        assert main(["eval", "--n", "2", "--avg", "5", "--model", "johnson",
                     "--param", "large", "--throw", "old"]) == 0
        out = capsys.readouterr().out
        assert "(0.0, 0.0, 0.0, 33.3, 33.3, 33.3)" in out
        assert "method: analytic-limit" in out

    def test_no_data_base_weighted_johnson_is_the_base(self, capsys):
        assert main(["eval", "--n", "0", "--avg", "5", "--model", "johnson",
                     "--param", "2", "--m", "1,2,3,4,5,6", "--throw", "new",
                     "--format", "json"]) == 0
        probs = json.loads(capsys.readouterr().out)["probs"]
        assert probs == pytest.approx([i / 21 for i in range(1, 7)], abs=1e-15)
        assert main(["eval", "--n", "0", "--avg", "5", "--model", "johnson",
                     "--param", "2", "--throw", "new"]) == 3

    def test_finite_n_multiplicity_reports_its_error_bound(self, capsys):
        argv = ["eval", "--n", "2", "--avg", "5", "--model", "multiplicity",
                "--param", "1", "--throw", "old"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(0.0, 0.0, 0.0, 25.2, 49.6, 25.2)" in out
        assert "method: deterministic-quad" in out
        line, = [l for l in out.splitlines() if l.startswith("error bound: (")]
        assert line.endswith(") pp") and "stderr" not in out
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "deterministic-quad"
        assert len(payload["error_bound"]) == 6 and max(payload["error_bound"]) <= 1e-5
        assert "stderr" not in payload

    def test_large_n_johnson_below_unit_concentration(self, capsys):
        # at a = 5 face 5 has probability K / (6K - 1): 25 % at K = 0.5
        assert main(["eval", "--large-n", "--avg", "5", "--model", "johnson",
                     "--param", "0.5", "--throw", "old"]) == 0
        out = capsys.readouterr().out
        assert "(3.6, 4.6, 6.3, 9.8, 25.0, 50.7) %" in out
        assert "method: deterministic-quad" in out
        line, = [l for l in out.splitlines() if l.startswith("error bound: (")]
        assert line.endswith(") pp")

    def test_base_with_an_empty_face_is_usage_error(self):
        assert main(["eval", "--large-n", "--avg", "5", "--model", "johnson",
                     "--param", "5", "--m", "0,1,1,1,1,1", "--throw", "old"]) == 3

    def test_console_entry_point(self):
        proc = run_cli("eval", "--n", "2", "--avg", "5", "--model", "fair",
                       "--throw", "old")
        assert proc.returncode == 0
        assert "33.3" in proc.stdout


class TestReproduce:
    def test_single_problem_markdown(self, capsys):
        assert main(["reproduce", "--only", "n1-a5"]) == 0
        out = capsys.readouterr().out
        assert "## n1-a5" in out
        assert "uniform distribution irrespective of a" in out

    def test_diff_passes_on_closed_form_table(self, capsys):
        assert main(["reproduce", "--only", "n1-a6", "--diff"]) == 0
        assert "0 deviation(s)" in capsys.readouterr().out

    def test_budget_stops_reported_on_stderr(self, capsys, monkeypatch):
        # with the slice lattice capped at 120 points the L=1 and L=5 rows stop
        # above their error target (the L=50 row meets it at 60 and 120)
        monkeypatch.setattr(multiplicity_model, "_MAX_SLICE_GRID", 120)
        assert main(["reproduce", "--only", "large-a5"]) == 0
        err = capsys.readouterr().err
        line, = [l for l in err.splitlines() if "error target" in l]
        assert set(line.rpartition(": ")[2].split(", ")) == {
            "large-a5 multiplicity L=1", "large-a5 multiplicity L=5"}

    def test_unknown_problem_is_usage_error(self):
        assert main(["reproduce", "--only", "n3-a9"]) == 3

    def test_json_schema(self, capsys):
        assert main(["reproduce", "--only", "large-a5", "--format", "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 1
        assert docs[0]["problem"] == {"regime": "large-n", "avg": "5"}
        row_models = [r["model"] for r in docs[0]["rows"]]
        assert row_models[0] == "me"
        assert "johnson" in row_models and "multiplicity" in row_models

    def test_json_rows_carry_lattice_error_bounds(self, capsys):
        assert main(["reproduce", "--only", "n2-a5", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)[0]["rows"]
        finite = [r for r in rows if r["model"] == "multiplicity" and r["param"] != "large"]
        assert len(finite) == 3
        for row in finite:
            assert row["method"] == "deterministic-quad" and "stderr" not in row
            assert len(row["error_bound"]) == 2
            assert max(max(bound) for bound in row["error_bound"]) <= 1e-5

    def test_json_large_n_rows_carry_error_bounds(self, capsys):
        assert main(["reproduce", "--only", "large-a5", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)[0]["rows"]
        slices = [r for r in rows if r["model"] in ("johnson", "multiplicity")
                  and not r["param"].startswith("large")]
        assert len(slices) == 6
        for row in slices:
            assert row["method"] == "deterministic-quad"
            assert len(row["error_bound"]) == 2 and len(row["error_bound"][0]) == 6
            assert max(max(bound) for bound in row["error_bound"]) <= multiplicity_model._SLICE_TOL

    def test_budget_and_seed_do_not_change_tables(self, capsys):
        # no table cell uses Monte Carlo
        args = ["reproduce", "--only", "n2-a5", "--only", "large-a5"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--budget", "1000", "--seed", "7"]) == 0
        assert capsys.readouterr().out == plain

    def test_full_budget_tables_match_the_print(self, capsys):
        # every published cell at the full budget and the 0.3 pp tolerance
        assert main(["reproduce", "--diff"]) == 0
        assert "296 cells compared, 0 deviation(s)" in capsys.readouterr().out

    def test_csv_deterministic_across_runs(self):
        args = ["reproduce", "--only", "n2-a6", "--format", "csv",
                "--fast", "--seed", "5"]
        one = run_cli(*args)
        two = run_cli(*args)
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout

    def test_config_file_defaults(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"only": ["n1-a6"], "diff": True}))
        assert main(["reproduce", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "## n1-a6" in out and "## n1-a5" not in out
        assert "diff:" in out

    def test_config_flag_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"only": ["n1-a6"]}))
        assert main(["reproduce", "--config", str(config),
                     "--only", "n1-a5"]) == 0
        out = capsys.readouterr().out
        assert "## n1-a5" in out and "## n1-a6" not in out

    def test_bad_config_key(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"no-such-flag": 1}))
        assert main(["reproduce", "--config", str(config)]) == 3
