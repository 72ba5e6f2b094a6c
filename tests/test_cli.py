"""Command-line interface: formats, exit codes, determinism."""
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import dicebayes
from dicebayes import multiplicity_model
from dicebayes.cli import main

# the child interpreter imports the same dicebayes as this one
SRC = str(Path(dicebayes.__file__).resolve().parents[1])


def run_python(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_cli(*argv):
    return run_python("-m", "dicebayes.cli", *argv)


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

    def test_base_weighted_multiplicity_at_large_scale(self, capsys):
        # L = 1e6 pins p to the base m = (1..6)/21: faces 4-6 get (24, 25, 24)/73
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--n", "2", "--avg", "5", "--model", "multiplicity",
                         "--param", "1000000", "--m", "1,2,3,4,5,6", "--throw", "old"]) == 0
        out = capsys.readouterr().out
        assert "(0.0, 0.0, 0.0, 32.9, 34.2, 32.9) %" in out
        assert "method: deterministic-quad" in out
        line, = [l for l in out.splitlines() if l.startswith("error bound: (")]
        assert line.endswith(") pp")

    def test_vertex_entropy_is_not_negative_zero(self, capsys):
        # a vertex's entropy sums to -0.0, which printed as -0.000
        argv = ["eval", "--large-n", "--avg", "6", "--model", "maxent-burg"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[H=0.000 nat]" in out and "-0.0" not in out
        assert main(argv + ["--format", "json"]) == 0
        entropy = json.loads(capsys.readouterr().out)["entropy"]
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0

    def test_base_weights_whose_sum_overflows(self, capsys):
        # six weights of 1e308 are a uniform base, though their sum overflows
        argv = ["eval", "--n", "2", "--avg", "5", "--model", "johnson", "--param", "5",
                "--throw", "old", "--m"]
        assert main(argv + [",".join(["1e308"] * 6)]) == 0
        huge = capsys.readouterr().out
        assert main(argv + ["1,1,1,1,1,1"]) == 0
        assert huge == capsys.readouterr().out

    @pytest.mark.parametrize("weights", ["inf,1,1,1,1,1", "1,1,nan,1,1,1",
                                         "1,1,1,1,1,-inf"])
    def test_non_finite_base_weights_are_refused(self, capsys, weights):
        assert main(["eval", "--n", "2", "--avg", "5", "--model", "johnson",
                     "--param", "5", "--throw", "old", "--m", weights]) == 3
        assert "weights must be finite" in capsys.readouterr().err

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

    def test_no_negative_zero_entropy(self, capsys):
        # the vertex cells of these tables printed [-0.000] and "entropy": -0.0
        argv = ["reproduce", "--only", "n1-a6", "--only", "large-a6"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[0.000]" in out and "-0.0" not in out
        assert main(argv + ["--format", "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        entropies = [row[throw]["entropy"] for doc in docs for row in doc["rows"]
                     for throw in ("old", "new") if row[throw] is not None]
        assert 0.0 in entropies
        assert all(math.copysign(1.0, h) == 1.0 for h in entropies)

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

    @pytest.mark.parametrize("flag", ["--seed", "--budget"])
    def test_seed_and_budget_are_usage_errors(self, flag):
        # no route samples, so neither flag exists
        assert main(["reproduce", "--only", "n1-a6", flag, "5"]) == 3
        assert main(["eval", "--n", "2", "--avg", "5", "--model", "fair",
                     "--throw", "old", flag, "5"]) == 3

    def test_full_budget_tables_match_the_print(self, capsys):
        # every published cell at the full budget and the 0.3 pp tolerance
        assert main(["reproduce", "--diff"]) == 0
        assert "296 cells compared, 0 deviation(s)" in capsys.readouterr().out

    def test_csv_deterministic_across_runs(self):
        args = ["reproduce", "--only", "n2-a6", "--format", "csv", "--fast"]
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
        # the given --only replaces the config's list; the config still sets --format
        config.write_text(json.dumps({"only": ["n1-a6", "n1-a5"], "format": "csv"}))
        assert main(["reproduce", "--config", str(config), "--only", "n2-a6"]) == 0
        out = capsys.readouterr().out
        assert "n2-a6" in out and "n1-a6" not in out and "n1-a5" not in out
        assert "## " not in out

    def test_config_does_not_override_a_flag_given_at_its_default(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"format": "json"}))
        assert main(["eval", "--n", "2", "--avg", "5", "--model", "fair", "--throw", "old",
                     "--format", "text", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("(0.0, 0.0, 0.0, 33.3, 33.3, 33.3)")
        assert main(["eval", "--n", "2", "--avg", "5", "--model", "fair", "--throw", "old",
                     "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "closed-form"

    def test_bad_config_key(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"no-such-flag": 1}))
        assert main(["reproduce", "--config", str(config)]) == 3

    @pytest.mark.parametrize("config, message", [
        ([1, 2], "must hold a JSON object"),
        ({"format": "xml"}, "'format'"),           # not one of the flag's choices
        ({"fast": "no"}, "'fast'"),                # a switch takes true or false
        ({"only": "n1-a6"}, "'only'"),             # a repeatable flag takes a list
        ({"seed": 5}, "unknown config key 'seed'"),
        ({"budget": 1000}, "unknown config key 'budget'")])
    def test_config_values_are_checked_like_flags(self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["reproduce", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_config_values_are_converted_like_flags(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 2, "param": 1, "throw": "old"}))
        assert main(["eval", "--n", "1", "--avg", "5", "--model", "johnson",
                     "--config", str(path)]) == 0
        # --n on the command line overrides the config's n = 2
        assert "(0.0, 0.0, 0.0, 0.0, 100.0, 0.0)" in capsys.readouterr().out
        path.write_text(json.dumps({"n": "two"}))
        assert main(["eval", "--large-n", "--avg", "5", "--model", "fair", "--throw", "old",
                     "--config", str(path)]) == 3
        assert "'n'" in capsys.readouterr().err


class TestImport:
    def test_import_loads_no_scipy(self):
        # scipy costs about 0.5 s of imports; the package loads it on first use
        code = ("import sys, dicebayes, dicebayes.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
