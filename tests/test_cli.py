"""Command-line interface: formats, exit codes, determinism."""
import json
import subprocess
import sys

import pytest

from dicebayes.cli import main


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "dicebayes.cli", *argv],
                          capture_output=True, text=True)
    return proc


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

    def test_budget_stops_reported_on_stderr(self, capsys):
        assert main(["reproduce", "--only", "large-a5", "--fast"]) == 0
        err = capsys.readouterr().err
        line, = [l for l in err.splitlines() if "evaluation budget" in l]
        assert set(line.rpartition(": ")[2].split(", ")) == {
            "large-a5 Johnson K=5", "large-a5 Johnson K=50"}

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
