"""Command-line interface: formats, exit codes, determinism."""
import ast
import csv
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import dicebayes
from dicebayes import cli, multiplicity_model
from dicebayes.cli import main
from dicebayes.reference import parse_problem_id

# the child interpreter imports the same dicebayes as this one
SRC = str(Path(dicebayes.__file__).resolve().parents[1])


def run_python(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_cli(*argv):
    return run_python("-m", "dicebayes.cli", *argv)


def readme_cli_examples():
    """The command lines of the README's CLI section, without the program name."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("dicebayes ")]


def readme_flag_table():
    """{model: (the flags its README row reads, those it requires)}."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = readme.split("| model | reads | requires |", 1)[1].splitlines()[2:]
    table = {}
    for row in rows:
        if not row.startswith("|"):
            break
        models, reads, requires = row.strip("|").split("|")
        for model in re.findall(r"`([a-z-]+)`", models):
            table[model] = (set(re.findall(r"--[a-z-]+", reads)),
                            set(re.findall(r"--[a-z-]+", requires)))
    return table


# one question each --model answers, with every flag it requires
_ANSWERED = {"fair": "--n 2 --avg 5 --model fair --throw old",
             "johnson": "--n 2 --avg 5 --model johnson --param 5 --throw old",
             "multiplicity": "--large-n --avg 5 --model multiplicity --param 5 --throw new",
             "maxent-shannon": "--large-n --avg 5 --model maxent-shannon",
             "maxent-burg": "--large-n --avg 5 --model maxent-burg --m 1,2,3,4,5,6",
             "min-kl": "--large-n --avg 5 --model min-kl --m 1,2,3,4,5,6"}


def _refused_flag_cases():
    """(eval argv, the flag it must name): the command lines that printed an
    answer while ignoring a flag, then each flag each model does not read."""
    cases = [("--n 2 --avg 5 --model fair --throw old --param 7", "--param"),
             ("--n 2 --avg 5 --model maxent-burg", "--n"),
             ("--n 2 --avg 5 --model johnson --param 3 --throw old --n-over-param small",
              "--n-over-param"),
             ("--large-n --avg 5 --model johnson --param 5 --throw old --n-over-param large",
              "--n-over-param")]
    extra = {"--param": "--param 2", "--throw": "--throw old",
             "--n-over-param": "--n-over-param small"}
    for model in ("maxent-shannon", "maxent-burg", "min-kl"):
        base = " --m 1,2,3,4,5,6" if model == "min-kl" else ""
        cases.append((f"--n 1 --avg 5 --model {model}{base}", "--n"))
        cases += [(f"--large-n --avg 5 --model {model}{base} {text}", flag)
                  for flag, text in extra.items()]
    cases += [("--n 2 --avg 5 --model fair --throw old --n-over-param large", "--n-over-param"),
              ("--large-n --avg 5 --model fair --throw old --param large", "--param")]
    for model in ("johnson", "multiplicity"):
        cases += [(f"--large-n --avg 5 --model {model} --param 5 --throw old "
                   "--n-over-param small", "--n-over-param"),
                  (f"--n 2 --avg 5 --model {model} --param large --throw new "
                   "--n-over-param large", "--n-over-param")]
    # refused before anything is computed: these averages are contradictory
    cases += [("--n 1 --avg 3.5 --model fair --throw old --param 2", "--param"),
              ("--n 1 --avg 3.5 --model johnson --param 2 --throw old "
               "--n-over-param small", "--n-over-param")]
    return cases


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

    def test_base_is_used_or_refused_by_every_model(self, capsys):
        base = ["--m", "1,2,3,4,5,6"]
        # fair throwing from m: its new throw is m
        assert main(["eval", "--n", "3", "--avg", "5", "--model", "johnson",
                     "--param", "large", "--throw", "new", *base]) == 0
        assert "(4.8, 9.5, 14.3, 19.0, 23.8, 28.6)" in capsys.readouterr().out
        assert main(["eval", "--large-n", "--avg", "5", "--model", "maxent-burg", *base]) == 0
        assert "(1.8, 4.2, 7.8, 13.5, 23.8, 48.9)" in capsys.readouterr().out
        assert main(["eval", "--large-n", "--avg", "5", "--model", "maxent-shannon",
                     *base]) == 3
        assert "--model min-kl" in capsys.readouterr().err
        assert main(["eval", "--n", "3", "--avg", "5", "--model", "fair",
                     "--throw", "old", *base]) == 3
        assert "--param large" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv, flag", _refused_flag_cases())
    def test_flags_the_model_does_not_read_are_refused(self, capsys, argv, flag):
        assert main(["eval", *argv.split()]) == 3
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

    def test_n_from_a_config_with_large_n_is_refused(self, tmp_path, capsys):
        # the command line keeps --n and --large-n apart; a config file may not
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 2}))
        assert main(["eval", "--large-n", "--avg", "5", "--model", "fair",
                     "--throw", "old", "--config", str(path)]) == 3
        assert "--n and --large-n" in capsys.readouterr().err

    def test_readme_flag_table_is_the_one_the_cli_reads(self):
        models = cli.build_parser()._subparsers._group_actions[0].choices["eval"]
        choices, = [a.choices for a in models._actions if a.dest == "model"]
        table = readme_flag_table()
        assert sorted(table) == sorted(choices) == sorted(cli._MODELS)
        for model, (_, reads, requires) in cli._MODELS.items():
            assert table[model] == (set(reads), set(requires)), model

    @pytest.mark.parametrize("model", sorted(_ANSWERED))
    def test_each_required_flag_is_required(self, capsys, model):
        argv = ["eval", *shlex.split(_ANSWERED[model])]
        assert main(argv) == 0
        capsys.readouterr()
        for flag in cli._MODELS[model][2]:
            at = argv.index(flag)
            assert main(argv[:at] + argv[at + 2:]) == 3
            assert f"--model {model} requires {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
    def test_readme_examples_exit_zero(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

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

    def test_shannon_limits_without_a_base_are_the_me_row(self, capsys):
        # N >> L and L >> N, old throw, are Shannon's maximizer like the ME row,
        # to the last bit also at 7/2, where it is the uniform distribution
        for problem in ("large-a5", "large-a3.5"):
            assert main(["reproduce", "--only", problem, "--format", "json"]) == 0
            rows = json.loads(capsys.readouterr().out)[0]["rows"]
            me = rows[0]["old"]
            assert rows[0]["model"] == "me" and me == rows[0]["new"]
            limits = [(r["param"], throw, r[throw]) for r in rows
                      for throw in ("old", "new") if r["model"] == "multiplicity"
                      and r["param"].startswith("large")]
            assert len(limits) == 4
            for param, throw, cell in limits:
                if (param, throw) != ("large-ratio-small", "new"):
                    assert (cell["probs"], cell["entropy"]) == (me["probs"], me["entropy"])

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


class TestEvalAsksWhatReproduceAsks:
    @staticmethod
    def eval_argv(doc, row, throw):
        """The eval flags of one cell: the ME row is the max-ent model at large N,
        and a parameter large-ratio-small is --param large --n-over-param small."""
        regime = doc["problem"]["regime"]
        argv = ["eval", "--avg", doc["problem"]["avg"], "--format", "json"]
        if row["model"] == "me":
            return argv + ["--large-n", "--model", "maxent-shannon"]
        argv += ["--large-n"] if regime == "large-n" else ["--n", str(regime)]
        argv += ["--model", row["model"], "--throw", throw]
        if row["param"] is not None:
            param, _, ratio = row["param"].partition("-ratio-")
            argv += ["--param", param] + (["--n-over-param", ratio] if ratio else [])
        return argv

    def test_every_cell_is_the_same_double(self, capsys):
        assert main(["reproduce", "--format", "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        cells = 0
        for doc in docs:
            for row in doc["rows"]:
                for throw in ("old", "new"):
                    cell = row[throw]
                    if row["model"] == "all-exchangeable":
                        # undefined: no exchangeable model has data to condition on
                        assert cell is None
                        for model, param in (("fair", None), ("johnson", "1"),
                                             ("multiplicity", "1")):
                            argv = self.eval_argv(doc, {"model": model, "param": param}, throw)
                            assert main(argv) == 2
                        capsys.readouterr()
                        continue
                    argv = self.eval_argv(doc, row, throw)
                    assert main(argv) == 0, argv
                    got = json.loads(capsys.readouterr().out)
                    assert got["probs"] == cell["probs"], argv
                    assert got["entropy"] == cell["entropy"], argv
                    cells += 1
        assert cells == 296 - 2     # all cells but the undefined row's two

    def test_every_cell_has_the_same_method(self, capsys):
        # the cells printed as "uniform distribution irrespective of a" too:
        # at finite N a fair new throw is the closed form's
        assert main(["reproduce", "--format", "csv"]) == 0
        lines = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(lines) == 296
        methods = set()
        for line in lines:
            if line["method"] == "undefined":
                continue
            n, a = parse_problem_id(line["problem"])
            doc = {"problem": {"regime": "large-n" if n is None else n, "avg": str(a)}}
            argv = self.eval_argv(doc, {"model": line["model"], "param": line["param"] or None},
                                  line["throw"])
            argv[argv.index("json")] = "csv"
            assert main(argv) == 0, argv
            got = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            assert got[0]["method"] == line["method"], argv
            methods.add(line["method"])
        assert methods == {"analytic-limit", "closed-form", "deterministic-quad"}


class TestParserReuse:
    def test_one_parser_per_process(self, monkeypatch, capsys):
        # building the parser costs about half of a closed-form query
        build_parser, builds = cli.build_parser, []

        def counting_build_parser():
            builds.append(1)
            return build_parser()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        for argv in (["--n", "2", "--avg", "5", "--model", "fair", "--throw", "old"],
                     ["--n", "3", "--avg", "4", "--model", "johnson", "--param", "1",
                      "--throw", "new"],
                     ["--large-n", "--avg", "5", "--model", "maxent-burg"]):
            assert main(["eval", *argv, "--format", "json"]) == 0
        assert len(builds) == 1

    def test_reuse_leaks_no_state(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"format": "json"}))
        calls = [["reproduce", "--only", "n1-a6", "--config", str(config)],
                 ["reproduce", "--only", "n1-a6"],
                 ["eval", "--n", "2", "--avg", "5", "--model", "johnson", "--throw", "old"],
                 ["eval", "--n", "2", "--avg", "5", "--model", "fair", "--throw", "old"],
                 ["reproduce", "--only", "n1-a6"],
                 ["reproduce", "--only", "n1-a6"]]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        cli._parser.cache_clear()
        shared = [run(argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 3, 0, 0, 0]
        assert json.loads(shared[0][1])[0]["problem"]["avg"] == "6"
        for _, out, _ in (shared[1], shared[4], shared[5]):
            assert out.startswith("## n1-a6") and out.count("## ") == 1


class TestImport:
    # numpy costs about 0.1 s of imports: a fresh process loads it only for the
    # question that needs it, and nothing in the package loads scipy
    SUBMODULES = ["combinatorics", "core", "engine", "exact_models", "maxent",
                  "multiplicity_model", "reference", "simplex_integration"]
    EXPORTS = ["Average", "BudgetExhausted", "ContradictoryData", "DegenerateWeights",
               "Distribution", "Exact", "FairThrow", "Johnson", "LargeN", "MaxEnt",
               "MaxentSolution", "Multiplicity", "NEW", "OLD", "PosteriorResult", "Query",
               "ReferenceCell", "ReferenceRow", "ReferenceTable", "fair_posterior",
               "generalized_johnson_posterior", "generalized_multiplicity_posterior",
               "johnson_large_n", "johnson_posterior", "load_reference_tables",
               "maxent_burg", "maxent_shannon", "min_kl", "multiplicity_large_n",
               "multiplicity_posterior", "posterior", "sample_simplex_uniform",
               "shannon_entropy"]
    LOADED = ("print(sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('numpy', 'scipy') or m.startswith('dicebayes.')))")

    # every route: the closed forms (Johnson at N = 300 tilts its faces to the
    # saddle point first), the finite-N multiplicity lattice with and without a
    # base, the large-N slices, the maxent families and the parameter-large limits
    ROUTES = ["--n 12 --avg 5 --model fair --throw old",
              "--n 32 --avg 7/2 --model johnson --param 5 --throw old",
              "--n 300 --avg 5 --model johnson --param 50 --throw old",
              "--n 300 --avg 5 --model johnson --param 50 --m 1,2,3,4,5,6 --throw new",
              "--n 6 --avg 5 --model multiplicity --param 5 --throw old",
              "--n 6 --avg 5 --model multiplicity --param 5 --m 1,2,3,4,5,6 --throw new",
              "--large-n --avg 5 --model maxent-shannon",
              "--large-n --avg 5 --model maxent-burg",
              "--large-n --avg 5 --model min-kl --m 1,2,3,4,5,6",
              "--n 12 --avg 5 --model multiplicity --param large --throw old",
              "--n 12 --avg 5 --model johnson --param large --m 1,2,3,4,5,6 --throw old",
              "--large-n --avg 5 --model johnson --param 5 --throw old",
              "--large-n --avg 5 --model johnson --param 5 --m 1,2,3,4,5,6 --throw old",
              "--large-n --avg 5 --model multiplicity --param 5 --throw old",
              "--large-n --avg 5 --model multiplicity --param 5 --m 1,2,3,4,5,6 --throw old",
              "--large-n --avg 5 --model johnson --param large --n-over-param small "
              "--throw old",
              "--large-n --avg 5 --model johnson --param large --n-over-param large "
              "--throw old",
              "--large-n --avg 5 --model multiplicity --param large --n-over-param large "
              "--throw old",
              "--n 3 --avg 7/2 --model fair --throw old"]     # unrealizable: exit 2

    def test_import_loads_nothing(self):
        proc = run_python("-c", f"import sys, dicebayes; {self.LOADED}")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("code, printed", [
        ("from dicebayes.cli import main; print(main(['--help']))", "0"),
        ("from dicebayes.cli import main; print(main(['eval', '--avg', '5', '--model', 'fair']))",
         "3"),
        ("from dicebayes import load_reference_tables; print(len(load_reference_tables()))",
         "15"),
    ])
    def test_help_usage_errors_and_tables_load_no_numpy(self, code, printed):
        # the types, the parser and the tables need no numpy; only a computation does
        proc = run_python("-c", f"import sys; {code}; {self.LOADED}")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-2] == printed
        assert set(ast.literal_eval(proc.stdout.strip().splitlines()[-1])) <= \
            {"dicebayes.cli", "dicebayes.core", "dicebayes.reference"}

    def test_eval_loads_no_scipy(self):
        # each route in turn in one fresh process, then the Monte Carlo reference
        # (method="mc"), which no eval asks: the first that loads scipy is named
        code = ("import shlex, sys\n"
                "from dicebayes import Average, multiplicity_posterior\n"
                "from dicebayes.cli import main\n"
                "def loaded():\n"
                "    return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
                "for line in sys.argv[1:]:\n"
                "    code = main(['eval', *shlex.split(line), '--format', 'json'])\n"
                "    print(code, line, loaded(), file=sys.stderr)\n"
                "multiplicity_posterior(6, Average.parse('5'), 5.0, 'old', budget=1000)\n"
                "print(0, 'mc', loaded(), file=sys.stderr)\n")
        proc = run_python("-c", code, *self.ROUTES)
        assert proc.returncode == 0, proc.stderr
        results = [line.rsplit(" ", 1) for line in proc.stderr.splitlines()]
        assert [(head, loaded) for head, loaded in results if loaded != "False"] == []
        assert [head for head, _ in results] == \
            [f"0 {line}" for line in self.ROUTES[:-1]] + [f"2 {self.ROUTES[-1]}", "0 mc"]

    def test_closed_forms_load_no_multiplicity_model(self):
        proc = run_python("-c", f"import sys, dicebayes.exact_models; {self.LOADED}")
        assert proc.returncode == 0, proc.stderr
        assert "dicebayes.multiplicity_model" not in ast.literal_eval(proc.stdout.strip())

    def test_no_module_imports_scipy(self):
        # a static check, so that no later change brings the dependency back quietly
        found = []
        for path in sorted(Path(SRC, "dicebayes").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                found += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "scipy"]
        assert found == []

    def test_scipy_is_a_test_dependency_only(self):
        tomllib = pytest.importorskip("tomllib")        # Python 3.11 on
        project = tomllib.loads((Path(__file__).resolve().parents[1]
                                 / "pyproject.toml").read_text())["project"]

        def named(deps):
            return [re.split(r"[<>=!~ \[;]", dep, maxsplit=1)[0] for dep in deps]

        assert "scipy" not in named(project["dependencies"])
        assert "scipy" in named(project["optional-dependencies"]["test"])

    def test_namespace(self):
        assert sorted(dicebayes.__all__) == sorted(self.EXPORTS + self.SUBMODULES)
        assert set(dicebayes.__all__) <= set(dir(dicebayes))
        for name in self.EXPORTS:
            module = importlib.import_module(f"dicebayes.{dicebayes._EXPORTS[name]}")
            assert getattr(dicebayes, name) is vars(module)[name]
        for module in self.SUBMODULES:
            assert getattr(dicebayes, module) is importlib.import_module(f"dicebayes.{module}")
        with pytest.raises(AttributeError, match="nope"):
            dicebayes.nope
        namespace = {}
        exec("from dicebayes import *", namespace)
        assert set(dicebayes.__all__) <= set(namespace)


class TestMemoryError:
    def test_exits_3_and_names_the_routes(self, monkeypatch, capsys):
        # no real allocation: the count listing refuses as numpy does when it cannot
        def refuse(n, s):
            raise MemoryError(f"cannot list the face counts of {n} throws")

        monkeypatch.setattr(multiplicity_model, "_constrained_counts", refuse)
        assert main(["eval", "--n", "300", "--avg", "7/2", "--model", "multiplicity",
                     "--param", "5", "--throw", "old"]) == 3
        err = capsys.readouterr().err
        assert "--large-n" in err and "--param large" in err
        assert "Traceback" not in err
