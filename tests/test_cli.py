"""End-to-end CLI behavior: configs, file formats, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from simplexflow import cli, csvfloats
from simplexflow.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_ORACLE,
    ExperimentConfig,
    RunManifest,
    build_parser,
    load_config_file,
    main,
)
from simplexflow.simplex import SimplexPoint

README = Path(__file__).resolve().parents[1] / "README.md"
_RUN_CELL = cli._run_cell
_DEVIATION = cli._reparameterization_deviation


def _worker_dies_on_cell_one(payload):
    """A sweep cell runner whose worker process exits on cell 1; module level,
    so the process pool can pickle it."""
    if payload[0] == 1:
        os._exit(1)
    return _RUN_CELL(payload)


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, rows


def read_manifest(stem):
    return RunManifest.from_json(Path(f"{stem}.manifest.json").read_text())


def read_strict_json(path):
    """Parse JSON, rejecting the NaN / Infinity constants that strict parsers refuse."""

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant} in {path}")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestConfigFile:
    def test_file_then_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "exp.ini"
        cfg_file.write_text(
            "[run]\ndynamics = literal\nseed = 3\n"
            "[scores]\nvalues = 1.0, 0.0\n"
            "[temperature]\nvalue = 2.0\n"
            "[output]\npath = from_file\n"
        )
        cfg = load_config_file(str(cfg_file))
        assert cfg.dynamics == "literal"
        assert cfg.temperature == 2.0
        assert cfg.seed == 3
        assert cfg.output == "from_file"

    def test_scores_from_file(self, tmp_path):
        data = tmp_path / "scores.json"
        data.write_text("[1.0, 0.5, -2.0]")
        cfg_file = tmp_path / "exp.ini"
        cfg_file.write_text(f"[scores]\nfile = {data}\n")
        cfg = load_config_file(str(cfg_file))
        assert cfg.scores == (1.0, 0.5, -2.0)

    def test_missing_file_is_a_config_error(self, tmp_path):
        from simplexflow.exceptions import ConfigError

        cfg_file = tmp_path / "exp.ini"
        cfg_file.write_text("[scores]\nfile = does_not_exist.json\n")
        with pytest.raises(ConfigError):
            load_config_file(str(cfg_file))

    def test_hash_ignores_output_plumbing(self):
        a = ExperimentConfig(scores=(1.0, 0.0), temperature=1.0, output="x", jobs=1)
        b = ExperimentConfig(scores=(1.0, 0.0), temperature=1.0, output="y", jobs=4)
        c = ExperimentConfig(scores=(1.0, 0.5), temperature=1.0)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()

    @pytest.mark.parametrize(
        "text",
        [
            "[scores]\nvalues = 1, 0\n[integrator]\nhorizn = 0.5\n",
            "[scores]\nvalues = 1, 0\n[temprature]\nvalue = 9\n",
            "[scores]\nvalues = 1, 0\n[sweep]\ntask = simulate\ngird.temperature = 1, 2\n",
            "[scores]\nvalues = 1, 0\nfile = missing.json\n",
            "[scores]\nvalues = 1, 0\n[integrator]\nuniform_samples = ture\n",
        ],
        ids=[
            "mistyped-key",
            "mistyped-section",
            "mistyped-grid-key",
            "conflicting-keys",
            "mistyped-boolean",
        ],
    )
    def test_unknown_names_are_rejected(self, tmp_path, monkeypatch, text):
        from simplexflow.exceptions import ConfigError

        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "exp.ini"
        cfg_file.write_text(text)
        with pytest.raises(ConfigError):
            load_config_file(str(cfg_file))
        assert main(["simulate", "--config", str(cfg_file)]) == EXIT_CONFIG
        assert not Path("run.csv").exists()

    @pytest.mark.parametrize(
        "command, text, named",
        [
            ("sweep", "[scores]\nvalues = 1, 0\n[sweep]\ngrid.seed = 1.5, 1.7\n",
             "[sweep] grid.seed"),
            ("simulate", "[scores]\nvalues = 1, 0\n[output]\npath =\n", "[output] path"),
            ("sweep", "[scores]\nvalues = 1, 0\n[output]\npath = .\n", "[output] path"),
        ],
        ids=["fractional-grid-seed", "empty-output-path", "sweep-output-dir"],
    )
    def test_bad_values_are_exit_2_naming_the_key(
        self, tmp_path, monkeypatch, capsys, command, text, named
    ):
        monkeypatch.chdir(tmp_path)
        Path("exp.ini").write_text(text)
        assert main([command, "--config", "exp.ini"]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["exp.ini"]

    def test_an_empty_output_flag_is_not_given(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("exp.ini").write_text("[scores]\nvalues = 1, 0\n[output]\npath = from_file\n")
        assert main(["simulate", "--config", "exp.ini", "--output", ""]) == EXIT_OK
        assert Path("from_file.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-0.01", "nan"])
    def test_invalid_dt0_is_exit_2(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "exp.ini"
        cfg_file.write_text(f"[scores]\nvalues = 1, 0\n[integrator]\ndt0 = {value}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(cfg_file)]) == EXIT_CONFIG
        assert not caught
        assert "dt0 must be positive and finite" in capsys.readouterr().err
        assert not Path("run.csv").exists()
        assert main(["sweep", "--config", str(cfg_file), "--output", "grid"]) == EXIT_DIVERGED
        (cell,) = json.loads(Path("grid.json").read_text())["cells"]
        assert cell["status"] == "error" and "dt0" in cell["error"]

    @pytest.mark.parametrize(
        "setting", ["step_tol = -1", "step_tol = nan", "step_tol = inf", "step_tol = 0"]
    )
    def test_invalid_tolerances_are_exit_2(self, tmp_path, monkeypatch, capsys, setting):
        # a tolerance of -1 made the step factor complex, nan ended in a step
        # size underflow, and inf accepted 13 steps up to 20.48 long
        monkeypatch.chdir(tmp_path)
        Path("tol.ini").write_text(
            "[run]\nstart = 0.5, 0.3, 0.2\ndynamics = literal\n"
            "[scores]\nvalues = 0, 0, 0\n"
            "[field]\nkind = linear\ncoupling = 0,1,-1,-1,0,1,1,-1,0\n"
            f"[integrator]\nhorizon = 50\nsamples = 2\n{setting}\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", "tol.ini"]) == EXIT_CONFIG
        assert not caught
        assert "step_tol must be positive and finite" in capsys.readouterr().err
        assert not Path("run.csv").exists() and not Path("run.manifest.json").exists()
        assert main(["sweep", "--config", "tol.ini", "--output", "grid"]) == EXIT_DIVERGED
        (cell,) = json.loads(Path("grid.json").read_text())["cells"]
        assert cell["status"] == "error" and "tol" in cell["error"]

    @pytest.mark.parametrize("key", ["rel_tol", "abs_tol"])
    def test_the_two_old_tolerance_keys_are_unknown(self, tmp_path, monkeypatch, capsys, key):
        # both were read as one sum; one alone would move the bound silently
        monkeypatch.chdir(tmp_path)
        Path("tol.ini").write_text(f"[scores]\nvalues = 1, 0\n[integrator]\n{key} = 1e-10\n")
        assert main(["simulate", "--config", "tol.ini"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"[integrator] unknown key {key!r}" in err
        known = err.partition("(known: ")[2].rstrip(")\n").split(", ")
        assert "step_tol" in known
        assert not Path("run.csv").exists()

    @pytest.mark.parametrize("samples", ["-3", "0", "1"])
    def test_fewer_than_two_samples_is_exit_2(self, tmp_path, monkeypatch, capsys, samples):
        # these were raised to 2 without a word, and the run wrote 2 rows
        monkeypatch.chdir(tmp_path)
        Path("few.ini").write_text(f"[scores]\nvalues = 1, 0\n[integrator]\nsamples = {samples}\n")
        assert main(["simulate", "--config", "few.ini"]) == EXIT_CONFIG
        assert "samples must be at least 2" in capsys.readouterr().err
        assert not Path("run.csv").exists() and not Path("run.manifest.json").exists()

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["simulate", "--config", "r.ini", "--seed", "-3"], "[run] seed"),
            (["prox-iterate", "--config", "r.ini", "--seed", "-3"], "--seed"),
            (["simulate", "--config", "neg.ini"], "[run] seed"),
            (["sweep", "--config", "grid.ini"], "[sweep] grid.seed"),
            (["verify", "--seed", "-1"], "--seed"),
        ],
        ids=["simulate-flag", "prox-iterate-flag", "ini", "sweep-grid", "verify"],
    )
    def test_a_negative_seed_is_exit_2_before_any_file(
        self, tmp_path, monkeypatch, capsys, argv, names
    ):
        monkeypatch.chdir(tmp_path)
        Path("r.ini").write_text("[run]\nstart = random\n[scores]\nvalues = 1, 0, -0.5\n")
        Path("neg.ini").write_text(
            "[run]\nstart = random\nseed = -3\n[scores]\nvalues = 1, 0, -0.5\n"
        )
        Path("grid.ini").write_text(
            "[run]\nstart = random\n[scores]\nvalues = 1, 0, -0.5\n"
            "[sweep]\ntask = simulate\ngrid.seed = 1, -1\n"
        )
        before = set(os.listdir())
        assert main([*argv, "--output", "out"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert names in err and "nonnegative" in err
        assert set(os.listdir()) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--step", "printed-mw"],
            ["simulate", "--steps", "3"],
            ["simulate", "--jobs", "2"],
            ["prox-iterate", "--dynamics", "literal"],
            ["prox-iterate", "--horizon", "5"],
            ["prox-iterate", "--jobs", "2"],
            ["sweep", "--format", "csv"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[1]}",
    )
    def test_flags_a_subcommand_ignores_are_usage_errors(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scores", "1,0", "--temperature", "1"])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_both_temperature_and_schedule_rejected(self):
        cfg = ExperimentConfig(scores=(1.0, 0.0), temperature=1.0, schedule="constant:2")
        from simplexflow.exceptions import ConfigError

        with pytest.raises(ConfigError):
            cfg.validate()

    LINEAR = "[scores]\nvalues = 0, 0, 0\n[field]\nkind = linear\ncoupling = 0,1,-1,-1,0,1,1,-1,0\n"
    ROTATION = "[run]\nstart = 0.5, 0.3, 0.2\n" + LINEAR

    @pytest.mark.parametrize(
        "argv, text, named",
        [
            (["simulate"], "[run]\ntask = prox-iterate\n[scores]\nvalues = 1, 0\n",
             ["[run] task", "simulate"]),
            (["simulate"], "[scores]\nvalues = 1, 0\n[mirror]\nsteps = 3\n",
             ["[mirror] steps", "task simulate"]),
            (["prox-iterate"], "[scores]\nvalues = 1, 0\n[integrator]\nhorizon = 5\n",
             ["[integrator] horizon", "task prox-iterate"]),
            (["prox-iterate"], LINEAR, ["[field] kind", "task prox-iterate"]),
            (["sweep"],
             "[scores]\nvalues = 1, 0\n[sweep]\ntask = prox-iterate\ngrid.horizon = 1, 5, 50\n",
             ["grid.horizon", "task prox-iterate"]),
            (["sweep", "--scores", "1,0", "--temperature", "1", "--step", "printed-mw"], None,
             ["--step", "task simulate"]),
            (["sweep"], LINEAR + "[run]\ndynamics = literal\n[sweep]\ntask = reparameterization\n",
             ["[field] kind", "task reparameterization"]),
            (["sweep"],
             "[run]\ndynamics = literal\n[scores]\nvalues = 1, 0\n[integrator]\ndt0 = 0.02\n"
             "[sweep]\ntask = reparameterization\n",
             ["[integrator] dt0", "task reparameterization"]),
            (["sweep", "--tol", "1e-9"],
             "[scores]\nvalues = 1, 0\n[sweep]\ntask = reparameterization\n",
             ["--tol", "task reparameterization"]),
            (["sweep"], LINEAR + "[integrator]\nconvergence_kl = 1e-3\n[sweep]\ntask = recurrence\n",
             ["[integrator] convergence_kl", "task recurrence"]),
            (["sweep"], LINEAR + "[sweep]\ntask = recurrence\ngrid.eta = 0.1, 1\n",
             ["grid.eta", "task recurrence"]),
            (["sweep"], "[scores]\nvalues = 1, 0\n[output]\nformat = json\n",
             ["[output] format", "task simulate"]),
            # without its kind, the README rotation file would run fixed
            # scores, drop its coupling and stop "converged" after 1 sample
            (["simulate", "--dynamics", "literal", "--horizon", "50"],
             ROTATION.replace("kind = linear\n", ""),
             ["[field] coupling", "task simulate on a constant field"]),
            (["simulate"], "[scores]\nvalues = 1, 0\n[integrator]\nstep_tol = 1e-9\n",
             ["[integrator] step_tol", "task simulate on a constant field"]),
            (["simulate", "--dynamics", "literal", "--horizon", "50", "--tol", "1e-3"], ROTATION,
             ["--tol", "task simulate on a linear field"]),
            (["simulate"], LINEAR + "[integrator]\nconvergence_kl = 1e-3\n",
             ["[integrator] convergence_kl", "task simulate on a linear field"]),
            (["sweep"], "[scores]\nvalues = 1, 0\n[sweep]\ngrid.beta = 1, 2\n",
             ["grid.beta", "a sweep of task simulate on a constant field"]),
            (["sweep"], "[scores]\nvalues = 1, 0\n[sweep]\ntask = reparameterization\n",
             ["[run] dynamics = entropic", "task reparameterization on a constant field",
              "needs literal dynamics"]),
            (["sweep"], "[scores]\nvalues = 0, 0, 0\n[sweep]\ntask = recurrence\n",
             ["[field] kind = constant", "task recurrence needs a linear field"]),
            (["sweep"], LINEAR.replace("kind = linear", "kind = constant")
             + "[sweep]\ntask = recurrence\n",
             ["[field] kind = constant", "task recurrence needs a linear field"]),
        ],
        ids=[
            "simulate-other-task",
            "simulate-mirror-steps",
            "prox-iterate-horizon",
            "prox-iterate-linear-field",
            "prox-iterate-sweep-horizon-grid",
            "simulate-sweep-step-flag",
            "reparameterization-linear-field",
            "reparameterization-dt0",
            "reparameterization-tol-flag",
            "recurrence-convergence-kl",
            "recurrence-eta-grid",
            "sweep-format",
            "simulate-coupling-of-a-constant-field",
            "simulate-step-tol-of-a-constant-field",
            "simulate-tol-flag-of-a-linear-field",
            "simulate-convergence-kl-of-a-linear-field",
            "simulate-beta-grid-of-a-constant-field",
            "reparameterization-entropic",
            "recurrence-constant-field",
            "recurrence-constant-field-with-a-coupling",
        ],
    )
    def test_settings_the_task_does_not_read_are_rejected(
        self, tmp_path, monkeypatch, capsys, argv, text, named
    ):
        monkeypatch.chdir(tmp_path)
        if text is not None:
            Path("exp.ini").write_text(text)
            argv = argv + ["--config", "exp.ini"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(name in err for name in named), err
        assert [path.name for path in tmp_path.iterdir()] == (["exp.ini"] if text else [])

    def test_restated_defaults_and_the_sweep_section_are_accepted(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("exp.ini").write_text(
            "[run]\ntask = prox-iterate\n[scores]\nvalues = 1, 0\n"
            "[integrator]\nhorizon = 1000\n[output]\nformat = csv\n"
            "[sweep]\ntask = recurrence\njobs = 2\ngrid.beta = 1, 2\n"
        )
        assert main(["prox-iterate", "--config", "exp.ini", "--output", "prox"]) == EXIT_OK
        assert Path("prox.csv").exists()

    def test_hash_names_the_task_and_the_tolerance_it_reads(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["--scores", "1,0", "--tol", "1e-9"]
        assert main(["simulate", *argv, "--output", "flow"]) == EXIT_OK
        assert main(["prox-iterate", *argv, "--output", "prox"]) == EXIT_OK
        flow = ExperimentConfig(scores=(1.0, 0.0), convergence_kl=1e-9)
        prox = ExperimentConfig(task="prox-iterate", scores=(1.0, 0.0), kl_tol=1e-9)
        assert read_manifest("flow").config_hash == flow.hash()
        assert read_manifest("prox").config_hash == prox.hash()
        assert flow.hash() != prox.hash()

    def test_hash_digests_are_pinned(self):
        # digests of the asdict payload, which the fields payload must equal
        assert ExperimentConfig().hash() == "315ad7635fccd4ec"
        wide = ExperimentConfig(
            task="prox-iterate",
            seed=5,
            start="random",
            scores=tuple(i / 1000 - 5.0 for i in range(10_000)),
            temperature=0.5,
            grid={"seed": [1, 2]},
        )
        assert wide.hash() == "cdd81b9e83acd5f3"

    def test_readme_config_block_runs_its_sweep(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
        Path("experiment.ini").write_text(block)
        assert main(["sweep", "--config", "experiment.ini"]) == EXIT_OK
        assert len(read_strict_json("run.json")["cells"]) == 3
        assert main(["simulate", "--config", "experiment.ini"]) == EXIT_OK

    def test_readme_config_block_names_every_ini_key(self):
        # a key counts where the block sets it and where a comment shows it
        # set ("; schedule = ...", "; or: file = ...")
        (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
        documented, section = set(), None
        for line in block.splitlines():
            header = re.fullmatch(r"\[(\w+)\]", line)
            if header:
                section = header.group(1)
            for key in re.findall(r"(?:^;?\s*|or: )([a-z][a-z0-9_.]*) = ", line):
                documented.add(f"{section}.{key}")
        assert documented == cli._INI_KEYS

    def test_readme_flag_table_matches_the_parser(self):
        rows = re.findall(r"^\| `([a-z-]+)` \| `([^`]*)`", README.read_text(), re.M)
        documented = {command: set(flags.split()) for command, flags in rows}
        subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
        registered = {
            command: {flag for action in sub._actions for flag in action.option_strings}
            - {"-h", "--help"}
            for command, sub in subparsers.items()
        }
        assert documented == registered


class TestInputs:
    """Inputs that only a run reads: score files, starts, faces, and the
    checks across settings.  An input error is exit 2, names what is wrong
    and writes no file."""

    @pytest.mark.parametrize("text", ["1.5 -2 0.25\n", "1.5\n-2\n0.25\n"], ids=["spaces", "lines"])
    def test_a_score_file_of_plain_numbers(self, tmp_path, monkeypatch, text):
        # the format of the benchmark's wide-vocabulary score files
        monkeypatch.chdir(tmp_path)
        Path("scores.txt").write_text(text)
        Path("exp.ini").write_text("[scores]\nfile = scores.txt\n")
        assert load_config_file("exp.ini").scores == (1.5, -2.0, 0.25)
        assert main(["simulate", "--config", "exp.ini", "--output", "file"]) == EXIT_OK
        # --scores reads a file when its text is not a list of numbers
        assert main(["simulate", "--scores", "scores.txt", "--output", "flag"]) == EXIT_OK
        assert Path("file.csv").read_bytes() == Path("flag.csv").read_bytes()

    def test_a_random_start_is_drawn_from_the_seed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("exp.ini").write_text("[run]\nstart = random\n[scores]\nvalues = 1, 0, -0.5\n")
        for stem, seed in (("a", "3"), ("b", "3"), ("c", "4")):
            argv = ["simulate", "--config", "exp.ini", "--seed", seed, "--output", stem]
            assert main(argv) == EXIT_OK
        a, b, c = (Path(f"{stem}.csv").read_bytes() for stem in "abc")
        assert a == b and a != c
        header, rows = read_csv("a.csv")
        start = [rows[0][header.index(f"p_{i}")] for i in (1, 2, 3)]
        drawn = np.random.default_rng(3).dirichlet(np.ones(3))
        assert np.max(np.abs(np.array(start) - drawn)) <= 1e-15

    @pytest.mark.parametrize(
        "argv, files, named",
        [
            (["simulate", "--scores", "scores.txt"], {"scores.txt": "1.0 two 3.0\n"},
             "cannot parse numbers from scores.txt"),
            (["simulate", "--config", "exp.ini"],
             {"exp.ini": "[scores]\nfile = scores.json\n", "scores.json": "[1.0, 2.0\n"},
             "cannot parse numbers from scores.json"),
            (["simulate", "--config", "missing.ini"], {}, "config file not found: missing.ini"),
            (["simulate", "--config", "exp.ini"],
             {"exp.ini": "[scores]\nvalues = 1, 0\n[run]\ndynamics = euler\n"},
             "[run] dynamics must be one of literal | entropic, got 'euler'"),
            (["simulate", "--scores", "1,nan"], {}, "[scores] scores must be finite"),
            (["simulate", "--scores", "1,0", "--face", "top2"], {}, "[face] unknown spec 'top2'"),
            (["simulate", "--config", "exp.ini"],
             {"exp.ini": "[run]\nstart = middle\n[scores]\nvalues = 1, 0, -0.5\n"},
             "[run] start must be uniform|random|numbers, got 'middle'"),
            (["simulate", "--config", "exp.ini"],
             {"exp.ini": "[run]\nstart = 0.5, 0.5\n[scores]\nvalues = 1, 0, -0.5\n"},
             "[run] start has 2 entries, expected 3"),
            (["simulate", "--config", "exp.ini"],
             {"exp.ini": "[run]\nstart = 0.5, 0.6, 0.2\n[scores]\nvalues = 1, 0, -0.5\n"},
             "[run] start is not a simplex point"),
            (["simulate", "--config", "exp.ini"],
             {"exp.ini": "[scores]\nvalues = 1, 0\n[field]\nkind = linear\n"},
             "[field] linear kind needs a row-major coupling with 4 entries"),
            (["simulate", "--config", "exp.ini"],
             {"exp.ini": "[scores]\nvalues = 1, 0\n[field]\nkind = linear\ncoupling = 0, 1, 1\n"},
             "[field] linear kind needs a row-major coupling with 4 entries"),
            (["prox-iterate", "--scores", "1,0", "--steps=-1"], {},
             "[mirror] steps must be nonnegative"),
            (["sweep", "--scores", "1,0", "--jobs", "0"], {}, "[sweep] jobs must be at least 1"),
            (["prox-iterate", "--scores", "1,0", "--schedule", "piecewise:0:1,1:2"], {},
             "[temperature] prox-iterate needs a constant temperature"),
            # without a grid.temperature every cell would run the schedule
            (["sweep", "--config", "exp.ini"],
             {"exp.ini": "[scores]\nvalues = 1, 0\n[temperature]\nschedule = exponential:1:0.3\n"
                         "[sweep]\ntask = prox-iterate\ngrid.eta = 0.1, 1\n"},
             "[temperature] prox-iterate needs a constant temperature"),
            (["simulate", "--scores", "1,two"], {},
             "--scores '1,two' is neither numbers nor a file: "
             "could not convert string to float: 'two'"),
            # inf ended these two as converged, at t = 0 and after one step
            (["simulate", "--scores", "1,0,-2", "--tol", "inf"], {},
             "[integrator] convergence_kl (--tol) must be finite and nonnegative, got inf"),
            (["prox-iterate", "--scores", "1,0,-2", "--tol", "inf"], {},
             "[mirror] kl_tol (--tol) must be finite and nonnegative, got inf"),
            # these ran every step or sample
            (["prox-iterate", "--scores", "1,0", "--tol", "nan"], {},
             "[mirror] kl_tol (--tol) must be finite and nonnegative, got nan"),
            (["prox-iterate", "--config", "exp.ini"],
             {"exp.ini": "[scores]\nvalues = 1, 0\n[mirror]\nkl_tol = -inf\n"},
             "[mirror] kl_tol (--tol) must be finite and nonnegative, got -inf"),
            (["simulate", "--config", "exp.ini"],
             {"exp.ini": "[scores]\nvalues = 1, 0\n[integrator]\nconvergence_kl = nan\n"},
             "[integrator] convergence_kl (--tol) must be finite and nonnegative, got nan"),
            (["simulate", "--scores", "1,0", "--tol=-1"], {},
             "[integrator] convergence_kl (--tol) must be finite and nonnegative, got -1.0"),
        ],
        ids=[
            "unparseable-score-file-flag",
            "unparseable-score-file-ini",
            "missing-config-file",
            "ini-value-outside-its-choices",
            "non-finite-score",
            "unknown-face-spec",
            "start-word",
            "start-entries",
            "start-off-the-simplex",
            "linear-field-without-a-coupling",
            "linear-field-coupling-entries",
            "negative-steps",
            "no-sweep-jobs",
            "prox-iterate-schedule",
            "prox-iterate-sweep-schedule",
            "unparseable-scores-flag",
            "simulate-tol-inf",
            "prox-iterate-tol-inf",
            "prox-iterate-tol-nan",
            "kl-tol-minus-inf",
            "convergence-kl-nan",
            "simulate-tol-negative",
        ],
    )
    def test_input_errors_are_exit_2_before_any_file(
        self, tmp_path, monkeypatch, capsys, argv, files, named
    ):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            Path(name).write_text(text)
        assert main(argv) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert sorted(os.listdir()) == sorted(files)


class TestSimulate:
    def test_entropic_two_point_converges(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["simulate", "--scores", "1,0", "--temperature", "1", "--dynamics", "entropic",
             "--output", "run"]
        )
        assert code == EXIT_OK
        header, rows = read_csv("run.csv")
        assert header == ["t", "p_1", "p_2", "free_energy", "kl_to_target", "field_norm"]
        assert rows[-1][header.index("kl_to_target")] < 1e-8
        manifest = read_manifest("run")
        assert manifest.terminal_status == "converged"
        assert manifest.tool_version

    def test_literal_constant_scores_never_move(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["simulate", "--scores", "2,2,2", "--temperature", "1", "--dynamics", "literal",
             "--horizon", "5", "--output", "flat"]
        )
        assert code == EXIT_OK
        _, rows = read_csv("flat.csv")
        for row in rows:
            assert row[1:4] == rows[0][1:4]

    @pytest.mark.parametrize("breakpoint", ["nan", "inf"])
    def test_a_breakpoint_that_is_not_finite_is_exit_2(self, tmp_path, monkeypatch, capsys,
                                                       breakpoint):
        # NaN ran the whole horizon at the second piece's T = 2, from t = 0
        monkeypatch.chdir(tmp_path)
        code = main(["simulate", "--scores", "1,0", "--schedule", f"piecewise:0:1,{breakpoint}:2",
                     "--output", "o"])
        assert code == EXIT_CONFIG
        assert "breakpoints must be finite" in capsys.readouterr().err
        assert not Path("o.csv").exists() and not Path("o.manifest.json").exists()

    def test_topk_face_zeroes_off_face_columns(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["simulate", "--scores", "3,2,1,0", "--temperature", "1", "--dynamics", "literal",
             "--face", "topk:2", "--output", "face"]
        )
        assert code == EXIT_OK
        header, rows = read_csv("face.csv")
        for row in rows:
            assert row[header.index("p_3")] == 0.0
            assert row[header.index("p_4")] == 0.0

    def test_json_format(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["simulate", "--scores", "1,0", "--temperature", "1", "--format", "json",
             "--output", "run"]
        )
        assert code == EXIT_OK
        payload = json.loads(Path("run.json").read_text())
        assert payload["columns"][0] == "t"
        assert payload["rows"]

    def test_identical_config_gives_identical_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--scores", "1,0,-1", "--temperature", "0.7",
                "--dynamics", "entropic", "--seed", "5"]
        main(argv + ["--output", "a"])
        main(argv + ["--output", "b"])
        assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()
        assert read_manifest("a").config_hash == read_manifest("b").config_hash

    def test_missing_scores_is_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--temperature", "1"]) == EXIT_CONFIG

    def test_bad_face_index_is_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["simulate", "--scores", "1,0", "--temperature", "1",
                     "--face", "indices:1,5", "--output", "x"])
        assert code == EXIT_CONFIG

    def test_face_specs_by_index_and_by_nucleus_mass(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--scores", "3,2,1,0", "--temperature", "1"]
        assert main(argv + ["--face", "indices:1,3", "--output", "idx"]) == EXIT_OK
        header, rows = read_csv("idx.csv")
        on, off = ([header.index(f"p_{i}") for i in pair] for pair in ((1, 3), (2, 4)))
        assert all(row[i] > 0.0 for row in rows for i in on)
        assert all(row[i] == 0.0 for row in rows for i in off)
        # softmax at T = 1 is about (0.64, 0.24, 0.09, 0.03): 0.9 of the mass takes three
        assert main(argv + ["--face", "nucleus:0.9", "--output", "nucleus"]) == EXIT_OK
        header, rows = read_csv("nucleus.csv")
        assert all(row[header.index("p_4")] == 0.0 and row[header.index("p_3")] > 0.0
                   for row in rows)
        capsys.readouterr()
        assert main(argv + ["--face", "indices:0,2", "--output", "bad"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("[face]") == 1 and "indices must lie in [1, 4]" in err

    def test_linear_field_outputs_are_strict_json(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "lin.ini"
        cfg.write_text(
            "[run]\nstart = 0.5, 0.3, 0.2\n"
            "[scores]\nvalues = 1.0, 0.0, -0.5\n"
            "[field]\nkind = linear\ncoupling = 0,1,-1,-1,0,1,1,-1,0\n"
            "[integrator]\nhorizon = 5\n"
            "[sweep]\ntask = simulate\ngrid.beta = 0.5, 1\n"
        )
        assert main(["simulate", "--config", str(cfg), "--output", "lin"]) == EXIT_OK
        # a linear field has no closed-form target, so its KL is null, not NaN
        assert read_strict_json("lin.manifest.json")["metrics"]["terminal_kl"] is None
        assert main(
            ["simulate", "--config", str(cfg), "--output", "linj", "--format", "json"]
        ) == EXIT_OK
        table = read_strict_json("linj.json")
        kl = table["columns"].index("kl_to_target")
        assert [row[kl] for row in table["rows"]] == [None] * len(table["rows"])
        assert main(["sweep", "--config", str(cfg), "--output", "grid"]) == EXIT_OK
        cells = read_strict_json("grid.json")["cells"]
        assert [c["metrics"]["terminal_kl"] for c in cells] == [None, None]
        read_strict_json("grid.manifest.json")

    @pytest.mark.parametrize(
        "argv",
        [
            ["prox-iterate", "--scores", "1e308,-1e308", "--temperature", "1"],
            ["simulate", "--scores", "1,0", "--temperature", "1e-320"],
        ],
        ids=["prox-iterate-huge-scores", "simulate-tiny-temperature"],
    )
    def test_score_spread_overflow_is_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--output", "wide"]) == EXIT_CONFIG
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "score spread" in capsys.readouterr().err
        assert not Path("wide.manifest.json").exists()

    @pytest.mark.parametrize(
        "ini",
        [
            "[scores]\nvalues = 1, 0, 0.5\n[temperature]\nvalue = 1e-300\n"
            "[field]\nkind = linear\ncoupling = 1e300,1,-1,-1,0,1,1,-1,1e300\n",
            # 2 (1e300 + 1) / T is finite, but a stage sum of slopes is not
            "[scores]\nvalues = 1e300, 0\n[temperature]\nvalue = 1.2e-8\n"
            "[field]\nkind = linear\ncoupling = 0,1,1,0\n",
        ],
        ids=["scores-over-t", "stage-sums"],
    )
    def test_linear_field_overflow_is_exit_2(self, tmp_path, monkeypatch, capsys, ini):
        monkeypatch.chdir(tmp_path)
        Path("big.ini").write_text(ini)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", "big.ini", "--output", "big"]) == EXIT_CONFIG
        assert not caught
        assert "overflow at T(0)" in capsys.readouterr().err
        assert not Path("big.csv").exists() and not Path("big.manifest.json").exists()

    def test_linear_field_overflow_after_a_temperature_drop_is_exit_2(
        self, tmp_path, monkeypatch, capsys
    ):
        # T(0) = 1 passes; the check takes the run's smallest T, here from t = 0.5
        monkeypatch.chdir(tmp_path)
        Path("cold.ini").write_text(
            "[run]\ndynamics = literal\n[scores]\nvalues = 1, 0, 0.5\n"
            "[temperature]\nschedule = piecewise:0:1,0.5:1e-300\n[integrator]\nhorizon = 2\n"
            "[field]\nkind = linear\ncoupling = 1e10,1,-1,-1,0,1,1,-1,1e10\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", "cold.ini", "--output", "cold"]) == EXIT_CONFIG
        assert not caught
        assert "overflow at T(0.5) = 1e-300" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cold.ini"]

    def test_temperature_overflow_is_exit_3(self, tmp_path, monkeypatch, capsys):
        # T = e^{1000 t} is inf from t = 0.7098 on: the run ends DIVERGED at
        # its first sample there, keeping the samples before it
        monkeypatch.chdir(tmp_path)
        code = main(
            ["simulate", "--scores", "1,0", "--schedule", "exponential:1:1000", "--output", "hot"]
        )
        assert code == EXIT_DIVERGED
        assert "diverged: T log V overflows at t=0.739072" in capsys.readouterr().err
        manifest = json.loads(Path("hot.manifest.json").read_text())
        assert manifest["terminal_status"] == "diverged"
        assert manifest["metrics"]["samples"] == 75

    def test_linear_field_clamp_is_exit_3_with_finite_rows(self, tmp_path, monkeypatch, capsys):
        # a self-reinforcing coupling at T = 1e-3 drives two coordinates below
        # the adaptive driver's log-probability clamp
        monkeypatch.chdir(tmp_path)
        Path("clamp.ini").write_text(
            "[scores]\nvalues = 1, 0, 0.5\n"
            "[field]\nkind = linear\ncoupling = 1,0,0,0,1,0,0,0,1\n"
            "[temperature]\nvalue = 1e-3\n[integrator]\nhorizon = 10\n"
        )
        assert main(["simulate", "--config", "clamp.ini", "--output", "clamp"]) == EXIT_DIVERGED
        assert "diverged: log-probability clamp hit near the boundary" in capsys.readouterr().err
        manifest = read_manifest("clamp")
        assert manifest.terminal_status == "diverged"
        assert 0.4 < manifest.metrics["terminal_t"] < 0.5
        assert manifest.telemetry["accepted_steps"] == manifest.metrics["samples"] - 1
        header, rows = read_csv("clamp.csv")
        probs = [header.index(f"p_{i}") for i in (1, 2, 3)]
        assert all(math.isfinite(row[i]) and row[i] >= 0.0 for row in rows for i in probs)
        assert rows[-1][probs[0]] == 1.0 and 0.0 < rows[-1][probs[1]] <= 1e-299

    def test_diverged_run_is_exit_3_with_manifest(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["simulate", "--scores", "0,1600", "--temperature", "1", "--dynamics", "entropic",
             "--tol", "0", "--horizon", "10", "--output", "boom"]
        )
        assert code == EXIT_DIVERGED
        assert read_manifest("boom").terminal_status == "diverged"


class TestProxIterate:
    def test_exact_prox_slack_is_never_negative(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["prox-iterate", "--scores", "1,0,-0.5", "--temperature", "1",
             "--step", "exact-prox", "--output", "prox"]
        )
        assert code == EXIT_OK
        header, rows = read_csv("prox.csv")
        slack = header.index("ascent_slack")
        assert all(row[slack] >= -1e-10 for row in rows)
        assert rows[-1][header.index("kl_to_softmax")] < 1e-8

    def test_printed_mw_from_softmax_loses_free_energy_on_step_one(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        pi = math.exp(1.0) / (1.0 + math.exp(1.0))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            f"[run]\nstep = printed-mw\nstart = {pi!r}, {1.0 - pi!r}\n"
            "[scores]\nvalues = 1, 0\n[temperature]\nvalue = 1\n"
            "[mirror]\nsteps = 1\n[output]\npath = mw\n"
        )
        code = main(["prox-iterate", "--config", str(cfg)])
        assert code == EXIT_OK
        manifest = read_manifest("mw")
        assert manifest.metrics["free_energy_gain"] < 0.0
        assert manifest.metrics["min_ascent_slack"] < 0.0

    def test_zero_steps_gives_header_only_table(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["prox-iterate", "--scores", "1,0", "--temperature", "1", "--steps", "0",
             "--output", "empty"]
        )
        assert code == EXIT_OK
        text = Path("empty.csv").read_text().strip().splitlines()
        assert len(text) == 1
        assert text[0].startswith("step,")
        assert read_manifest("empty").terminal_status == "max-time"

    def test_weight_overflow_is_exit_3_without_nan_rows(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["prox-iterate", "--scores", "1,0", "--temperature", "1e-306",
                 "--step", "printed-mw", "--tol", "0", "--steps", "400", "--output", "tiny"]
            )
        assert code == EXIT_DIVERGED
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert read_manifest("tiny").terminal_status == "diverged"
        _, rows = read_csv("tiny.csv")
        assert 0 < len(rows) < 400
        assert f"at step {len(rows) + 1}" in capsys.readouterr().err
        assert all(math.isfinite(value) for row in rows for value in row)

    def test_scores_that_overflow_over_the_temperature_keep_a_finite_kl(
        self, tmp_path, monkeypatch
    ):
        # s / T overflows though the spread is 0, so softmax needs the shift
        monkeypatch.chdir(tmp_path)
        code = main(["prox-iterate", "--scores=1e259,1e259,1e259", "--temperature", "1e-281",
                     "--output", "huge"])
        assert code == EXIT_OK
        header, rows = read_csv("huge.csv")
        assert [row[header.index("kl_to_softmax")] for row in rows] == [0.0]
        manifest = read_strict_json("huge.manifest.json")
        assert manifest["terminal_status"] == "converged"
        assert manifest["metrics"]["terminal_kl_to_softmax"] == 0.0

    def test_stalled_exact_prox_is_exit_3(self, tmp_path, monkeypatch, capsys):
        # at eta T = 5e-301 each step moves log p by 5e-301 of the distance
        # left: the per-step move vanishes while KL to softmax is 5e288
        monkeypatch.chdir(tmp_path)
        code = main(["prox-iterate", "--scores", "1,0", "--temperature", "1e-300",
                     "--output", "stall"])
        assert code == EXIT_DIVERGED
        manifest = read_manifest("stall")
        assert manifest.terminal_status == "stalled"
        assert manifest.metrics["terminal_kl_to_softmax"] > 1e288
        assert "stalled: per-step KL move below 1e-12" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scores", "1,0"],
        ["prox-iterate", "--scores", "1,0"],
        ["sweep", "--scores", "1,0"],
        ["verify"],
    ],
)
def test_output_in_a_missing_directory_is_exit_2_before_any_work(
    tmp_path, monkeypatch, capsys, argv
):
    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("_simulate_record", "_iterate_record", "_run_cell"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli.oracles, "run_adjudication", refuse)
    code = main(argv + ["--output", str(tmp_path / "missing" / "run")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--output" in err and "does not exist" in err
    assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_reparameterization_grid(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[run]\ndynamics = literal\nstart = 0.5, 0.3, 0.2\n"
            "[scores]\nvalues = 1.0, 0.0, -0.5\n"
            "[integrator]\nhorizon = 5\nsamples = 40\n"
            "[sweep]\ntask = reparameterization\ngrid.temperature = 0.5, 1, 2\n"
            "[output]\npath = sweep\n"
        )
        code = main(["sweep", "--config", str(cfg)])
        assert code == EXIT_OK
        payload = json.loads(Path("sweep.json").read_text())
        assert len(payload["cells"]) == 3
        for cell in payload["cells"]:
            assert cell["metrics"]["deviation"] < 1e-7

    def test_reparameterization_samples_set_the_checkpoints(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        seen = []

        def deviation(*args, **kwargs):
            seen.append(kwargs["n_checkpoints"])
            return _DEVIATION(*args, **kwargs)

        monkeypatch.setattr(cli, "_reparameterization_deviation", deviation)
        Path("sweep.ini").write_text(
            "[run]\ndynamics = literal\n[scores]\nvalues = 1.0, 0.0, -0.5\n"
            "[temperature]\nschedule = piecewise:0:1,0.5:2\n[integrator]\nhorizon = 2\n"
            "samples = 7\n[sweep]\ntask = reparameterization\ngrid.seed = 1, 2\n"
        )
        assert main(["sweep", "--config", "sweep.ini", "--output", "rep"]) == EXIT_OK
        assert seen == [7, 7]

    def test_singleton_grid_matches_simulate(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[run]\ndynamics = entropic\n"
            "[scores]\nvalues = 1.0, 0.0\n"
            "[sweep]\ntask = simulate\ngrid.temperature = 1.0\n"
            "[output]\npath = single\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        cell = json.loads(Path("single.json").read_text())["cells"][0]
        assert main(
            ["simulate", "--scores", "1,0", "--temperature", "1", "--output", "direct"]
        ) == EXIT_OK
        direct = read_manifest("direct")
        assert cell["metrics"]["terminal_kl"] == direct.metrics["terminal_kl"]
        assert cell["metrics"]["accepted_steps"] == direct.metrics["accepted_steps"]

    def test_a_temperature_grid_replaces_a_prox_iterate_schedule(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("sweep.ini").write_text(
            "[scores]\nvalues = 1.0, 0.0\n[temperature]\nschedule = exponential:1:0.3\n"
            "[sweep]\ntask = prox-iterate\ngrid.temperature = 0.5, 1\n"
        )
        assert main(["sweep", "--config", "sweep.ini", "--output", "temps"]) == EXIT_OK
        cells = json.loads(Path("temps.json").read_text())["cells"]
        assert [(c["cell"]["temperature"], c["status"]) for c in cells] == [
            (0.5, "converged"), (1.0, "converged")]

    def test_eta_grid_matches_prox_iterate(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[scores]\nvalues = 1.0, 0.0, -0.5\n"
            "[temperature]\nvalue = 0.8\n"
            "[sweep]\ntask = prox-iterate\ngrid.eta = 0.1, 2\n"
            "[output]\npath = etas\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        cells = json.loads(Path("etas.json").read_text())["cells"]
        assert [c["cell"]["eta"] for c in cells] == [0.1, 2.0]
        for cell in cells:
            stem = f"direct_{cell['index']}"
            # eta has no command-line flag, so each single run reads it from a file
            single = tmp_path / f"{stem}.ini"
            single.write_text(
                f"[scores]\nvalues = 1.0, 0.0, -0.5\n[mirror]\neta = {cell['cell']['eta']!r}\n"
            )
            assert main(
                ["prox-iterate", "--config", str(single), "--temperature", "0.8",
                 "--output", stem]
            ) == EXIT_OK
            direct = read_manifest(stem)
            assert cell["status"] == direct.terminal_status
            assert cell["metrics"] == direct.metrics

    def test_rotational_beta_grid_reports_a_recurrent_cell(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[run]\ndynamics = literal\nstart = 0.5, 0.3, 0.2\n"
            "[scores]\nvalues = 0, 0, 0\n"
            "[field]\nkind = linear\ncoupling = 0,1,-1,-1,0,1,1,-1,0\n"
            "[integrator]\nhorizon = 100\nsamples = 6000\n"
            "[sweep]\ntask = recurrence\ngrid.beta = 0.5, 1\n"
            "[output]\npath = rot\n"
        )
        code = main(["sweep", "--config", str(cfg)])
        assert code == EXIT_OK
        cells = json.loads(Path("rot.json").read_text())["cells"]
        assert any(cell["metrics"]["recurrent"] for cell in cells)
        # dense output returns when a step landing on every sample did
        returns = [cell["metrics"]["first_return_time"] for cell in cells]
        assert returns == pytest.approx([22.78713118853142, 11.401900316719452], abs=1e-12)

    def test_failed_cells_are_recorded_and_exit_nonzero(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[scores]\nvalues = 1.0, 0.0\n"
            "[sweep]\ntask = simulate\ngrid.temperature = -1, 1\n"
            "[output]\npath = mixed\n"
        )
        code = main(["sweep", "--config", str(cfg)])
        assert code == EXIT_DIVERGED
        cells = json.loads(Path("mixed.json").read_text())["cells"]
        statuses = {c["status"] for c in cells}
        assert "error" in statuses
        assert len(cells) == 2
        assert any(c["status"] != "error" for c in cells)

    def test_temperature_overflow_is_a_diverged_cell(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[scores]\nvalues = 1.0, 0.0\n"
            "[temperature]\nschedule = exponential:1:1000\n"
            "[sweep]\ntask = simulate\ngrid.horizon = 0.5, 5\n"
            "[output]\npath = hot\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == EXIT_DIVERGED
        cells = json.loads(Path("hot.json").read_text())["cells"]
        assert cells[0]["status"] != "error"
        assert cells[1]["status"] == "diverged"

    def test_a_reparameterization_cell_that_freezes_names_its_temperature(
            self, tmp_path, monkeypatch):
        # T(t) = e^-t underflows to 0 before t = 800; the cell fails before
        # any step divides by it (warnings are errors here)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[run]\ntask = reparameterization\ndynamics = literal\n"
            "[scores]\nvalues = 1, 0\n"
            "[temperature]\nschedule = exponential:1:-1\n"
            "[integrator]\nhorizon = 800\n"
            "[output]\npath = frozen\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", str(cfg), "--jobs", "1"]) == EXIT_DIVERGED
        (cell,) = json.loads(Path("frozen.json").read_text())["cells"]
        assert cell["error"] == (
            "InvalidInputError: scores up to 1 overflow at T(800) = 0, "
            "the run's smallest temperature"
        )

    def test_unexpected_exception_is_an_error_cell(self, tmp_path, monkeypatch):
        from simplexflow import cli, csvfloats

        def boom(cfg):
            raise ZeroDivisionError("cell went wrong")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_cell_outcome", boom)
        # a prox-iterate cell runs through _cell_outcome; a fixed-score
        # simulate cell is a row cell and does not
        Path("boom.ini").write_text("[scores]\nvalues = 1, 0\n[sweep]\ntask = prox-iterate\n")
        code = main(
            ["sweep", "--config", "boom.ini", "--temperature", "1", "--output", "boom"]
        )
        assert code == EXIT_DIVERGED
        cells = json.loads(Path("boom.json").read_text())["cells"]
        assert [c["error"] for c in cells] == ["ZeroDivisionError: cell went wrong"]
        assert read_manifest("boom").terminal_status == "failed-cells"

    def test_parallel_jobs_give_the_same_cells(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[run]\ndynamics = entropic\n"
            "[scores]\nvalues = 1.0, 0.0, -1.0\n"
            "[sweep]\ntask = simulate\ngrid.temperature = 0.5, 1, 2\n"
            "[output]\npath = serial\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        assert main(["sweep", "--config", str(cfg), "--jobs", "3", "--output", "par"]) == EXIT_OK
        serial = json.loads(Path("serial.json").read_text())["cells"]
        parallel = json.loads(Path("par.json").read_text())["cells"]
        assert serial == parallel

    @pytest.mark.parametrize("jobs, cells, workers", [(4, 3, [3]), (2, 3, [2]), (8, 1, []),
                                                      (1, 3, [])])
    def test_a_pool_starts_at_most_one_worker_per_cell(
        self, jobs, cells, workers, tmp_path, monkeypatch
    ):
        """A pool forks all its workers at its first task, so ``--jobs`` above
        the cell count must not size it; one worker is no pool.  The pool is
        a stand-in that records its size and maps in this process; the cells
        are prox-iterate cells, since row cells use no pool."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        grid = ", ".join(str(0.5 * (i + 1)) for i in range(cells))
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[scores]\nvalues = 1.0, 0.0, -1.0\n"
            f"[sweep]\ntask = prox-iterate\ngrid.temperature = {grid}\n"
            "[output]\npath = serial\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        assert sizes == []
        assert main(["sweep", "--config", str(cfg), "--jobs", str(jobs), "--output", "pool"]) == 0
        assert sizes == workers
        assert Path("pool.json").read_bytes() == Path("serial.json").read_bytes()

    def test_manifest_times_each_cell_and_the_file_holds_no_clock(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[scores]\nvalues = 1.0, 0.0\n"
            "[sweep]\ntask = simulate\ngrid.temperature = -1, 0.5, 1\n"
            "[output]\npath = timed\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == EXIT_DIVERGED
        data = Path("timed.json").read_bytes()
        assert main(["sweep", "--config", str(cfg), "--jobs", "2"]) == EXIT_DIVERGED
        assert Path("timed.json").read_bytes() == data
        cells = json.loads(data)["cells"]
        timings = read_manifest("timed").timings
        # the error cell failed to resolve and has its own time; the other
        # two are rows, one call per temperature, and the calls have theirs
        seconds = timings["cell_s"]
        assert len(seconds) == 3 and 0.0 < seconds[0] < 60.0 and seconds[1:] == [None, None]
        assert timings["slowest_cell"] == {"index": 0, "cell": cells[0]["cell"],
                                           "seconds": seconds[0]}
        assert timings["statuses"] == dict(Counter(c["status"] for c in cells))
        assert timings["statuses"]["error"] == 1
        assert timings["paths"] == {"rows": 2, "pool": 0, "serial": 1}
        calls = timings["row_calls"]
        assert [call["cells"] for call in calls] == [1, 1]
        assert all(0.0 < call["seconds"] < 60.0 for call in calls)

    def test_dead_worker_fails_its_cells_not_the_sweep(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_run_cell", _worker_dies_on_cell_one)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[scores]\nvalues = 1.0, 0.0\n"
            "[sweep]\ntask = prox-iterate\ngrid.temperature = 0.5, 1, 2\n"
            "[output]\npath = dead\n"
        )
        assert main(["sweep", "--config", str(cfg), "--jobs", "2"]) == EXIT_DIVERGED
        cells = read_strict_json("dead.json")["cells"]
        assert [c["index"] for c in cells] == [0, 1, 2]
        assert cells[1]["status"] == "error"
        assert cells[1]["error"].startswith("BrokenProcessPool: ")
        for cell in cells:
            assert cell["status"] == "converged" or cell["error"].startswith("BrokenProcessPool")
        manifest = read_manifest("dead")
        assert manifest.terminal_status == "failed-cells"
        # the cells lost with the worker have no time; the others do
        seconds = manifest.timings["cell_s"]
        assert seconds[1] is None
        timed = [x for x in seconds if x is not None]
        slowest = manifest.timings["slowest_cell"]
        assert (slowest["seconds"] if slowest else None) == max(timed, default=None)

    def test_row_cells_equal_their_single_runs_to_the_bit(self, tmp_path, monkeypatch):
        """Row cells get their checked starts as they are: checking seed 12's
        random start again moves it, and the free energy gain with it."""
        monkeypatch.chdir(tmp_path)
        scores = "-0.5, -3, 3, -2, 2, -1, 1, 0.5"
        start = cli._start_point(ExperimentConfig(start="random", seed=12), 8)
        assert not np.array_equal(SimplexPoint(start.probs).probs, start.probs)
        Path("rows.ini").write_text(
            f"[run]\ndynamics = entropic\nstart = random\n[scores]\nvalues = {scores}\n"
            "[sweep]\ntask = simulate\ngrid.seed = 1, 12\ngrid.temperature = 0.25, 1, 4\n"
        )
        assert main(["sweep", "--config", "rows.ini", "--jobs", "2", "--output", "grid"]) == 0
        assert read_manifest("grid").timings["paths"] == {"rows": 6, "pool": 0, "serial": 0}
        for cell in read_strict_json("grid.json")["cells"]:
            seed, temperature = cell["cell"]["seed"], cell["cell"]["temperature"]
            assert main(["simulate", "--config", "rows.ini", "--seed", str(int(seed)),
                         "--temperature", repr(temperature), "--output", "one"]) == EXIT_OK
            single = read_manifest("one")
            assert cell["status"] == single.terminal_status
            assert cell["metrics"] == single.metrics

    def test_row_cells_of_any_size_are_solved_in_calls_of_at_most_eight_rows(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scores = ", ".join(map(repr, np.linspace(-2.0, 2.0, 40).tolist()))
        Path("wide.ini").write_text(
            f"[run]\nstart = random\n[scores]\nvalues = {scores}\n"
            f"[sweep]\ntask = simulate\ngrid.seed = {', '.join(map(str, range(10)))}\n"
        )
        assert cli._ROWS_PER_CALL == 8
        assert main(["sweep", "--config", "wide.ini", "--jobs", "2", "--output", "wide"]) == 0
        timings = read_manifest("wide").timings
        assert timings["paths"] == {"rows": 10, "pool": 0, "serial": 0}
        assert [call["cells"] for call in timings["row_calls"]] == [8, 2]
        cell = read_strict_json("wide.json")["cells"][9]
        assert main(["simulate", "--config", "wide.ini", "--seed", "9", "--output", "one"]) == 0
        assert cell["metrics"] == read_manifest("one").metrics

    def test_a_mixed_sweep_pools_only_its_state_dependent_cells(self, tmp_path, monkeypatch):
        """beta = 0 cells are rows, beta != 0 cells go to the pool, and a
        T = -1 cell fails to resolve in this process, at any --jobs."""
        monkeypatch.chdir(tmp_path)
        Path("mixed.ini").write_text(
            "[run]\nstart = 0.5, 0.3, 0.2\n[scores]\nvalues = 1.0, 0.0, -0.5\n"
            "[field]\nkind = linear\ncoupling = 0,1,-1,-1,0,1,1,-1,0\n"
            "[integrator]\nhorizon = 5\n"
            "[sweep]\ntask = simulate\ngrid.beta = 0, 0.5\ngrid.temperature = -1, 0.5, 1\n"
        )
        assert main(["sweep", "--config", "mixed.ini", "--output", "serial"]) == EXIT_DIVERGED
        assert main(["sweep", "--config", "mixed.ini", "--jobs", "2", "--output", "pooled"]) == 3
        data = Path("serial.json").read_bytes()
        assert Path("pooled.json").read_bytes() == data
        cells = json.loads(data)["cells"]
        assert [c["status"] == "error" for c in cells] == [True, False, False] * 2
        assert read_manifest("serial").timings["paths"] == {"rows": 2, "pool": 0, "serial": 4}
        assert read_manifest("pooled").timings["paths"] == {"rows": 2, "pool": 2, "serial": 2}
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                seen.extend(cell for _, _, cell in payloads)
                return map(fn, payloads)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        assert main(["sweep", "--config", "mixed.ini", "--jobs", "2", "--output", "seen"]) == 3
        assert Path("seen.json").read_bytes() == data
        assert seen == [{"beta": 0.5, "temperature": 0.5}, {"beta": 0.5, "temperature": 1.0}]

    def test_a_row_call_that_raises_reruns_its_cells_one_at_a_time(
            self, tmp_path, monkeypatch):
        """1 / 1e-320 overflows, so the call of the two seeds at that
        temperature raises; each of its cells is then its own run, with its
        own error entry, while the call at T = 1 solves its two rows."""
        monkeypatch.chdir(tmp_path)
        Path("tiny.ini").write_text(
            "[run]\nstart = random\n[scores]\nvalues = 1, 0\n"
            "[sweep]\ntask = simulate\ngrid.seed = 1, 2\ngrid.temperature = 1e-320, 1\n"
        )
        assert main(["sweep", "--config", "tiny.ini", "--output", "tiny"]) == EXIT_DIVERGED
        cells = read_strict_json("tiny.json")["cells"]
        base = dataclasses.asdict(ExperimentConfig(scores=(1.0, 0.0), start="random"))
        for k in (0, 2):
            assert cells[k]["error"].startswith(
                "InvalidInputError: score spread over temperature overflows")
            assert cells[k] == _RUN_CELL((k, base, cells[k]["cell"]))[0]
        assert [cells[k]["status"] for k in (1, 3)] == ["converged"] * 2
        timings = read_manifest("tiny").timings
        assert timings["paths"] == {"rows": 2, "pool": 0, "serial": 2}
        assert [call["cells"] for call in timings["row_calls"]] == [2]
        assert [seconds is None for seconds in timings["cell_s"]] == [False, True] * 2


class TestVerify:
    def test_default_run_matches_committed_matrix(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["verify", "--output", "claims.json"])
        assert code == EXIT_OK
        payload = json.loads(Path("claims.json").read_text())
        assert payload["matrix"]["thm-manifold-3"]["literal"] is False
        assert payload["matrix"]["prop-ascent"]["exact-prox"] is True
        assert payload["mismatches"] == []

    def test_claim_filter_runs_a_subset(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["verify", "--claims", "cor-faces", "--output", "subset.json"])
        assert code == EXIT_OK
        payload = json.loads(Path("subset.json").read_text())
        assert set(payload["matrix"]) == {"cor-faces"}
        assert payload["seed"] == cli.oracles.DEFAULT_SEED

    def test_the_report_times_each_claim_outside_the_verdicts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["verify", "--claims", "cor-faces,prop-lyapunov", "--output", "timed.json"])
        assert code == EXIT_OK
        payload = json.loads(Path("timed.json").read_text())
        assert set(payload["timings"]) == {"cor-faces", "prop-lyapunov", "flow-evidence"}
        assert all(value >= 0.0 for value in payload["timings"].values())
        assert all(set(v) == {"claim_id", "dynamics", "statement", "holds", "tolerance", "witness"}
                   for v in payload["verdicts"])

    def test_unknown_claim_id_is_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--claims", "nope"]) == EXIT_CONFIG

    @pytest.mark.parametrize("claims", [",", " , ,"])
    def test_a_claim_list_naming_no_claim_is_exit_2(self, tmp_path, monkeypatch, capsys, claims):
        # it used to judge nothing and report that every verdict matched
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--claims", claims, "--output", "none.json"]) == EXIT_CONFIG
        assert "--claims" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_broken_oracle_is_exit_4(self, tmp_path, monkeypatch):
        from simplexflow import oracles
        from simplexflow.exceptions import OracleFailureError

        def broken(*args, **kwargs):
            raise OracleFailureError("deliberately broken for the test")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(oracles, "run_adjudication", broken)
        assert main(["verify"]) == EXIT_ORACLE

    def test_matrix_mismatch_is_exit_4(self, tmp_path, monkeypatch):
        from simplexflow import oracles

        tampered = {"cor-faces": {"literal": False}}
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(oracles, "expected_claim_matrix", lambda: tampered)
        code = main(["verify", "--claims", "cor-faces", "--output", "bad.json"])
        assert code == EXIT_ORACLE
        payload = json.loads(Path("bad.json").read_text())
        assert payload["mismatches"]


def test_importing_the_cli_loads_neither_the_oracles_nor_the_process_pool():
    # a fresh interpreter, so that no other test has loaded them
    probe = (
        "import sys, simplexflow.cli; "
        "print(sorted({'simplexflow.oracles', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestManifest:
    def test_round_trip(self):
        manifest = RunManifest(
            config_hash="abc123",
            seed=7,
            tool_version="0.1.0",
            wall_clock_s=0.25,
            terminal_status="converged",
            metrics={"terminal_kl": 1e-11},
        )
        back = RunManifest.from_json(manifest.to_json())
        assert back == manifest

    def test_closed_form_runs_report_their_blocks(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--scores", "1,0,-0.5", "--output", "flow"]) == EXIT_OK
        assert main(["prox-iterate", "--scores", "1,0,-0.5", "--output", "prox"]) == EXIT_OK
        Path("linear.ini").write_text(
            "[scores]\nvalues = 0, 0, 0\n[field]\nkind = linear\n"
            "coupling = 0,1,-1,-1,0,1,1,-1,0\n[integrator]\nhorizon = 1\n"
        )
        assert main(["simulate", "--config", "linear.ini", "--output", "linear"]) == EXIT_OK
        flow, prox = read_manifest("flow"), read_manifest("prox")
        for manifest in (flow, prox):
            counts = manifest.telemetry
            assert set(counts) == {"stops_evaluated", "stops_kept", "blocks"}
            assert counts["stops_evaluated"] >= counts["stops_kept"] and counts["blocks"] >= 1
            assert not set(counts) & set(manifest.metrics)
        # the closed form evaluates only the rows it records, no breakpoint row
        assert flow.telemetry["stops_kept"] == flow.metrics["samples"]
        assert main(["simulate", "--scores", "1,0,-0.5", "--schedule", "piecewise:0:2,0.7:0.5",
                     "--output", "piecewise"]) == EXIT_OK
        piecewise = read_manifest("piecewise")
        assert piecewise.telemetry["stops_kept"] == piecewise.metrics["samples"]
        assert prox.telemetry["stops_kept"] == prox.metrics["steps"] + 1
        linear = read_manifest("linear")
        steps = linear.telemetry
        assert set(steps) == {
            "accepted_steps", "rejected_steps", "min_step", "max_step", "last_step"
        }
        assert steps["accepted_steps"] == linear.metrics["accepted_steps"] >= 1
        assert 0.0 < steps["min_step"] <= steps["last_step"] <= steps["max_step"]

    def test_single_runs_time_their_layers(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--scores", "1,0,-0.5", "--output", "flow"]) == EXIT_OK
        assert main(["prox-iterate", "--scores", "1,0,-0.5", "--output", "prox"]) == EXIT_OK
        layers = {"resolve_s", "record_s", "table_s", "write_s"}
        for manifest in (read_manifest("flow"), read_manifest("prox")):
            timings = manifest.timings
            assert set(timings) == layers
            assert all(value >= 0.0 for value in timings.values())
            assert sum(timings.values()) <= manifest.wall_clock_s
            assert not layers & (set(manifest.telemetry) | set(manifest.metrics))
        # a sweep cell's metrics are its run's, so they carry no timings
        # either; the sweep manifest times the cells, not a run's layers
        Path("grid.ini").write_text("[scores]\nvalues = 1, 0\n[sweep]\ngrid.seed = 1, 2\n")
        assert main(["sweep", "--config", "grid.ini", "--output", "grid"]) == EXIT_OK
        assert set(read_manifest("grid").timings) == {
            "cell_s", "slowest_cell", "statuses", "paths", "row_calls"}
        for cell in read_strict_json("grid.json")["cells"]:
            assert not layers & set(cell["metrics"])


def _reference_csv(columns, rows):
    """A table as the per-value writer rendered it: ``f"{x:.17g}"`` for each
    float, ``str`` for the step number."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _numbered(body, first):
    """``body`` led by a float step column counting from ``first``; as it is
    for None."""
    if first is None:
        return body
    return np.column_stack([np.arange(first, first + len(body), dtype=np.float64), body])


def _list_rows(columns, body):
    """The rows of a table as lists: floats, and a leading ``step`` as an int."""
    rows = body.tolist()
    if columns[:1] == ["step"]:
        rows = [[int(row[0]), *row[1:]] for row in rows]
    return rows


class TestTables:
    SPECIAL = [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-300,
        1e16, -1e16, 0.1, 1.0 / 3.0, 1.7976931348623157e308, 2.5e-05, 123456789.125, -7.0,
    ]

    @pytest.mark.parametrize("first", [None, 1])
    def test_rows_render_as_the_per_value_reference(self, tmp_path, first):
        body = np.array(self.SPECIAL).reshape(4, 4)
        body = _numbered(np.vstack([body, -body[::-1]]), first)
        columns = ["a", "b", "c", "d"] if first is None else ["step", "b", "c", "d", "e"]
        path = tmp_path / "t.csv"
        cli._write_table(path, columns, body, "csv")
        rows = _list_rows(columns, body)
        assert path.read_bytes() == _reference_csv(columns, rows).encode()
        cli._write_table(tmp_path / "t.json", columns, body, "json")
        strict = cli._strict_json({"columns": columns, "rows": rows}) + "\n"
        assert (tmp_path / "t.json").read_text() == strict

    @pytest.mark.parametrize("task, flags", [
        ("simulate", ["--dynamics", "literal"]),
        ("prox-iterate", ["--step", "exact-prox"]),
    ])
    def test_face_tables_render_as_the_per_value_reference(self, tmp_path, monkeypatch,
                                                           task, flags):
        monkeypatch.chdir(tmp_path)
        argv = [task, "--scores", "3,2,1,0", "--face", "topk:2", *flags]
        assert main([*argv, "--output", "face"]) == EXIT_OK
        assert main([*argv, "--format", "json", "--output", "face"]) == EXIT_OK
        cfg = cli._config_from_args(build_parser().parse_args(argv))
        record_fn, table_fn, _, _ = cli._run_task(task)
        run = cli._resolve(cfg)
        columns, body = table_fn(record_fn(cfg, run), run.mask)
        assert columns[0] == ("step" if task == "prox-iterate" else "t")
        if task == "prox-iterate":
            assert body[:, 0].tolist() == list(range(1, len(body) + 1))
        assert np.all(body[:, 3:5] == 0.0) and len(body) > 1
        rows = _list_rows(columns, body)
        assert Path("face.csv").read_bytes() == _reference_csv(columns, rows).encode()
        strict = cli._strict_json({"columns": columns, "rows": rows}) + "\n"
        assert Path("face.json").read_text() == strict

    @staticmethod
    def _cold_peak(path, columns, body):
        """The tracemalloc peak of writing ``body`` as a CSV from a cold
        start: the formatter's tables are built inside the peak."""
        csvfloats._tables.cache_clear()
        tracemalloc.start()
        try:
            cli._write_table(path, columns, body, "csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_writing_a_wide_table_peaks_below_a_tenth_of_its_size(self, tmp_path):
        # the table is streamed: the peak is a few rows, not the whole file
        rng = np.random.default_rng(0)
        n, v = 40, 2500
        body = np.column_stack(
            [np.linspace(0.0, 10.0, n), rng.dirichlet(np.ones(v), n), rng.random((n, 3))]
        )
        columns = ["t"] + [f"p_{i + 1}" for i in range(v)] + ["free_energy", "kl", "norm"]
        path = tmp_path / "wide.csv"
        assert self._cold_peak(path, columns, body) < path.stat().st_size / 10

    def test_large_values_peak_no_higher_than_probabilities(self, tmp_path):
        # values from 10 up with a point inside their digits took a (m, 17)
        # index to shift: 3.1x the peak of probabilities.  The first table
        # takes the floor block, the second the cap
        rng = np.random.default_rng(0)
        for n, k in ((40, 2504), (105, 10_000)):
            columns = [f"c{i}" for i in range(k)]
            peaks = [
                self._cold_peak(tmp_path / "t.csv", columns, body)
                for body in (rng.dirichlet(np.ones(k), n), rng.uniform(10.0, 1000.0, (n, k)))
            ]
            assert peaks[1] <= 1.25 * peaks[0], (n, k)
        assert 40 * 2504 // 64 < cli._CSV_BLOCK < cli._CSV_BLOCK_CAP < 105 * 10_000 // 64

    def test_a_table_past_the_cap_peaks_alike_at_any_length(self, tmp_path):
        # a block is 1/64 of the table up to the cap, so past it the peak is
        # one cap-sized block however long the table
        rng = np.random.default_rng(0)
        v = 10_000
        columns = ["t"] + [f"p_{i + 1}" for i in range(v)] + ["free_energy", "kl", "norm"]
        peaks = []
        for n in (105, 210):
            body = np.column_stack(
                [np.linspace(0.0, 10.0, n), rng.dirichlet(np.ones(v), n), rng.random((n, 3))]
            )
            assert body.size // 64 > cli._CSV_BLOCK_CAP
            path = tmp_path / f"wide{n}.csv"
            peaks.append(self._cold_peak(path, columns, body))
            assert peaks[-1] < path.stat().st_size / 10
        assert peaks[1] == pytest.approx(peaks[0], rel=0.01)

    def test_a_table_past_the_cap_renders_as_at_the_floor(self, tmp_path, monkeypatch):
        # 105 numbered rows of 10,007 values: a cap-sized block splits rows
        rng = np.random.default_rng(0)
        n = 105
        body = np.column_stack([rng.dirichlet(np.ones(10_005), n), np.resize(self.SPECIAL, n)])
        body = _numbered(body, 1)
        columns = ["step"] + [f"c{i}" for i in range(body.shape[1] - 1)]
        sizes, format_block = [], csvfloats.format_block

        def counted(values, *args):
            sizes.append(len(values))
            return format_block(values, *args)

        monkeypatch.setattr(csvfloats, "format_block", counted)
        for name, cap in (("cap", cli._CSV_BLOCK_CAP), ("floor", cli._CSV_BLOCK)):
            monkeypatch.setattr(cli, "_CSV_BLOCK_CAP", cap)
            sizes.clear()
            cli._write_table(tmp_path / f"{name}.csv", columns, body, "csv")
            assert max(sizes) == cap and cap % body.shape[1] != 0
        assert (tmp_path / "cap.csv").read_bytes() == (tmp_path / "floor.csv").read_bytes()

    @pytest.mark.parametrize("first", [None, 1])
    def test_writing_a_wide_json_table_peaks_below_a_tenth_of_its_size(self, tmp_path, first):
        # the table is streamed: the peak is a few rows, not the whole file.  A
        # JSON row peaks at about 6.5 times its text (its float list, the
        # null-safe copy and the encoder's chunks), so the file has 100 rows
        rng = np.random.default_rng(0)
        n, v = 100, 2500
        body = np.column_stack(
            [np.linspace(0.0, 10.0, n), rng.dirichlet(np.ones(v), n), rng.random((n, 3))]
        )
        body[1, -1], body[2, -2], body[3, -3] = math.nan, math.inf, -math.inf
        body = _numbered(body, first)
        columns = ["t"] + [f"p_{i + 1}" for i in range(v)] + ["free_energy", "kl", "norm"]
        columns = columns if first is None else ["step", *columns]
        path = tmp_path / "wide.json"
        tracemalloc.start()
        try:
            cli._write_table(path, columns, body, "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 10
        rows = _list_rows(columns, body)
        strict = cli._strict_json({"columns": columns, "rows": rows}) + "\n"
        assert path.read_text() == strict

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_an_empty_table_has_its_header_alone(self, tmp_path, fmt):
        path = tmp_path / f"empty.{fmt}"
        cli._write_table(path, ["step", "t"], _numbered(np.empty((0, 1)), 1), fmt)
        want = "step,t\n" if fmt == "csv" else '{"columns": ["step", "t"], "rows": []}\n'
        assert path.read_text() == want

    # The array formatter against '%.17g' % x, value by value.  Exact ties
    # of the 18th digit: a 16-digit integer part and .25 or .75, or a
    # 15-digit one and an odd number of eighths.
    TIES = [(2**53 - j) / 4 for j in (1, 3, 5, 7)] + [(2**52 - j) / 8 for j in (1, 3, 5, 7)]

    @staticmethod
    def _edge_values():
        powers = [float(f"1e{e}") for e in range(-323, 309)]
        values = [*powers, *np.nextafter(powers, 0.0), *np.nextafter(powers, np.inf)]
        # the notation switches at X = -5 / -4 and 16 / 17, exponents of one,
        # two and three digits, and the ends of the range
        values += [1.5e-5, 9.87654321e-5, 1.5e-4, 2.5e16, 9.9999999999999984e16, 1.5e17,
                   3e-9, 4.5e-10, 6e99, 7e-100, 8e100, 5e-324, 2.5e-320, 1.7976931348623157e308]
        # integers up to 10^17
        values += [float(i) for i in range(1001)]
        values += [float(10**j + d) for j in range(1, 18) for d in (-1, 0, 1)]
        values += [float(2**53 + j) for j in (-1, 0, 2)] + TestTables.TIES
        return np.array(values + [-x for x in values])

    @staticmethod
    def _assert_fields_are_reference(path, columns, body, first):
        header, *lines, end = path.read_text().split("\n")
        assert header == ",".join(columns) and end == "" and len(lines) == len(body)
        for step, (row, line) in enumerate(zip(body.tolist(), lines), first or 0):
            fields = line.split(",")
            assert fields == ["%.17g" % x for x in row]
            assert first is None or fields[0] == str(step)

    @pytest.mark.parametrize("first", [None, 1])
    def test_edge_values_render_as_the_per_value_reference(self, tmp_path, first):
        values = self._edge_values()
        body = np.concatenate([values, np.zeros(-len(values) % 7)]).reshape(-1, 7)
        body = _numbered(body, first)
        columns = [f"c{i}" for i in range(body.shape[1])]
        cli._write_table(tmp_path / "edge.csv", columns, body, "csv")
        self._assert_fields_are_reference(tmp_path / "edge.csv", columns, body, first)

    def test_exact_ties_take_the_fallback(self):
        from decimal import Decimal
        for x in self.TIES:
            assert Decimal(x).as_tuple().digits[17:] == (5,), x
        values = np.array(self.TIES + [-x for x in self.TIES] + [0.1, 2.5e-5, 1e16, 0.0])
        _, _, fallback = csvfloats.decimal_digits(values)
        assert fallback.tolist() == [True] * (2 * len(self.TIES)) + [False] * 4

    @pytest.mark.parametrize("first", [None, 1])
    @pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 11])
    def test_blocks_that_split_rows_render_as_the_reference(self, tmp_path, monkeypatch,
                                                             first, block):
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        body = _numbered(np.array(self.SPECIAL + [1.0 / 7.0, -2.5e-7, 3e20, 42.0]).reshape(4, 5),
                         first)
        columns = [f"c{i}" for i in range(body.shape[1])]
        cli._write_table(tmp_path / "split.csv", columns, body, "csv")
        self._assert_fields_are_reference(tmp_path / "split.csv", columns, body, first)

    # any 64-bit pattern; NaN payloads and subnormals of either sign; and
    # hypothesis' floats, which favour zeros, infinities and other edges
    BITS = (
        st.integers(0, 2**64 - 1)
        | st.sampled_from([0, 1 << 63]).flatmap(lambda sign: st.one_of(
            st.integers(0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF), st.integers(1, 2**52 - 1)
        ).map(lambda bits: bits | sign))
        | st.floats().map(lambda x: int(np.float64(x).view(np.uint64)))
    )

    @settings(max_examples=150)
    @given(
        shape=st.tuples(st.integers(0, 6), st.integers(1, 6)),
        bits=st.lists(BITS, min_size=36, max_size=36),
        first=st.sampled_from([None, 0, 1, 9998]),
        block=st.sampled_from([1, 2, 3, 5, 1024]),
    )
    def test_any_float64_bit_pattern_renders_as_the_per_value_reference(
            self, shape, bits, first, block):
        n, k = shape
        body = _numbered(np.array(bits[: n * k], np.uint64).view(np.float64).reshape(n, k), first)
        columns = [f"c{i}" for i in range(body.shape[1])]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_CSV_BLOCK", block)
            path = Path(tmp) / "bits.csv"
            cli._write_table(path, columns, body, "csv")
            self._assert_fields_are_reference(path, columns, body, first)


def _scaled(mantissas, exponents):
    """Floats m * 10^e: every decade of the range is as likely as any other."""
    return st.builds(lambda m, e: m * 10.0**e, mantissas, st.integers(*exponents))


_SIGNED = _scaled(st.floats(-9.99, 9.99), (-300, 299))
_POSITIVE = _scaled(st.floats(1.0, 9.99), (-300, 299))


def _schedule_flags(draw):
    kind = draw(st.sampled_from(["constant", "piecewise", "exponential"]))
    if kind == "constant":
        return ["--temperature", repr(draw(_POSITIVE))]
    if kind == "piecewise":
        spec = f"piecewise:0:{draw(_POSITIVE)!r},{draw(_POSITIVE)!r}:{draw(_POSITIVE)!r}"
    else:
        spec = f"exponential:{draw(_POSITIVE)!r}:{draw(_SIGNED)!r}"
    return ["--schedule", spec]


_HORIZON = _scaled(st.floats(1.0, 9.99), (-300, 0))
_LINEAR_OVERFLOWS = (
    "[temperature]\nvalue = 1e-300\n[field]\nkind = linear\n"
    "coupling = 1e300,1,-1,-1,0,1,1,-1,1e300\n",
    "[temperature]\nvalue = 1.2e-8\n[field]\nkind = linear\ncoupling = 0,1,1,0\n",
)


_SCORES_10 = "1,0,-0.5,0.3,0.2,0.1,0,0,0,0"


def _extreme_numbers(draw, count):
    """``count`` numbers up to 1e300 in size; half the time drawn from at most
    three values, so equal entries far larger than T (a spread of 0 over an
    overflowing s / T) occur."""
    values = st.sampled_from(draw(st.lists(_SIGNED, min_size=1, max_size=3)))
    return draw(st.lists(values if draw(st.booleans()) else _SIGNED, min_size=count,
                         max_size=count))


@st.composite
def _extreme_runs(draw):
    """(argv, INI text or None, whether the run must exit 2) of a fixed-score
    simulate or prox-iterate run, or of a linear-field simulate run written as
    an INI, with scores and couplings up to 1e300 in size, T from 1e-300 to
    1e300 and V from 2 to 16.  Fixed-score horizons reach 1e300; a linear
    field's stays at most 10, so the driver's steps stay few, and it sometimes
    sets a step_tol of -1, nan, inf or 0 (exit 2); a fixed-score run sometimes
    sets a --tol of -1, nan or inf (exit 2).  Scores go as --scores=...,
    since argparse reads "--scores -1,0" as a flag."""
    size = draw(st.integers(2, 16))
    scores = _extreme_numbers(draw, size)
    argv = [f"--scores={','.join(repr(x) for x in scores)}"]
    face = draw(st.none() | st.integers(1, len(scores)))
    if face is not None:
        argv += ["--face", f"topk:{face}"]
    kind = draw(st.sampled_from(["simulate", "prox-iterate", "linear"]))
    if kind == "simulate":
        argv = ["simulate", *argv, *_schedule_flags(draw),
                "--dynamics", draw(st.sampled_from(["literal", "entropic"])),
                "--horizon", repr(draw(_POSITIVE))]
    elif kind == "prox-iterate":
        argv = ["prox-iterate", *argv, "--temperature", repr(draw(_POSITIVE)),
                "--step", draw(st.sampled_from(["exact-prox", "printed-mw"])),
                "--steps", str(draw(st.integers(0, 50)))]
    else:
        coupling = _extreme_numbers(draw, size * size)
        ini = (
            f"[run]\ndynamics = {draw(st.sampled_from(['literal', 'entropic']))}\n"
            f"[temperature]\nvalue = {draw(_POSITIVE)!r}\n"
            f"[field]\nkind = linear\ncoupling = {','.join(repr(x) for x in coupling)}\n"
            f"[integrator]\nhorizon = {draw(_HORIZON)!r}\n"
        )
        step_tol = draw(st.none() | st.sampled_from(["-1", "nan", "inf", "0"]))
        if step_tol is not None:
            ini += f"step_tol = {step_tol}\n"
        return ["simulate", *argv], ini, step_tol is not None
    tol = draw(st.none() | st.sampled_from(["-1", "nan", "inf"]))
    if tol is not None:
        argv.append(f"--tol={tol}")
    return argv, None, tol is not None


@settings(max_examples=300, derandomize=True)
@given(_extreme_runs())
@example((["simulate", "--scores=1,0,0.5"], _LINEAR_OVERFLOWS[0], True))
@example((["simulate", "--scores=1e300,0"], _LINEAR_OVERFLOWS[1], True))
# flow weights that overflow at t = 18.5905 and t = 123.285 end the run, exit 3
@example((["simulate", "--scores=1,0,-0.5", "--dynamics", "literal", "--tol", "0",
           "--schedule", "exponential:1e-300:-1", "--horizon", "50"], None, False))
@example((["simulate", "--scores=1,0,-0.5", "--dynamics", "literal", "--tol", "0",
           "--schedule", "piecewise:0:1,1:1e-306", "--horizon", "1e3"], None, False))
# T log V overflows at V = 10 although T = 1e308 does not: refused, exit 2
@example((["prox-iterate", f"--scores={_SCORES_10}", "--temperature", "1e308",
           "--step", "exact-prox"], None, True))
@example((["simulate", f"--scores={_SCORES_10}", "--temperature", "1e308"], None, True))
@example((["simulate", f"--scores={_SCORES_10}"],
          "[temperature]\nvalue = 1e308\n[field]\nkind = linear\n"
          f"coupling = {','.join(['0.5'] * 100)}\n", True))
# T = e^{100 t}: T log 16 overflows from t = 7.0876, before T does at 7.0978,
# so the run ends diverged, exit 3
@example((["simulate", f"--scores={','.join(str(k) for k in range(16))}", "--tol", "0",
           "--schedule", "exponential:1:100", "--horizon", "7.097"], None, False))
def test_extreme_inputs_end_in_an_exit_code_and_finite_files(run):
    """Every run exits 0, 2 or 3, and one drawn to be rejected exits 2; one
    that writes its files writes a manifest that strict JSON parses and a
    table with no NaN or infinity, save the KL column of a linear field,
    which has no closed-form target.  A numpy RuntimeWarning fails the run,
    as the test configuration turns it into an error."""
    argv, ini, rejected = run
    with tempfile.TemporaryDirectory() as tmp:
        stem = Path(tmp) / "run"
        if ini is not None:
            config = Path(tmp) / "run.ini"
            config.write_text(ini)
            argv = [argv[0], "--config", str(config), *argv[1:]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--output", str(stem)])
        assert code in ((EXIT_CONFIG,) if rejected else (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED))
        if code != EXIT_CONFIG:
            read_strict_json(f"{stem}.manifest.json")
            header, *rows = (
                line.split(",") for line in stem.with_suffix(".csv").read_text().lower().split()
            )
            exempt = header.index("kl_to_target") if ini is not None else None
            assert not [
                value for row in rows for i, value in enumerate(row)
                if i != exempt and ("nan" in value or "inf" in value)
            ]
