"""End-to-end CLI behavior: configs, file formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from simplexflow import cli
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
             "[scores]\nvalues = 1, 0\n[integrator]\ndt0 = 0.02\n"
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

    def test_readme_config_block_runs_its_sweep(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
        Path("experiment.ini").write_text(block)
        assert main(["sweep", "--config", "experiment.ini"]) == EXIT_OK
        assert len(read_strict_json("run.json")["cells"]) == 3
        assert main(["simulate", "--config", "experiment.ini"]) == EXIT_OK

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

    def test_temperature_overflow_is_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["simulate", "--scores", "1,0", "--schedule", "exponential:1:1000", "--output", "hot"]
        )
        assert code == EXIT_CONFIG
        assert "temperature schedule overflows" in capsys.readouterr().err

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

    def test_temperature_overflow_is_an_error_cell(self, tmp_path, monkeypatch):
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
        assert cells[1]["status"] == "error"
        assert cells[1]["error"].startswith("InvalidInputError: temperature schedule overflows")

    def test_unexpected_exception_is_an_error_cell(self, tmp_path, monkeypatch):
        from simplexflow import cli

        def boom(cfg):
            raise ZeroDivisionError("cell went wrong")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_cell_outcome", boom)
        code = main(["sweep", "--scores", "1,0", "--temperature", "1", "--output", "boom"])
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

    def test_dead_worker_fails_its_cells_not_the_sweep(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_run_cell", _worker_dies_on_cell_one)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[scores]\nvalues = 1.0, 0.0\n"
            "[sweep]\ntask = simulate\ngrid.temperature = 0.5, 1, 2\n"
            "[output]\npath = dead\n"
        )
        assert main(["sweep", "--config", str(cfg), "--jobs", "2"]) == EXIT_DIVERGED
        cells = read_strict_json("dead.json")["cells"]
        assert [c["index"] for c in cells] == [0, 1, 2]
        assert cells[1]["status"] == "error"
        assert cells[1]["error"].startswith("BrokenProcessPool: ")
        for cell in cells:
            assert cell["status"] == "converged" or cell["error"].startswith("BrokenProcessPool")
        assert read_manifest("dead").terminal_status == "failed-cells"


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

    def test_unknown_claim_id_is_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--claims", "nope"]) == EXIT_CONFIG

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


@st.composite
def _extreme_runs(draw):
    """argv of a fixed-score simulate or prox-iterate run with scores up to
    1e300 in size, T and the horizon from 1e-300 to 1e300 and V from 2 to 16.
    Scores go as --scores=..., since argparse reads "--scores -1,0" as a flag."""
    size = draw(st.integers(2, 16))
    # half the runs draw their scores from at most three values, so equal
    # scores far larger than T (a spread of 0 over an overflowing s / T) occur
    values = st.sampled_from(draw(st.lists(_SIGNED, min_size=1, max_size=3)))
    scores = draw(st.lists(values if draw(st.booleans()) else _SIGNED, min_size=size,
                           max_size=size))
    argv = [f"--scores={','.join(repr(x) for x in scores)}"]
    face = draw(st.none() | st.integers(1, len(scores)))
    if face is not None:
        argv += ["--face", f"topk:{face}"]
    if draw(st.booleans()):
        argv = ["simulate", *argv, *_schedule_flags(draw),
                "--dynamics", draw(st.sampled_from(["literal", "entropic"])),
                "--horizon", repr(draw(_POSITIVE))]
    else:
        argv = ["prox-iterate", *argv, "--temperature", repr(draw(_POSITIVE)),
                "--step", draw(st.sampled_from(["exact-prox", "printed-mw"])),
                "--steps", str(draw(st.integers(0, 50)))]
    return argv


@settings(max_examples=300, derandomize=True)
@given(_extreme_runs())
def test_extreme_inputs_end_in_an_exit_code_and_finite_files(argv):
    """Every run exits 0, 2 or 3; one that writes its files writes a manifest
    that strict JSON parses and a table with no NaN or infinity.  A numpy
    RuntimeWarning fails the run, as the test configuration turns it into an
    error."""
    with tempfile.TemporaryDirectory() as tmp:
        stem = Path(tmp) / "run"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--output", str(stem)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED)
        if code != EXIT_CONFIG:
            read_strict_json(f"{stem}.manifest.json")
            table = stem.with_suffix(".csv").read_text().lower()
            assert "nan" not in table and "inf" not in table
