"""Experiment runner: simulate / prox-iterate / sweep / verify.

Configuration comes from an INI file (flat sections, documented in the README)
with command-line flags taking precedence, both defined by one table,
``_OPTIONS``; a run rejects any setting its task does not read unless it holds
its default.  Every run writes a manifest JSON next to its output carrying the
config hash (task included), seed, tool version, wall clock, terminal status,
and headline metrics.  Trajectory and iterate tables render floats with 17
significant digits, so files round-trip to the exact float64 values and
identical config + seed gives byte-identical data files.

Exit codes: 0 success, 2 configuration error, 3 numerical divergence, a
stalled exact-prox run or failed sweep cells, 4 oracle/verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import itertools
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__, oracles
from .exceptions import ConfigError, InvalidInputError, OracleFailureError, SimplexFlowError
from .mirror import MirrorStepKind, iterate
from .path_fields import detect_recurrence, integrate_path, linear_field
from .replicator import (
    ConstantSchedule,
    FieldKind,
    IntegratorControls,
    _reparameterization_deviation,
    as_schedule,
    integrate,
    parse_schedule,
)
from .simplex import (
    FaceMask,
    ScoreVector,
    SimplexPoint,
    _simplex_rows,
    build_face_nucleus,
    build_face_topk,
    restrict_to_face,
)
from .trajectory import TerminalStatus, TrajectoryRecord

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_ORACLE = 4

TASKS = ("simulate", "prox-iterate", "reparameterization", "recurrence")
#: statuses that exit EXIT_DIVERGED and count as failed sweep cells
_FAILED = (TerminalStatus.DIVERGED, TerminalStatus.STALLED)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    task: str = "simulate"
    dynamics: str = "entropic"
    step_kind: str = "exact-prox"
    seed: int = 0
    start: str = "uniform"
    scores: tuple = ()
    temperature: Optional[float] = None
    schedule: Optional[str] = None
    face: str = "none"
    field_kind: str = "constant"
    coupling: Optional[tuple] = None
    eta: float = 0.5
    max_steps: int = 10000
    kl_tol: float = 1e-12
    dt0: float = 1e-2
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    convergence_kl: float = 1e-10
    horizon: float = 1000.0
    n_samples: int = 200
    uniform_samples: bool = False
    output: str = "run"
    format: str = "csv"
    jobs: int = 1
    grid: dict = field(default_factory=dict)

    def hash(self) -> str:
        payload = dataclasses.asdict(self)
        for opt in _OPTIONS:
            if opt.plumbing:
                payload.pop(opt.attr)
        canonical = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def validate(self) -> "ExperimentConfig":
        """Checks across settings; each value's choices are checked where it is read."""
        if len(self.scores) < 2:
            raise ConfigError("[scores] needs at least 2 score values")
        if self.temperature is not None and self.schedule is not None:
            raise ConfigError("[temperature] give exactly one of value or schedule")
        if self.field_kind == "linear":
            v = len(self.scores)
            if self.coupling is None or len(self.coupling) != v * v:
                raise ConfigError(
                    f"[field] linear kind needs a row-major coupling with {v * v} entries"
                )
        if self.max_steps < 0:
            raise ConfigError("[mirror] steps must be nonnegative")
        if self.jobs < 1:
            raise ConfigError("[sweep] jobs must be at least 1")
        try:
            Path(self.output).with_suffix(".json")
        except ValueError:
            raise ConfigError(f"[output] path {self.output!r} names no file") from None
        _check_output_directory("[output] path (--output)", self.output)
        return self


def _check_output_directory(name: str, path: str) -> None:
    """Fail before any work when ``path`` lies in a directory that does not exist."""
    if not Path(path).parent.is_dir():
        raise ConfigError(f"{name} {path!r}: directory {str(Path(path).parent)!r} does not exist")


def _parse_float_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _load_values_file(path: str) -> tuple:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"referenced file does not exist: {path}")
    text = p.read_text().strip()
    try:
        if text.startswith("["):
            return tuple(float(v) for v in json.loads(text))
        return _parse_float_list(text)
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse numbers from {path}: {exc}") from exc


def _parse_scores_arg(value: str) -> tuple:
    try:
        return _parse_float_list(value)
    except ValueError:
        return _load_values_file(value)


def _parse_bool(text: str) -> bool:
    """configparser's boolean words; any other text is an error, not False."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError("not a boolean (1/yes/true/on or 0/no/false/off)") from None


@dataclass(frozen=True)
class _Option:
    """One setting: ``ExperimentConfig`` attribute, INI ``section.key`` names
    (the first present wins; a ``file`` key names a file of numbers), flag,
    readers (the tasks that read it), INI parser (int and float also type the
    flag), choices and ``[sweep] grid.<name>`` name.  Plumbing is read by
    subcommands, not tasks, and is left out of the config hash."""

    attr: str
    keys: tuple
    flag: Optional[str]
    readers: tuple
    parse: Callable = str.strip
    choices: tuple = ()
    grid: Optional[str] = None
    plumbing: bool = False
    help: Optional[str] = None

    def read_by(self, command: str, task: str) -> bool:
        return (command if self.plumbing else task) in self.readers


_RUNS = ("simulate", "prox-iterate", "sweep")
_PROX = ("prox-iterate",)
#: tasks that run a flow (the reparameterization task fixes its own step controls)
_FLOWS = ("simulate", "reparameterization", "recurrence")
#: tasks that integrate the configured field (recurrence forces its sampling and stop)
_FIELDS = ("simulate", "recurrence")

#: argparse flags, the INI reader and its name check, flag overrides, grid cells,
#: choice checks and the check that a run reads what it is given derive from this.
_OPTIONS = (
    _Option("task", ("sweep.task", "run.task"), None, TASKS, choices=TASKS),
    _Option("dynamics", ("run.dynamics",), "--dynamics", _FLOWS, choices=("literal", "entropic")),
    _Option("step_kind", ("run.step",), "--step", _PROX, choices=("exact-prox", "printed-mw")),
    _Option("seed", ("run.seed",), "--seed", TASKS, int, grid="seed", help="random seed"),
    _Option("start", ("run.start",), None, TASKS),
    _Option("scores", ("scores.values", "scores.file"), "--scores", TASKS, _parse_float_list,
            help="inline comma-separated scores or a file path"),
    _Option("temperature", ("temperature.value",), "--temperature", TASKS, float,
            grid="temperature", help="constant temperature"),
    _Option("schedule", ("temperature.schedule",), "--schedule", TASKS,
            help="schedule spec: constant:T | piecewise:0:T0,t1:T1,... | exponential:T0:rate"),
    _Option("face", ("face.spec",), "--face", TASKS,
            help="none | topk:K | nucleus:MASS | indices:i,j,... (1-based)"),
    _Option("field_kind", ("field.kind",), None, _FIELDS, choices=("constant", "linear")),
    _Option("coupling", ("field.coupling", "field.file"), None, _FIELDS, _parse_float_list,
            grid="beta"),
    _Option("eta", ("mirror.eta",), None, _PROX, float, grid="eta"),
    _Option("max_steps", ("mirror.steps",), "--steps", _PROX, int, help="max discrete steps"),
    _Option("kl_tol", ("mirror.kl_tol",), "--tol", _PROX, float,
            help="stop tolerance (per-step KL / convergence KL)"),
    _Option("dt0", ("integrator.dt0",), None, _FIELDS, float),
    _Option("rel_tol", ("integrator.rel_tol",), None, _FIELDS, float),
    _Option("abs_tol", ("integrator.abs_tol",), None, _FIELDS, float),
    _Option("convergence_kl", ("integrator.convergence_kl",), "--tol", ("simulate",), float),
    _Option("horizon", ("integrator.horizon",), "--horizon", _FLOWS, float, grid="horizon",
            help="integration horizon"),
    _Option("n_samples", ("integrator.samples",), None, _FLOWS, int),
    _Option("uniform_samples", ("integrator.uniform_samples",), None, ("simulate",), _parse_bool),
    _Option("output", ("output.path",), "--output", _RUNS, plumbing=True, help="output path stem"),
    _Option("format", ("output.format",), "--format", ("simulate", "prox-iterate"),
            choices=("csv", "json"), plumbing=True, help="table format"),
    _Option("jobs", ("sweep.jobs",), "--jobs", ("sweep",), int, plumbing=True,
            help="parallel sweep workers"),
)
_GRID = {opt.grid: opt for opt in _OPTIONS if opt.grid}
#: flag -> the rows it sets, in table order
_FLAGS = {o.flag: tuple(row for row in _OPTIONS if row.flag == o.flag) for o in _OPTIONS if o.flag}
_INI_KEYS = {key for opt in _OPTIONS for key in opt.keys} | {f"sweep.grid.{g}" for g in _GRID}


def _grid_parser(parse: Callable) -> Callable:
    """Parser of a ``[sweep] grid.<name>`` list for a setting parsed by ``parse``."""

    def cells(text: str) -> tuple:
        values = _parse_float_list(text)
        if parse is int and not all(value.is_integer() for value in values):
            raise ValueError("every value must be an integer")
        return values

    return cells


def _ini_value(parser: configparser.ConfigParser, section: str, key: str, cast, choices=()):
    raw = parser.get(section, key)
    try:
        value = cast(raw)
    except ValueError as exc:  # ConfigError is one too: say which key it came from
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if choices and value not in choices:
        raise ConfigError(f"[{section}] {key} must be one of {' | '.join(choices)}, got {value!r}")
    return value


def _read_ini(path: str, single_run: bool = False) -> tuple:
    """(values, names): attribute -> value and -> key name of each setting the
    file gives.  Unknown sections and keys, and two keys of one section for one
    attribute, are errors.  A single run checks [sweep] but does not read it."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"config file not found: {path}")
    defaults = [parser.default_section] if parser.defaults() else []
    for section in defaults + parser.sections():
        known = sorted(key.partition(".")[2] for key in _INI_KEYS if key.startswith(section + "."))
        if not known:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"[{section}] unknown key {key!r} (known: {', '.join(known)})")
    if single_run:
        parser.remove_section("sweep")
    values, names = {}, {}
    for opt in _OPTIONS:
        given = [key.split(".", 1) for key in opt.keys if parser.has_option(*key.split(".", 1))]
        if len({section for section, _ in given}) < len(given):
            clashing = " or ".join(key for _, key in given)
            raise ConfigError(f"[{given[0][0]}] give only one of {clashing}")
        if given:
            section, key = given[0]
            cast = _load_values_file if key == "file" else opt.parse
            values[opt.attr] = _ini_value(parser, section, key, cast, opt.choices)
            names[opt.attr] = f"[{section}] {key}"
        if opt.grid and parser.has_option("sweep", f"grid.{opt.grid}"):
            cells = _ini_value(parser, "sweep", f"grid.{opt.grid}", _grid_parser(opt.parse))
            values.setdefault("grid", {})[opt.grid] = list(cells)
    return values, names


def load_config_file(path: str) -> ExperimentConfig:
    """Parse the INI experiment file; see the README for the schema."""
    return ExperimentConfig(**_read_ini(path)[0])


def _override(values: dict, attr: str, value) -> None:
    """Set ``values[attr]``; a temperature and a schedule clear each other."""
    values[attr] = value
    cleared = {"temperature": "schedule", "schedule": "temperature"}.get(attr)
    if cleared:
        values[cleared] = None


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The file, then the flags; a single run takes the [sweep] section as
    unread and its subcommand as its task.  Every setting the run does not read
    must hold its default, and every grid name must set one it reads."""
    command = args.command
    values, names = _read_ini(args.config, command != "sweep") if args.config else ({}, {})
    if command != "sweep" and values.setdefault("task", command) != command:
        raise ConfigError(f"{names['task']} = {values['task']}, but {command} runs task {command}")
    task = values.get("task", ExperimentConfig.task)
    where = f"task {task}" if command == task else f"a sweep of task {task}"
    for flag, opts in _FLAGS.items():
        value = getattr(args, flag[2:], None)
        if value in (None, ""):  # an empty flag is not given
            continue
        read = [opt for opt in opts if opt.read_by(command, task)]
        if not read:
            raise ConfigError(f"{flag} sets nothing that {where} reads")
        for opt in read:
            _override(values, opt.attr, _parse_scores_arg(value) if flag == "--scores" else value)
    for opt in _OPTIONS:
        if opt.read_by(command, task):
            continue
        default = getattr(ExperimentConfig, opt.attr)  # a dataclass field's default
        if values.get(opt.attr, default) != default:
            raise ConfigError(f"{names[opt.attr]} is not read by {where}; leave it at its default")
        if opt.grid in values.get("grid", {}):
            raise ConfigError(f"[sweep] grid.{opt.grid} sets nothing that {where} reads")
    return ExperimentConfig(**values).validate()


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    tool_version: str
    wall_clock_s: float
    terminal_status: str
    metrics: dict
    #: how the run spent its work (closed-form rows and blocks, or adaptive
    #: steps); a sweep cell's metrics equal its run's, so these stay out of
    #: ``metrics``
    telemetry: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return _strict_json(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls(**json.loads(text))


def _null_nonfinite(value):
    """``value`` with every NaN or infinite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _null_nonfinite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_null_nonfinite(item) for item in value]
    return value


def _strict_json(payload, **kwargs) -> str:
    """JSON that strict parsers accept: non-finite floats are written as null."""
    return json.dumps(_null_nonfinite(payload), allow_nan=False, **kwargs)


def _write_manifest(path: Path, manifest: RunManifest) -> None:
    path.write_text(manifest.to_json() + "\n")


def _finish_run(
    cfg: ExperimentConfig,
    out: Path,
    started: float,
    status: str,
    metrics: dict,
    telemetry: Optional[dict] = None,
) -> None:
    """Write the run manifest ``<out>.manifest.json``; wall clock ends here."""
    manifest = RunManifest(
        config_hash=cfg.hash(),
        seed=cfg.seed,
        tool_version=__version__,
        wall_clock_s=time.perf_counter() - started,
        terminal_status=status,
        metrics=metrics,
        telemetry=telemetry or {},
    )
    _write_manifest(out.parent / (out.name + ".manifest.json"), manifest)


# ---------------------------------------------------------------------------
# table writers (17 significant digits for lossless float64 round-trips)
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _probabilities(record: TrajectoryRecord, mask: Optional[FaceMask]) -> np.ndarray:
    """The record's (n, V) probabilities, re-embedded with exact zeros off the face."""
    if mask is None:
        return record.P
    full = np.zeros((len(record.P), mask.size))
    full[:, mask.support] = record.P
    return _simplex_rows(full)


def _trajectory_table(record: TrajectoryRecord, mask: Optional[FaceMask]) -> tuple:
    P = _probabilities(record, mask)
    columns = (
        ["t"] + [f"p_{i + 1}" for i in range(P.shape[1])]
        + ["free_energy", "kl_to_target", "field_norm"]
    )
    rows = np.column_stack(
        [record.t, P, record.free_energy, record.kl_to_target, record.field_norm]
    ).tolist()
    return columns, rows


def _iterate_table(record: TrajectoryRecord, mask: Optional[FaceMask]) -> tuple:
    P = _probabilities(record, mask)
    columns = (
        ["step"]
        + [f"p_{i + 1}" for i in range(P.shape[1])]
        + ["free_energy", "kl_step", "kl_to_softmax", "ascent_slack"]
    )
    body = np.column_stack(
        [P[1:], record.free_energy[1:], record.kl_move, record.kl_to_target[1:], record.slack]
    ).tolist()
    return columns, [[step, *row] for step, row in enumerate(body, start=1)]


def _write_table(path: Path, columns: list, rows: list, fmt: str) -> None:
    if fmt == "json":
        path.write_text(_strict_json({"columns": columns, "rows": rows}) + "\n")
        return
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# shared run assembly
# ---------------------------------------------------------------------------


def _parse_face(cfg: ExperimentConfig, s: ScoreVector, temperature: float) -> Optional[FaceMask]:
    spec = cfg.face.strip().lower()
    if spec in ("", "none"):
        return None
    head, _, rest = spec.partition(":")
    try:
        if head == "topk":
            return build_face_topk(s, int(rest))
        if head == "nucleus":
            return build_face_nucleus(s, temperature, float(rest))
        if head == "indices":
            indices = [int(tok) for tok in rest.replace(",", " ").split()]
            if any(i < 1 or i > s.size for i in indices):
                raise InvalidInputError(f"indices must lie in [1, {s.size}]")
            return FaceMask.from_indices(s.size, [i - 1 for i in indices])
    except (ValueError, InvalidInputError) as exc:
        raise ConfigError(f"[face] cannot parse spec {cfg.face!r}: {exc}") from exc
    raise ConfigError(f"[face] unknown spec {cfg.face!r} (use none|topk:K|nucleus:M|indices:...)")


def _start_point(cfg: ExperimentConfig, size: int) -> SimplexPoint:
    spec = cfg.start.strip().lower()
    if spec == "uniform":
        return SimplexPoint.uniform(size)
    if spec == "random":
        rng = np.random.default_rng(cfg.seed)
        return SimplexPoint(rng.dirichlet(np.ones(size)))
    try:
        values = _parse_float_list(cfg.start)
    except ValueError as exc:
        raise ConfigError(f"[run] start must be uniform|random|numbers, got {cfg.start!r}") from exc
    if len(values) != size:
        raise ConfigError(f"[run] start has {len(values)} entries, expected {size}")
    try:
        return SimplexPoint(np.asarray(values))
    except InvalidInputError as exc:
        raise ConfigError(f"[run] start is not a simplex point: {exc}") from exc


@dataclass
class _ResolvedRun:
    scores: ScoreVector
    schedule: object
    mask: Optional[FaceMask]
    p0: SimplexPoint
    coupling: Optional[np.ndarray]
    controls: IntegratorControls


def _resolve(cfg: ExperimentConfig) -> _ResolvedRun:
    try:
        s = ScoreVector(np.asarray(cfg.scores))
    except InvalidInputError as exc:
        raise ConfigError(f"[scores] {exc}") from exc
    if cfg.schedule is not None:
        try:
            schedule = parse_schedule(cfg.schedule)
        except InvalidInputError as exc:
            raise ConfigError(f"[temperature] schedule: {exc}") from exc
    else:
        temp = 1.0 if cfg.temperature is None else cfg.temperature
        try:
            schedule = ConstantSchedule(temp)
        except InvalidInputError as exc:
            raise ConfigError(f"[temperature] value: {exc}") from exc

    mask = _parse_face(cfg, s, schedule.at(0.0))
    coupling = None
    if cfg.field_kind == "linear":
        coupling = np.asarray(cfg.coupling, dtype=np.float64).reshape(s.size, s.size)

    p_full = _start_point(cfg, s.size)
    if mask is not None:
        try:
            s_face, p0 = restrict_to_face(s, p_full, mask)
        except SimplexFlowError as exc:
            raise ConfigError(f"[face] {exc}") from exc
        if coupling is not None:
            coupling = coupling[np.ix_(mask.indices, mask.indices)]
        s = s_face
    else:
        p0 = p_full

    controls = IntegratorControls(
        dt0=cfg.dt0,
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
        convergence_kl=cfg.convergence_kl,
        n_samples=cfg.n_samples,
        uniform_samples=cfg.uniform_samples,
    )
    return _ResolvedRun(
        scores=s, schedule=schedule, mask=mask, p0=p0, coupling=coupling, controls=controls
    )


def _simulate_record(cfg: ExperimentConfig) -> tuple:
    run = _resolve(cfg)
    kind = FieldKind(cfg.dynamics)
    if run.coupling is not None:
        record = integrate_path(
            linear_field(run.scores.values, run.coupling),
            kind,
            run.p0,
            run.schedule,
            cfg.horizon,
            run.controls,
        )
    else:
        record = integrate(kind, run.p0, run.scores, run.schedule, cfg.horizon, run.controls)
    return run, record


def _iterate_record(cfg: ExperimentConfig) -> tuple:
    run = _resolve(cfg)
    if not isinstance(run.schedule, ConstantSchedule):
        raise ConfigError("[temperature] prox-iterate needs a constant temperature")
    record = iterate(
        MirrorStepKind(cfg.step_kind),
        run.p0,
        run.scores,
        run.schedule.at(0.0),
        cfg.eta,
        max_steps=cfg.max_steps,
        kl_tol=cfg.kl_tol,
    )
    return run, record


def _flow_metrics(record: TrajectoryRecord) -> dict:
    first, last = record.samples[0], record.samples[-1]
    return {
        "terminal_t": last.t,
        "terminal_kl": last.kl_to_target,
        "free_energy_gain": last.free_energy - first.free_energy,
        "samples": len(record.samples),
        "accepted_steps": record.accepted_steps,
        "renormalizations": record.renormalizations,
    }


def _iterate_metrics(record: TrajectoryRecord) -> dict:
    first, last = record.samples[0], record.samples[-1]
    steps = record.accepted_steps
    return {
        "steps": steps,
        "terminal_kl_to_softmax": last.kl_to_target,
        "last_kl_step": float(record.kl_move[-1]) if steps else 0.0,
        "free_energy_gain": last.free_energy - first.free_energy,
        "min_ascent_slack": float(record.slack.min()) if steps else 0.0,
    }


def _run_task(task: str) -> tuple:
    """(record, table, metrics, row noun) of a single-run task; built per call,
    so a rebound module function (a test double, a timing wrapper) takes effect."""
    return {
        "simulate": (_simulate_record, _trajectory_table, _flow_metrics, "samples"),
        "prox-iterate": (_iterate_record, _iterate_table, _iterate_metrics, "steps"),
    }[task]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(cfg: ExperimentConfig) -> int:
    """``simulate`` or ``prox-iterate``: one run, its table and its manifest."""
    started = time.perf_counter()
    record_fn, table_fn, metrics_fn, noun = _run_task(cfg.task)
    run, record = record_fn(cfg)
    columns, rows = table_fn(record, run.mask)
    out = Path(cfg.output)
    data_path = out.with_suffix(".json" if cfg.format == "json" else ".csv")
    _write_table(data_path, columns, rows, cfg.format)
    status = record.terminal_status.value
    counts = record.block_counts or record.step_counts
    telemetry = dataclasses.asdict(counts) if counts is not None else None
    _finish_run(cfg, out, started, status, metrics_fn(record), telemetry)
    print(f"wrote {data_path} ({len(rows)} {noun}, status {status})")
    if record.terminal_status in _FAILED:
        print(f"{status}: {record.diagnostics}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _sweep_cells(cfg: ExperimentConfig) -> list:
    names = sorted(cfg.grid)
    grids = [cfg.grid[name] for name in names]
    return [dict(zip(names, values)) for values in itertools.product(*grids)]


def _apply_cell(cfg: ExperimentConfig, cell: dict) -> ExperimentConfig:
    values = {"grid": {}}
    for name, value in cell.items():
        if name == "beta":
            if cfg.field_kind != "linear" or cfg.coupling is None:
                raise ConfigError("[sweep] grid.beta needs a linear field with a coupling")
            values["coupling"] = tuple((float(value) * np.asarray(cfg.coupling)).tolist())
        else:
            _override(values, _GRID[name].attr, _GRID[name].parse(value))
    return dataclasses.replace(cfg, **values)


def _cell_outcome(cfg: ExperimentConfig) -> tuple:
    """(status, metrics) of one validated sweep cell."""
    if cfg.task == "reparameterization":
        run = _resolve(cfg)
        if cfg.dynamics != "literal":
            raise ConfigError("[sweep] reparameterization task needs literal dynamics")
        deviation = _reparameterization_deviation(
            FieldKind.LITERAL,
            run.scores,
            run.p0,
            as_schedule(run.schedule),
            cfg.horizon,
            IntegratorControls(rel_tol=1e-10, abs_tol=1e-12),
            n_checkpoints=cfg.n_samples,
        )
        return "ok", {"deviation": deviation}
    if cfg.task == "recurrence":
        if cfg.field_kind != "linear":
            raise ConfigError("[sweep] recurrence task needs a linear field")
        _, record = _simulate_record(
            dataclasses.replace(cfg, uniform_samples=True, convergence_kl=0.0)
        )
        report = detect_recurrence(record)
        return record.terminal_status.value, {
            "recurrent": report.recurrent,
            "first_return_time": report.first_return_time,
            "return_distance": report.return_distance,
            "drift_per_cycle": report.drift_per_cycle,
        }
    record_fn, _, metrics_fn, _ = _run_task(cfg.task)
    _, record = record_fn(cfg)
    return record.terminal_status.value, metrics_fn(record)


def _failed_cell(index: int, cell: dict, exc: BaseException) -> dict:
    error = f"{type(exc).__name__}: {exc}"
    return {"index": index, "cell": cell, "status": "error", "error": error}


def _run_cell(payload: tuple) -> dict:
    index, cfg_dict, cell = payload
    try:
        status, metrics = _cell_outcome(_apply_cell(ExperimentConfig(**cfg_dict), cell).validate())
    except Exception as exc:  # one failed cell must not abort the sweep
        return _failed_cell(index, cell, exc)
    return {"index": index, "cell": cell, "status": status, "metrics": metrics}


def cmd_sweep(cfg: ExperimentConfig) -> int:
    started = time.perf_counter()
    cells = _sweep_cells(cfg)
    base = dataclasses.asdict(cfg)
    base["grid"] = {}
    payloads = [(i, base, cell) for i, cell in enumerate(cells)]
    if cfg.jobs > 1:
        results = []
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            try:
                results.extend(pool.map(_run_cell, payloads))
            except BrokenProcessPool as exc:
                # a dead worker fails the cells still without a result, not the sweep
                results += [_failed_cell(i, cell, exc) for i, _, cell in payloads[len(results):]]
    else:
        results = [_run_cell(p) for p in payloads]
    results.sort(key=lambda r: r["index"])

    out = Path(cfg.output)
    data_path = out.with_suffix(".json")
    data_path.write_text(
        _strict_json({"config_hash": cfg.hash(), "cells": results}, indent=2) + "\n"
    )
    failed = [r for r in results if r["status"] in ("error", *(s.value for s in _FAILED))]
    status = "ok" if not failed else "failed-cells"
    _finish_run(cfg, out, started, status, {"cells": len(results), "failed": len(failed)})
    print(f"wrote {data_path} ({len(results)} cells, {len(failed)} failed)")
    return EXIT_OK if not failed else EXIT_DIVERGED


def cmd_verify(args: argparse.Namespace) -> int:
    _check_output_directory("--output", args.output)
    include = None
    if args.claims:
        include = [tok.strip() for tok in args.claims.split(",") if tok.strip()]
    try:
        verdicts = oracles.run_adjudication(seed=args.seed, include=include)
    except InvalidInputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    expected = oracles.expected_claim_matrix()
    problems = oracles.compare_to_expected(verdicts, expected)
    if include is None:
        produced = {(v.claim_id, v.dynamics) for v in verdicts}
        for claim_id, row in expected.items():
            for dynamics in row:
                if (claim_id, dynamics) not in produced:
                    problems.append(f"{claim_id}/{dynamics}: missing from this run")

    width = max(len(c) for c in oracles.CLAIMS) + 2
    print(f"{'claim':<{width}}{'dynamics':<14}{'holds':<8}expected")
    for v in verdicts:
        want = expected.get(v.claim_id, {}).get(v.dynamics)
        print(f"{v.claim_id:<{width}}{v.dynamics:<14}{str(v.holds):<8}{want}")

    payload = {
        "seed": args.seed,
        "matrix": oracles.matrix_from_verdicts(verdicts),
        "verdicts": [v.to_jsonable() for v in verdicts],
        "mismatches": problems,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    if problems:
        for p in problems:
            print(f"MISMATCH {p}", file=sys.stderr)
        return EXIT_ORACLE
    print(f"all verdicts match the committed matrix; report in {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexflow",
        description="Simplex decoding-dynamics experiments: flows, mirror iterations, "
        "parameter sweeps, and claim verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _RUNS:
        # a subcommand registers only the flags it reads, so any other is a
        # usage error; a sweep's cells may run any task
        tasks = TASKS if name == "sweep" else (name,)
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="INI experiment file (flags override it)")
        for flag, opts in _FLAGS.items():
            if any(opt.read_by(name, task) for opt in opts for task in tasks):
                first = opts[0]
                typed = first.parse if first.parse in (int, float) else None
                sub.add_argument(flag, type=typed, choices=first.choices or None, help=first.help)
    verify = subs.add_parser("verify", help="re-derive and check the claim matrix")
    verify.add_argument("--claims", help="comma-separated claim ids to run (default: all)")
    verify.add_argument("--seed", type=int, default=oracles.DEFAULT_SEED)
    verify.add_argument("--output", default="claims.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        cfg = _config_from_args(args)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleFailureError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except SimplexFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
