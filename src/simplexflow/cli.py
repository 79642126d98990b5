"""Experiment runner: simulate / prox-iterate / sweep / verify.

Configuration comes from an INI file (flat sections, documented in the README)
with command-line flags taking precedence, both defined by one table,
``_OPTIONS``; a run rejects any setting its task and field kind do not read
unless it holds its default.  Every run writes a manifest JSON next to its
output carrying the config hash (task included), seed, tool version, wall
clock, terminal status, headline metrics and, for a single run, the time of
each layer.  Trajectory and iterate tables render floats with 17
significant digits, so files round-trip to the exact float64 values and
identical config + seed gives byte-identical data files.  A CSV table is
streamed to its file in blocks of values, each rendered to the bytes of
``'%.17g' % x`` by array arithmetic (``csvfloats``); a JSON table
row by row.

Exit codes: 0 success, 2 configuration error, 3 numerical divergence, a
stalled exact-prox run or failed sweep cells, 4 oracle/verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__, csvfloats
from .exceptions import ConfigError, InvalidInputError, OracleFailureError, SimplexFlowError
from .mirror import DEFAULT_KL_TOL, DEFAULT_MAX_STEPS, DEFAULT_STEP_SIZE, MirrorStepKind, iterate
from .path_fields import ScoreField, detect_recurrence, integrate_path
from .replicator import (
    DEFAULT_HORIZON,
    REPARAMETERIZATION_CONTROLS,
    ConstantSchedule,
    FieldKind,
    IntegratorControls,
    _reparameterization_deviation,
    integrate_rows,
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
#: ``[field] kind``: fixed scores, or scores s0 + B p
_KINDS = ("constant", "linear")
#: statuses that exit EXIT_DIVERGED and count as failed sweep cells
_FAILED = (TerminalStatus.DIVERGED, TerminalStatus.STALLED)


def __getattr__(name: str):
    """The oracles and the process pool, loaded on first use (PEP 562): only
    ``verify`` and a sweep that starts a pool need them.  Once loaded, each
    is a module attribute that a caller may replace."""
    if name == "oracles":
        value = importlib.import_module(".oracles", __package__)
    elif name in ("ProcessPoolExecutor", "BrokenProcessPool"):
        value = getattr(importlib.import_module("concurrent.futures.process"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def _deferred(name: str):
    """The module attribute ``name``, as replaced or else loaded by ``__getattr__``."""
    return globals()[name] if name in globals() else __getattr__(name)


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
    eta: float = DEFAULT_STEP_SIZE
    max_steps: int = DEFAULT_MAX_STEPS
    kl_tol: float = DEFAULT_KL_TOL
    dt0: float = IntegratorControls.dt0
    step_tol: float = IntegratorControls.step_tol
    convergence_kl: float = IntegratorControls.convergence_kl
    horizon: float = DEFAULT_HORIZON
    n_samples: int = IntegratorControls.n_samples
    uniform_samples: bool = IntegratorControls.uniform_samples
    output: str = "run"
    format: str = "csv"
    jobs: int = 1
    grid: dict = field(default_factory=dict)

    def hash(self) -> str:
        # the fields themselves: dataclasses.asdict would deep-copy every score
        plumbing = {opt.attr for opt in _OPTIONS if opt.plumbing}
        payload = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in plumbing
        }
        canonical = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def validate(self) -> "ExperimentConfig":
        """Checks across settings; each value's choices are checked where it is
        read.  No grid name changes a setting read here but the seed and the
        temperature, every grid seed is checked, and a grid temperature makes
        every cell's schedule constant, so each cell of a valid sweep is valid
        too."""
        if self.task == "reparameterization" and self.dynamics != "literal":
            raise ConfigError(
                f"[run] dynamics = {self.dynamics}: task reparameterization on a "
                f"{self.field_kind} field needs literal dynamics"
            )
        if self.task == "recurrence" and self.field_kind != "linear":
            raise ConfigError(
                f"[field] kind = {self.field_kind}: task recurrence needs a linear field"
            )
        if len(self.scores) < 2:
            raise ConfigError("[scores] needs at least 2 score values")
        if self.temperature is not None and self.schedule is not None:
            raise ConfigError("[temperature] give exactly one of value or schedule")
        # a grid.temperature gives every cell a constant temperature
        gridded = "temperature" in self.grid
        if self.task == "prox-iterate" and self.schedule is not None and not gridded:
            try:
                schedule = parse_schedule(self.schedule)
            except InvalidInputError as exc:
                raise ConfigError(f"[temperature] schedule: {exc}") from exc
            if not isinstance(schedule, ConstantSchedule):
                raise ConfigError("[temperature] prox-iterate needs a constant temperature")
        if self.field_kind == "linear":
            v = len(self.scores)
            if self.coupling is None or len(self.coupling) != v * v:
                raise ConfigError(
                    f"[field] linear kind needs a row-major coupling with {v * v} entries"
                )
        if self.max_steps < 0:
            raise ConfigError("[mirror] steps must be nonnegative")
        for key, tol in (("[mirror] kl_tol", self.kl_tol),
                         ("[integrator] convergence_kl", self.convergence_kl)):
            if not 0.0 <= tol < math.inf:  # 0 disables the stop
                raise ConfigError(f"{key} (--tol) must be finite and nonnegative, got {tol!r}")
        if min([self.seed, *self.grid.get("seed", ())]) < 0:
            raise ConfigError("[run] seed (--seed) and [sweep] grid.seed must be nonnegative")
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
    """``--scores``: numbers, or the path of a file of numbers."""
    try:
        return _parse_float_list(value)
    except ValueError as exc:
        if Path(value).exists():
            return _load_values_file(value)
        raise ConfigError(f"--scores {value!r} is neither numbers nor a file: {exc}") from None


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
    flag), choices, ``[sweep] grid.<name>`` name and the field kinds whose
    runs read it.  Plumbing is read by subcommands, not tasks, and is left out
    of the config hash."""

    attr: str
    keys: tuple
    flag: Optional[str]
    readers: tuple
    parse: Callable = str.strip
    choices: tuple = ()
    grid: Optional[str] = None
    plumbing: bool = False
    help: Optional[str] = None
    kinds: tuple = _KINDS

    def read_by(self, command: str, task: str, kind: str) -> bool:
        return (command if self.plumbing else task) in self.readers and kind in self.kinds


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
    _Option("field_kind", ("field.kind",), None, _FIELDS, choices=_KINDS),
    _Option("coupling", ("field.coupling", "field.file"), None, _FIELDS, _parse_float_list,
            grid="beta", kinds=("linear",)),
    _Option("eta", ("mirror.eta",), None, _PROX, float, grid="eta"),
    _Option("max_steps", ("mirror.steps",), "--steps", _PROX, int, help="max discrete steps"),
    _Option("kl_tol", ("mirror.kl_tol",), "--tol", _PROX, float,
            help="stop tolerance (per-step KL / convergence KL)"),
    _Option("dt0", ("integrator.dt0",), None, _FIELDS, float),
    # fixed scores are solved exactly and stop at a KL; a linear field is
    # stepped to its horizon
    _Option("step_tol", ("integrator.step_tol",), None, _FIELDS, float, kinds=("linear",)),
    _Option("convergence_kl", ("integrator.convergence_kl",), "--tol", ("simulate",), float,
            kinds=("constant",)),
    _Option("horizon", ("integrator.horizon",), "--horizon", _FLOWS, float, grid="horizon",
            help="integration horizon"),
    _Option("n_samples", ("integrator.samples",), None, _FLOWS, int),
    _Option("uniform_samples", ("integrator.uniform_samples",), None, ("simulate",), _parse_bool),
    _Option("output", ("output.path",), "--output", _RUNS, plumbing=True, help="output path stem"),
    _Option("format", ("output.format",), "--format", ("simulate", "prox-iterate"),
            choices=("csv", "json"), plumbing=True, help="table format"),
    _Option("jobs", ("sweep.jobs",), "--jobs", ("sweep",), int, plumbing=True,
            help="sweep workers for the cells not solved as rows, at most one per cell"),
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
    unread and its subcommand as its task.  The settings must pass ``validate``
    (so a task's requirements come first), every setting the run does not read
    (for its task and field kind) must hold its default, and every grid name
    must set one it reads."""
    command = args.command
    values, names = _read_ini(args.config, command != "sweep") if args.config else ({}, {})
    if command != "sweep" and values.setdefault("task", command) != command:
        raise ConfigError(f"{names['task']} = {values['task']}, but {command} runs task {command}")
    task = values.get("task", ExperimentConfig.task)
    kind = values.get("field_kind", ExperimentConfig.field_kind)
    where = f"task {task}" if command == task else f"a sweep of task {task}"
    if task in _FIELDS:
        where += f" on a {kind} field"
    for flag, opts in _FLAGS.items():
        value = getattr(args, flag[2:], None)
        if value in (None, ""):  # an empty flag is not given
            continue
        read = [opt for opt in opts if opt.read_by(command, task, kind)]
        if not read:
            raise ConfigError(f"{flag} sets nothing that {where} reads")
        for opt in read:
            _override(values, opt.attr, _parse_scores_arg(value) if flag == "--scores" else value)
    cfg = ExperimentConfig(**values).validate()
    for opt in _OPTIONS:
        if opt.read_by(command, task, kind):
            continue
        default = getattr(ExperimentConfig, opt.attr)  # a dataclass field's default
        if values.get(opt.attr, default) != default:
            raise ConfigError(f"{names[opt.attr]} is not read by {where}; leave it at its default")
        if opt.grid in values.get("grid", {}):
            raise ConfigError(f"[sweep] grid.{opt.grid} sets nothing that {where} reads")
    return cfg


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
    #: seconds a single run spent resolving its config (``resolve_s``: scores,
    #: schedule, face and start), solving its record (``record_s``), building
    #: its table (``table_s``) and writing it (``write_s``), within
    #: ``wall_clock_s``; for a sweep, each cell's seconds (``cell_s``), the
    #: slowest cell, the cells per status and per path (``paths``) and each
    #: row call's cells and seconds (``row_calls``), which the sweep file
    #: leaves out so that equal sweeps write equal files
    timings: dict = field(default_factory=dict)

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
    timings: Optional[dict] = None,
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
        timings=timings or {},
    )
    _write_manifest(out.parent / (out.name + ".manifest.json"), manifest)


# ---------------------------------------------------------------------------
# table writers: a table is its columns and an (n, k) float body
# ---------------------------------------------------------------------------


def _probabilities(record: TrajectoryRecord, mask: Optional[FaceMask]) -> np.ndarray:
    """The record's (n, V) probabilities, re-embedded with exact zeros off the face."""
    if mask is None:
        return record.P
    full = np.zeros((len(record.P), mask.size))
    full[:, mask.support] = record.P
    return _simplex_rows(full)


def _trajectory_table(record: TrajectoryRecord, mask: Optional[FaceMask]) -> tuple:
    """(columns, body): one (n, k) float row per sample."""
    P = _probabilities(record, mask)
    columns = (
        ["t"] + [f"p_{i + 1}" for i in range(P.shape[1])]
        + ["free_energy", "kl_to_target", "field_norm"]
    )
    body = np.column_stack(
        [record.t, P, record.free_energy, record.kl_to_target, record.field_norm]
    )
    return columns, body


def _iterate_table(record: TrajectoryRecord, mask: Optional[FaceMask]) -> tuple:
    """(columns, body): one (n, k) float row per step, led by the step number."""
    P = _probabilities(record, mask)
    columns = (
        ["step"]
        + [f"p_{i + 1}" for i in range(P.shape[1])]
        + ["free_energy", "kl_step", "kl_to_softmax", "ascent_slack"]
    )
    body = np.column_stack([
        np.arange(1.0, len(P)), P[1:], record.free_energy[1:], record.kl_move,
        record.kl_to_target[1:], record.slack,
    ])
    return columns, body


#: values per CSV block: 1/64 of the table's, at least this and at most
#: ``_CSV_BLOCK_CAP``.  ``csvfloats.format_block`` peaks near 65 bytes a value,
#: whatever the values (its 32-byte slots, then ``bytearray.translate``'s
#: result as long as them), so a write peaks near one byte a value of its
#: table; it costs about 115 numpy calls a block
_CSV_BLOCK = 2560
#: a peak of about 1 MiB at any length, the budget of ``replicator.BLOCK_BYTES``;
#: larger blocks were no faster (65,536 values, 2-core host)
_CSV_BLOCK_CAP = 16384


def _write_table(path: Path, columns: list, body: np.ndarray, fmt: str) -> None:
    """Write the (n, k) float ``body`` under ``columns``.

    Both formats are streamed, so no Python list of the whole table is ever
    built.  A CSV goes out in blocks of ``len(flat) // 64`` values of the
    flat body, clamped to [``_CSV_BLOCK``, ``_CSV_BLOCK_CAP``] (2,560 values
    up to a table of 163,840, 16,384 from one of 1,048,576), each rendered by
    ``csvfloats.format_block`` in one block buffer per table: the bytes of
    ``'%.17g' % x`` (17 significant digits: every float64 parses back
    exactly; ``nan``, ``inf``, ``-0``), so a step number below 2^53 is its
    integer.  A JSON row is ``_strict_json`` of its list, a leading ``step``
    column as ``int``, joined as ``json.dumps`` joins a list, so the file
    holds the bytes of ``_strict_json({"columns": columns, "rows": rows})``."""
    if fmt == "json":
        integer_step = columns[:1] == ["step"]
        with path.open("w") as fh:
            fh.write(f'{{"columns": {_strict_json(columns)}, "rows": [')
            separator = ""
            for row in body:
                values = row.tolist()
                if integer_step:
                    values[0] = int(values[0])
                fh.write(separator + _strict_json(values))
                separator = ", "
            fh.write("]}\n")
        return
    width = body.shape[1]
    flat = body.reshape(-1)
    size = min(max(len(flat) // 64, _CSV_BLOCK), _CSV_BLOCK_CAP)
    block = bytearray(csvfloats.SLOT_BYTES * min(size, len(flat)))
    with path.open("wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        for start in range(0, len(flat), size):
            values = flat[start:start + size]
            fh.write(csvfloats.format_block(values, start % width, width, block))


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
        step_tol=cfg.step_tol,
        convergence_kl=cfg.convergence_kl,
        n_samples=cfg.n_samples,
        uniform_samples=cfg.uniform_samples,
    )
    return _ResolvedRun(
        scores=s, schedule=schedule, mask=mask, p0=p0, coupling=coupling, controls=controls
    )


def _simulate_record(
    cfg: ExperimentConfig, run: _ResolvedRun, dense: bool = False
) -> TrajectoryRecord:
    field = ScoreField(run.scores.values, run.coupling)
    kind = FieldKind(cfg.dynamics)
    return integrate_path(
        field, kind, run.p0, run.schedule, cfg.horizon, run.controls, dense=dense
    )


def _iterate_record(cfg: ExperimentConfig, run: _ResolvedRun) -> TrajectoryRecord:
    return iterate(
        MirrorStepKind(cfg.step_kind),
        run.p0,
        run.scores,
        run.schedule.at(0.0),
        cfg.eta,
        max_steps=cfg.max_steps,
        kl_tol=cfg.kl_tol,
    )


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
    run = _resolve(cfg)
    resolved = time.perf_counter()
    record = record_fn(cfg, run)
    recorded = time.perf_counter()
    columns, body = table_fn(record, run.mask)
    tabled = time.perf_counter()
    out = Path(cfg.output)
    data_path = out.with_suffix(".json" if cfg.format == "json" else ".csv")
    _write_table(data_path, columns, body, cfg.format)
    timings = {
        "resolve_s": resolved - started,
        "record_s": recorded - resolved,
        "table_s": tabled - recorded,
        "write_s": time.perf_counter() - tabled,
    }
    status = record.terminal_status.value
    counts = record.block_counts or record.step_counts
    telemetry = dataclasses.asdict(counts) if counts is not None else None
    _finish_run(cfg, out, started, status, metrics_fn(record), telemetry, timings)
    print(f"wrote {data_path} ({len(body)} {noun}, status {status})")
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
            values["coupling"] = tuple((float(value) * np.asarray(cfg.coupling)).tolist())
        else:
            _override(values, _GRID[name].attr, _GRID[name].parse(value))
    return dataclasses.replace(cfg, **values)


def _cell_outcome(cfg: ExperimentConfig) -> tuple:
    """(status, metrics) of one cell of a validated sweep."""
    run = _resolve(cfg)
    if cfg.task == "reparameterization":
        deviation = _reparameterization_deviation(
            FieldKind.LITERAL,
            run.scores,
            run.p0,
            run.schedule,
            cfg.horizon,
            REPARAMETERIZATION_CONTROLS,
            n_checkpoints=cfg.n_samples,
        )
        return "ok", {"deviation": deviation}
    if cfg.task == "recurrence":
        # the loop scan reads every sample, and dense output interpolates
        # them from the steps the error control takes instead of landing a
        # step on each
        controls = dataclasses.replace(run.controls, uniform_samples=True, convergence_kl=0.0)
        record = _simulate_record(cfg, dataclasses.replace(run, controls=controls), dense=True)
        report = detect_recurrence(record)
        return record.terminal_status.value, {
            "recurrent": report.recurrent,
            "first_return_time": report.first_return_time,
            "return_distance": report.return_distance,
            "drift_per_cycle": report.drift_per_cycle,
        }
    record_fn, _, metrics_fn, _ = _run_task(cfg.task)
    record = record_fn(cfg, run)
    return record.terminal_status.value, metrics_fn(record)


def _failed_cell(index: int, cell: dict, exc: BaseException) -> dict:
    error = f"{type(exc).__name__}: {exc}"
    return {"index": index, "cell": cell, "status": "error", "error": error}


def _run_cell(payload: tuple) -> tuple:
    """(the cell's entry in the sweep file, its seconds): the wall clock goes
    to the manifest only, so equal sweeps write equal files."""
    started = time.perf_counter()
    index, cfg_dict, cell = payload
    try:
        status, metrics = _cell_outcome(_apply_cell(ExperimentConfig(**cfg_dict), cell))
        result = {"index": index, "cell": cell, "status": status, "metrics": metrics}
    except Exception as exc:  # one failed cell must not abort the sweep
        result = _failed_cell(index, cell, exc)
    return result, time.perf_counter() - started


#: rows per row call, a bound on its memory: a call holds each row's blocks,
#: as large as its single run's (up to BLOCK_BYTES), and each row's record.
#: On the perfbench ``sweep`` workload (V = 8), calls of 8 rows raised the
#: peak memory by 1.9 % over a pool's, and one call of its 48 rows by 8.6 %
_ROWS_PER_CALL = 8


def _sort_cells(cfg: ExperimentConfig, payloads: list) -> tuple:
    """(groups, failed, others): the row cells, the outcomes of cells whose
    resolve raised, and the payloads of every other cell.

    A row cell is a ``simulate`` cell whose resolved field ``integrate_path``
    solves in closed form (``grid.beta = 0`` too).  ``groups`` maps what a
    row call shares (dynamics, horizon, controls, schedule and scores after
    the face) to the row cells' (payload, resolved run)."""
    groups, failed, others = {}, [], []
    if cfg.task != "simulate":
        return groups, failed, payloads
    for payload in payloads:
        started = time.perf_counter()
        index, _, cell = payload
        try:
            cell_cfg = _apply_cell(cfg, cell)
            run = _resolve(cell_cfg)
            closed = ScoreField(run.scores.values, run.coupling).constant_equivalent
        except Exception as exc:  # the error entry of its run through _run_cell
            failed.append((_failed_cell(index, cell, exc), time.perf_counter() - started))
            continue
        if not closed:
            others.append(payload)
            continue
        key = (cell_cfg.dynamics, cell_cfg.horizon, run.controls, run.schedule,
               tuple(run.scores.values))
        groups.setdefault(key, []).append((payload, run))
    return groups, failed, others


def _solve_row_cells(groups: dict) -> tuple:
    """(outcomes, calls, reruns): each group solved in calls of at most
    ``_ROWS_PER_CALL`` rows, every row equal to the bit to its cell's single
    run; the outcomes have no time of their own, and ``calls`` holds the
    cells and seconds of each call.  The cells of a call that raises are
    rerun one at a time by ``_run_cell`` into ``reruns``, so that each keeps
    its own run's error entry."""
    outcomes, calls, reruns = [], [], []
    for (dynamics, horizon, controls, schedule, _), members in groups.items():
        for first in range(0, len(members), _ROWS_PER_CALL):
            chunk = members[first : first + _ROWS_PER_CALL]
            started = time.perf_counter()
            try:
                records = integrate_rows(
                    FieldKind(dynamics), [run.p0 for _, run in chunk],
                    [chunk[0][1].scores] * len(chunk), schedule, horizon, controls,
                )
            except Exception:
                reruns += [_run_cell(payload) for payload, _ in chunk]
                continue
            outcomes += [
                ({"index": index, "cell": cell, "status": record.terminal_status.value,
                  "metrics": _flow_metrics(record)}, None)
                for ((index, _, cell), _), record in zip(chunk, records)
            ]
            calls.append({"cells": len(chunk), "seconds": time.perf_counter() - started})
    return outcomes, calls, reruns


def _sweep_timings(outcomes: list, paths: dict, row_calls: list) -> dict:
    """The sweep manifest's ``timings``: the seconds of each cell in cell
    order (None for a row cell and for a cell lost with its worker), the
    slowest cell of those timed, the number of cells per status and per
    path, and the cells and seconds of each row call."""
    timed = [outcome for outcome in outcomes if outcome[1] is not None]
    slowest = None
    if timed:
        result, seconds = max(timed, key=lambda outcome: outcome[1])
        slowest = {"index": result["index"], "cell": result["cell"], "seconds": seconds}
    return {
        "cell_s": [seconds for _, seconds in outcomes],
        "slowest_cell": slowest,
        "statuses": dict(Counter(result["status"] for result, _ in outcomes)),
        "paths": paths,
        "row_calls": row_calls,
    }


def cmd_sweep(cfg: ExperimentConfig) -> int:
    """Every cell of the grid into one JSON file.  Row cells (``_sort_cells``)
    are solved as rows in this process; the others run in a pool of at most
    ``--jobs`` workers, one per cell at most, or here when that is 1."""
    started = time.perf_counter()
    cells = _sweep_cells(cfg)
    base = dataclasses.asdict(cfg)
    base["grid"] = {}
    payloads = [(i, base, cell) for i, cell in enumerate(cells)]
    groups, serial, others = _sort_cells(cfg, payloads)
    rows, row_calls, reruns = _solve_row_cells(groups)
    serial += reruns
    pooled = []
    # a pool starts all its workers at once, so it gets no more than the cells
    workers = min(cfg.jobs, len(others))
    if workers > 1:
        with _deferred("ProcessPoolExecutor")(max_workers=workers) as pool:
            try:
                pooled.extend(pool.map(_run_cell, others))
            except _deferred("BrokenProcessPool") as exc:
                # a dead worker fails the cells still without a result, not the sweep
                pooled += [
                    (_failed_cell(i, cell, exc), None) for i, _, cell in others[len(pooled):]
                ]
    else:
        serial += [_run_cell(p) for p in others]
    paths = {"rows": len(rows), "pool": len(pooled), "serial": len(serial)}
    outcomes = sorted(rows + pooled + serial, key=lambda outcome: outcome[0]["index"])
    results = [result for result, _ in outcomes]

    out = Path(cfg.output)
    data_path = out.with_suffix(".json")
    data_path.write_text(
        _strict_json({"config_hash": cfg.hash(), "cells": results}, indent=2) + "\n"
    )
    failed = [r for r in results if r["status"] in ("error", *(s.value for s in _FAILED))]
    status = "ok" if not failed else "failed-cells"
    metrics = {"cells": len(results), "failed": len(failed)}
    timings = _sweep_timings(outcomes, paths, row_calls)
    _finish_run(cfg, out, started, status, metrics, timings=timings)
    print(f"wrote {data_path} ({len(results)} cells, {len(failed)} failed)")
    return EXIT_OK if not failed else EXIT_DIVERGED


def cmd_verify(args: argparse.Namespace) -> int:
    _check_output_directory("--output", args.output)
    oracles = _deferred("oracles")
    seed = oracles.DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    include = None
    if args.claims:
        include = [tok.strip() for tok in args.claims.split(",") if tok.strip()]
        if not include:
            raise ConfigError(f"--claims {args.claims!r} names no claim")
    timings: dict = {}
    try:
        verdicts = oracles.run_adjudication(seed=seed, include=include, timings=timings)
    except InvalidInputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    expected = oracles.expected_claim_matrix()
    problems = oracles.compare_to_expected(verdicts, expected)
    width = max(len(c) for c in oracles.CLAIMS) + 2
    print(f"{'claim':<{width}}{'dynamics':<14}{'holds':<8}expected")
    for v in verdicts:
        want = expected.get(v.claim_id, {}).get(v.dynamics)
        print(f"{v.claim_id:<{width}}{v.dynamics:<14}{str(v.holds):<8}{want}")

    payload = {
        "seed": seed,
        "matrix": oracles.matrix_from_verdicts(verdicts),
        "verdicts": [v.to_jsonable() for v in verdicts],
        "mismatches": problems,
        "timings": timings,
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
            if any(opt.read_by(name, t, k) for opt in opts for t in tasks for k in _KINDS):
                first = opts[0]
                typed = first.parse if first.parse in (int, float) else None
                sub.add_argument(flag, type=typed, choices=first.choices or None, help=first.help)
    verify = subs.add_parser("verify", help="re-derive and check the claim matrix")
    verify.add_argument("--claims", help="comma-separated claim ids to run (default: all)")
    verify.add_argument("--seed", type=int, help="claim seed (default: oracles.DEFAULT_SEED)")
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
