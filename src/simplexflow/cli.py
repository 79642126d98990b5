"""Experiment runner: simulate / prox-iterate / sweep / verify.

Configuration comes from an INI file (flat sections, documented in the
README) with command-line flags taking precedence.  Every run writes a
manifest JSON next to its output carrying the config hash, seed, tool
version, wall clock, terminal status, and headline metrics.  Trajectory and
iterate tables render floats with 17 significant digits, so files
round-trip to the exact float64 values and identical config + seed gives
byte-identical data files.

Exit codes: 0 success, 2 configuration error, 3 numerical divergence
(or failed sweep cells), 4 oracle/verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

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
    build_face_nucleus,
    build_face_topk,
    embed_in_face,
    restrict_to_face,
)
from .trajectory import TerminalStatus, TrajectoryRecord

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_ORACLE = 4

TASKS = ("simulate", "prox-iterate", "reparameterization", "recurrence")


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

    #: fields excluded from the config hash (execution plumbing, not the experiment)
    UNHASHED = ("output", "format", "jobs")

    def hash(self) -> str:
        payload = dataclasses.asdict(self)
        for key in self.UNHASHED:
            payload.pop(key, None)
        canonical = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def validate(self) -> "ExperimentConfig":
        if self.task not in TASKS:
            raise ConfigError(f"[run] task must be one of {TASKS}, got {self.task!r}")
        if self.dynamics not in ("literal", "entropic"):
            raise ConfigError(f"[run] dynamics must be literal or entropic, got {self.dynamics!r}")
        if self.step_kind not in ("exact-prox", "printed-mw"):
            raise ConfigError(
                f"[run] step must be exact-prox or printed-mw, got {self.step_kind!r}"
            )
        if self.format not in ("csv", "json"):
            raise ConfigError(f"[output] format must be csv or json, got {self.format!r}")
        if len(self.scores) < 2:
            raise ConfigError("[scores] needs at least 2 score values")
        if self.temperature is not None and self.schedule is not None:
            raise ConfigError("[temperature] give exactly one of value or schedule")
        if self.field_kind not in ("constant", "linear"):
            raise ConfigError(f"[field] kind must be constant or linear, got {self.field_kind!r}")
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
        return self


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


#: INI schema: config attribute -> the (section, key, parser) triples that set
#: it, highest priority first (the first key present wins).  Besides these,
#: [sweep] takes one ``grid.<name>`` key per swept parameter.
_INI_SCHEMA = {
    "task": (("sweep", "task", str.strip), ("run", "task", str.strip)),
    "dynamics": (("run", "dynamics", str.strip),),
    "step_kind": (("run", "step", str.strip),),
    "seed": (("run", "seed", int),),
    "start": (("run", "start", str.strip),),
    "scores": (("scores", "values", _parse_float_list), ("scores", "file", _load_values_file)),
    "temperature": (("temperature", "value", float),),
    "schedule": (("temperature", "schedule", str.strip),),
    "face": (("face", "spec", str.strip),),
    "field_kind": (("field", "kind", str.strip),),
    "coupling": (("field", "coupling", _parse_float_list), ("field", "file", _load_values_file)),
    "eta": (("mirror", "eta", float),),
    "max_steps": (("mirror", "steps", int),),
    "kl_tol": (("mirror", "kl_tol", float),),
    "dt0": (("integrator", "dt0", float),),
    "rel_tol": (("integrator", "rel_tol", float),),
    "abs_tol": (("integrator", "abs_tol", float),),
    "convergence_kl": (("integrator", "convergence_kl", float),),
    "horizon": (("integrator", "horizon", float),),
    "n_samples": (("integrator", "samples", int),),
    "uniform_samples": (("integrator", "uniform_samples", _parse_bool),),
    "output": (("output", "path", str.strip),),
    "format": (("output", "format", str.strip),),
    "jobs": (("sweep", "jobs", int),),
}
_GRID_PREFIX = "grid."
_INI_KEYS = {(section, key) for keys in _INI_SCHEMA.values() for section, key, _ in keys}


def _check_ini_names(parser: configparser.ConfigParser) -> None:
    """Reject any section or key the schema does not name, and two keys of one
    section that set the same attribute."""
    defaults = [parser.default_section] if parser.defaults() else []
    for section in defaults + parser.sections():
        known = sorted(key for sec, key in _INI_KEYS if sec == section)
        if not known:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in known and not (section == "sweep" and key.startswith(_GRID_PREFIX)):
                raise ConfigError(f"[{section}] unknown key {key!r} (known: {', '.join(known)})")
    for keys in _INI_SCHEMA.values():
        given = [(section, key) for section, key, _ in keys if parser.has_option(section, key)]
        for section in {sec for sec, _ in given}:
            clashing = [key for sec, key in given if sec == section]
            if len(clashing) > 1:
                raise ConfigError(f"[{section}] give only one of {' or '.join(clashing)}")


def load_config_file(path: str) -> ExperimentConfig:
    """Parse the INI experiment file; see the README for the schema."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    _check_ini_names(parser)
    cfg = ExperimentConfig()
    for attr, keys in _INI_SCHEMA.items():
        for section, key, cast in keys:
            if not parser.has_option(section, key):
                continue
            raw = parser.get(section, key)
            try:
                setattr(cfg, attr, cast(raw))
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})") from exc
            break
    if parser.has_section("sweep"):
        for key in parser.options("sweep"):
            if key.startswith(_GRID_PREFIX):
                name = key[len(_GRID_PREFIX):]
                try:
                    cfg.grid[name] = list(_parse_float_list(parser.get("sweep", key)))
                except ValueError as exc:
                    raise ConfigError(f"[sweep] {key}: {exc}") from exc
    return cfg


def apply_flags(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """Command-line flags override file values."""
    if getattr(args, "scores", None):
        cfg.scores = _parse_scores_arg(args.scores)
    if getattr(args, "temperature", None) is not None:
        cfg.temperature = args.temperature
        cfg.schedule = None
    if getattr(args, "schedule", None):
        cfg.schedule = args.schedule
        cfg.temperature = None
    for name, attr in (
        ("dynamics", "dynamics"),
        ("step", "step_kind"),
        ("face", "face"),
        ("output", "output"),
        ("format", "format"),
    ):
        value = getattr(args, name, None)
        if value:
            setattr(cfg, attr, value)
    if getattr(args, "steps", None) is not None:
        cfg.max_steps = args.steps
    if getattr(args, "horizon", None) is not None:
        cfg.horizon = args.horizon
    if getattr(args, "tol", None) is not None:
        cfg.kl_tol = args.tol
        cfg.convergence_kl = args.tol
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "jobs", None) is not None:
        cfg.jobs = args.jobs
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
    cfg: ExperimentConfig, out: Path, started: float, status: str, metrics: dict
) -> None:
    """Write the run manifest ``<out>.manifest.json``; wall clock ends here."""
    manifest = RunManifest(
        config_hash=cfg.hash(),
        seed=cfg.seed,
        tool_version=__version__,
        wall_clock_s=time.perf_counter() - started,
        terminal_status=status,
        metrics=metrics,
    )
    _write_manifest(out.parent / (out.name + ".manifest.json"), manifest)


# ---------------------------------------------------------------------------
# table writers (17 significant digits for lossless float64 round-trips)
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _trajectory_table(record: TrajectoryRecord, mask: Optional[FaceMask]) -> tuple:
    size = mask.size if mask is not None else record.samples[0].p.size
    columns = (
        ["t"] + [f"p_{i + 1}" for i in range(size)] + ["free_energy", "kl_to_target", "field_norm"]
    )
    rows = []
    for sample in record.samples:
        p = embed_in_face(mask, sample.p).probs if mask is not None else sample.p.probs
        rows.append(
            [sample.t, *p.tolist(), sample.free_energy, sample.kl_to_target, sample.field_norm]
        )
    return columns, rows


def _iterate_table(record: TrajectoryRecord, mask: Optional[FaceMask]) -> tuple:
    size = mask.size if mask is not None else record.samples[0].p.size
    columns = (
        ["step"]
        + [f"p_{i + 1}" for i in range(size)]
        + ["free_energy", "kl_step", "kl_to_softmax", "ascent_slack"]
    )
    rows = []
    for sample, cert in zip(record.samples[1:], record.certificates):
        p = embed_in_face(mask, sample.p).probs if mask is not None else sample.p.probs
        rows.append(
            [
                int(sample.t),
                *p.tolist(),
                sample.free_energy,
                cert.kl_move,
                sample.kl_to_target,
                cert.slack,
            ]
        )
    return columns, rows


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
                raise ConfigError(f"[face] indices must lie in [1, {s.size}]")
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
    slacks = [c.slack for c in record.certificates]
    return {
        "steps": record.accepted_steps,
        "terminal_kl_to_softmax": last.kl_to_target,
        "last_kl_step": record.certificates[-1].kl_move if record.certificates else 0.0,
        "free_energy_gain": last.free_energy - first.free_energy,
        "min_ascent_slack": min(slacks) if slacks else 0.0,
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


def cmd_run(task: str, cfg: ExperimentConfig) -> int:
    """``simulate`` or ``prox-iterate``: one run, its table and its manifest."""
    cfg.validate()
    started = time.perf_counter()
    record_fn, table_fn, metrics_fn, noun = _run_task(task)
    run, record = record_fn(cfg)
    columns, rows = table_fn(record, run.mask)
    out = Path(cfg.output)
    data_path = out.with_suffix(".json" if cfg.format == "json" else ".csv")
    _write_table(data_path, columns, rows, cfg.format)
    status = record.terminal_status.value
    _finish_run(cfg, out, started, status, metrics_fn(record))
    print(f"wrote {data_path} ({len(rows)} {noun}, status {status})")
    if record.terminal_status is TerminalStatus.DIVERGED:
        print(f"diverged: {record.diagnostics}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _sweep_cells(cfg: ExperimentConfig) -> list:
    if not cfg.grid:
        return [{}]
    names = sorted(cfg.grid)
    cells = [{}]
    for name in names:
        cells = [dict(cell, **{name: value}) for cell in cells for value in cfg.grid[name]]
    return cells


def _apply_cell(cfg: ExperimentConfig, cell: dict) -> ExperimentConfig:
    out = dataclasses.replace(cfg, grid={})
    for name, value in cell.items():
        if name == "temperature":
            out.temperature, out.schedule = float(value), None
        elif name == "eta":
            out.eta = float(value)
        elif name == "seed":
            out.seed = int(value)
        elif name == "horizon":
            out.horizon = float(value)
        elif name == "beta":
            if out.field_kind != "linear" or out.coupling is None:
                raise ConfigError("[sweep] grid.beta needs a linear field with a coupling")
            base = np.asarray(out.coupling)
            out.coupling = tuple((float(value) * base).tolist())
        else:
            raise ConfigError(f"[sweep] unknown grid parameter {name!r}")
    return out


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
            IntegratorControls(rel_tol=1e-10, abs_tol=1e-12, n_samples=cfg.n_samples),
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


def _run_cell(payload: tuple) -> dict:
    index, cfg_dict, cell = payload
    result = {"index": index, "cell": cell}
    try:
        status, metrics = _cell_outcome(_apply_cell(ExperimentConfig(**cfg_dict), cell).validate())
    except Exception as exc:  # one failed cell must not abort the sweep
        result.update(status="error", error=f"{type(exc).__name__}: {exc}")
    else:
        result.update(status=status, metrics=metrics)
    return result


def cmd_sweep(cfg: ExperimentConfig) -> int:
    cfg.validate()
    started = time.perf_counter()
    cells = _sweep_cells(cfg)
    base = dataclasses.asdict(cfg)
    base["grid"] = {}
    payloads = [(i, base, cell) for i, cell in enumerate(cells)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_run_cell, payloads))
    else:
        results = [_run_cell(p) for p in payloads]
    results.sort(key=lambda r: r["index"])

    out = Path(cfg.output)
    data_path = out.with_suffix(".json")
    data_path.write_text(
        _strict_json({"config_hash": cfg.hash(), "cells": results}, indent=2) + "\n"
    )
    failed = [r for r in results if r["status"] in ("error", "diverged")]
    status = "ok" if not failed else "failed-cells"
    _finish_run(cfg, out, started, status, {"cells": len(results), "failed": len(failed)})
    print(f"wrote {data_path} ({len(results)} cells, {len(failed)} failed)")
    return EXIT_OK if not failed else EXIT_DIVERGED


def cmd_verify(args: argparse.Namespace) -> int:
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


_RUNS = ("simulate", "prox-iterate", "sweep")
#: (flag, subcommands that read it, add_argument keywords).  A subcommand
#: registers only the flags it reads, so any other is a usage error; a sweep
#: reads every flag but --format, as its cells may run any task and its
#: results are always JSON.
_FLAGS = (
    ("--config", _RUNS, {"help": "INI experiment file (flags override it)"}),
    ("--scores", _RUNS, {"help": "inline comma-separated scores or a file path"}),
    ("--temperature", _RUNS, {"type": float, "help": "constant temperature"}),
    (
        "--schedule",
        _RUNS,
        {"help": "schedule spec: constant:T | piecewise:0:T0,t1:T1,... | exponential:T0:rate"},
    ),
    ("--dynamics", ("simulate", "sweep"), {"choices": ("literal", "entropic")}),
    ("--step", ("prox-iterate", "sweep"), {"choices": ("exact-prox", "printed-mw")}),
    ("--face", _RUNS, {"help": "none | topk:K | nucleus:MASS | indices:i,j,... (1-based)"}),
    ("--steps", ("prox-iterate", "sweep"), {"type": int, "help": "max discrete steps"}),
    ("--horizon", ("simulate", "sweep"), {"type": float, "help": "integration horizon"}),
    ("--tol", _RUNS, {"type": float, "help": "stop tolerance (per-step KL / convergence KL)"}),
    ("--seed", _RUNS, {"type": int, "help": "random seed"}),
    ("--jobs", ("sweep",), {"type": int, "help": "parallel sweep workers"}),
    ("--output", _RUNS, {"help": "output path stem"}),
    ("--format", ("simulate", "prox-iterate"), {"choices": ("csv", "json"), "help": "table format"}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexflow",
        description="Simplex decoding-dynamics experiments: flows, mirror iterations, "
        "parameter sweeps, and claim verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _RUNS:
        sub = subs.add_parser(name)
        for flag, commands, keywords in _FLAGS:
            if name in commands:
                sub.add_argument(flag, **keywords)
    verify = subs.add_parser("verify", help="re-derive and check the claim matrix")
    verify.add_argument("--claims", help="comma-separated claim ids to run (default: all)")
    verify.add_argument("--seed", type=int, default=oracles.DEFAULT_SEED)
    verify.add_argument("--output", default="claims.json")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config_file(args.config) if args.config else ExperimentConfig()
    return apply_flags(cfg, args)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        cfg = _config_from_args(args)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_run(args.command, cfg)
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
