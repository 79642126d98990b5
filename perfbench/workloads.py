"""The four benchmark workloads, built from a seed.

Each workload turns a seed into a *round*: a fixed list of ops that the
benchmark repeats, one op at a time (a closed loop with one caller).  Every
round of a run uses the same inputs, so round times differ only by noise and
every count repeats exactly for a seed.  The program receives only the
inputs generated here: scores, starts, score files and INI files.

Correctness tolerances are copied from ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from simplexflow import cli, mirror, oracles, path_fields, replicator, simplex
from simplexflow.trajectory import TerminalStatus, TrajectoryRecord


@dataclass
class Op:
    """One call into the program; ``check`` judges its result after timing."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    #: exact counts a check read from the output, e.g. sweep cells
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# ensemble: many independent fixed-score runs at small V
# ---------------------------------------------------------------------------

ENSEMBLE_SIZES = (2, 3, 8, 16)
ENSEMBLE_TEMPS = (0.25, 1.0, 4.0)
PIECEWISE = replicator.PiecewiseConstantSchedule((1.0, 2.0), (4.0, 1.0, 0.5))
EXPONENTIAL = replicator.ExponentialSchedule(1.0, 1.0)
FLOW_CONTROLS = replicator.IntegratorControls(n_samples=60)


def _gapped_scores(rng, size, min_gap=0.2):
    values = np.sort(rng.uniform(-3.0, 3.0, size))
    values[-1] = values[-2] + max(min_gap, values[-1] - values[-2])
    return simplex.ScoreVector(rng.permutation(values))


def _entropic_op(s, p0, schedule):
    def run():
        return replicator.integrate(
            replicator.FieldKind.ENTROPIC, p0, s, schedule, 1e3, FLOW_CONTROLS
        )

    def check(traj):
        if traj.terminal_status is not TerminalStatus.CONVERGED:
            return False
        sched = replicator.as_schedule(schedule)
        t_end = sched.at(traj.terminal.t)
        if simplex.kl_divergence(traj.terminal.p, simplex.softmax(s, t_end)) >= 1e-8:
            return False
        if isinstance(sched, replicator.ExponentialSchedule):
            # free energy at a moving temperature is no Lyapunov function
            return True
        # after the last breakpoint the temperature is constant again
        last = max(sched.breakpoints(), default=0.0)
        tail = TrajectoryRecord([x for x in traj.samples if x.t >= last], traj.terminal_status)
        return replicator.lyapunov_report(tail, s, t_end, slack=1e-9).monotone

    return run, check


def _literal_op(s, p0, temp):
    def run():
        return replicator.integrate(replicator.FieldKind.LITERAL, p0, s, temp, 1e3, FLOW_CONTROLS)

    def check(traj):
        exact = oracles.closed_form_literal(p0, s, temp, traj.terminal.t)
        mask = exact.probs > 0
        rel = np.max(np.abs(traj.terminal.p.probs[mask] / exact.probs[mask] - 1.0))
        # near-tied top scores may keep mass split at the horizon; that is correct
        return traj.terminal_status is not TerminalStatus.DIVERGED and bool(rel < 1e-6)

    return run, check


def _exact_prox_op(s, p0, temp, eta):
    def run():
        return mirror.iterate(
            mirror.MirrorStepKind.EXACT_PROX, p0, s, temp, eta, max_steps=10_000, kl_tol=1e-15
        )

    def check(record):
        return simplex.kl_divergence(record.terminal.p, simplex.softmax(s, temp)) < 1e-10 and all(
            c.slack >= -1e-10 for c in record.certificates
        )

    return run, check


def _printed_mw_op(s):
    p0 = simplex.SimplexPoint.uniform(s.size)

    def run():
        return mirror.iterate(
            mirror.MirrorStepKind.PRINTED_MW, p0, s, 1.0, 0.5, max_steps=10_000, kl_tol=1e-16
        )

    def check(record):
        return record.terminal.p.probs[int(np.argmax(s.values))] > 1.0 - 1e-8

    return run, check


def ensemble_round(rng, smoke: bool) -> list:
    """Per V in {2,3,8,16}: 12 entropic constant-T runs (4 per T), 2 piecewise,
    1 exponential, 3 literal, 6 exact-prox (T x eta in {0.1, 1}), 2 printed-MW."""
    reps = 1 if smoke else 4
    sizes = ENSEMBLE_SIZES[:2] if smoke else ENSEMBLE_SIZES
    ops = []

    def draw(size):
        return (
            simplex.ScoreVector(rng.uniform(-3.0, 3.0, size)),
            simplex.SimplexPoint(rng.dirichlet(np.ones(size))),
        )

    for size in sizes:
        for temp in ENSEMBLE_TEMPS:
            for _ in range(reps):
                ops.append(Op("entropic", *_entropic_op(*draw(size), temp)))
        for _ in range(max(1, reps // 2)):
            ops.append(Op("entropic-piecewise", *_entropic_op(*draw(size), PIECEWISE)))
        ops.append(Op("entropic-exponential", *_entropic_op(*draw(size), EXPONENTIAL)))
        for temp in ENSEMBLE_TEMPS:
            ops.append(Op("literal", *_literal_op(*draw(size), temp)))
            for eta in (0.1, 1.0):
                ops.append(Op("exact-prox", *_exact_prox_op(*draw(size), temp, eta)))
        for _ in range(max(1, reps // 2)):
            ops.append(Op("printed-mw", *_printed_mw_op(_gapped_scores(rng, size))))
    return [ops[i] for i in rng.permutation(len(ops))]


def ensemble_warmup(tmp: Path) -> None:
    for op in ensemble_round(np.random.default_rng(0), smoke=True)[:6]:
        op.check(op.run())


# ---------------------------------------------------------------------------
# wide_vocab: the four CLI table writers at V = 10^4
# ---------------------------------------------------------------------------

WIDE_V = 10_000
#: printed-MW never converges to softmax; 100 steps bound a run that at the
#: default 10 000 steps takes 81-90 s and writes 444 MB
PRINTED_MW_STEPS = 100


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_scores(path: Path, values) -> None:
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")


def _cli_op(kind, argv, stem: Path, check_manifest):
    seen = {}

    def run():
        return cli.main(argv)

    def check(code):
        if code != cli.EXIT_OK:
            return False
        digest = _sha256(stem.with_suffix(".csv"))
        if seen.setdefault("sha256", digest) != digest:
            return False
        manifest = json.loads(Path(f"{stem}.manifest.json").read_text())
        return check_manifest(manifest)

    return Op(kind, run, check)


def wide_vocab_round(rng, tmp: Path, smoke: bool, size: int = WIDE_V) -> list:
    size = 300 if smoke else size
    scores = tmp / f"scores-{size}.txt"
    _write_scores(scores, rng.uniform(-3.0, 3.0, size))
    ini = tmp / f"wide-{size}.ini"
    ini.write_text(
        f"[run]\nstart = random\nseed = {int(rng.integers(1 << 31))}\n"
        f"[scores]\nfile = {scores}\n[temperature]\nvalue = 1.0\n"
    )

    def argv(command, flag, value, stem):
        extra = ["--steps", str(PRINTED_MW_STEPS)] if value == "printed-mw" else []
        return [command, "--config", str(ini), flag, value, *extra, "--output", str(stem)]

    def converged(m):
        return m["terminal_status"] == "converged" and m["metrics"]["terminal_kl"] < 1e-8

    def prox_ok(m):
        metrics = m["metrics"]
        return metrics["terminal_kl_to_softmax"] < 1e-10 and metrics["min_ascent_slack"] >= -1e-10

    def bounded(m):
        return m["metrics"]["steps"] == PRINTED_MW_STEPS

    ops = []
    for kind, command, flag, value, check in (
        ("simulate", "simulate", "--dynamics", "entropic", converged),
        ("simulate", "simulate", "--dynamics", "literal", lambda m: True),
        ("prox-iterate", "prox-iterate", "--step", "exact-prox", prox_ok),
        ("prox-iterate", "prox-iterate", "--step", "printed-mw", bounded),
    ):
        stem = tmp / f"{value}-{size}"
        ops.append(_cli_op(kind, argv(command, flag, value, stem), stem, check))
    return ops


def wide_vocab_warmup(tmp: Path) -> None:
    for op in wide_vocab_round(np.random.default_rng(0), tmp, smoke=False, size=64):
        op.check(op.run())


# ---------------------------------------------------------------------------
# claims: verify plus the path-dependence witnesses
# ---------------------------------------------------------------------------


def claims_round(rng, tmp: Path, smoke: bool) -> list:
    report = tmp / "claims.json"
    p0 = simplex.SimplexPoint(rng.dirichlet(np.full(3, 5.0)))
    probe_seed = int(rng.integers(1 << 31))
    starts = [simplex.SimplexPoint(rng.dirichlet(np.ones(3))) for _ in range(4 if smoke else 8)]
    found = {}

    def verify_ok(code):
        return code == cli.EXIT_OK and json.loads(report.read_text())["mismatches"] == []

    def multibasin():
        score_field, maxima = path_fields.find_multibasin_coupling(seed=probe_seed)
        found["field"] = score_field
        return score_field, maxima

    def lockin():
        return path_fields.lockin_probe(
            found["field"], replicator.FieldKind.ENTROPIC, starts, 0.5, horizon=300.0
        )

    return [
        Op("verify", lambda: cli.main(["verify", "--output", str(report)]), verify_ok),
        Op(
            "witness",
            lambda: path_fields.find_recurrent_beta(p0=p0),
            lambda out: out[0] is not None and out[1][out[0]].recurrent,
        ),
        Op("witness", multibasin, lambda out: out[0] is not None and len(out[1]) >= 2),
        Op("witness", lockin, lambda probe: len(probe.clusters) >= 2 and not probe.diverged),
    ]


def claims_warmup(tmp: Path) -> None:
    oracles.oracle_self_test()
    oracles.expected_claim_matrix()
    path_fields.find_recurrent_beta(betas=(8.0,), n_samples=200)
    score_field = path_fields.linear_field(np.zeros(3), np.eye(3))
    start = simplex.SimplexPoint(np.array([0.5, 0.3, 0.2]))
    path_fields.lockin_probe(score_field, replicator.FieldKind.ENTROPIC, [start], 0.5, horizon=10.0)


# ---------------------------------------------------------------------------
# sweep: the process fan-out of `simplexflow sweep --jobs 2`
# ---------------------------------------------------------------------------

SWEEP_V = 8
SWEEP_TEMPS = (0.25, 1.0, 4.0)
SWEEP_SEEDS = 16
SWEEP_JOBS = 2


def _sweep_ini(path: Path, scores, seeds, output: Path) -> None:
    path.write_text(
        "[run]\ntask = simulate\ndynamics = entropic\nstart = random\n"
        f"[scores]\nvalues = {', '.join(repr(float(v)) for v in scores)}\n"
        f"[output]\npath = {output}\n"
        "[sweep]\n"
        f"grid.temperature = {', '.join(str(t) for t in SWEEP_TEMPS)}\n"
        f"grid.seed = {', '.join(str(s) for s in seeds)}\n"
    )


def sweep_op(ini: Path, output: Path, jobs: int, cells: int) -> Op:
    seen = {}
    counts = {}

    def check(code):
        if code != cli.EXIT_OK:
            return False
        data = output.with_suffix(".json")
        digest = _sha256(data)
        if seen.setdefault("sha256", digest) != digest:
            return False
        results = json.loads(data.read_text())["cells"]
        counts["cells"] = len(results)
        return len(results) == cells and all(
            r["status"] == "converged" and r["metrics"]["terminal_kl"] < 1e-8 for r in results
        )

    argv = ["sweep", "--config", str(ini), "--jobs", str(jobs)]
    return Op("sweep", lambda: cli.main(argv), check, counts)


def sweep_round(rng, tmp: Path, smoke: bool, jobs: int = SWEEP_JOBS) -> list:
    seeds = [int(x) for x in rng.integers(1 << 31, size=2 if smoke else SWEEP_SEEDS)]
    # a permuted fixed spread keeps the cells' total work nearly seed-independent
    scores = rng.permutation(np.linspace(-3.0, 3.0, SWEEP_V))
    ini = tmp / f"sweep-{jobs}.ini"
    output = tmp / f"sweep-{jobs}"
    _sweep_ini(ini, scores, seeds, output)
    return [sweep_op(ini, output, jobs, len(seeds) * len(SWEEP_TEMPS))]


def sweep_warmup(tmp: Path) -> None:
    ini, output = tmp / "sweep-warmup.ini", tmp / "sweep-warmup"
    _sweep_ini(ini, [1.0, 0.0, -1.0], [1, 2], output)
    op = sweep_op(ini, output, SWEEP_JOBS, 2 * len(SWEEP_TEMPS))
    op.check(op.run())


@dataclass
class Workload:
    build: Callable  # (rng, tmp, smoke) -> list[Op]
    warmup: Callable  # (tmp) -> None
    cores: int = 1  # cores an op keeps busy


WORKLOADS = {
    "ensemble": Workload(lambda rng, tmp, smoke: ensemble_round(rng, smoke), ensemble_warmup),
    "wide_vocab": Workload(wide_vocab_round, wide_vocab_warmup),
    "claims": Workload(claims_round, claims_warmup),
    "sweep": Workload(sweep_round, sweep_warmup, cores=SWEEP_JOBS),
}
