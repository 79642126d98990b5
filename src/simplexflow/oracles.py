"""Independent verification oracles and the claim-adjudication matrix.

Every oracle here is deliberately implementation-independent of the code it
checks: derivatives come from central finite differences, the prox step is
certified against a numerical constrained maximizer (cyclic coordinate
ascent in the softmax parameterization), the literal flow is certified
against its closed-form solution, the entropic flow against its solution
with the schedule integral taken by Gauss-Legendre quadrature, and flows of
state-dependent scores against fixed-step RK4 in p coordinates, refined until
two runs agree.  Only primitive arithmetic and log-sum-exp are shared with
the checked modules.

``run_adjudication`` assembles the claim matrix: for each claimed property
and each dynamics variant it reports whether the property holds at the
stated tolerance, backed either by a passing statistic or by a concrete
counterexample.  One table maps each claim id to its statement and its
adjudicator.  Each claim draws its random instances from its own stream,
keyed by the seed and the claim id, so a run of any subset of the claims
gives exactly the verdicts and witnesses of the full run at that seed.  The
flow runs behind ``prop-lyapunov``, ``thm-manifold-3`` and ``cor-convergence``
are one piece of evidence on a stream of its own, computed at most once per
run and only when one of those claims is asked for; its entropic runs are
solved as rows, one ``replicator.integrate_rows`` call per size and
temperature, and judged per run on each row's record.  The
reparameterization pairs of ``cor-temp-rescale`` use dense output.  The
expected matrix committed under ``data/`` was produced by this module and is
re-derivable with ``--seed`` defaults.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import InvalidInputError, InteriorityError, OracleFailureError
from . import mirror
from .mirror import MirrorStepKind
from . import replicator as rep
from .replicator import (
    REPARAMETERIZATION_CONTROLS,
    ConstantSchedule,
    ExponentialSchedule,
    FieldKind,
    IntegratorControls,
    PiecewiseConstantSchedule,
)
from .simplex import (
    ScoreVector,
    SimplexPoint,
    build_face_topk,
    check_step_size,
    check_temperature,
    embed_in_face,
    kl_divergence,
    log_partition,
    restrict_to_face,
    softmax,
)
from .trajectory import TerminalStatus

DEFAULT_SEED = 20250808
DEFAULT_FD_STEP = 1e-5
#: sup-norm agreement of two successive RK4 runs at which ``rk4_flow`` stops
RK4_AGREEMENT = 1e-10
#: ``prox_objective_maximizer`` stops when a sweep improves the objective by
#: less than this (and moves no coordinate by 1e-10); it fails after
#: ``PROX_MAX_SWEEPS`` sweeps
PROX_OBJECTIVE_TOL = 1e-12
PROX_MAX_SWEEPS = 500


# ---------------------------------------------------------------------------
# primitive oracles
# ---------------------------------------------------------------------------


def fd_gradient(f: Callable[[np.ndarray], float], x, step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central differences along each coordinate, one row per coordinate:
    the gradient of a scalar map, the transposed Jacobian of a vector map;
    error O(step^2)."""
    x = np.asarray(x, dtype=np.float64)
    return np.array([(f(x + bump) - f(x - bump)) / (2.0 * step) for bump in step * np.eye(x.size)])


def fd_gradient_checked(
    f: Callable[[np.ndarray], float],
    x,
    limit: float = 1e-6,
) -> np.ndarray:
    """Gradient at ``DEFAULT_FD_STEP`` with a Richardson pair at twice that
    step certifying the O(step^2) model.

    If the two estimates disagree beyond ``limit`` the oracle itself is
    declared broken (wrong step, non-smooth target) and the check aborts.
    """
    g1 = fd_gradient(f, x)
    g2 = fd_gradient(f, x, 2.0 * DEFAULT_FD_STEP)
    disc = float(np.max(np.abs(g1 - g2)))
    if disc > limit:
        raise OracleFailureError(
            f"finite-difference pair disagrees by {disc:.3g} (> {limit:.3g})"
        )
    return g1


def fd_jacobian(f: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central-difference Jacobian of a vector map at ``DEFAULT_FD_STEP``."""
    return fd_gradient(f, x).T


def closed_form_literal(
    p0: SimplexPoint, s: ScoreVector, temperature: float, t: float
) -> SimplexPoint:
    """Exact solution of the literal flow: p_i(t) proportional to p_i(0) exp(s_i t / T).

    The fitness does not depend on the state, so the flow integrates in
    closed form; this is the integrator's ground truth.  Scores are
    max-shifted before scaling by t so arbitrarily large times stay finite.
    """
    temp = check_temperature(temperature)
    t = float(t)
    if t < 0 or not math.isfinite(t):
        raise InvalidInputError(f"time must be nonnegative and finite, got {t}")
    if t == 0.0:
        return p0
    shifted = (s.values - s.values.max()) * (t / temp)
    with np.errstate(divide="ignore"):
        ell = np.log(p0.probs) + shifted
    m = float(ell.max())
    w = np.exp(ell - m)
    return SimplexPoint(w / w.sum())


def _gauss_legendre(n: int) -> tuple:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], from the
    eigenpairs of the Jacobi matrix (Golub and Welsch, Math. Comp. 1969)."""
    k = np.arange(1, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, 2.0 * vectors[0] ** 2


def _quadrature_entropic_weight(schedule, t: float) -> float:
    """w(t) = integral over [0, t] of e^{-(t-u)} / T(u) du by Gauss-Legendre
    quadrature on pieces split at the breakpoints and at whole times, so each
    piece has unit length at most and a smooth integrand.  Reads the schedule
    only through ``at`` and ``breakpoints``.  Twenty nodes integrate
    polynomials of degree < 40 exactly."""
    nodes, weights = _gauss_legendre(20)
    edges = sorted(
        {0.0, t}
        | {float(b) for b in schedule.breakpoints() if 0.0 < b < t}
        | {float(k) for k in range(1, math.ceil(t))}
    )
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        half = 0.5 * (hi - lo)
        u = 0.5 * (hi + lo) + half * nodes
        temps = np.array([schedule.at(float(x)) for x in u])
        total += half * float(weights @ (np.exp(u - t) / temps))
    return total


def closed_form_entropic(p0: SimplexPoint, s: ScoreVector, schedule, t: float) -> SimplexPoint:
    """Exact solution of the entropic flow under a temperature schedule.

    d log p / dt = s / T(t) - log p + const integrates to
    log p(t) = e^{-t} log p0 + w(t) s + const with w(t) the integral of
    e^{-(t-u)} / T(u) over [0, t], here by quadrature, never by the
    schedule's own closed form.  For constant T, w = (1 - e^{-t}) / T and
    p(t) tends to softmax(s, T).
    """
    sched = rep.as_schedule(schedule)
    t = float(t)
    if t < 0 or not math.isfinite(t):
        raise InvalidInputError(f"time must be nonnegative and finite, got {t}")
    if not p0.interior:
        raise InteriorityError("the entropic flow needs an interior start")
    if t == 0.0:
        return p0
    w = _quadrature_entropic_weight(sched, t)
    ell = math.exp(-t) * np.log(p0.probs) + w * (s.values - s.values.max())
    q = np.exp(ell - ell.max())
    return SimplexPoint(q / q.sum())


def equilibrium_residual(field, p: SimplexPoint, temperature: float) -> float:
    """||p - softmax(s(p) / T)||_inf for a score field ``field`` (anything
    with ``scores_at``, such as a ``path_fields.ScoreField``).

    It vanishes exactly at the rest points of the entropic flow, the fixed
    points of the Gibbs map p -> softmax(s(p), T), so it judges an end point
    without trusting the driver that reached it: it reads the field's scores
    at p and nothing else.
    """
    gibbs = softmax(ScoreVector(field.scores_at(p.probs)), temperature)
    return float(np.abs(p.probs - gibbs.probs).max())


def rk4_flow(
    scores_at: Callable[[np.ndarray], np.ndarray],
    kind: FieldKind,
    p0: SimplexPoint,
    temperature: float,
    times,
    max_refinements: int = 12,
) -> tuple:
    """The replicator flow dp/dt = p (g - <p, g>) of a score map at each of
    the increasing ``times``, from p0 at times[0], with g = s(p) / T for the
    literal kind and s(p) / T - log p for the entropic one.

    Classical fixed-step RK4 in p coordinates, not log p: every interval
    between two sample times is cut into the same number of steps, and that
    number is doubled until two successive runs agree within RK4_AGREEMENT
    at every sample (sup norm).  Returns (P, estimate): the rows of the finer
    run and that agreement, which for a 4th-order method is about 15 times
    the finer run's error (Richardson).  It reads the field only through
    ``scores_at`` and shares no step, stage or normalization with the
    adaptive driver it checks; no agreement within ``max_refinements``
    doublings fails the oracle.
    """
    temp = check_temperature(temperature)
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise InvalidInputError("times must be at least two strictly increasing values")
    entropic = FieldKind(kind) is FieldKind.ENTROPIC
    if entropic and not p0.interior:
        raise InteriorityError("the entropic flow needs an interior start")

    def slope(p):
        g = scores_at(p) / temp
        if entropic:
            g = g - np.log(p)
        return p * (g - p @ g)

    def run(steps: int) -> np.ndarray:
        p = np.array(p0.probs)
        rows = [p]
        for h in (np.diff(times) / steps).tolist():
            for _ in range(steps):
                k1 = slope(p)
                k2 = slope(p + 0.5 * h * k1)
                k3 = slope(p + 0.5 * h * k2)
                k4 = slope(p + h * k3)
                p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rows.append(p)
        return np.array(rows)

    steps, coarse = 1, run(1)
    for _ in range(max_refinements):
        steps *= 2
        fine = run(steps)
        gap = float(np.abs(fine - coarse).max())
        if gap <= RK4_AGREEMENT:
            return fine, gap
        coarse = fine
    raise OracleFailureError(
        f"RK4 runs disagree beyond {RK4_AGREEMENT:.3g} at {steps} steps per interval"
    )


def prox_objective_maximizer(
    p: SimplexPoint,
    s: ScoreVector,
    temperature: float,
    eta: float,
) -> SimplexPoint:
    """Numerically maximize <q,s> + T H(q) - D(q||p)/eta over the simplex.

    Cyclic coordinate ascent in the softmax parameterization q = softmax(z):
    with b = s + log(p)/eta and c = T + 1/eta the objective is
    <q, b> - c <q, log q>, and the restriction to one coordinate z_k has a
    unique stationary point available in closed form (the other coordinates
    enter only through their unnormalized weights).  Sweeps stop when the
    objective improves by less than ``PROX_OBJECTIVE_TOL``; failure to converge
    fails the oracle, never the target under test.
    """
    temp = check_temperature(temperature)
    eta = check_step_size(eta)
    if not p.interior:
        raise InteriorityError("prox objective needs log p, so p must be interior")
    b = s.values + np.log(p.probs) / eta
    c = temp + 1.0 / eta

    def normalized(z: np.ndarray) -> np.ndarray:
        m = float(z.max())
        return z - (m + math.log(float(np.exp(z - m).sum())))

    def objective(z: np.ndarray) -> float:
        ell = normalized(z)
        q = np.exp(ell)
        return float(q @ b) - c * float(q @ ell)

    z = normalized(np.log(p.probs))
    value = objective(z)
    for _ in range(PROX_MAX_SWEEPS):
        w = np.exp(z)
        weighted = w * (b - c * z)
        total_w = float(w.sum())
        total_weighted = float(weighted.sum())
        moved = 0.0
        for k in range(z.size):
            rest_w = total_w - w[k]
            if rest_w <= 0.0:
                continue
            mu = (total_weighted - weighted[k]) / rest_w
            z_new = (b[k] - mu) / c
            w_new = math.exp(z_new)
            total_w += w_new - w[k]
            total_weighted += w_new * (b[k] - c * z_new) - weighted[k]
            moved = max(moved, abs(z_new - z[k]))
            z[k] = z_new
            w[k] = w_new
            weighted[k] = w_new * (b[k] - c * z_new)
        z = normalized(z)
        new_value = objective(z)
        # objective tolerance alone can leave the argument a few ulps short of
        # stationary, so also require the sweep itself to have stopped moving
        if abs(new_value - value) < PROX_OBJECTIVE_TOL and moved < 1e-10:
            return SimplexPoint(np.exp(normalized(z)))
        value = new_value
    raise OracleFailureError(
        f"prox maximizer did not converge within {PROX_MAX_SWEEPS} sweeps"
    )


# ---------------------------------------------------------------------------
# reproducible random instances
# ---------------------------------------------------------------------------


def random_scores(rng: np.random.Generator, size: int) -> ScoreVector:
    """Scores i.i.d. uniform on [-3, 3]."""
    return ScoreVector(rng.uniform(-3.0, 3.0, int(size)))


def random_interior_point(rng: np.random.Generator, size: int) -> SimplexPoint:
    return SimplexPoint(rng.dirichlet(np.ones(int(size))))


# ---------------------------------------------------------------------------
# oracle self-tests (run before any cross-check)
# ---------------------------------------------------------------------------


def oracle_self_test() -> list:
    """Exercise each oracle on inputs with independently known answers.

    Returns a list of (name, detail) entries; raises OracleFailureError on
    the first failure.  A broken oracle certifies nothing, so adjudication
    refuses to run until this passes.
    """
    results = []

    def check(name: str, ok: bool, detail: str):
        if not ok:
            raise OracleFailureError(f"oracle self-test failed: {name} ({detail})")
        results.append((name, detail))

    coeffs = np.array([2.0, -1.0, 0.5])
    grad = fd_gradient(lambda v: float(coeffs @ v), np.array([0.3, -0.2, 1.0]))
    check(
        "fd-linear",
        bool(np.max(np.abs(grad - coeffs)) < 1e-9),
        f"max err {np.max(np.abs(grad - coeffs)):.3g}",
    )

    s10 = ScoreVector([1.0, 0.0])
    grad_a = fd_gradient_checked(lambda v: log_partition(ScoreVector(v), 1.0), s10.values)
    err = float(np.max(np.abs(grad_a - softmax(s10, 1.0).probs)))
    check("fd-log-partition", err < 1e-6, f"max err {err:.3g}")

    grad_shift = fd_gradient(
        lambda v: log_partition(ScoreVector(v), 1.0), s10.values + 3.0
    )
    err = float(np.max(np.abs(grad_shift - grad_a)))
    check("fd-shift-invariance", err < 1e-6, f"max err {err:.3g}")

    p0 = SimplexPoint([0.5, 0.3, 0.2])
    s3 = ScoreVector([1.0, 0.0, -1.0])
    same = closed_form_literal(p0, s3, 1.0, 0.0)
    check(
        "closed-form-at-zero",
        bool(np.max(np.abs(same.probs - p0.probs)) == 0.0),
        "t=0 returns the start",
    )
    frozen = closed_form_literal(p0, ScoreVector([2.0, 2.0, 2.0]), 1.0, 7.5)
    check(
        "closed-form-constant-scores",
        bool(np.max(np.abs(frozen.probs - p0.probs)) < 1e-15),
        "constant scores freeze the flow",
    )
    vertex = closed_form_literal(p0, s3, 1.0, 1e6)
    check(
        "closed-form-vertex-limit",
        abs(vertex.probs[0] - 1.0) < 1e-12,
        f"mass on argmax {vertex.probs[0]!r}",
    )

    same = closed_form_entropic(p0, s3, ExponentialSchedule(1.0, 0.5), 0.0)
    check(
        "closed-form-entropic-at-zero",
        bool(np.max(np.abs(same.probs - p0.probs)) == 0.0),
        "t=0 returns the start",
    )
    settled = closed_form_entropic(p0, s3, ConstantSchedule(2.0), 50.0)
    err = float(np.max(np.abs(settled.probs - softmax(s3, 2.0).probs)))
    check("closed-form-entropic-softmax-limit", err < 1e-12, f"max err {err:.3g}")

    # constant scores: the literal flow is normalize(log p0 + t s / T)
    times = (0.0, 0.25)
    stepped, estimate = rk4_flow(lambda p: s3.values, FieldKind.LITERAL, p0, 1.0, times)
    exact = np.array([closed_form_literal(p0, s3, 1.0, t).probs for t in times])
    err = float(np.abs(stepped - exact).max())
    check(
        "rk4-constant-scores",
        err <= estimate <= RK4_AGREEMENT,
        f"max err {err:.3g}, estimate {estimate:.3g}",
    )

    near_start = prox_objective_maximizer(p0, s3, 1.0, 1e-9)
    err = float(np.max(np.abs(near_start.probs - p0.probs)))
    check("prox-maximizer-small-eta", err < 1e-7, f"max err {err:.3g}")
    near_softmax = prox_objective_maximizer(p0, s3, 1.0, 1e9)
    err = float(np.max(np.abs(near_softmax.probs - softmax(s3, 1.0).probs)))
    check("prox-maximizer-large-eta", err < 1e-7, f"max err {err:.3g}")

    return results


# ---------------------------------------------------------------------------
# claim adjudication
# ---------------------------------------------------------------------------


@dataclass
class ClaimVerdict:
    claim_id: str
    dynamics: str
    holds: bool
    tolerance: float
    witness: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "dynamics": self.dynamics,
            "statement": CLAIMS[self.claim_id],
            "holds": self.holds,
            "tolerance": self.tolerance,
            "witness": self.witness,
        }


_ENTROPIC = FieldKind.ENTROPIC.value
_LITERAL = FieldKind.LITERAL.value
#: entropic runs from random instances behind the three flow claims
_FLOW_RUNS = 60
#: the sizes the flow evidence draws from
_FLOW_SIZES = (2, 3, 8)
#: the stream key and the ``timings`` key of the shared flow evidence
_FLOW_EVIDENCE = "flow-evidence"


def _claim_stream(seed: int, key: str) -> np.random.Generator:
    """The random stream keyed by ``(seed, key)``, not by the position of the
    claim in a run: any subset of claims draws what the full run draws."""
    return np.random.default_rng([seed, *key.encode()])


def _flow_evidence(rng: np.random.Generator) -> tuple:
    """(worst terminal KL to softmax, worst free-energy drop, literal witness):
    the first two over _FLOW_RUNS entropic runs from random instances, the
    witness of a literal run started exactly at softmax.

    Run i draws its size, scores and start as ``random_scores`` and
    ``random_interior_point`` do, in that order, and takes the i-th of the
    temperatures in turn.  The runs of one size and temperature are solved
    as rows of one ``integrate_rows`` call, each record equal to the bit to
    its ``integrate`` run, and a run that ends DIVERGED raises; the terminal
    KL and ``lyapunov_report`` are taken per run on its record, as the check
    independent of the solver."""
    controls = IntegratorControls(n_samples=60)
    temperatures = (0.25, 1.0, 4.0)
    draws = {}  # (size, T) -> its runs' (scores, start)
    for i in range(_FLOW_RUNS):
        size = int(rng.choice(_FLOW_SIZES))
        s = ScoreVector(rng.uniform(-3.0, 3.0, size))
        p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
        draws.setdefault((size, temperatures[i % len(temperatures)]), []).append((s, p0))
    worst_kl = worst_drop = 0.0
    for (size, temp), runs in draws.items():
        scores, starts = zip(*runs)
        records = rep.integrate_rows(FieldKind.ENTROPIC, starts, scores, temp, 1e3, controls)
        for traj, s in zip(records, scores):
            if traj.terminal_status is TerminalStatus.DIVERGED:
                raise InvalidInputError(f"V={size}, T={temp}: {traj.diagnostics}")
            worst_kl = max(worst_kl, kl_divergence(traj.terminal.p, softmax(s, temp)))
            worst_drop = min(worst_drop, float(rep.lyapunov_report(traj, s, temp).worst_drop))

    s = ScoreVector([1.0, 0.0])
    pi = softmax(s, 1.0)
    traj = rep.integrate(FieldKind.LITERAL, pi, s, 1.0, 50.0, IntegratorControls(n_samples=80))
    terminal = traj.terminal.p
    literal = {
        "scores": s.values.tolist(),
        "temperature": 1.0,
        "softmax": pi.probs.tolist(),
        "field_norm_at_softmax": float(
            np.max(np.abs(rep.eval_field(FieldKind.LITERAL, pi, s, 1.0)))
        ),
        "free_energy_worst_drop": rep.lyapunov_report(traj, s, 1.0).worst_drop,
        "terminal_point": terminal.probs.tolist(),
        "terminal_kl_to_softmax": kl_divergence(terminal, pi),
        "terminal_mass_on_argmax": float(terminal.probs[0]),
    }
    return float(worst_kl), worst_drop, literal


# An adjudicator takes its claim's stream, the run's seed and the run's flow
# evidence (computed on the first call) and returns the claim's verdicts as
# (dynamics, holds, tolerance, witness) rows.


def _ascent_instances(rng: np.random.Generator, size: int, n: int) -> tuple:
    """(S, P, T, eta) of ``n`` random one-step instances at ``size``, each row
    drawn as ``random_scores``, ``random_interior_point`` (unchecked), then a
    temperature on [0.25, 4] and a step size on [0.05, 2]."""
    S, P = np.empty((n, size)), np.empty((n, size))
    temperatures, etas = np.empty(n), np.empty(n)
    ones = np.ones(size)
    for row in range(n):
        S[row] = rng.uniform(-3.0, 3.0, size)
        P[row] = rng.dirichlet(ones)
        temperatures[row] = rng.uniform(0.25, 4.0)
        etas[row] = rng.uniform(0.05, 2.0)
    return S, P, temperatures, etas


def _prop_ascent(rng: np.random.Generator, seed: int, flows: Callable) -> list:
    worst_slack = math.inf
    checked = 0
    for size in (2, 3, 8, 64):
        S, P, temperatures, etas = _ascent_instances(rng, size, 100)
        slack = mirror.ascent_certificates(MirrorStepKind.EXACT_PROX, P, S, temperatures, etas)[3]
        worst_slack = min(worst_slack, float(slack.min()))
        checked += len(slack)
    s = ScoreVector([1.0, 0.0])
    mw = mirror.ascent_certificate(MirrorStepKind.PRINTED_MW, softmax(s, 1.0), s, 1.0, 0.5)
    return [
        (MirrorStepKind.EXACT_PROX.value, worst_slack >= -1e-10, 1e-10,
         {"trials": checked, "worst_slack": worst_slack, "seed": seed}),
        (MirrorStepKind.PRINTED_MW.value, mw.slack >= -1e-10 and mw.f_after >= mw.f_before, 1e-10,
         {
             "start": "softmax((1,0), T=1)",
             "f_before": mw.f_before,
             "f_after": mw.f_after,
             "slack": mw.slack,
             "note": "free energy strictly decreases on the first step",
         }),
    ]


def _prop_lyapunov(rng: np.random.Generator, seed: int, flows: Callable) -> list:
    _, worst_drop, literal = flows()
    return [
        (_ENTROPIC, worst_drop >= -1e-9, 1e-9,
         {"runs": _FLOW_RUNS, "worst_drop": worst_drop, "seed": seed}),
        (_LITERAL, literal["free_energy_worst_drop"] >= -1e-9, 1e-9, literal),
    ]


def _thm_manifold_3(rng: np.random.Generator, seed: int, flows: Callable) -> list:
    worst_kl, _, literal = flows()
    return [
        (_ENTROPIC, worst_kl < 1e-8, 1e-8,
         {"runs": _FLOW_RUNS, "worst_terminal_kl": worst_kl, "seed": seed}),
        (_LITERAL, literal["field_norm_at_softmax"] <= 1e-12, 1e-12, literal),
    ]


def _cor_convergence(rng: np.random.Generator, seed: int, flows: Callable) -> list:
    worst_kl, _, literal = flows()
    return [
        (_ENTROPIC, worst_kl < 1e-8, 1e-8,
         {"runs": _FLOW_RUNS, "worst_terminal_kl": worst_kl, "seed": seed}),
        (_LITERAL, literal["terminal_kl_to_softmax"] < 1e-8, 1e-8, literal),
    ]


def _cor_temp_rescale(rng: np.random.Generator, seed: int, flows: Callable) -> list:
    s = random_scores(rng, 3)
    p0 = random_interior_point(rng, 3)
    schedules = {
        "constant": ConstantSchedule(2.0),
        "piecewise": PiecewiseConstantSchedule((1.0,), (1.0, 0.5)),
        "exponential": ExponentialSchedule(1.0, 0.3),
    }
    deviations = {
        name: rep._reparameterization_deviation(
            FieldKind.LITERAL, s, p0, sched, 5.0, REPARAMETERIZATION_CONTROLS
        )
        for name, sched in schedules.items()
    }
    entropic_dev = rep._reparameterization_deviation(
        FieldKind.ENTROPIC, s, p0, ConstantSchedule(2.0), 5.0, REPARAMETERIZATION_CONTROLS
    )
    return [
        (_LITERAL, max(deviations.values()) < 1e-7, 1e-7,
         {"deviations": deviations, "seed": seed}),
        (_ENTROPIC, entropic_dev < 1e-7, 1e-7,
         {
             "constant_schedule_deviation": entropic_dev,
             "note": "temperature also enters the entropic fitness, so the "
             "scheduled flow is not a time reparameterization",
         }),
    ]


def _lemma_forward_invariance(rng: np.random.Generator, seed: int, flows: Callable) -> list:
    p0 = SimplexPoint([0.4, 0.0, 0.35, 0.25, 0.0])
    s = random_scores(rng, 5)
    traj = rep.integrate(FieldKind.LITERAL, p0, s, 1.0, 50.0, IntegratorControls(n_samples=60))
    stayed_zero = bool(np.all(traj.P[:, [1, 4]] == 0.0))
    return [
        (_LITERAL, stayed_zero, 0.0,
         {
             "zero_coordinates": [1, 4],
             "samples_checked": len(traj.samples),
             "stayed_exactly_zero": stayed_zero,
             "seed": seed,
         }),
    ]


def _cor_faces(rng: np.random.Generator, seed: int, flows: Callable) -> list:
    s = random_scores(rng, 5)
    mask = build_face_topk(s, 3)
    p_face = SimplexPoint(rng.dirichlet(np.ones(3)))
    s_face, _ = restrict_to_face(s, embed_in_face(mask, p_face), mask)
    grid = tuple(np.linspace(0.0, 20.0, 21))
    controls = IntegratorControls(sample_times=grid, convergence_kl=0.0)
    full = rep.integrate(FieldKind.LITERAL, embed_in_face(mask, p_face), s, 1.0, 20.0, controls)
    restricted = rep.integrate(FieldKind.LITERAL, p_face, s_face, 1.0, 20.0, controls)
    gap = float(np.max(np.abs(full.P[:, mask.support] - restricted.P)))
    return [
        (_LITERAL, gap < 1e-8, 1e-8, {"max_gap": gap, "face": mask.indices.tolist(), "seed": seed}),
    ]


#: claim id -> (behavioral statement being adjudicated, adjudicator)
_CLAIM_TABLE = {
    "prop-ascent": ("one-step free-energy gain of at least KL(new, old)/eta", _prop_ascent),
    "prop-lyapunov": ("free energy is nondecreasing along the flow", _prop_lyapunov),
    "thm-manifold-3": ("softmax is the unique interior equilibrium and attracts", _thm_manifold_3),
    "cor-convergence": ("interior trajectories converge to softmax", _cor_convergence),
    "cor-temp-rescale": (
        "temperature schedules reparameterize time along one path", _cor_temp_rescale
    ),
    "lemma-forward-invariance": (
        "coordinates starting at zero stay exactly zero", _lemma_forward_invariance
    ),
    "cor-faces": ("face-restricted runs match the restricted-system runs", _cor_faces),
}
#: claim registry: identifier -> behavioral statement being adjudicated
CLAIMS = {claim_id: statement for claim_id, (statement, _) in _CLAIM_TABLE.items()}


def run_adjudication(
    seed: int = DEFAULT_SEED,
    include: Optional[Sequence[str]] = None,
    timings: Optional[dict] = None,
) -> list:
    """The claim matrix, or its rows for the claim ids in ``include``; see the
    module docstring.

    Unknown ids raise InvalidInputError.  Oracle self-tests run first and
    abort everything on failure.  A ``timings`` dict receives the wall clock
    in seconds of each claim run, keyed by its id, and of the shared flow
    evidence under ``flow-evidence`` when a claim asked for it; a claim's
    time leaves out the evidence.
    """
    wanted = set(CLAIMS if include is None else include)
    unknown = sorted(wanted - set(CLAIMS))
    if unknown:
        raise InvalidInputError(f"unknown claim ids: {', '.join(unknown)}")
    clock = {} if timings is None else timings

    def evidence():
        started = time.perf_counter()
        result = _flow_evidence(_claim_stream(seed, _FLOW_EVIDENCE))
        clock[_FLOW_EVIDENCE] = time.perf_counter() - started
        return result

    oracle_self_test()
    flows = functools.cache(evidence)
    verdicts = []
    for claim_id, (_, adjudicate) in _CLAIM_TABLE.items():
        if claim_id not in wanted:
            continue
        started, evidence_before = time.perf_counter(), clock.get(_FLOW_EVIDENCE, 0.0)
        rows = adjudicate(_claim_stream(seed, claim_id), seed, flows)
        evidence_s = clock.get(_FLOW_EVIDENCE, 0.0) - evidence_before
        clock[claim_id] = time.perf_counter() - started - evidence_s
        verdicts += [
            ClaimVerdict(claim_id, dynamics, bool(holds), tolerance, witness)
            for dynamics, holds, tolerance, witness in rows
        ]
    verdicts.sort(key=lambda v: (v.claim_id, v.dynamics))
    return verdicts


def matrix_from_verdicts(verdicts: Sequence[ClaimVerdict]) -> dict:
    matrix: dict = {}
    for v in verdicts:
        matrix.setdefault(v.claim_id, {})[v.dynamics] = v.holds
    return matrix


def expected_claim_matrix() -> dict:
    """The committed claim matrix this build must reproduce."""
    payload = (
        importlib.resources.files("simplexflow")
        .joinpath("data/expected_claims.json")
        .read_text()
    )
    return json.loads(payload)


def compare_to_expected(
    verdicts: Sequence[ClaimVerdict], expected: Optional[dict] = None
) -> list:
    """Human-readable mismatch list between verdicts and the committed matrix.

    Each claim the verdicts judge must cover every dynamics the matrix lists
    for it, so a run of some claims is held to their rows; a matrix claim
    that is not in ``CLAIMS`` is missing from any run.
    """
    if expected is None:
        expected = expected_claim_matrix()
    got = matrix_from_verdicts(verdicts)
    problems = []
    for claim_id, row in got.items():
        for dynamics, holds in row.items():
            want = expected.get(claim_id, {}).get(dynamics)
            if want is None:
                problems.append(f"{claim_id}/{dynamics}: not in the committed matrix")
            elif want != holds:
                problems.append(
                    f"{claim_id}/{dynamics}: got holds={holds}, committed matrix says {want}"
                )
    for claim_id, row in expected.items():
        if claim_id in got or claim_id not in CLAIMS:
            for dynamics in row:
                if dynamics not in got.get(claim_id, {}):
                    problems.append(f"{claim_id}/{dynamics}: missing from this run")
    return problems
