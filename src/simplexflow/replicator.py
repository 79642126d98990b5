"""Continuous-time selection dynamics on the simplex.

Two vector fields are provided, both of the replicator form
``dp_i/dt = p_i (g_i - <p, g>)`` for a fitness vector g:

* LITERAL     g = s / T            (score-only fitness)
* ENTROPIC    g = s / T - log p    (score plus entropic fitness)

One builder turns a score map p -> s(p) and its potential into this fitness
and into the free-energy annotation potential(p) + T H(p).  Fixed scores
are the constant map with potential <p, s>; the state-dependent fields of
``path_fields`` pass s(p) = s0 + B p and <p, s0> + 0.5 <p, B p>.

The ENTROPIC field is the natural gradient of the free energy under the
inner product <u, v>_p = sum u_i v_i / p_i and vanishes exactly at
softmax(s, T).  The LITERAL field vanishes in the interior only when all
scores coincide; for generic scores it drives mass onto the argmax set, and
softmax is not one of its stationary points.  Both fields are tangent to the
simplex and keep every face invariant.

Integration uses a multiplicative exponential-midpoint scheme in
log-coordinates: a step of size h maps p to normalize(p * exp(h * g)) with g
evaluated at a half-step predictor and, for time-varying temperature, at the
midpoint time.  Positivity and normalization hold by construction, exact
zeros stay exactly zero, and the step size adapts by comparing one full step
against two half steps.  For the LITERAL field at constant temperature the
scheme reproduces the closed-form solution to rounding accuracy at any step
size, since the fitness does not depend on the state.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .exceptions import (
    InteriorityError,
    InvalidInputError,
    UnsupportedIdentityError,
)
from .simplex import (
    NORM_EPS,
    ScoreVector,
    SimplexPoint,
    _normalize_logs,
    check_temperature,
    free_energy,
    log_softmax,
)
from .trajectory import TerminalStatus, TrajectoryRecord, TrajectorySample

#: log-probability clamp for the entropic field near the boundary
LOG_CLAMP = math.log(1e-300)
#: an adaptive step below this is reported as DIVERGED (step size underflow)
MIN_STEP = 1e-13
#: largest factor by which the step size may grow after one attempt
MAX_GROWTH = 2.0


class FieldKind(Enum):
    LITERAL = "literal"
    ENTROPIC = "entropic"


# ---------------------------------------------------------------------------
# temperature schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantSchedule:
    temperature: float

    def __post_init__(self):
        check_temperature(self.temperature)

    def at(self, t: float) -> float:
        return self.temperature

    def effective_time(self, t: float) -> float:
        return t / self.temperature

    def breakpoints(self) -> tuple:
        return ()


@dataclass(frozen=True)
class PiecewiseConstantSchedule:
    """T = values[i] on [times[i-1], times[i]), with times strictly increasing."""

    times: tuple
    values: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        if len(values) != len(times) + 1:
            raise InvalidInputError(
                f"piecewise schedule needs len(values) == len(times) + 1, "
                f"got {len(values)} values for {len(times)} breakpoints"
            )
        if any(t <= 0 for t in times) or any(b >= a for a, b in zip(times[1:], times)):
            raise InvalidInputError("breakpoints must be positive and strictly increasing")
        for v in values:
            check_temperature(v)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def at(self, t: float) -> float:
        return self.values[bisect_right(self.times, t)]

    def effective_time(self, t: float) -> float:
        tau = 0.0
        prev = 0.0
        for edge, value in zip(self.times, self.values):
            if t <= prev:
                break
            tau += (min(t, edge) - prev) / value
            prev = edge
        if t > prev:
            tau += (t - prev) / self.values[-1]
        return tau

    def breakpoints(self) -> tuple:
        return self.times


@dataclass(frozen=True)
class ExponentialSchedule:
    """T(t) = initial * exp(rate * t); rate may be negative (annealing)."""

    initial: float
    rate: float

    def __post_init__(self):
        check_temperature(self.initial)
        if not math.isfinite(self.rate):
            raise InvalidInputError("schedule rate must be finite")

    def at(self, t: float) -> float:
        return self.initial * math.exp(self.rate * t)

    def effective_time(self, t: float) -> float:
        if self.rate == 0.0:
            return t / self.initial
        return -math.expm1(-self.rate * t) / (self.initial * self.rate)

    def breakpoints(self) -> tuple:
        return ()


TemperatureSchedule = Union[ConstantSchedule, PiecewiseConstantSchedule, ExponentialSchedule]


def as_schedule(value) -> TemperatureSchedule:
    """Coerce a bare temperature into a constant schedule."""
    if isinstance(value, (ConstantSchedule, PiecewiseConstantSchedule, ExponentialSchedule)):
        return value
    return ConstantSchedule(check_temperature(value))


def parse_schedule(spec: str) -> TemperatureSchedule:
    """Parse a schedule spec string.

    Formats: ``constant:T``, ``piecewise:0:T0,t1:T1,...`` (first time must be
    0, times strictly increasing), ``exponential:T0:rate``.
    """
    head, _, rest = spec.strip().partition(":")
    kind = head.strip().lower()
    try:
        if kind == "constant":
            return ConstantSchedule(float(rest))
        if kind == "exponential":
            t0, _, rate = rest.partition(":")
            return ExponentialSchedule(float(t0), float(rate))
        if kind == "piecewise":
            pairs = []
            for chunk in rest.split(","):
                t_str, _, v_str = chunk.partition(":")
                pairs.append((float(t_str), float(v_str)))
            if not pairs or pairs[0][0] != 0.0:
                raise InvalidInputError("piecewise schedule must start at time 0")
            times = tuple(t for t, _ in pairs[1:])
            values = tuple(v for _, v in pairs)
            return PiecewiseConstantSchedule(times, values)
    except InvalidInputError:
        raise
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse schedule spec {spec!r}: {exc}") from exc
    raise InvalidInputError(f"unknown schedule kind {kind!r}")


def effective_time(schedule: TemperatureSchedule, t: float) -> float:
    """Closed-form effective time tau(t) = integral of 1/T(u) du over [0, t]."""
    if t < 0:
        raise InvalidInputError(f"time must be nonnegative, got {t}")
    return as_schedule(schedule).effective_time(float(t))


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------


def _tangent_field(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """p * (g - <p, g>) with the rounding residual folded into the largest entry.

    Coordinates with p_i = 0 stay exactly zero; the fold keeps the float sum
    within one ulp of zero without touching them.
    """
    x = p * (g - float(p @ g))
    r = float(np.sum(x))
    if r != 0.0:
        nz = np.flatnonzero(x)
        if nz.size:
            x[nz[int(np.argmax(np.abs(x[nz])))]] -= r
    return x


def eval_field(
    kind: FieldKind, p: SimplexPoint, s: ScoreVector, temperature: float
) -> np.ndarray:
    """Evaluate the selected replicator field at p; tangent to the simplex."""
    t = check_temperature(temperature)
    if p.size != s.size:
        raise InvalidInputError(f"size mismatch: p has {p.size} entries, s has {s.size}")
    if kind is FieldKind.ENTROPIC:
        if not p.interior:
            raise InteriorityError("entropic field needs log p, so p must be interior")
        g = s.values / t - np.log(p.probs)
    else:
        g = s.values / t
    return _tangent_field(np.array(p.probs), g)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegratorControls:
    """Adaptive integrator settings.  A step is accepted when the sup-norm gap
    between one full step and two half steps is at most ``abs_tol + rel_tol``;
    neither is scaled by the state, so together they act as one absolute bound."""

    dt0: float = 1e-2
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    convergence_kl: float = 1e-10
    #: stop when the field sup-norm drops below this (0 disables); used for
    #: state-dependent score fields where no closed-form target exists
    convergence_field_norm: float = 0.0
    n_samples: int = 200
    uniform_samples: bool = False
    sample_times: Optional[tuple] = None


DEFAULT_HORIZON = 1e3


def _sample_grid(horizon: float, controls: IntegratorControls) -> np.ndarray:
    if controls.sample_times is not None:
        grid = np.asarray(controls.sample_times, dtype=np.float64)
        if grid.ndim != 1 or np.any(grid < 0) or np.any(np.diff(grid) <= 0):
            raise InvalidInputError("sample times must be strictly increasing and nonnegative")
        return grid
    n = max(int(controls.n_samples), 2)
    if controls.uniform_samples or horizon <= controls.dt0 or n < 3:
        return np.linspace(0.0, horizon, n)
    # geometric cadence: dense early where free energy and KL move fastest
    interior = controls.dt0 * (horizon / controls.dt0) ** (
        np.arange(n - 1) / (n - 2)
    )
    return np.unique(np.concatenate(([0.0], interior)))


def _run_flow(
    fitness: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
    free_energy_fn: Callable[[np.ndarray, np.ndarray, float], float],
    kl_fn: Callable[[np.ndarray, np.ndarray, float], float],
    p0: SimplexPoint,
    schedule: TemperatureSchedule,
    horizon: float,
    controls: IntegratorControls,
    entropic_guard: bool,
) -> TrajectoryRecord:
    """Shared adaptive driver; see module docstring for the scheme."""
    if horizon <= 0 or not math.isfinite(horizon):
        raise InvalidInputError(f"horizon must be positive and finite, got {horizon}")

    with np.errstate(divide="ignore"):
        ell = _normalize_logs(np.log(p0.probs))

    def one_step(ell_in: np.ndarray, t_in: float, h: float) -> np.ndarray:
        t_mid = schedule.at(t_in + 0.5 * h)
        p_in = np.exp(ell_in)
        g1 = fitness(p_in, ell_in, t_mid)
        ell_mid = _normalize_logs(ell_in + (0.5 * h) * (g1 - float(p_in @ g1)))
        p_mid = np.exp(ell_mid)
        g2 = fitness(p_mid, ell_mid, t_mid)
        return _normalize_logs(ell_in + h * (g2 - float(p_mid @ g2)))

    def field_norm(p_at: np.ndarray, ell_at: np.ndarray, t_val: float) -> float:
        return float(np.max(np.abs(_tangent_field(p_at, fitness(p_at, ell_at, t_val)))))

    def observe(t_at: float, ell_at: np.ndarray) -> TrajectorySample:
        p_at = np.exp(ell_at)
        t_sched = schedule.at(t_at)
        return TrajectorySample(
            t=t_at,
            p=SimplexPoint(p_at),
            free_energy=free_energy_fn(p_at, ell_at, t_sched),
            kl_to_target=kl_fn(p_at, ell_at, t_sched),
            field_norm=field_norm(p_at, ell_at, t_sched),
        )

    sample_grid = _sample_grid(horizon, controls)
    stops = sorted(
        set(float(t) for t in sample_grid if 0.0 < t <= horizon)
        | set(b for b in schedule.breakpoints() if 0.0 < b < horizon)
        | {horizon}
    )
    sample_set = set(float(t) for t in sample_grid)

    samples = [observe(0.0, ell)]
    renorms = 0
    accepted = 0
    t_now = 0.0
    h = controls.dt0
    status = TerminalStatus.MAX_TIME
    diagnostics = ""

    kl0 = kl_fn(np.exp(ell), ell, schedule.at(0.0))
    if controls.convergence_kl > 0 and math.isfinite(kl0) and kl0 < controls.convergence_kl:
        return TrajectoryRecord(samples=samples, terminal_status=TerminalStatus.CONVERGED)

    done = False
    for t_stop in stops:
        if done:
            break
        while t_now < t_stop:
            if t_stop - t_now <= 1e-14 * max(1.0, t_stop):
                t_now = t_stop
                break
            h_try = min(h, t_stop - t_now)
            ell_full = one_step(ell, t_now, h_try)
            ell_half = one_step(ell, t_now, 0.5 * h_try)
            ell_two = one_step(ell_half, t_now + 0.5 * h_try, 0.5 * h_try)
            err = float(np.max(np.abs(np.exp(ell_full) - np.exp(ell_two))))
            tol = controls.abs_tol + controls.rel_tol
            factor = 0.9 * (tol / max(err, 1e-300)) ** (1.0 / 3.0)
            if err <= tol:
                ell = ell_two
                accepted += 1
                t_now = t_now + h_try
                if t_stop - t_now <= 1e-14 * max(1.0, t_stop):
                    t_now = t_stop
                p_now = np.exp(ell)
                total = float(p_now.sum())
                if abs(total - 1.0) > NORM_EPS:
                    ell = ell - math.log(total)
                    renorms += 1
                if entropic_guard and float(ell.min()) < LOG_CLAMP:
                    ell = _normalize_logs(np.maximum(ell, LOG_CLAMP))
                    status = TerminalStatus.DIVERGED
                    diagnostics = "log-probability clamp hit near the boundary"
                    done = True
                    break
                kl_now = kl_fn(p_now, ell, schedule.at(t_now))
                if (
                    controls.convergence_kl > 0
                    and math.isfinite(kl_now)
                    and kl_now < controls.convergence_kl
                ):
                    status = TerminalStatus.CONVERGED
                    done = True
                    break
                if (
                    controls.convergence_field_norm > 0
                    and field_norm(p_now, ell, schedule.at(t_now)) < controls.convergence_field_norm
                ):
                    status = TerminalStatus.CONVERGED
                    done = True
                    break
            h = h_try * min(MAX_GROWTH, max(0.2, factor))
            if h < MIN_STEP:
                status = TerminalStatus.DIVERGED
                diagnostics = f"step size underflow at t={t_now:.6g} (h={h:.3g})"
                done = True
                break
        if not done and t_now == t_stop and t_stop in sample_set:
            samples.append(observe(t_stop, ell))

    if done and (not samples or samples[-1].t < t_now):
        samples.append(observe(t_now, ell))

    return TrajectoryRecord(
        samples=samples,
        terminal_status=status,
        renormalizations=renorms,
        accepted_steps=accepted,
        diagnostics=diagnostics,
    )


def _integrate_scores(
    kind: FieldKind,
    p0: SimplexPoint,
    scores_at: Callable[[np.ndarray], np.ndarray],
    potential: Callable[[np.ndarray], float],
    kl_fn: Callable[[np.ndarray, np.ndarray, float], float],
    schedule: TemperatureSchedule,
    horizon: float,
    controls: IntegratorControls,
) -> TrajectoryRecord:
    """Flow of the score map ``p -> s(p)`` from p0, annotated with
    ``potential(p) + T H(p)``; see the module docstring."""
    if kind is FieldKind.ENTROPIC:
        if not p0.interior:
            raise InteriorityError("entropic field requires an interior start")

        def fitness(p, ell, t_val):
            return scores_at(p) / t_val - ell

    else:

        def fitness(p, ell, t_val):
            return scores_at(p) / t_val

    def free_energy_fn(p, ell, t_val):
        # sum p_i * log p_i with exact-zero coordinates contributing 0
        return potential(p) - t_val * float(p @ np.where(p > 0.0, ell, 0.0))

    return _run_flow(
        fitness,
        free_energy_fn,
        kl_fn,
        p0,
        schedule,
        horizon,
        controls,
        entropic_guard=(kind is FieldKind.ENTROPIC),
    )


def literal_target_logs(p0: SimplexPoint, s: ScoreVector) -> np.ndarray:
    """Log-probabilities of the literal field's limit point from p0.

    The flow multiplies p0 by exp(s t / T) and renormalizes, so mass
    concentrates on the argmax of s within the support of p0, with
    within-set ratios frozen at their initial values.
    """
    sup = p0.support
    if not sup.any():
        raise InvalidInputError("initial point has empty support")
    smax = float(s.values[sup].max())
    target_sel = sup & (s.values == smax)
    ell = np.full(p0.size, -np.inf)
    ell[target_sel] = np.log(p0.probs[target_sel])
    return _normalize_logs(ell)


def integrate(
    kind: FieldKind,
    p0: SimplexPoint,
    s: ScoreVector,
    schedule,
    horizon: float = DEFAULT_HORIZON,
    controls: IntegratorControls = IntegratorControls(),
) -> TrajectoryRecord:
    """Integrate the selected field from p0 under a temperature schedule.

    The trajectory is annotated with the free energy at the instantaneous
    temperature and with the KL distance to the field's known equilibrium:
    softmax(s, T(t)) for the ENTROPIC field, and for the LITERAL field the
    forward KL D(limit || p) from its closed-form limit point (the reverse
    direction is infinite off the limit face).  Terminates at
    ``controls.convergence_kl`` or at the horizon; step-size underflow and
    boundary clamping are reported as DIVERGED, not raised.
    """
    sched = as_schedule(schedule)
    if p0.size != s.size:
        raise InvalidInputError(f"size mismatch: p0 has {p0.size} entries, s has {s.size}")
    s_values = s.values

    if kind is FieldKind.ENTROPIC:
        target_cache: dict[float, np.ndarray] = {}

        def target_logs(t_val: float) -> np.ndarray:
            got = target_cache.get(t_val)
            if got is None:
                if len(target_cache) > 256:
                    target_cache.clear()
                got = log_softmax(s, t_val)
                target_cache[t_val] = got
            return got

        def kl_fn(p, ell, t_val):
            return max(float(p @ (ell - target_logs(t_val))), 0.0)

    else:
        target_ell = literal_target_logs(p0, s)
        target_p = np.exp(target_ell)
        target_sel = target_p > 0.0
        target_plogp = float(target_p[target_sel] @ target_ell[target_sel])

        def kl_fn(p, ell, t_val):
            return max(target_plogp - float(target_p[target_sel] @ ell[target_sel]), 0.0)

    return _integrate_scores(
        kind,
        p0,
        lambda p: s_values,
        lambda p: float(p @ s_values),
        kl_fn,
        sched,
        horizon,
        controls,
    )


# ---------------------------------------------------------------------------
# diagnostics on trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LyapunovReport:
    monotone: bool
    worst_drop: float


def lyapunov_report(
    traj: TrajectoryRecord, s: ScoreVector, temperature: float, slack: float = 1e-9
) -> LyapunovReport:
    """Scan free energy along samples; monotone iff no consecutive drop beyond ``slack``.

    Free energy is recomputed from the sampled points, so the report does not
    trust the values recorded by the integrator.
    """
    values = [free_energy(sample.p, s, temperature).value for sample in traj.samples]
    diffs = np.diff(values)
    if diffs.size == 0:
        return LyapunovReport(monotone=True, worst_drop=0.0)
    worst = float(diffs.min())
    return LyapunovReport(monotone=bool(np.all(diffs >= -slack)), worst_drop=worst)


@dataclass(frozen=True)
class EulerConsistencyReport:
    etas: tuple
    residuals: tuple
    order: float


def euler_consistency(
    p: SimplexPoint,
    s: ScoreVector,
    temperature: float,
    etas: Sequence[float] = (1e-2, 1e-3, 1e-4),
    kind: FieldKind = FieldKind.LITERAL,
) -> EulerConsistencyReport:
    """Measured vanishing order of the one-step maps against their limit fields.

    For LITERAL the residual is ||(mw_step(p, eta) - p)/eta - X_literal(p)||,
    which vanishes at first order: the multiplicative-weights map is a
    consistent discretization of the literal field.  For ENTROPIC the exact
    prox map is compared against T * X_entropic(p): its per-eta velocity is
    the natural-gradient field measured in effective-time units (eta counts T
    units of flow time).  The contract for both is a fitted slope >= 0.9.
    """
    from .mirror import _log_slope, exact_prox_step, printed_mw_step

    t = check_temperature(temperature)
    if kind is FieldKind.LITERAL:
        reference = eval_field(FieldKind.LITERAL, p, s, t)
        step_map = printed_mw_step
    else:
        reference = t * eval_field(FieldKind.ENTROPIC, p, s, t)
        step_map = exact_prox_step
    residuals = []
    for eta in etas:
        q = step_map(p, s, t, float(eta))
        residuals.append(float(np.max(np.abs((q.probs - p.probs) / float(eta) - reference))))
    order = _log_slope(etas, np.asarray(residuals), 1e-13)
    return EulerConsistencyReport(etas=tuple(etas), residuals=tuple(residuals), order=order)


# ---------------------------------------------------------------------------
# temperature-as-time
# ---------------------------------------------------------------------------


def _reparameterization_deviation(
    kind: FieldKind,
    s: ScoreVector,
    p0: SimplexPoint,
    schedule: TemperatureSchedule,
    horizon: float,
    controls: IntegratorControls,
    n_checkpoints: int = 60,
) -> float:
    """Max deviation between the scheduled run and the unit-temperature run
    replayed at the closed-form effective time."""
    sched = as_schedule(schedule)
    grid = np.linspace(0.0, horizon, n_checkpoints + 1)
    base = replace(
        controls,
        convergence_kl=0.0,
        convergence_field_norm=0.0,
        sample_times=tuple(grid),
    )
    run_sched = integrate(kind, p0, s, sched, horizon, base)

    taus = np.array([sched.effective_time(t) for t in grid])
    unit = replace(base, sample_times=tuple(taus))
    run_unit = integrate(kind, p0, s, ConstantSchedule(1.0), float(taus[-1]), unit)

    if len(run_sched.samples) != len(run_unit.samples):
        raise InvalidInputError("reparameterization runs recorded mismatched checkpoints")
    dev = 0.0
    for a, b in zip(run_sched.samples, run_unit.samples):
        dev = max(dev, float(np.max(np.abs(a.p.probs - b.p.probs))))
    return dev


def check_time_reparameterization(
    s: ScoreVector,
    p0: SimplexPoint,
    schedule,
    horizon: float,
    kind: FieldKind = FieldKind.LITERAL,
    controls: IntegratorControls = IntegratorControls(rel_tol=1e-10, abs_tol=1e-12),
) -> float:
    """Deviation of the scheduled trajectory from its effective-time replay.

    Supported for the LITERAL field only, where temperature enters purely as
    a 1/T prefactor and schedules are exact time reparameterizations.  The
    ENTROPIC fitness contains T inside the score-entropy balance, so its
    scheduled flow is not a reparameterization of the unit-temperature flow;
    requesting it raises UnsupportedIdentityError.
    """
    if kind is not FieldKind.LITERAL:
        raise UnsupportedIdentityError(
            "time reparameterization is exact only for the literal field"
        )
    return _reparameterization_deviation(kind, s, p0, as_schedule(schedule), horizon, controls)
