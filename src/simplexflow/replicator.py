"""Continuous-time selection dynamics on the simplex.

Two vector fields are provided, both of the replicator form
``dp_i/dt = p_i (g_i - <p, g>)`` for a fitness vector g:

* LITERAL     g = s / T            (score-only fitness)
* ENTROPIC    g = s / T - log p    (score plus entropic fitness)

With fixed scores both flows have exact solutions,
``log p(t) = a(t) log p0 + b(t) s`` up to normalization with (a, b) equal to
(1, integral of 1/T) for LITERAL and (e^{-t}, integral of e^{-(t-u)}/T(u)) for
ENTROPIC.  ``integrate`` evaluates them at its stop times without stepping, a
(K, V) block of stops per array operation (``_solve_blocks``, which the
discrete iterations of ``mirror`` share): blocks double in rows from
FIRST_BLOCK, are capped at BLOCK_BYTES, and the run ends at the first row of a
block that meets a stop rule.  Free energy, KL, field norm and the simplex
checks are row-wise operations on the block.

The ENTROPIC field is the natural gradient of the free energy under the
inner product <u, v>_p = sum u_i v_i / p_i and vanishes exactly at
softmax(s, T).  The LITERAL field vanishes in the interior only when all
scores coincide; for generic scores it drives mass onto the argmax set, and
softmax is not one of its stationary points.  Both fields are tangent to the
simplex and keep every face invariant.

State-dependent scores s(p) of ``path_fields`` have no closed form; the
adaptive driver ``_run_flow`` steps them in log-coordinates with the
Dormand-Prince 5(4) pair (Dormand & Prince 1980; step control as in Hairer,
Norsett & Wanner, Solving ODEs I, II.4).  Each stage is
normalize(log p + h sum_j a_ij k_j) with slope k = g - <p, g>, so positivity
and normalization hold by construction and exact zeros stay zero.  The local
error is the sup-norm gap in p between the 5th- and the embedded 4th-order
solutions; the 5th-order one is kept, and its stage is the first stage of
the next step unless a renormalization or a schedule breakpoint moves the
state or T.  Samples are kept as (t, log p) and measured row-wise at the end.
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
    _normalize_rows,
    _simplex_rows,
    check_score_spread,
    check_temperature,
    free_energy,
)
from .trajectory import BlockCounts, StepCounts, TerminalStatus, TrajectoryRecord

#: log-probability clamp for the entropic field near the boundary
LOG_CLAMP = math.log(1e-300)
#: an adaptive step below this is reported as DIVERGED (step size underflow)
MIN_STEP = 1e-13
#: largest factor by which the step size may grow after one attempt
MAX_GROWTH = 2.0


def _inf_on_overflow(fn: Callable[[float], float], x: float) -> float:
    """``fn(x)`` for math.exp or math.expm1, with overflow giving inf, not raising."""
    try:
        return fn(x)
    except OverflowError:
        return math.inf


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

    def entropic_weight(self, t: float) -> float:
        return -math.expm1(-t) / self.temperature

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

    def _pieces(self, t: float):
        """(start, end, T) of each constant piece of [0, t], in order."""
        prev = 0.0
        for edge, value in zip(self.times, self.values):
            if t <= prev:
                return
            yield prev, min(t, edge), value
            prev = edge
        if t > prev:
            yield prev, t, self.values[-1]

    def effective_time(self, t: float) -> float:
        tau = 0.0
        for start, end, value in self._pieces(t):
            tau += (end - start) / value
        return tau

    def entropic_weight(self, t: float) -> float:
        w = 0.0
        for start, end, value in self._pieces(t):
            w += math.exp(end - t) * -math.expm1(start - end) / value
        return w

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
        temperature = self.initial * _inf_on_overflow(math.exp, self.rate * t)
        if math.isinf(temperature):
            raise InvalidInputError(f"temperature schedule overflows at t={t:.6g}")
        return temperature

    def effective_time(self, t: float) -> float:
        if self.rate == 0.0:
            return t / self.initial
        scale = self.initial * self.rate  # when it underflows to 0, divide in two steps
        growth = -_inf_on_overflow(math.expm1, -self.rate * t)
        return growth / scale if scale else growth / self.rate / self.initial

    def entropic_weight(self, t: float) -> float:
        # (e^{-rt} - e^{-t}) / (T0 (1 - r)) with the larger exponential
        # factored out, so neither factor overflows while the other underflows
        d = abs(1.0 - self.rate)
        if d == 0.0:
            return t * math.exp(-t) / self.initial
        larger = _inf_on_overflow(math.exp, -min(self.rate, 1.0) * t)
        return larger * -math.expm1(-d * t) / (self.initial * d)

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


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each row of two (K, V) arrays."""
    return np.einsum("kv,kv->k", a, b)


def _tangent_field(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """p * (g - <p, g>) for a point or each row of a (K, V) block, with the
    rounding residual folded into the largest-magnitude entry.

    Coordinates with p_i = 0 stay exactly zero; the fold keeps the float sum
    within one ulp of zero without touching them.
    """
    inner = p @ g if p.ndim == 1 else _row_dot(p, g)[:, np.newaxis]
    x = p * (g - inner)
    rows = x.reshape(-1, x.shape[-1])
    rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)] -= rows.sum(axis=1)
    return x


def eval_field(
    kind: FieldKind, p: SimplexPoint, s: ScoreVector, temperature: float
) -> np.ndarray:
    """Evaluate the selected replicator field at p; tangent to the simplex."""
    t = check_temperature(temperature)
    if p.size != s.size:
        raise InvalidInputError(f"size mismatch: p has {p.size} entries, s has {s.size}")
    ell = None
    if kind is FieldKind.ENTROPIC:
        if not p.interior:
            raise InteriorityError("entropic field needs log p, so p must be interior")
        ell = np.log(p.probs)
    g = _fitness(kind, lambda _: s.values)(p.probs, ell, t)
    return _tangent_field(np.array(p.probs), g)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegratorControls:
    """Flow settings.  Fixed-score flows are solved exactly at their stop
    times, so step control applies to linear fields only: a step is accepted
    when the sup-norm gap in p between the 5th- and 4th-order solutions of
    the Dormand-Prince pair is at most ``abs_tol + rel_tol``, one absolute
    bound as neither is scaled by the state.  ``dt0``, positive and finite, is
    the first trial step and also the first geometric sample time of every
    flow."""

    dt0: float = 1e-2
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    #: KL stop of fixed-score flows, checked at the stop times (0 disables)
    convergence_kl: float = 1e-10
    #: stop when the field sup-norm drops below this (0 disables); used for
    #: state-dependent score fields where no closed-form target exists
    convergence_field_norm: float = 0.0
    n_samples: int = 200
    uniform_samples: bool = False
    sample_times: Optional[tuple] = None

    def __post_init__(self):
        if not 0.0 < self.dt0 < math.inf:
            raise InvalidInputError(f"dt0 must be positive and finite, got {self.dt0!r}")


DEFAULT_HORIZON = 1e3


def _stops(horizon: float, schedule: TemperatureSchedule, controls: IntegratorControls) -> tuple:
    """(stops, samples): the set of sample times in (0, horizon], and those
    with every breakpoint in (0, horizon) and the horizon added, sorted."""
    if horizon <= 0 or not math.isfinite(horizon):
        raise InvalidInputError(f"horizon must be positive and finite, got {horizon}")
    n = max(int(controls.n_samples), 2)
    if controls.sample_times is not None:
        grid = np.asarray(controls.sample_times, dtype=np.float64)
        if grid.ndim != 1 or np.any(grid < 0) or np.any(np.diff(grid) <= 0):
            raise InvalidInputError("sample times must be strictly increasing and nonnegative")
    elif controls.uniform_samples or horizon <= controls.dt0 or n < 3:
        grid = np.linspace(0.0, horizon, n)
    else:
        # geometric cadence: dense early where free energy and KL move fastest
        interior = controls.dt0 * (horizon / controls.dt0) ** (np.arange(n - 1) / (n - 2))
        grid = np.concatenate(([0.0], interior))
    # a set, not np.unique: the first np.unique in a freshly forked sweep
    # worker took ~1600 copy-on-write page faults (25-50 ms per worker)
    samples = {t for t in grid.tolist() if 0.0 < t <= horizon}
    stops = sorted(
        samples | {b for b in schedule.breakpoints() if 0.0 < b < horizon} | {horizon}
    )
    return stops, samples


def _fitness(kind: FieldKind, scores_at: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Fitness g(p, log p, T) = s(p) / T, minus log p for the entropic kind."""
    if kind is FieldKind.ENTROPIC:
        return lambda p, ell, temperature: scores_at(p) / temperature - ell
    return lambda p, ell, temperature: scores_at(p) / temperature


def _free_energy_rows(inner, temperatures, P: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """inner + T H(p) per row of P = exp(logs), with 0 log 0 := 0."""
    return inner - temperatures * _row_dot(P, np.where(P > 0.0, logs, 0.0))


def _field_norm(p: np.ndarray, g: np.ndarray):
    """Sup norm of the tangent field of fitness g at a point or at each row."""
    return np.abs(_tangent_field(p, g)).max(axis=-1)


#: Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6, 1980):
#: stage nodes, stage coefficients (the last row holds the 5th-order weights,
#: so the last stage of a step is the first stage of the next) and the
#: embedded 4th-order weights
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = np.array(
    [
        [0.0] * 6,
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
)
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _run_flow(
    kind: FieldKind,
    p0: SimplexPoint,
    scores_at: Callable[[np.ndarray], np.ndarray],
    potential: Callable[[np.ndarray], float],
    schedule: TemperatureSchedule,
    horizon: float,
    controls: IntegratorControls,
) -> TrajectoryRecord:
    """Adaptive flow of the score map ``p -> s(p)`` from p0, annotated with
    ``potential(p) + T H(p)`` and a NaN KL; see the module docstring.

    ``scores_at`` and ``potential`` take one point.  Samples are kept as
    (t, log p) while stepping and measured row by row at the end."""
    stops, sample_set = _stops(horizon, schedule, controls)
    if kind is FieldKind.ENTROPIC and not p0.interior:
        raise InteriorityError("entropic field requires an interior start")
    fitness = _fitness(kind, scores_at)
    breaks = set(schedule.breakpoints())
    tol = controls.abs_tol + controls.rel_tol

    with np.errstate(divide="ignore"):
        ell = _normalize_logs(np.log(p0.probs))
    p = np.exp(ell)
    g = fitness(p, ell, schedule.at(0.0))  # the next step's first stage
    slopes = np.empty((7, ell.size))
    times, logs = [0.0], [ell]
    renorms = rejected = 0
    sizes = []  # of the accepted steps
    t_now = 0.0
    h = controls.dt0
    status = TerminalStatus.MAX_TIME
    diagnostics = ""

    done = False
    for t_stop in stops:
        # a stop closer than the shortest step counts as reached: its sample
        # takes the state up to MIN_STEP early, and stepping goes on from t_now
        while t_stop - t_now >= max(MIN_STEP, 1e-14 * t_stop):
            h_try = min(h, t_stop - t_now)
            on_break = h_try == t_stop - t_now and t_stop in breaks
            # stages at c = 1 take T from this step's piece; at a breakpoint
            # schedule.at gives the next piece, and as only piecewise-constant
            # schedules have breakpoints, T at the step's start is the left limit
            end_temperature = schedule.at(t_now) if on_break else schedule.at(t_now + h_try)
            slopes[0] = g - p @ g
            for i in range(1, 7):
                c = _DP_C[i]
                ell_i = _normalize_logs(ell + h_try * (_DP_A[i, :i] @ slopes[:i]))
                p_i = np.exp(ell_i)
                temperature = end_temperature if c == 1.0 else schedule.at(t_now + c * h_try)
                g_i = fitness(p_i, ell_i, temperature)
                slopes[i] = g_i - p_i @ g_i
            # the last stage is the 5th-order solution
            ell4 = _normalize_logs(ell + h_try * (_DP_B4 @ slopes))
            err = float(np.abs(p_i - np.exp(ell4)).max())
            factor = 0.9 * (tol / max(err, 1e-300)) ** 0.2
            if err <= tol:
                ell, p, g = ell_i, p_i, g_i
                sizes.append(h_try)
                t_now = t_now + h_try
                if t_stop - t_now <= 1e-14 * max(1.0, t_stop):
                    t_now = t_stop
                # the last stage is the next step's first unless T or the state moves
                fresh = not on_break
                total = float(p.sum())
                if abs(total - 1.0) > NORM_EPS:
                    ell = ell - math.log(total)
                    renorms += 1
                    fresh = False
                if kind is FieldKind.ENTROPIC and float(ell.min()) < LOG_CLAMP:
                    ell = _normalize_logs(np.maximum(ell, LOG_CLAMP))
                    status = TerminalStatus.DIVERGED
                    diagnostics = "log-probability clamp hit near the boundary"
                    done = True
                    break
                if not fresh:
                    p = np.exp(ell)
                    g = fitness(p, ell, schedule.at(t_now))
                if (
                    controls.convergence_field_norm > 0
                    and _field_norm(p, g) < controls.convergence_field_norm
                ):
                    status = TerminalStatus.CONVERGED
                    done = True
                    break
            else:
                rejected += 1
            h = h_try * min(MAX_GROWTH, max(0.2, factor))
            if h < MIN_STEP:
                status = TerminalStatus.DIVERGED
                diagnostics = f"step size underflow at t={t_now:.6g} (h={h:.3g})"
                done = True
                break
        if done:
            break
        if t_now < t_stop and t_stop in breaks:  # T moves for the next first stage
            g = fitness(p, ell, schedule.at(t_stop))
        if t_stop in sample_set:
            times.append(t_stop)
            logs.append(ell)

    if done and times[-1] < t_now:
        times.append(t_now)
        logs.append(ell)

    L = np.array(logs)
    raw = np.exp(L)
    temperatures = np.array([schedule.at(t) for t in times])
    fitnesses = np.array([fitness(*row) for row in zip(raw, L, temperatures)])
    columns = {
        "t": np.array(times),
        "free_energy": _free_energy_rows(
            np.array([potential(row) for row in raw]), temperatures, raw, L
        ),
        "kl_to_target": np.full(len(times), math.nan),
        "field_norm": _field_norm(raw, fitnesses),
    }
    return TrajectoryRecord.from_columns(
        _simplex_rows(raw),
        columns,
        status,
        accepted_steps=len(sizes),
        diagnostics=diagnostics,
        renormalizations=renorms,
        step_counts=StepCounts(
            len(sizes),
            rejected,
            min(sizes, default=math.nan),
            max(sizes, default=math.nan),
            sizes[-1] if sizes else math.nan,
        ),
    )


#: rows in the first closed-form block; each later block has twice as many
FIRST_BLOCK = 16
#: bytes one (rows, V) float64 block may take, so a wide vocabulary keeps blocks small
BLOCK_BYTES = 1 << 20


def _solve_blocks(
    kind: FieldKind,
    ell0: np.ndarray,
    shifted: np.ndarray,
    schedule: TemperatureSchedule,
    times: np.ndarray,
    measure: Callable,
    overflow_note: Callable[[int, float], str],
) -> tuple:
    """The fixed-score flow from log-weights ``ell0`` with max-shifted scores
    ``shifted`` at the increasing ``times``, up to the first row that
    ``measure`` stops at.

    Row k is ``normalize(a ell0 + b shifted)`` at t = times[k], with (a, b) =
    (1, effective_time) for LITERAL and (e^{-t}, entropic_weight) for
    ENTROPIC; the coefficients of each row are scalar ``math`` calls, which
    ``np.exp`` does not match to the bit.  Rows are evaluated as (K, V)
    blocks: K starts at FIRST_BLOCK, doubles from block to block and is capped
    at BLOCK_BYTES.  For each block ``measure(temperatures, logs)`` returns
    (stop row or None, status, diagnostics, columns): "P", the rows of
    exp(logs) its values were measured on, and one value per row for each
    other column.  A temperature that overflows raises, and weights that
    overflow end the run DIVERGED before that row with diagnostics
    ``overflow_note(row, t)``, unless an earlier row stops the run.

    Returns (P, columns, status, diagnostics, BlockCounts) over the rows up to
    the stop, with P checked and renormalized by ``_simplex_rows``.
    """
    entropic = kind is FieldKind.ENTROPIC
    weight = schedule.entropic_weight if entropic else schedule.effective_time
    spread = -float(shifted.min())
    cap = max(1, BLOCK_BYTES // (8 * ell0.size))
    blocks = []
    status, diagnostics = TerminalStatus.MAX_TIME, ""
    start, size, evaluated = 0, FIRST_BLOCK, 0
    while start < len(times):
        coefficients, failure = [], None
        for row, t in enumerate(times[start : start + min(size, cap)].tolist(), start):
            try:
                temperature = schedule.at(t)
            except InvalidInputError as exc:  # raised once every earlier row is measured
                failure = exc
                break
            b = weight(t)
            if not (temperature > 0.0 and math.isfinite(b * spread + spread / temperature)):
                failure = overflow_note(row, t)
                break
            coefficients.append((math.exp(-t) if entropic else 1.0, b, temperature))
        if coefficients:
            a, b, temperatures = np.array(coefficients).T
            logs = _normalize_rows(a[:, np.newaxis] * ell0 + b[:, np.newaxis] * shifted)
            stop, status, diagnostics, columns = measure(temperatures, logs)
            evaluated += len(coefficients)
            end = len(coefficients) if stop is None else stop + 1
            columns = {name: column[:end] for name, column in columns.items()}
            columns["P"] = _simplex_rows(columns["P"])
            blocks.append(columns)
            if stop is not None:
                break
        if isinstance(failure, InvalidInputError):
            raise failure
        if failure is not None:
            status, diagnostics = TerminalStatus.DIVERGED, failure
            break
        start += len(coefficients)
        size *= 2
    columns = {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}
    P = columns.pop("P")
    return P, columns, status, diagnostics, BlockCounts(evaluated, len(P), len(blocks))


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
    """Solve the selected fixed-score flow from p0 under a temperature schedule.

    Nothing is stepped: the rows it records, at t = 0 and at each sample time
    in (0, horizon], are ``log p = a log p0 + b (s - max s)`` up to
    normalization, with (a, b) = (1, effective_time) for LITERAL and
    (e^{-t}, entropic_weight) for ENTROPIC, so ``accepted_steps`` and
    ``renormalizations`` stay 0; a breakpoint or a horizon that is no sample
    time is not evaluated.  Samples carry the free energy at T(t) and the KL
    to softmax(s, T(t)) (ENTROPIC) or, from the closed-form limit point,
    D(limit || p) (LITERAL).  The run ends at the first sample below
    ``controls.convergence_kl`` or ``convergence_field_norm``, else at the
    last sample; a log-probability below ``LOG_CLAMP`` or an overflowing
    weight ends it DIVERGED.
    """
    sched = as_schedule(schedule)
    if p0.size != s.size:
        raise InvalidInputError(f"size mismatch: p0 has {p0.size} entries, s has {s.size}")
    _, samples = _stops(horizon, sched, controls)
    entropic = kind is FieldKind.ENTROPIC
    if entropic and not p0.interior:
        raise InteriorityError("entropic field requires an interior start")
    check_score_spread(s, sched.at(0.0))
    shifted = s.values - s.values.max()
    fitness = _fitness(kind, lambda _: shifted)
    if entropic:

        def kl_rows(P, logs, temperatures):
            return _row_dot(P, logs - _normalize_rows(shifted / temperatures))

    else:
        target_ell = literal_target_logs(p0, s)
        target_p = np.exp(target_ell)
        target_sel = target_p > 0.0
        target_plogp = float(target_p[target_sel] @ target_ell[target_sel])

        def kl_rows(P, logs, temperatures):
            return target_plogp - logs[:, target_sel] @ target_p[target_sel]

    def measure(temperatures, logs):
        stop, status, diagnostics = None, TerminalStatus.MAX_TIME, ""
        if entropic:
            low = np.flatnonzero(logs.min(axis=1) < LOG_CLAMP)
            if low.size:
                stop = int(low[0])
                logs[stop] = _normalize_logs(np.maximum(logs[stop], LOG_CLAMP))
                status = TerminalStatus.DIVERGED
                diagnostics = "log-probability clamp hit near the boundary"
        P = np.exp(logs)
        temperatures = temperatures[:, np.newaxis]
        columns = {
            "P": P,
            "free_energy": _free_energy_rows(P @ s.values, temperatures[:, 0], P, logs),
            "kl_to_target": np.maximum(kl_rows(P, logs, temperatures), 0.0),
            "field_norm": _field_norm(P, fitness(P, logs, temperatures)),
        }
        met = np.flatnonzero(
            (columns["kl_to_target"] < controls.convergence_kl)
            | (columns["field_norm"] < controls.convergence_field_norm)
        )
        if met.size and (stop is None or met[0] < stop):
            stop, status, diagnostics = int(met[0]), TerminalStatus.CONVERGED, ""
        return stop, status, diagnostics, columns

    with np.errstate(divide="ignore"):
        ell0 = np.log(p0.probs)
    times = np.array([0.0] + sorted(samples))
    P, columns, status, diagnostics, counts = _solve_blocks(
        kind,
        ell0,
        shifted,
        sched,
        times,
        measure,
        lambda row, t: f"flow weights overflow at t={t:.6g}",
    )
    columns["t"] = times[: len(P)]
    return TrajectoryRecord.from_columns(
        P, columns, status, diagnostics=diagnostics, block_counts=counts
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
    replayed at the closed-form effective time.  Both runs are integrated
    numerically, so the identity is measured rather than assumed."""
    if p0.size != s.size:
        raise InvalidInputError(f"size mismatch: p0 has {p0.size} entries, s has {s.size}")
    if n_checkpoints < 1:
        raise InvalidInputError(f"need at least 1 checkpoint, got {n_checkpoints}")
    sched = as_schedule(schedule)
    grid = np.linspace(0.0, horizon, n_checkpoints + 1)
    base = replace(controls, convergence_field_norm=0.0, sample_times=tuple(grid))
    constant, inner = (lambda p: s.values), (lambda p: float(p @ s.values))
    run_sched = _run_flow(kind, p0, constant, inner, sched, horizon, base)

    taus = np.array([sched.effective_time(t) for t in grid])
    unit = replace(base, sample_times=tuple(taus))
    run_unit = _run_flow(kind, p0, constant, inner, ConstantSchedule(1.0), float(taus[-1]), unit)

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
