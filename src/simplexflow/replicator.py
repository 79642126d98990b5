"""Continuous-time selection dynamics on the simplex.

Two vector fields are provided, both of the replicator form
``dp_i/dt = p_i (g_i - <p, g>)`` for a fitness vector g:

* LITERAL     g = s / T            (score-only fitness)
* ENTROPIC    g = s / T - log p    (score plus entropic fitness)

With fixed scores both flows have exact solutions,
``log p(t) = a(t) log p0 + b(t) s`` up to normalization with (a, b) equal to
(1, integral of 1/T) for LITERAL and (e^{-t}, integral of e^{-(t-u)}/T(u)) for
ENTROPIC.  ``integrate_rows`` evaluates them for N instances (p0, s) at
their stop times without stepping, an (N, K, V) block of K stops per array
operation until every instance has stopped (``_solve_blocks``, which the
discrete iterations of ``mirror`` share on one row); ``integrate`` is its
one-row call.  A block costs a fixed few dozen numpy calls plus a cost per
row.  At a constant temperature the stop values fall at rates known in
advance, so the first block ends at the row by which every instance must
stop (``_certified_rows``, from Hoeffding's lemma for the entropic kind) and
most runs take one block of about the rows they keep; otherwise blocks start
at FIRST_BLOCK rows and double.  Blocks are capped at BLOCK_BYTES per
instance.  An instance ends at its first row that meets a stop rule, its
record's status telling which, and its rows are those of its one-row run,
whatever instances are beside it; its block counts are the call's.  Free
energy, KL, field norm and the simplex checks are row-wise operations on the
block.

The ENTROPIC field is the natural gradient of the free energy under the
inner product <u, v>_p = sum u_i v_i / p_i and vanishes exactly at
softmax(s, T).  The LITERAL field vanishes in the interior only when all
scores coincide; for generic scores it drives mass onto the argmax set, and
softmax is not one of its stationary points.  Both fields are tangent to the
simplex and keep every face invariant.

State-dependent scores s(p) of ``path_fields`` have no closed form; the
adaptive driver ``_run_flows`` steps them in log-coordinates with the
Dormand-Prince 5(4) pair (Dormand & Prince 1980; step control as in Hairer,
Norsett & Wanner, Solving ODEs I, II.4).  Each stage is
normalize(log p + h sum_j a_ij k_j) with slope k = g - <p, g>, so positivity
and normalization hold by construction and exact zeros stay zero.  The local
error is the sup-norm gap in p between the 5th- and the embedded 4th-order
solutions; the 5th-order one is kept, and its stage is the first stage of
the next step unless a renormalization or a schedule breakpoint moves the
state or T.  Several starts of one field are stepped as a (B, V) block
whose rows share every step, accepted on the largest error over the
rows; a row that diverges leaves the block alone.  A step lands on every
sample time unless the run asks for dense output, which reads the samples
inside a step from the pair's continuous extension.  Each start keeps its
samples as a list of (times, log p rows) chunks, and the rows of all starts
are measured as one block at the end.  A run ends at its horizon, or
DIVERGED.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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
    _check_entropy_scale,
    _check_rows,
    _instance_rows,
    _normalize_logs,
    _normalize_rows,
    _simplex_rows,
    check_score_spread,
    check_temperature,
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


def _math_map(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``_inf_on_overflow(fn, .)`` of each entry of the 1-D array ``x``, a C-level
    ``map`` unless one overflows: ``np.exp`` differs from ``math.exp`` in the last bit."""
    values = x.tolist()
    try:
        return np.array(list(map(fn, values)))
    except OverflowError:
        return np.array([_inf_on_overflow(fn, v) for v in values])


class FieldKind(Enum):
    LITERAL = "literal"
    ENTROPIC = "entropic"


# ---------------------------------------------------------------------------
# temperature schedules
# ``temperatures``, ``effective_time`` and ``entropic_weight`` map a 1-D array
# of times to T(t), tau(t) and w(t) (see ``_solve_blocks``); an overflow is inf,
# warned as numpy warns.  ``temperatures`` has the bits of ``at``, and inf
# where ``at`` raises.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantSchedule:
    temperature: float

    def __post_init__(self):
        check_temperature(self.temperature)

    def at(self, t: float) -> float:
        return self.temperature

    def temperatures(self, t: np.ndarray) -> np.ndarray:
        return np.full(len(t), self.temperature)

    def effective_time(self, t: np.ndarray) -> np.ndarray:
        return t / self.temperature

    def entropic_weight(self, t: np.ndarray) -> np.ndarray:
        return -_math_map(math.expm1, -t) / self.temperature

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
        if not all(0.0 < t < math.inf for t in times) or any(
            b >= a for a, b in zip(times[1:], times)
        ):
            raise InvalidInputError("breakpoints must be finite, positive and strictly increasing")
        for v in values:
            check_temperature(v)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def at(self, t: float) -> float:
        return self.values[bisect_right(self.times, t)]

    def temperatures(self, t: np.ndarray) -> np.ndarray:
        return np.array(self.values)[np.searchsorted(self.times, t, side="right")]

    def effective_time(self, t: np.ndarray) -> np.ndarray:
        tau = np.zeros(len(t))
        # a piece adds its term to each row it covers, in a row's own order
        for start, edge, value in zip((0.0, *self.times), (*self.times, math.inf), self.values):
            rows = t > start
            tau[rows] += (np.minimum(t[rows], edge) - start) / value
        return tau

    def entropic_weight(self, t: np.ndarray) -> np.ndarray:
        w = np.zeros(len(t))
        for start, edge, value in zip((0.0, *self.times), (*self.times, math.inf), self.values):
            rows = t > start
            end = np.minimum(t[rows], edge)
            decay = _math_map(math.exp, end - t[rows])
            w[rows] += decay * -_math_map(math.expm1, start - end) / value
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

    def temperatures(self, t: np.ndarray) -> np.ndarray:
        return self.initial * _math_map(math.exp, self.rate * t)

    def effective_time(self, t: np.ndarray) -> np.ndarray:
        if self.rate == 0.0:
            return t / self.initial
        scale = self.initial * self.rate  # when it underflows to 0, divide in two steps
        growth = -_math_map(math.expm1, -self.rate * t)
        return growth / scale if scale else growth / self.rate / self.initial

    def entropic_weight(self, t: np.ndarray) -> np.ndarray:
        # (e^{-rt} - e^{-t}) / (T0 (1 - r)) with the larger exponential
        # factored out, so neither factor overflows while the other underflows
        d = abs(1.0 - self.rate)
        if d == 0.0:
            return t * _math_map(math.exp, -t) / self.initial
        larger = _math_map(math.exp, -min(self.rate, 1.0) * t)
        return larger * -_math_map(math.expm1, -d * t) / (self.initial * d)

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
    if not t >= 0:  # NaN included
        raise InvalidInputError(f"time must be nonnegative, got {t}")
    with np.errstate(over="ignore"):
        return float(as_schedule(schedule).effective_time(np.array([float(t)]))[0])


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> per row, b broadcast against a's rows: stacked (1, V) products, so each
    row is its point's product to the bit (einsum's and (K, V) @ (V,)'s vary with K)."""
    return (a[..., np.newaxis, :] @ b[..., np.newaxis])[..., 0, 0]


def _tangent_field(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """p * (g - <p, g>) for a point or each row of a (K, V) block, with the
    rounding residual folded into the largest-magnitude entry.

    Coordinates with p_i = 0 stay exactly zero; the fold keeps the float sum
    within one ulp of zero without touching them.
    """
    x = p * (g - _row_dot(p, g)[..., np.newaxis])
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
    the Dormand-Prince pair is at most ``step_tol``, positive and finite: one
    absolute bound, not scaled by the state.  ``dt0``, positive and finite, is
    the first trial step and also the first geometric sample time of every
    flow."""

    dt0: float = 1e-2
    step_tol: float = 1.01e-8
    #: KL stop of fixed-score flows, checked at the stop times: finite and
    #: nonnegative, and 0 disables it
    convergence_kl: float = 1e-10
    n_samples: int = 200
    uniform_samples: bool = False
    sample_times: Optional[tuple] = None

    def __post_init__(self):
        if not 0.0 < self.dt0 < math.inf:
            raise InvalidInputError(f"dt0 must be positive and finite, got {self.dt0!r}")
        if not 0.0 < self.step_tol < math.inf:
            raise InvalidInputError(
                f"step_tol must be positive and finite, got {self.step_tol!r}"
            )
        if not 0.0 <= self.convergence_kl < math.inf:
            raise InvalidInputError(
                f"convergence_kl must be finite and nonnegative, got {self.convergence_kl!r}"
            )


DEFAULT_HORIZON = 1e3
#: the step controls of a reparameterization check: both of its runs step at
#: a tolerance 100x below the default, well under the 1e-7 its deviation is
#: judged against
REPARAMETERIZATION_CONTROLS = IntegratorControls(step_tol=1.01e-10)


def _stops(horizon: float, schedule: TemperatureSchedule, controls: IntegratorControls) -> tuple:
    """(stops, samples): the set of sample times in (0, horizon], and those
    with every breakpoint in (0, horizon) and the horizon added, sorted.
    Without ``sample_times``, ``n_samples`` counts t = 0 and must be >= 2."""
    if horizon <= 0 or not math.isfinite(horizon):
        raise InvalidInputError(f"horizon must be positive and finite, got {horizon}")
    n = controls.n_samples
    if controls.sample_times is not None:
        grid = np.asarray(controls.sample_times, dtype=np.float64)
        # written so that NaN fails: it compares false with everything
        if grid.ndim != 1 or not (grid >= 0).all() or not (np.diff(grid) > 0).all():
            raise InvalidInputError("sample times must be strictly increasing and nonnegative")
    elif n < 2:
        raise InvalidInputError(f"samples must be at least 2 (t = 0 and the horizon), got {n}")
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
    """Sup norm of the tangent field of fitness g at each row."""
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
#: largest sum of |a_ij| over a row of _DP_A: a stage moves log p by at most
#: this many slopes times the step
_DP_REACH = float(np.abs(_DP_A).sum(axis=1).max())
#: weights of the 4th-order continuous extension's last term (Hairer, Norsett
#: & Wanner, Solving ODEs I, II.6; the ``dense`` sampling of ``_run_flows``)
_DP_D = np.array(
    [
        -12715105075 / 11282082432,
        0.0,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    ]
)


def _check_cold_spread(what: str, largest: float, size: int, schedule: TemperatureSchedule,
                       horizon: float) -> None:
    """Raise InvalidInputError when scores up to ``largest`` overflow a DP run
    to ``horizon`` at its coldest temperature, the smallest of T at 0, at each
    breakpoint and at the horizon: |slope| <= 2 largest / T, a stage moves
    log p by up to _DP_REACH slopes times a step of at most the horizon, and
    normalizing subtracts two moves.  The hottest of those temperatures is
    checked for the free energy of ``size`` tokens (``_check_entropy_scale``)."""
    if not 0.0 < horizon < math.inf:  # _run_flows refuses any other horizon
        return
    edges = sorted({0.0, horizon, *(b for b in schedule.breakpoints() if 0.0 < b < horizon)})
    t_cold = min(edges, key=schedule.at)
    coldest = schedule.at(t_cold)
    spread = largest / coldest if coldest > 0.0 else math.inf
    if not math.isfinite(spread * 4.0 * _DP_REACH * max(horizon, 1.0)):
        raise InvalidInputError(
            f"{what} up to {largest:.3g} overflow at T({t_cold:.6g}) = "
            f"{coldest:.3g}, the run's smallest temperature"
        )
    _check_entropy_scale(max(map(schedule.at, edges)), size)


def _stage_sum(coefficients: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """sum_j c_j slopes[j] over the first axis of (j, B, V) stage slopes."""
    return (coefficients @ slopes.reshape(len(coefficients), -1)).reshape(slopes.shape[1:])


def _row_values(values) -> list:
    """A reduction over the last axis as floats, one per row: a point's
    scalar is one row."""
    return values.tolist() if isinstance(values, np.ndarray) else [float(values)]


def _run_flows(
    kind: FieldKind,
    starts: Sequence[SimplexPoint],
    scores_at: Callable[[np.ndarray], np.ndarray],
    potential: Callable[[np.ndarray], np.ndarray],
    schedule: TemperatureSchedule,
    horizon: float,
    controls: IntegratorControls,
    *,
    dense: bool = False,
) -> list:
    """Adaptive flows of the score map ``p -> s(p)`` from each start, one
    record per start annotated with ``potential(p) + T H(p)`` and a NaN KL;
    see the module docstring.

    The B starts are stepped as one (B, V) block that shares every step: a
    trial is accepted when its error, the largest over the rows, is within
    the tolerance, so the step control, the landing on stops and breakpoints
    and the step growth are those of one start.  Renormalization and the
    log-clamp are checked per row.  A row that meets the clamp ends DIVERGED
    and leaves the block; on a step size underflow the rows whose error
    exceeded the tolerance do so (every row, after an accepted trial) and
    the others retry the trial.  Each record carries the block's step
    counts.  One start keeps the per-point stage arithmetic, the faster form
    on one row.  Stages call ``scores_at`` once on the whole block.

    By default a step lands on every sample time.  With ``dense``, steps land
    only on the schedule's breakpoints and the horizon, and a sample inside
    an accepted step is read from the step's 4th-order continuous extension
    (Hairer, Norsett & Wanner, Solving ODEs I, II.6): in log p, from the
    step's seven slopes and no further ``scores_at`` call, then normalized,
    all the samples of one step as one array.  An entropic row leaves at its
    first such sample below the clamp, as it leaves at a step's end below it:
    that point is its last, clamped.  A sample at a stop takes the state
    there in both modes.  Each start keeps a list of (times, log p
    rows) chunks, with the state it left with if it left after its last
    sample; the chunks are stacked in start order and measured by one call
    each of ``scores_at`` and ``potential``."""
    stops, sample_set = _stops(horizon, schedule, controls)
    if not starts or len({p0.size for p0 in starts}) > 1:
        raise InvalidInputError("the flow needs one or more starts of one size")
    if kind is FieldKind.ENTROPIC and not all(p0.interior for p0 in starts):
        raise InteriorityError("entropic field requires an interior start")
    fitness = _fitness(kind, scores_at)
    breaks = set(schedule.breakpoints())
    if dense:
        stops = [t for t in stops if t in breaks or t == horizon]
    # the sample times not yet recorded are pending[k:]; a sample before the
    # end of an accepted step is interpolated, one at or before a stop takes
    # the state there.  Without dense output every sample is a stop, so no
    # step passes one and nothing is interpolated
    pending, k = sorted(sample_set) + [math.inf], 0
    tol = controls.step_tol
    single = len(starts) == 1
    # one start keeps the per-point arithmetic, the faster form on one row
    if single:
        normalize, inner, stage_sum = _normalize_logs, np.matmul, np.matmul
    else:
        normalize, stage_sum = _normalize_rows, _stage_sum
        # einsum, not _row_dot: its last bit decides which steps are accepted,
        # and no oracle yet gates a change of the step sequences
        inner = lambda p, g: np.einsum("kv,kv->k", p, g)[:, np.newaxis]

    with np.errstate(divide="ignore"):
        ell = normalize(np.log(starts[0].probs if single else [p0.probs for p0 in starts]))
    size = ell.shape[-1]
    p = np.exp(ell)
    g = fitness(p, ell, schedule.at(0.0))  # the next step's first stage
    slopes = np.empty((7,) + ell.shape)
    block = np.arange(len(starts))  # the start of each row of the block
    # (times, log p rows) chunks per start; one start records ell itself, so
    # no row is a view that keeps a larger array alive
    history = [[((0.0,), row)] for row in ([ell] if single else ell)]
    ends = {}  # start -> diagnostics, for the starts that left the block DIVERGED
    renorms = np.zeros(len(starts), dtype=int)
    rejected = 0
    sizes = []  # of the accepted steps
    t_now = 0.0
    h = controls.dt0

    def record(times, rows, kept=None):
        """Append the block's rows at ``times``: (len(times), B, V), or (B, V)
        for one time; one start's rows drop the B axis.  With ``kept``, row i
        appends only its first kept[i] samples."""
        chunks = [rows] if single else np.swapaxes(rows, 0, -2)
        for i, (start, chunk) in enumerate(zip(block.tolist(), chunks)):
            if kept is None:
                history[start].append((times, chunk))
            elif kept[i]:
                history[start].append((times[: kept[i]], chunk[: kept[i]]))

    def leave(mask, diagnostics, exits) -> bool:
        """End the masked rows DIVERGED, each with its (time, log p) exit,
        recorded if it left after its last sample, and drop them from the
        block; True when no row is left."""
        nonlocal ell, p, g, block, slopes
        mask = np.asarray(mask)
        for start, (t_exit, last) in zip(block[mask].tolist(), exits):
            ends[start] = diagnostics
            if history[start][-1][0][-1] < t_exit:
                history[start].append(((t_exit,), last))
        if mask.all():
            return True
        ell, p, g, block = ell[~mask], p[~mask], g[~mask], block[~mask]
        slopes = np.empty((7,) + ell.shape)
        return False

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
            slopes[0] = g - inner(p, g)
            for i in range(1, 7):
                c = _DP_C[i]
                ell_i = normalize(ell + h_try * stage_sum(_DP_A[i, :i], slopes[:i]))
                p_i = np.exp(ell_i)
                temperature = end_temperature if c == 1.0 else schedule.at(t_now + c * h_try)
                g_i = fitness(p_i, ell_i, temperature)
                slopes[i] = g_i - inner(p_i, g_i)
            # the last stage is the 5th-order solution
            ell4 = normalize(ell + h_try * stage_sum(_DP_B4, slopes))
            gaps = np.abs(p_i - np.exp(ell4))
            err = float(gaps.max())
            factor = 0.9 * (tol / max(err, 1e-300)) ** 0.2
            if err <= tol:
                t_start = t_now
                t_now = t_now + h_try
                if t_stop - t_now <= 1e-14 * max(1.0, t_stop):
                    t_now = t_stop
                exits = {}  # row -> (time, log p) of its first sample below the clamp
                if pending[k] < t_now:  # only with dense: samples inside this step
                    j = bisect_left(pending, t_now, k)
                    times, k = pending[k:j], j
                    theta = (np.array(times) - t_start) / h_try
                    theta = theta.reshape((-1,) + (1,) * ell.ndim)
                    # dopri5's contd5 terms; each row's constant shift drops
                    # out when the rows are normalized
                    r2 = ell_i - ell
                    r3 = h_try * slopes[0] - r2
                    r4 = r2 - h_try * slopes[6] - r3
                    r5 = h_try * stage_sum(_DP_D, slopes)
                    rows = ell + theta * (r2 + (1.0 - theta) * (
                        r3 + theta * (r4 + (1.0 - theta) * r5)))
                    rows = _normalize_rows(rows.reshape(-1, size)).reshape(rows.shape)
                    kept = None
                    if kind is FieldKind.ENTROPIC:
                        # a row keeps its samples before the first below the clamp
                        n = len(times)
                        samples = rows.reshape(n, -1, size)
                        low = samples.min(axis=-1) < LOG_CLAMP
                        kept = np.where(low.any(axis=0), low.argmax(axis=0), n).tolist()
                        exits = {i: (times[c], samples[c, i]) for i, c in enumerate(kept) if c < n}
                    record(times, rows, kept)
                ell, p, g = ell_i, p_i, g_i
                sizes.append(h_try)
                # the last stage is the next step's first unless T or the state moves
                fresh = not on_break
                totals = _row_values(p.sum(axis=-1))
                off = [abs(total - 1.0) > NORM_EPS for total in totals]
                if any(off):
                    shifts = [math.log(total) if o else 0.0 for total, o in zip(totals, off)]
                    ell = ell - np.reshape(shifts, ell.shape[:-1] + (1,))
                    renorms[block[off]] += 1
                    fresh = False
                if kind is FieldKind.ENTROPIC:
                    lows = _row_values(ell.min(axis=-1))
                    low = [least < LOG_CLAMP or i in exits for i, least in enumerate(lows)]
                    if any(low):
                        # clamped at its first sample below the clamp, else at the step's end
                        last = ell.reshape(-1, size)
                        points = [exits.get(i, (t_now, last[i])) for i in np.flatnonzero(low)]
                        clamped = _normalize_rows(np.maximum([x for _, x in points], LOG_CLAMP))
                        diagnostics = "log-probability clamp hit near the boundary"
                        if leave(low, diagnostics, zip([t for t, _ in points], clamped)):
                            done = True
                            break
                if not fresh:
                    p = np.exp(ell)
                    g = fitness(p, ell, schedule.at(t_now))
            else:
                rejected += 1
            grown = h_try * min(MAX_GROWTH, max(0.2, factor))
            # a step cut short to land on a stop says little about the step
            # size, so one accepted landing step keeps the proposal made before it
            h = max(grown, h) if err <= tol and h_try < h else grown
            if h < MIN_STEP:
                # the rows over the tolerance end; after an accepted trial, every row
                if err > tol:
                    over = [error > tol for error in _row_values(gaps.max(axis=-1))]
                else:
                    over = [True] * len(block)
                diagnostics = f"step size underflow at t={t_now:.6g} (h={h:.3g})"
                if leave(over, diagnostics, [(t_now, x) for x in ell.reshape(-1, size)[over]]):
                    done = True
                    break
                h = h_try  # the rows kept were within the tolerance on this trial
        if done:
            break
        if t_now < t_stop and t_stop in breaks:  # T moves for the next first stage
            g = fitness(p, ell, schedule.at(t_stop))
        j = bisect_right(pending, t_stop, k)
        if j > k:
            times, k = pending[k:j], j
            rows = ell if len(times) == 1 else np.broadcast_to(ell, (len(times),) + ell.shape)
            record(times, rows)

    chunks = [chunk for rows in history for chunk in rows]
    L = np.vstack([rows for _, rows in chunks])
    raw = np.exp(L)
    stamps = [t for times, _ in chunks for t in times]
    temperatures = np.array([schedule.at(t) for t in stamps])
    columns = {
        "t": np.array(stamps),
        "free_energy": _free_energy_rows(potential(raw), temperatures, raw, L),
        "kl_to_target": np.full(len(stamps), math.nan),
        "field_norm": _field_norm(raw, fitness(raw, L, temperatures[:, np.newaxis])),
    }
    P = _simplex_rows(raw)
    counts = StepCounts(
        len(sizes),
        rejected,
        min(sizes, default=math.nan),
        max(sizes, default=math.nan),
        sizes[-1] if sizes else math.nan,
    )
    records, first = [], 0
    for start, rows in enumerate(history):
        cut = slice(first, first + sum(len(times) for times, _ in rows))
        first = cut.stop
        records.append(
            TrajectoryRecord.from_columns(
                P[cut],
                {name: column[cut] for name, column in columns.items()},
                TerminalStatus.DIVERGED if start in ends else TerminalStatus.MAX_TIME,
                accepted_steps=len(sizes),
                diagnostics=ends.get(start, ""),
                renormalizations=int(renorms[start]),
                step_counts=counts,
            )
        )
    return records


#: rows in the first closed-form block of plain doubling, each later block
#: twice as many: the layout of a run that ``_certified_rows`` does not bound
#: (a schedule that is not constant, a zero tolerance, one at the rounding
#: floor).  A block costs a fixed 60-90 us (the numpy calls of ``measure``,
#: ``_normalize_rows`` and ``_simplex_rows``) and 0.7-1.6 us per row at
#: V <= 16 (2-core host), so the two are equal at 53-95 rows.  128 rows hold
#: most runs whole: an entropic flow at the default 200 samples converges
#: within about 125 rows, an iteration at the default step size within a few
#: dozen
FIRST_BLOCK = 128
#: bytes one (rows, V) float64 block may take, so a wide vocabulary keeps blocks small
BLOCK_BYTES = 1 << 20


def _first(mask: np.ndarray) -> list:
    """The index of the first True in each row of an (N, K) mask, K where there is none."""
    if not mask.any():
        return [mask.shape[1]] * len(mask)
    return [k if row[k] else len(row) for k, row in zip(mask.argmax(axis=1).tolist(), mask)]


def _certified_rows(
    kind: FieldKind,
    ell0: np.ndarray,
    shifted: np.ndarray,
    schedule: TemperatureSchedule,
    scale: np.ndarray,
    times: np.ndarray,
    tol: float,
    step: Optional[float] = None,
) -> Optional[int]:
    """Rows of a first block of ``_solve_blocks`` by whose end every row of
    the call meets its stop rule at the tolerance ``tol``: a flow's
    ``kl_to_target``, or with ``step`` = h (times h apart) an iteration's
    ``kl_move``, the KL move from the row before.  None unless the schedule
    is constant, so that row i has one temperature T_i = scale[i] T, and the
    tolerance clears the rounding below.  O(V) per row and a binary search
    in ``times``.

    From the start's log-weights the stop values fall at rates known in
    advance.  ENTROPIC: log p_t - log pi = e^{-t} (log p0 - log pi) up to a
    constant, pi = softmax(s, T_i), so by Hoeffding's lemma (KL(p || q) <=
    osc(log p - log q)^2 / 8) D(p_t || pi) <= (e^{-t} R)^2 / 8 and the move
    from t - h is at most ((e^{-(t-h)} - e^{-t}) R)^2 / 8, R = osc(log p0 -
    log pi).  LITERAL: with M the start's mass on its top scores and gap the
    distance to its next score on the support, D(limit || p_t) and the move
    from t - h are at most (1 - M) / M e^{-gap tau}, tau = t / T_i and t - h
    for the move.

    Rounding: a stop value computed from V log-probabilities is off by up to
    about delta = eps log V.  A flow's KL levels off at that size, so its
    bound is taken at tol - 2 delta; a move falls to exactly 0 once the
    iterates stop changing, so an ENTROPIC move's tolerance need only exceed
    delta, and every move takes one row more for the rounding at the row
    where its bound crosses the tolerance.
    """
    moves = step is not None
    delta = math.ulp(1.0) * math.log(ell0.shape[1])
    if not moves:
        tol -= 2.0 * delta
    elif kind is FieldKind.ENTROPIC and tol <= delta:
        return None
    if not (tol > 0.0 and isinstance(schedule, ConstantSchedule)):
        return None
    # row by row in Python floats: at V <= 16 a numpy call costs more than a
    # row's whole bound, and no overflow here warns
    factor = -math.expm1(-step) if moves else 1.0
    needed = -math.inf  # the time after which every row's bound is below tol
    temperatures = (scale * schedule.temperature).tolist()
    for logs, scores, temperature in zip(ell0.tolist(), shifted.tolist(), temperatures):
        if kind is FieldKind.ENTROPIC:
            gaps = [ell - score / temperature for ell, score in zip(logs, scores)]
            spread = (max(gaps) - min(gaps)) * factor
            amplitude, rate = spread * spread / 8.0, 2.0
        else:  # M, 1 - M and the next score below the top on the support
            top = max(score for ell, score in zip(logs, scores) if ell > -math.inf)
            on_top = off_top = 0.0
            below = -math.inf
            for ell, score in zip(logs, scores):
                if score == top:
                    on_top += math.exp(ell)
                elif ell > -math.inf:
                    off_top += math.exp(ell)
                    below = max(below, score)
            amplitude, rate = off_top / on_top, (top - below) / temperature
        if amplitude > 0.0:  # else the row starts at its limit
            # a rate that underflows to 0 bounds no time
            after = (math.log(amplitude) - math.log(tol)) / rate if rate > 0.0 else math.inf
            needed = max(needed, after)
    # a move's bound holds from the row after
    return int(np.searchsorted(times, needed, side="right")) + 1 + 2 * moves


def _coefficients(kind: FieldKind, schedule: TemperatureSchedule, times: np.ndarray, scale):
    """(a, b) of ``_solve_blocks`` at the 1-D ``times``, ``a`` a column or one entry."""
    if kind is FieldKind.ENTROPIC:
        return _math_map(math.exp, -times)[:, np.newaxis], schedule.entropic_weight(times) / scale
    return np.ones((1, 1)), schedule.effective_time(times) / scale


def _solve_blocks(
    kind: FieldKind,
    ell0: np.ndarray,
    shifted: np.ndarray,
    schedule: TemperatureSchedule,
    scale: np.ndarray,
    times: np.ndarray,
    measure: Callable,
    overflow_note: Callable[[int, float], str],
    first_block: Optional[int] = None,
) -> list:
    """The fixed-score flow from each row of the (N, V) log-weights ``ell0``
    at the increasing ``times``, up to the first time ``measure`` stops the row.

    Row i at t = times[k] has the temperature scale[i] T(t), T the
    schedule's, and the log-weights ``normalize(a ell0[i] + b shifted[i])``,
    with (a, b) = (1, tau(t) / scale[i]) for LITERAL and (e^{-t}, w(t) /
    scale[i]) for ENTROPIC: one ``_coefficients`` call per block.  A block
    is every row at K times, until no row runs, at most BLOCK_BYTES per row.
    The first block holds ``first_block`` times, the caller's
    ``_certified_rows``, by whose end every row stops; without it, K starts
    at FIRST_BLOCK and doubles from block to block (plain doubling).  A row
    that outlives its first block goes on to the next end of plain
    doubling's blocks, so it evaluates no more times than under plain
    doubling and takes at most one block more.  A row's values do not depend
    on the layout.  ``measure(temperatures, logs)`` takes the temperatures
    and log-probabilities of a block, the times of one row after the other,
    and returns per row None or (its stop's time index in the block, status,
    diagnostics), and the columns: "P", the exp(logs) it measured, and one
    value per time for each other.  Weights that overflow, or T(t) log V (the
    bound of T H(p); inf also where the temperature itself overflows, as
    ``schedule.temperatures`` gives it) end a row DIVERGED before that time,
    unless it stopped earlier, with diagnostics ``overflow_note(k, t)`` or,
    for T(t) log V, its own.

    Returns per row (P, columns, status, diagnostics, BlockCounts) up to its
    stop, P checked and renormalized by ``_simplex_rows``; the counts are
    those of the call's blocks while the row ran.
    """
    scale, spread = scale[:, np.newaxis], -shifted.min(axis=1, keepdims=True)
    log_size = math.log(ell0.shape[1])
    kept = [[] for _ in ell0]  # the column blocks of each row
    ends = [(TerminalStatus.MAX_TIME, "")] * len(ell0)
    evaluated, blocks = [0] * len(ell0), [0] * len(ell0)
    running = list(range(len(ell0)))
    cap = max(1, BLOCK_BYTES // (8 * ell0.shape[1]))
    # plain doubling's current block ends at edge; a given first block ends
    # at first_block, and every later block at the next edge past its start
    size = FIRST_BLOCK
    start, edge = 0, min(size, cap)
    end = edge if first_block is None else min(first_block, cap)
    while start < len(times) and running:
        chunk = times[start:end]
        stamps = chunk.tolist()
        with np.errstate(all="ignore"):
            temperatures = scale * schedule.temperatures(chunk)
            a, b = _coefficients(kind, schedule, chunk, scale)
            hot = ~np.isfinite(temperatures * log_size)  # T H(p) <= T log V
            finite = (temperatures > 0.0) & np.isfinite(b * spread + spread / temperatures) & ~hot
        overflow = _first(~finite)
        width, stops = max(overflow), [None] * len(ell0)
        if width:
            temperatures, b, finite = temperatures[:, :width], b[:, :width], finite[:, :width]
            if min(overflow) < width:  # the times of a row from its overflow on are never kept
                temperatures, b = np.where(finite, temperatures, 1.0), np.where(finite, b, 0.0)
            logs = a[:width] * ell0[:, np.newaxis] + b[..., np.newaxis] * shifted[:, np.newaxis]
            logs = _normalize_rows(logs.reshape(-1, ell0.shape[1]))
            stops, columns = measure(temperatures.reshape(-1), logs)
            columns["P"] = _simplex_rows(columns["P"])  # row by row: a row keeps its values
        for i in running:
            if stops[i] is not None and stops[i][0] < overflow[i]:
                count, ends[i] = stops[i][0] + 1, stops[i][1:]
            elif overflow[i] < len(stamps):
                count, t = overflow[i], stamps[overflow[i]]
                note = f"T log V overflows at t={t:.6g}" if hot[i, count] else None
                ends[i] = TerminalStatus.DIVERGED, note or overflow_note(start + count, t)
            else:
                count = width
            if count:
                cut = slice(i * width, i * width + count)
                kept[i].append({name: column[cut] for name, column in columns.items()})
            evaluated[i] += width
            blocks[i] += width > 0
        running = [i for i in running if ends[i][0] is TerminalStatus.MAX_TIME]
        start += width
        while edge <= start:
            size *= 2
            edge += min(size, cap)
        end = edge
    solved = []
    for row_blocks, (status, diagnostics), count, number in zip(kept, ends, evaluated, blocks):
        columns = {name: np.concatenate([c[name] for c in row_blocks]) for name in row_blocks[0]}
        P = columns.pop("P")
        solved.append((P, columns, status, diagnostics, BlockCounts(count, len(P), number)))
    return solved


def _literal_limits(ell0: np.ndarray, S: np.ndarray) -> tuple:
    """(limit points, their sums of p log p) of the literal flow from the rows
    of log p0: it multiplies p0 by exp(s t / T), so mass concentrates on the
    argmax of s within the support of p0, in the ratios of p0."""
    top = np.where(ell0 > -np.inf, S, -np.inf).max(axis=1, keepdims=True)
    ell = _normalize_rows(np.where(S == top, ell0, -np.inf))[:, np.newaxis]
    limits = np.exp(ell)  # (N, 1, V), against an (N, K, V) block
    return limits, _row_dot(limits, np.where(limits > 0.0, ell, 0.0))


def _fixed_score_rows(
    kind: FieldKind,
    P0: np.ndarray,
    S: np.ndarray,
    schedule: TemperatureSchedule,
    scale: np.ndarray,
    samples: set,
    controls: IntegratorControls,
) -> list:
    """The records of ``integrate_rows`` from checked (N, V) starts P0 and
    scores S, row i at the temperature scale[i] T(t), at t = 0 and the
    ``samples`` (``_stops``): ``_solve_blocks`` with the measures of a flow."""
    entropic = kind is FieldKind.ENTROPIC
    shifted = S - S.max(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        ell0 = np.log(P0)
    if not entropic:
        limits, plogp = _literal_limits(ell0, S)

    def measure(temperatures, logs):
        n, k = len(S), len(logs) // len(S)
        clamps = [k] * n
        if entropic:
            clamps = _first((logs.min(axis=1) < LOG_CLAMP).reshape(n, k))
            for row in (i * k + c for i, c in enumerate(clamps) if c < k):
                logs[row] = _normalize_logs(np.maximum(logs[row], LOG_CLAMP))
        P = np.exp(logs)
        scaled = (shifted[:, np.newaxis] / temperatures.reshape(n, k, 1)).reshape(logs.shape)
        if entropic:
            kl, g = _row_dot(P, logs - _normalize_rows(scaled)), scaled - logs
        else:
            on_limit = np.where(limits > 0.0, logs.reshape(n, k, -1), 0.0)
            kl, g = (plogp - _row_dot(on_limit, limits)).reshape(-1), scaled
        inner = _row_dot(P.reshape(n, k, -1), S[:, np.newaxis]).reshape(-1)
        columns = {
            "P": P,
            "free_energy": _free_energy_rows(inner, temperatures, P, logs),
            "kl_to_target": np.maximum(kl, 0.0),
            "field_norm": _field_norm(P, g),
        }
        met = _first((columns["kl_to_target"] < controls.convergence_kl).reshape(n, k))
        return [
            (m, TerminalStatus.CONVERGED, "") if m < c
            else (c, TerminalStatus.DIVERGED, "log-probability clamp hit near the boundary")
            if c < k else None
            for m, c in zip(met, clamps)
        ], columns

    times = np.array([0.0] + sorted(samples))
    solved = _solve_blocks(
        kind, ell0, shifted, schedule, scale, times, measure,
        lambda row, t: f"flow weights overflow at t={t:.6g}",
        _certified_rows(kind, ell0, shifted, schedule, scale, times, controls.convergence_kl),
    )
    return [
        TrajectoryRecord.from_columns(
            P, {**columns, "t": times[: len(P)]}, status, diagnostics=diagnostics,
            block_counts=counts,
        )
        for P, columns, status, diagnostics, counts in solved
    ]


def _integrate_starts(
    kind: FieldKind,
    starts: Sequence[SimplexPoint],
    s: ScoreVector,
    schedule,
    horizon: float,
    controls: IntegratorControls,
) -> list:
    """``integrate`` from each of the starts: its checks, with its messages,
    then one ``_fixed_score_rows`` call for all of them."""
    sched = as_schedule(schedule)
    for p0 in starts:
        if p0.size != s.size:
            raise InvalidInputError(f"size mismatch: p0 has {p0.size} entries, s has {s.size}")
    _, samples = _stops(horizon, sched, controls)
    if kind is FieldKind.ENTROPIC and not all(p0.interior for p0 in starts):
        raise InteriorityError("entropic field requires an interior start")
    check_score_spread(s, sched.at(0.0))
    P0, S = np.array([p0.probs for p0 in starts]), np.array([s.values] * len(starts))
    return _fixed_score_rows(kind, P0, S, sched, np.ones(len(P0)), samples, controls)


def integrate(
    kind: FieldKind,
    p0: SimplexPoint,
    s: ScoreVector,
    schedule,
    horizon: float = DEFAULT_HORIZON,
    controls: IntegratorControls = IntegratorControls(),
) -> TrajectoryRecord:
    """Solve the selected fixed-score flow from p0 under a temperature
    schedule: the one-row ``integrate_rows``, with the checks of its typed
    inputs, so that no error names a row.

    Nothing is stepped: the rows it records, at t = 0 and at each sample time
    in (0, horizon], are ``log p = a log p0 + b (s - max s)`` up to
    normalization, with (a, b) = (1, effective_time) for LITERAL and
    (e^{-t}, entropic_weight) for ENTROPIC, so ``accepted_steps`` and
    ``renormalizations`` stay 0; a breakpoint or a horizon that is no sample
    time is not evaluated.  Samples carry the free energy at T(t) and the KL
    to softmax(s, T(t)) (ENTROPIC) or, from the closed-form limit point,
    D(limit || p) (LITERAL).  The run ends at the first sample below
    ``controls.convergence_kl``, else at the last sample; a log-probability
    below ``LOG_CLAMP``, an overflowing weight or an overflowing T(t) log V
    ends it DIVERGED.
    """
    return _integrate_starts(kind, [p0], s, schedule, horizon, controls)[0]


def integrate_rows(
    kind: FieldKind,
    P0,
    S,
    schedule,
    horizon: float = DEFAULT_HORIZON,
    controls: IntegratorControls = IntegratorControls(),
) -> list:
    """``integrate`` of N independent instances, one (p0, s) per row of the
    (N, V) starts P0 and scores S, under one ``schedule`` (or temperature)
    or N temperatures, a constant one per row: one record per row, equal to
    the bit to its ``integrate`` run from ``SimplexPoint(P0[i])`` and ending
    as that run does.  The checks are ``integrate``'s and its inputs'
    constructors', in their order, each error naming the first row that
    fails it: finite scores, starts checked and renormalized as simplex
    points, T, the horizon and samples, an interior entropic start, and the
    score spread over T(0).
    """
    per_row = np.ndim(schedule) == 1
    P0, S, scale = _instance_rows(P0, S, schedule if per_row else np.ones(len(S)))
    schedule = ConstantSchedule(1.0) if per_row else as_schedule(schedule)
    _, samples = _stops(horizon, schedule, controls)

    def exterior(row: int):
        raise InteriorityError("entropic field requires an interior start")

    if kind is FieldKind.ENTROPIC:
        _check_rows(~(P0.min(axis=1) > 0.0), exterior)
    cold = scale * schedule.at(0.0)
    with np.errstate(over="ignore"):  # a spread or a T log V that overflows fails its row
        _check_rows(
            ~np.isfinite((S.max(axis=1) - S.min(axis=1)) / cold + cold * math.log(S.shape[1])),
            lambda row: check_score_spread(ScoreVector(S[row]), float(cold[row])),
        )
    return _fixed_score_rows(kind, P0, S, schedule, scale, samples, controls)


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

    F(p) = <p, s> + T H(p) is recomputed on the record's rows ``P``, so the
    report trusts neither the values the solvers recorded nor their row
    helpers.  Each row's value is that of ``free_energy`` at its sample to the
    bit: the inner products are stacked (1, V) products, and a row with zero
    entries sums its entropy terms over its positive entries only.
    """
    t = check_temperature(temperature)
    _check_entropy_scale(t, s.size)
    P = traj.P
    if len(P) and P.shape[1] != s.size:
        raise InvalidInputError(f"size mismatch: p has {P.shape[1]} entries, s has {s.size}")
    if len(P) < 2:
        return LyapunovReport(monotone=True, worst_drop=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = P * np.log(P)  # NaN where p = 0
    entropies = -terms.sum(axis=1)
    for k in np.flatnonzero(np.isnan(entropies)):
        entropies[k] = -terms[k][P[k] > 0.0].sum()
    entropies = np.clip(entropies, 0.0, math.log(s.size))
    diffs = np.diff((P[:, np.newaxis, :] @ s.values)[:, 0] + t * entropies)
    return LyapunovReport(monotone=bool(np.all(diffs >= -slack)), worst_drop=float(diffs.min()))


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
    replayed at the closed-form effective time, over ``n_checkpoints`` + 1
    checkpoints.  Both runs are integrated numerically, so the identity is
    measured rather than assumed.  They use dense output: steps land only on
    the schedule's breakpoints and the horizon, and the checkpoints are read
    from each step's continuous extension."""
    if p0.size != s.size:
        raise InvalidInputError(f"size mismatch: p0 has {p0.size} entries, s has {s.size}")
    if n_checkpoints < 1:
        raise InvalidInputError(f"need at least 1 checkpoint, got {n_checkpoints}")
    sched = as_schedule(schedule)
    _check_cold_spread("scores", float(np.abs(s.values).max()), s.size, sched, horizon)
    grid = np.linspace(0.0, horizon, n_checkpoints + 1)
    base = replace(controls, sample_times=tuple(grid))
    constant, inner = (lambda p: s.values), (lambda p: _row_dot(p, s.values))
    (run_sched,) = _run_flows(kind, [p0], constant, inner, sched, horizon, base, dense=True)

    with np.errstate(over="ignore"):  # an overflowing tau(horizon) fails the unit run
        taus = sched.effective_time(grid)
    unit = replace(base, sample_times=tuple(taus))
    (run_unit,) = _run_flows(
        kind, [p0], constant, inner, ConstantSchedule(1.0), float(taus[-1]), unit, dense=True
    )

    if run_sched.P.shape != run_unit.P.shape:
        raise InvalidInputError("reparameterization runs recorded mismatched checkpoints")
    return float(np.max(np.abs(run_sched.P - run_unit.P)))


def check_time_reparameterization(
    s: ScoreVector,
    p0: SimplexPoint,
    schedule,
    horizon: float,
    kind: FieldKind = FieldKind.LITERAL,
    controls: IntegratorControls = REPARAMETERIZATION_CONTROLS,
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
