"""Discrete constraint-respecting updates toward the softmax equilibrium.

Two one-step maps are provided and kept deliberately distinct:

* ``exact_prox_step`` solves the KL-penalized free-energy maximization

      argmax_q  <q, s> + T H(q) - (1/eta) D(q || p)

  exactly.  First-order stationarity with the normalization multiplier gives
  log q_i = (log p_i + eta s_i) / (1 + eta T) + const, i.e.

      q_i  proportional to  p_i^(1/(1+eta*T)) * exp(eta s_i / (1 + eta T)),

  whose fixed point is softmax(s, T) for every eta > 0, and whose one-step
  free-energy gain is at least D(q||p)/eta.

* ``printed_mw_step`` is the plain multiplicative-weights map

      q_i  proportional to  p_i * exp((eta / T) s_i),

  which composes by adding step sizes and therefore drives all mass to the
  top-scoring tokens; its fixed points are faces of the argmax set, not
  softmax, and it carries no one-step ascent guarantee.

Both maps preserve normalization and strict interiority.  With fixed scores
and a constant T each map is the time-h map of a flow: printed MW is the
literal flow with h = eta, and the exact prox step is the entropic flow with
h = log(1 + eta T), since e^{-h} = 1/(1 + eta T).  ``iterate`` and
``ascent_certificate`` therefore take their states from the flows' closed
form in ``replicator``, iterate k being the flow at time k h, in
log-probabilities, so long concentrating runs survive far past the
underflow point of the probabilities themselves.  Iterates come in (K, V)
blocks from ``replicator._solve_blocks``, the row solver of the fixed-score
flows called with one row; free energy, per-step KL move and KL to softmax
are row-wise operations on a block, the run stops at the first row whose KL
move is below the tolerance, and the ascent slack is one array operation on
the run's free energy and KL moves.
``ascent_certificates`` takes the step of N independent instances, one
(p, s, T, eta) per row of an (N, V) block, as the same map ``normalize(a
log p + b (s - max s))`` at one time h per row, with the row helpers
``_solve_blocks`` uses and every check of the one-step ``iterate``, each
failure naming its row; ``ascent_certificate`` is its one-row call and
``iterate`` its reference.  The two printed maps stay as written, as the
reference the iterates are checked against.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .exceptions import InteriorityError, InvalidInputError
from .replicator import (
    ConstantSchedule,
    FieldKind,
    _certified_rows,
    _coefficients,
    _free_energy_rows,
    _math_map,
    _row_dot,
    _solve_blocks,
)
from .simplex import (
    ScoreVector,
    SimplexPoint,
    _check_rows,
    _instance_rows,
    _normalize_rows,
    _rows_checked,
    check_score_spread,
    check_step_size,
    check_temperature,
    log_softmax,
)
from .trajectory import AscentCertificate, TerminalStatus, TrajectoryRecord

DEFAULT_KL_TOL = 1e-12
DEFAULT_STEP_SIZE = 0.5
DEFAULT_MAX_STEPS = 10000
#: an exact-prox run whose per-step move fell below ``kl_tol`` ends STALLED,
#: not CONVERGED, when its KL to softmax exceeds STALL_RATIO * kl_tol (1e-6 at
#: the default tolerance); a fixed KL bound would call every run with a loose
#: tolerance stalled
STALL_RATIO = 1e6


class MirrorStepKind(Enum):
    EXACT_PROX = "exact-prox"
    PRINTED_MW = "printed-mw"


def _require_interior(p: SimplexPoint) -> None:
    if not p.interior:
        raise InteriorityError("step requires a strictly interior point")


def _sampled_flow(kind: MirrorStepKind, etas: np.ndarray, temperatures: np.ndarray) -> tuple:
    """(flow kind, time per step of each row): the flow that ``kind`` samples."""
    if kind is MirrorStepKind.PRINTED_MW:
        return FieldKind.LITERAL, etas
    return FieldKind.ENTROPIC, _math_map(math.log1p, etas * temperatures)


def _log_slope(etas, values: np.ndarray, floor: float) -> float:
    """Fitted slope of log value against log eta over the values above ``floor``
    (infinite when fewer than two clear it)."""
    usable = values > floor
    if usable.sum() < 2:
        return math.inf
    return float(np.polyfit(np.log(np.asarray(etas)[usable]), np.log(values[usable]), 1)[0])


def exact_prox_step(
    p: SimplexPoint, s: ScoreVector, temperature: float, eta: float
) -> SimplexPoint:
    """One exact KL-prox ascent step on the free energy; see module docstring."""
    t = check_temperature(temperature)
    eta = check_step_size(eta)
    _require_interior(p)
    ell = (np.log(p.probs) + eta * s.values) / (1.0 + eta * t)
    w = np.exp(ell - ell.max())
    return SimplexPoint(w / w.sum())


def printed_mw_step(
    p: SimplexPoint, s: ScoreVector, temperature: float, eta: float
) -> SimplexPoint:
    """One multiplicative-weights step q_i = p_i exp((eta/T) s_i) / Z.

    Max-shifted weights make constant scores an exact identity: the shifted
    exponent is identically zero, so q is p renormalized by its own sum.
    """
    t = check_temperature(temperature)
    eta = check_step_size(eta)
    _require_interior(p)
    z = (eta / t) * s.values
    w = p.probs * np.exp(z - z.max())
    return SimplexPoint(w / w.sum())


def ascent_certificates(kind: MirrorStepKind, P, S, temperatures, etas) -> tuple:
    """(f_before, f_after, kl_move, slack), each an (N,) array: the
    ``AscentCertificate`` of one step from each row of the (N, V) points P
    with the scores S, temperature and step size of that row.

    Row i is, to the bit, the one-step ``iterate`` of its instance: log q is
    ``normalize(a log p + b (s - max s))`` with the (a, b) of
    ``_solve_blocks`` at the h of ``_sampled_flow``.  The checks are the
    one-step ``iterate``'s and its inputs' constructors', in their order,
    each error naming the first row that fails: finite scores, P checked
    and renormalized as simplex points, T and eta, a strictly interior P,
    the score spread over T and T log V, weights b·spread + spread/T that
    overflow (InvalidInputError, as the iterate's DIVERGED step) and the
    simplex checks of both measured rows.
    """
    P, S, temperatures = _instance_rows(P, S, temperatures)
    etas = np.asarray(etas, dtype=np.float64)
    if etas.shape != (len(S),):
        raise InvalidInputError(f"need one step size per row, got {etas.shape} for {len(S)} rows")
    _check_rows(~(np.isfinite(etas) & (etas > 0.0)), lambda row: check_step_size(etas[row]))
    _check_rows(
        ~(P.min(axis=1) > 0.0),
        lambda row: _require_interior(SimplexPoint._from_checked(P[row])),
    )

    def overflow(row: int):
        raise InvalidInputError(
            f"step weights overflow: eta={float(etas[row])!r} at T={float(temperatures[row])!r}"
        )

    high = S.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value fails its row
        spread = high - S.min(axis=1)
        _check_rows(
            ~np.isfinite(spread / temperatures + temperatures * math.log(S.shape[1])),
            lambda row: check_score_spread(ScoreVector(S[row]), float(temperatures[row])),
        )
        flow, h = _sampled_flow(kind, etas, temperatures)
        a, b = _coefficients(flow, ConstantSchedule(1.0), h, temperatures)
        _check_rows(~np.isfinite(b * spread + spread / temperatures), overflow)
    ell = np.log(P)
    before = _normalize_rows(ell)
    after = _normalize_rows(a * ell + b[:, np.newaxis] * (S - high[:, np.newaxis]))
    q_before, q_after = np.exp(before), np.exp(after)
    _rows_checked(q_before)
    _rows_checked(q_after)
    f_before = _free_energy_rows(_row_dot(q_before, S), temperatures, q_before, before)
    f_after = _free_energy_rows(_row_dot(q_after, S), temperatures, q_after, after)
    kl_move = np.maximum(_row_dot(q_after, after - before), 0.0)
    return f_before, f_after, kl_move, f_after - f_before - kl_move / etas


def ascent_certificate(
    kind: MirrorStepKind, p: SimplexPoint, s: ScoreVector, temperature: float, eta: float
) -> AscentCertificate:
    """Free energy before/after one step plus the prox inequality slack: the
    one-row ``ascent_certificates``."""
    columns = ascent_certificates(
        kind, p.probs[np.newaxis], s.values[np.newaxis], [temperature], [eta]
    )
    return AscentCertificate(*(float(column[0]) for column in columns))


def iterate(
    kind: MirrorStepKind,
    p0: SimplexPoint,
    s: ScoreVector,
    temperature: float,
    eta: float = DEFAULT_STEP_SIZE,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    kl_tol: float = DEFAULT_KL_TOL,
) -> TrajectoryRecord:
    """Iterate a step map until the per-step KL move drops below ``kl_tol``
    (finite and nonnegative; 0 disables the stop).

    Iterate k is the fixed-score flow at time k h (see the module docstring),
    evaluated in closed form, a block of iterates at a time, rather than by
    composing k steps.  Samples use the step index as time and carry the KL
    to softmax(s, T); no field is evaluated, so ``field_norm`` is NaN.  One
    certificate is attached per executed step, between consecutive iterates:
    the record stores its per-step KL move and its slack, computed once for
    the whole run from the ``free_energy`` column, which also gives the
    certificate's two free energies.  Hitting ``max_steps`` (0 included) is
    reported as status MAX_TIME, not raised; weights that overflow end the
    run DIVERGED before that step.  An exact-prox run whose move fell below
    ``kl_tol`` while its KL to softmax is above ``STALL_RATIO * kl_tol`` ends
    STALLED: each step contracts log p toward softmax by 1/(1 + eta T), so
    when eta T is tiny the move says nothing of the distance left.
    """
    t = check_temperature(temperature)
    eta = check_step_size(eta)
    if max_steps < 0:
        raise InvalidInputError(f"max_steps must be nonnegative, got {max_steps}")
    if not 0.0 <= kl_tol < math.inf:
        raise InvalidInputError(f"kl_tol must be finite and nonnegative, got {kl_tol!r}")
    _require_interior(p0)
    check_score_spread(s, t)
    flow, (h,) = _sampled_flow(kind, np.array([eta]), np.array([t]))
    ell_target = log_softmax(s, t)
    previous = []  # log-state of the last iterate measured so far

    def measure(temperatures, logs):
        q = np.exp(logs)
        first = not previous
        ell_before = logs[0] if first else previous.pop()
        kl_move = np.maximum(_row_dot(q, logs - np.vstack([ell_before, logs[:-1]])), 0.0)
        if first:
            kl_move[0] = math.nan  # the start has no step before it
        previous.append(logs[-1])
        met = np.flatnonzero(kl_move < kl_tol)
        stop = int(met[0]) if met.size else None
        return [None if stop is None else (stop, TerminalStatus.CONVERGED, "")], {
            "P": q,
            "free_energy": _free_energy_rows(_row_dot(q, s.values), t, q, logs),
            "kl_to_target": np.maximum(_row_dot(q, logs - ell_target), 0.0),
            "kl_move": kl_move,
        }

    ell0, shifted = np.log(p0.probs)[np.newaxis], (s.values - s.values.max())[np.newaxis]
    schedule, scale, times = ConstantSchedule(t), np.ones(1), np.arange(max_steps + 1) * h
    ((P, columns, status, diagnostics, counts),) = _solve_blocks(
        flow, ell0, shifted, schedule, scale, times, measure,
        lambda k, _: f"step weights overflow at step {k}",
        _certified_rows(flow, ell0, shifted, schedule, scale, times, kl_tol, step=h),
    )
    steps = len(P) - 1
    kl_end = float(columns["kl_to_target"][-1])
    stalled = kind is MirrorStepKind.EXACT_PROX and kl_end > STALL_RATIO * kl_tol
    if status is TerminalStatus.CONVERGED and stalled:
        status = TerminalStatus.STALLED
        diagnostics = f"per-step KL move below {kl_tol:.3g} at KL {kl_end:.3g} to softmax"
    columns["t"] = np.arange(len(P), dtype=np.float64)
    columns["field_norm"] = np.full(len(P), math.nan)
    columns["kl_move"] = columns["kl_move"][1:]
    f = columns["free_energy"]
    columns["slack"] = f[1:] - f[:-1] - columns["kl_move"] / eta
    return TrajectoryRecord.from_columns(
        P, columns, status, accepted_steps=steps, diagnostics=diagnostics, block_counts=counts
    )


#: the step sizes at which ``step_agreement_exponent`` measures the gap
AGREEMENT_ETAS = (1e-2, 1e-3, 1e-4)


def step_agreement_exponent(
    p: SimplexPoint, s: ScoreVector, temperature: float
) -> tuple[float, np.ndarray]:
    """Measured order in eta of the gap between the two one-step maps at the same point.

    Returns (fitted slope of log gap vs log eta, gap per eta in
    ``AGREEMENT_ETAS``).  The two maps share their O(eta) velocity only up
    to the entropic fitness difference, so the slope approaches 2 only where
    T * (centered log p) is small and the score scaling matches; the caller
    records the measurement rather than assuming the exponent.
    """
    gaps = np.array(
        [
            float(
                np.max(
                    np.abs(
                        exact_prox_step(p, s, temperature, e).probs
                        - printed_mw_step(p, s, temperature, e).probs
                    )
                )
            )
            for e in AGREEMENT_ETAS
        ]
    )
    return _log_slope(AGREEMENT_ETAS, gaps, 1e-15), gaps
