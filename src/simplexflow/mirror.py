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
blocks from ``replicator._solve_blocks``; free energy, per-step KL move,
KL to softmax and ascent slack are row-wise operations on a block, and the
run stops at the first row whose KL move is below the tolerance.  The two
printed maps stay as written, as the reference the iterates are checked
against.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .exceptions import InteriorityError, InvalidInputError
from .replicator import ConstantSchedule, FieldKind, _free_energy_rows, _row_dot, _solve_blocks
from .simplex import (
    ScoreVector,
    SimplexPoint,
    check_score_spread,
    check_step_size,
    check_temperature,
    log_softmax,
)
from .trajectory import (
    CERTIFICATE_COLUMNS,
    AscentCertificate,
    TerminalStatus,
    TrajectoryRecord,
)

DEFAULT_KL_TOL = 1e-12
DEFAULT_STEP_SIZE = 0.5
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


def _sampled_flow(kind: MirrorStepKind, p: SimplexPoint, s: ScoreVector, t: float, eta: float):
    """(flow kind, time per step): the flow that ``kind`` samples, from p."""
    _require_interior(p)
    check_score_spread(s, t)
    if kind is MirrorStepKind.PRINTED_MW:
        return FieldKind.LITERAL, eta
    return FieldKind.ENTROPIC, math.log1p(eta * t)


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


def ascent_certificate(
    kind: MirrorStepKind, p: SimplexPoint, s: ScoreVector, temperature: float, eta: float
) -> AscentCertificate:
    """Free energy before/after one step plus the prox inequality slack."""
    record = iterate(kind, p, s, temperature, eta, max_steps=1, kl_tol=0.0)
    if record.terminal_status is TerminalStatus.DIVERGED:
        raise InvalidInputError(f"step weights overflow: eta={eta!r} at T={temperature!r}")
    return record.certificates[0]


def iterate(
    kind: MirrorStepKind,
    p0: SimplexPoint,
    s: ScoreVector,
    temperature: float,
    eta: float = DEFAULT_STEP_SIZE,
    *,
    max_steps: int = 10000,
    kl_tol: float = DEFAULT_KL_TOL,
) -> TrajectoryRecord:
    """Iterate a step map until the per-step KL move drops below ``kl_tol``.

    Iterate k is the fixed-score flow at time k h (see the module docstring),
    evaluated in closed form, a block of iterates at a time, rather than by
    composing k steps.  Samples use the step index as time and carry the KL
    to softmax(s, T); no field is evaluated, so ``field_norm`` is NaN.  One
    certificate is attached per executed step, between consecutive iterates,
    and holds the per-step KL move.  Hitting ``max_steps`` (0 included) is
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
    flow, h = _sampled_flow(kind, p0, s, t, eta)
    ell_target = log_softmax(s, t)
    previous = []  # (log-state, free energy) of the last iterate measured so far

    def measure(temperatures, logs):
        q = np.exp(logs)
        f = _free_energy_rows(q @ s.values, t, q, logs)
        first = not previous
        ell_before, f_before = (logs[0], math.nan) if first else previous.pop()
        kl_move = np.maximum(_row_dot(q, logs - np.vstack([ell_before, logs[:-1]])), 0.0)
        f_before = np.concatenate([[f_before], f[:-1]])
        if first:
            kl_move[0] = math.nan  # the start has no step before it
        previous.append((logs[-1], f[-1]))
        met = np.flatnonzero(kl_move < kl_tol)
        stop = int(met[0]) if met.size else None
        status = TerminalStatus.MAX_TIME if stop is None else TerminalStatus.CONVERGED
        return stop, status, "", {
            "P": q,
            "free_energy": f,
            "kl_to_target": np.maximum(_row_dot(q, logs - ell_target), 0.0),
            "f_before": f_before,
            "f_after": f,
            "kl_move": kl_move,
            "slack": f - f_before - kl_move / eta,
        }

    shifted = s.values - s.values.max()
    P, columns, status, diagnostics, counts = _solve_blocks(
        flow,
        np.log(p0.probs),
        shifted,
        ConstantSchedule(t),
        np.arange(max_steps + 1) * h,
        measure,
        lambda k, _: f"step weights overflow at step {k}",
    )
    steps = len(P) - 1
    kl_end = float(columns["kl_to_target"][-1])
    stalled = kind is MirrorStepKind.EXACT_PROX and kl_end > STALL_RATIO * kl_tol
    if status is TerminalStatus.CONVERGED and stalled:
        status = TerminalStatus.STALLED
        diagnostics = f"per-step KL move below {kl_tol:.3g} at KL {kl_end:.3g} to softmax"
    columns["t"] = np.arange(len(P), dtype=np.float64)
    columns["field_norm"] = np.full(len(P), math.nan)
    for name in CERTIFICATE_COLUMNS:
        columns[name] = columns[name][1:]
    return TrajectoryRecord.from_columns(
        P, columns, status, accepted_steps=steps, diagnostics=diagnostics, block_counts=counts
    )


def step_agreement_exponent(
    p: SimplexPoint,
    s: ScoreVector,
    temperature: float,
    etas=(1e-2, 1e-3, 1e-4),
) -> tuple[float, np.ndarray]:
    """Measured order in eta of the gap between the two one-step maps at the same point.

    Returns (fitted slope of log gap vs log eta, gap per eta).  The two maps
    share their O(eta) velocity only up to the entropic fitness difference,
    so the slope approaches 2 only where T * (centered log p) is small and
    the score scaling matches; the caller records the measurement rather
    than assuming the exponent.
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
            for e in etas
        ]
    )
    return _log_slope(etas, gaps, 1e-15), gaps
