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
underflow point of the probabilities themselves.  The two printed maps stay
as written, as the reference the iterates are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import InteriorityError, InvalidInputError
from .replicator import ConstantSchedule, FieldKind, _fixed_score_flow
from .simplex import (
    ScoreVector,
    SimplexPoint,
    check_score_spread,
    check_step_size,
    check_temperature,
    log_softmax,
)
from .trajectory import TerminalStatus, TrajectoryRecord, TrajectorySample

DEFAULT_KL_TOL = 1e-12
DEFAULT_STEP_SIZE = 0.5


class MirrorStepKind(Enum):
    EXACT_PROX = "exact-prox"
    PRINTED_MW = "printed-mw"


@dataclass(frozen=True)
class AscentCertificate:
    """One-step record of the free-energy inequality F(q) >= F(p) + D(q||p)/eta.

    ``slack`` is F(q) - F(p) - D(q||p)/eta; it is guaranteed nonnegative (to
    rounding) for the exact prox step only.
    """

    f_before: float
    f_after: float
    kl_move: float
    slack: float


def _require_interior(p: SimplexPoint) -> None:
    if not p.interior:
        raise InteriorityError("step requires a strictly interior point")


def _flow_states(kind: MirrorStepKind, p: SimplexPoint, s: ScoreVector, t: float, eta: float):
    """(state function, time per step): the flow that ``kind`` samples, from p."""
    _require_interior(p)
    check_score_spread(s, t)
    if kind is MirrorStepKind.PRINTED_MW:
        flow, h = FieldKind.LITERAL, eta
    else:
        flow, h = FieldKind.ENTROPIC, math.log1p(eta * t)
    shifted = s.values - s.values.max()
    return _fixed_score_flow(flow, np.log(p.probs), shifted, ConstantSchedule(t)), h


def _free_energy_logs(q: np.ndarray, ell_q: np.ndarray, s: np.ndarray, t: float) -> float:
    return float(q @ s) - t * float(q @ ell_q)


def _kl_logs(q: np.ndarray, ell_q: np.ndarray, ell_p: np.ndarray) -> float:
    return max(float(q @ (ell_q - ell_p)), 0.0)


def _certify(
    ell_p: np.ndarray, f_before: float, ell_q: np.ndarray, s: np.ndarray, t: float, eta: float
) -> tuple[np.ndarray, AscentCertificate]:
    """(q, certificate) of the move from log-state ``ell_p`` (free energy
    ``f_before``) to ``ell_q``, exponentiating ``ell_q`` once."""
    q = np.exp(ell_q)
    f_after = _free_energy_logs(q, ell_q, s, t)
    kl_move = _kl_logs(q, ell_q, ell_p)
    return q, AscentCertificate(
        f_before=f_before,
        f_after=f_after,
        kl_move=kl_move,
        slack=f_after - f_before - kl_move / eta,
    )


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
    t = check_temperature(temperature)
    eta = check_step_size(eta)
    state, h = _flow_states(kind, p, s, t, eta)
    ell_p, ell_q = state(0.0), state(h)
    if ell_q is None:
        raise InvalidInputError(f"step weights overflow: eta={eta!r} at T={t!r}")
    f_before = _free_energy_logs(np.exp(ell_p), ell_p, s.values, t)
    return _certify(ell_p, f_before, ell_q, s.values, t, eta)[1]


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
    evaluated in closed form rather than by composing k steps.  Samples use
    the step index as time and carry the KL to softmax(s, T); no field is
    evaluated, so ``field_norm`` is NaN.  One certificate is attached per
    executed step, between consecutive iterates, and holds the per-step KL
    move.  Hitting ``max_steps`` (0 included) is reported as status MAX_TIME,
    not raised; weights that overflow end the run DIVERGED before that step.
    """
    t = check_temperature(temperature)
    eta = check_step_size(eta)
    if max_steps < 0:
        raise InvalidInputError(f"max_steps must be nonnegative, got {max_steps}")
    state, h = _flow_states(kind, p0, s, t, eta)

    s_values = s.values
    ell_target = log_softmax(s, t)

    def make_sample(step_index: int, q: np.ndarray, ell_q: np.ndarray, f_q: float) -> TrajectorySample:
        return TrajectorySample(
            t=float(step_index),
            p=SimplexPoint(q),
            free_energy=f_q,
            kl_to_target=_kl_logs(q, ell_q, ell_target),
            field_norm=math.nan,
        )

    ell = state(0.0)
    p_now = np.exp(ell)
    f_now = _free_energy_logs(p_now, ell, s_values, t)
    samples = [make_sample(0, p_now, ell, f_now)]
    certificates: list[AscentCertificate] = []
    status = TerminalStatus.MAX_TIME
    diagnostics = ""
    for k in range(1, max_steps + 1):
        ell_next = state(k * h)
        if ell_next is None:
            status = TerminalStatus.DIVERGED
            diagnostics = f"step weights overflow at step {k}"
            break
        p_now, certificate = _certify(ell, f_now, ell_next, s_values, t, eta)
        certificates.append(certificate)
        ell, f_now = ell_next, certificate.f_after
        samples.append(make_sample(k, p_now, ell, f_now))
        if certificate.kl_move < kl_tol:
            status = TerminalStatus.CONVERGED
            break

    return TrajectoryRecord(
        samples=samples,
        terminal_status=status,
        accepted_steps=len(certificates),
        diagnostics=diagnostics,
        certificates=certificates,
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
