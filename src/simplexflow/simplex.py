"""Domain types and variational primitives on the probability simplex.

The state space is the simplex of probability vectors over V >= 2 tokens.
Fixed scores (logits) s and a temperature T > 0 define

    free energy   F(p) = <p, s> + T * H(p),
    log-partition A(s) = T * log(sum_i exp(s_i / T)),
    softmax       pi_i = exp(s_i / T) / sum_j exp(s_j / T),

with H the Shannon entropy (0 log 0 := 0).  softmax is the unique maximizer
of F and satisfies F(pi) = A(s); grad A = pi and the Jacobian of softmax is
(1/T) (diag(pi) - pi pi^T).  Everything here is pure and operates on
immutable values; all exponentials go through max-shifted log-sum-exp.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateFaceError,
    InvalidInputError,
    SimplexFlowError,
    SupportMismatchError,
)

#: normalization drift tolerated on a constructed simplex point
NORM_EPS = 1e-12
#: construction renormalizes silently up to this drift and rejects beyond it
MAX_CONSTRUCTION_DRIFT = 1e-9
#: smallest positive double; probability floor that keeps softmax outputs
#: strictly interior when extreme score spreads would underflow to 0.0
PROB_FLOOR = 5e-324


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def check_temperature(value: float) -> float:
    """Validate a temperature: positive, finite. Returns it as a float."""
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidInputError(f"temperature must be positive and finite, got {value!r}")
    return value


def check_score_spread(s: ScoreVector, temperature: float) -> None:
    """Validate that the score spread (max s - min s) / T is finite, and T log V
    (``_check_entropy_scale``)."""
    low, high = float(s.values.min()), float(s.values.max())
    if not math.isfinite((high - low) / check_temperature(temperature)):
        raise InvalidInputError(
            f"score spread over temperature overflows: scores span [{low!r}, {high!r}] "
            f"at T={temperature!r}"
        )
    _check_entropy_scale(temperature, s.size)


def _check_entropy_scale(temperature: float, size: int) -> None:
    """Validate that T log V, the largest T H(p) on the simplex of ``size``
    tokens, is finite, so that no free energy overflows."""
    if not math.isfinite(float(temperature) * math.log(size)):
        raise InvalidInputError(
            f"free energy overflows: T log V is infinite at T={float(temperature)!r}, V={size}"
        )


def check_step_size(eta: float) -> float:
    """Validate a step size: positive, finite. Returns it as a float."""
    eta = float(eta)
    if not math.isfinite(eta) or eta <= 0.0:
        raise InvalidInputError(f"step size must be positive and finite, got {eta!r}")
    return eta


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.float64, copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Fixed scores (logits) over V >= 2 tokens. Entries must be finite."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.values, "scores")
        if arr.size < 2:
            raise InvalidInputError(f"need at least 2 scores, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("scores must be finite (no NaN or infinities)")
        object.__setattr__(self, "values", _freeze(arr))

    @property
    def size(self) -> int:
        return int(self.values.size)

    def shifted(self, c: float) -> "ScoreVector":
        """Scores with a common constant added to every entry."""
        return ScoreVector(self.values + float(c))

    def to_json(self) -> str:
        """JSON array of numbers; round-trips float64 exactly."""
        return json.dumps(self.values.tolist())

    @classmethod
    def from_json(cls, text: str) -> "ScoreVector":
        return cls(json.loads(text))


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """Probability vector on the simplex.

    Construction checks and renormalizes the vector as ``_simplex_rows`` does
    one row: entries finite and nonnegative, a sum off 1 by at most
    ``MAX_CONSTRUCTION_DRIFT`` renormalized, larger drift raised, so
    integrator bugs cannot hide behind silent renormalization.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.probs, "probabilities")
        if arr.size < 1:
            raise InvalidInputError("empty probability vector")
        object.__setattr__(self, "probs", _freeze(_simplex_rows(arr[np.newaxis])[0]))

    @classmethod
    def _from_checked(cls, probs: np.ndarray) -> "SimplexPoint":
        """A point on a read-only row that already passed the construction
        checks, as a point's ``probs`` or a row ``_simplex_rows`` returned."""
        point = object.__new__(cls)
        object.__setattr__(point, "probs", probs)
        return point

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @property
    def interior(self) -> bool:
        """True iff every coordinate is strictly positive."""
        return bool(self.probs.min() > 0.0)

    @property
    def support(self) -> np.ndarray:
        """Boolean mask of strictly positive coordinates."""
        return self.probs > 0.0

    @classmethod
    def uniform(cls, size: int) -> "SimplexPoint":
        return cls(np.full(int(size), 1.0 / int(size)))

    @classmethod
    def vertex(cls, size: int, index: int) -> "SimplexPoint":
        p = np.zeros(int(size))
        p[int(index)] = 1.0
        return cls(p)

    def to_json(self) -> str:
        """JSON array of numbers; round-trips float64 exactly."""
        return json.dumps(self.probs.tolist())

    @classmethod
    def from_json(cls, text: str) -> "SimplexPoint":
        return cls(json.loads(text))


def _simplex_rows(rows: np.ndarray) -> np.ndarray:
    """The rows of an (n, V) array checked and renormalized, the checks of
    every ``SimplexPoint`` and of every solver's output: every entry finite and
    nonnegative, each row's sum off 1 by at most ``MAX_CONSTRUCTION_DRIFT``
    (else InvalidInputError), rows divided by their sum, and again if that
    leaves them off 1 by more than ``NORM_EPS``.  The input is not modified."""
    if not np.isfinite(rows).all():
        raise InvalidInputError("probabilities must be finite")
    if (rows < 0.0).any():
        raise InvalidInputError(f"negative probability: min entry {rows.min()!r}")
    totals = rows.sum(axis=1)
    drift = np.abs(totals - 1.0) > MAX_CONSTRUCTION_DRIFT
    if drift.any():
        raise InvalidInputError(
            f"probabilities sum to {float(totals[drift][0])!r}; "
            f"drift exceeds {MAX_CONSTRUCTION_DRIFT}"
        )
    if (totals != 1.0).any():
        rows = rows / totals[:, np.newaxis]  # x / 1.0 == x: exact rows stay as they are
        totals = rows.sum(axis=1)
        again = np.abs(totals - 1.0) > NORM_EPS
        if again.any():
            rows = rows / np.where(again, totals, 1.0)[:, np.newaxis]
    return rows


def _check_rows(bad: np.ndarray, check) -> None:
    """Raise, with the row named, the error ``check(row)`` raises on the first
    row that ``bad`` flags and ``check`` fails."""
    for row in np.flatnonzero(bad).tolist():
        try:
            check(row)
        except SimplexFlowError as exc:
            raise type(exc)(f"row {row}: {exc}") from None


def _rows_checked(rows: np.ndarray) -> np.ndarray:
    """``_simplex_rows(rows)``, its error naming the first row that fails it."""
    try:
        return _simplex_rows(rows)
    except InvalidInputError:
        _check_rows(np.ones(len(rows), dtype=bool), lambda row: _simplex_rows(rows[row : row + 1]))
        raise


def _instance_rows(P, S, temperatures) -> tuple:
    """(P, S, temperatures) of N instances as float arrays: (N, V) points and
    scores with V >= 2 and one temperature per row, checked as the
    constructors check one instance, each error naming the first row that
    fails it: finite scores, P checked and renormalized as simplex points,
    and temperatures positive and finite."""
    S = np.asarray(S, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    temperatures = np.asarray(temperatures, dtype=np.float64)
    if S.ndim != 2 or S.shape[1] < 2 or P.shape != S.shape:
        raise InvalidInputError(
            f"need (N, V) points and scores with V >= 2, got {P.shape} and {S.shape}"
        )
    if temperatures.shape != (len(S),):
        raise InvalidInputError(
            f"need one temperature per row, got {temperatures.shape} for {len(S)} rows"
        )
    _check_rows(~np.isfinite(S).all(axis=1), lambda row: ScoreVector(S[row]))
    P = _rows_checked(P)
    _check_rows(
        ~(np.isfinite(temperatures) & (temperatures > 0.0)),
        lambda row: check_temperature(temperatures[row]),
    )
    return P, S, temperatures


@dataclass(frozen=True)
class FaceMask:
    """Support subset defining a face of the simplex (top-k / nucleus truncation)."""

    support: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.support, dtype=bool)
        if arr.ndim != 1:
            raise InvalidInputError("face mask must be one-dimensional")
        k = int(arr.sum())
        if k < 1:
            raise InvalidInputError("face mask must select at least one token")
        arr = np.array(arr, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "support", arr)

    @property
    def k(self) -> int:
        return int(self.support.sum())

    @property
    def size(self) -> int:
        return int(self.support.size)

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.support)

    @classmethod
    def full(cls, size: int) -> "FaceMask":
        return cls(np.ones(int(size), dtype=bool))

    @classmethod
    def from_indices(cls, size: int, indices) -> "FaceMask":
        arr = np.zeros(int(size), dtype=bool)
        arr[np.asarray(indices, dtype=int)] = True
        return cls(arr)


@dataclass(frozen=True)
class FreeEnergyReport:
    """Free energy split into its score and entropy parts."""

    inner: float      # <p, s>
    entropy: float    # H(p), nats
    value: float      # inner + T * entropy


def _over_temperature(s: ScoreVector, t: float) -> tuple:
    """(z, c) with z = (s - c) / T: c = 0 unless some s_i / T overflows, then
    c = max s, so a finite spread over T gives finite z (and an infinite one
    z = -inf where exp(z) underflows anyway)."""
    if math.isfinite(float(np.abs(s.values).max()) / t):
        return s.values / t, 0.0
    c = float(s.values.max())
    with np.errstate(over="ignore"):
        return (s.values - c) / t, c


def log_partition(s: ScoreVector, temperature: float) -> float:
    """Temperature-scaled log-sum-exp A(s) = T log sum_i exp(s_i / T).

    Computed with the max-shift trick, on s - max s when s / T overflows.
    Satisfies A(s + c*1) = A(s) + c.
    """
    t = check_temperature(temperature)
    z, c = _over_temperature(s, t)
    m = float(z.max())
    return c + t * (m + math.log(float(np.exp(z - m).sum())))


def softmax(s: ScoreVector, temperature: float) -> SimplexPoint:
    """Gibbs distribution pi_i = exp(s_i/T) / sum_j exp(s_j/T).

    Always strictly interior: coordinates that would underflow to exactly
    zero are floored at the smallest positive double, which leaves the
    normalization untouched at double precision.
    """
    z, _ = _over_temperature(s, check_temperature(temperature))
    w = np.exp(z - z.max())
    p = w / w.sum()
    p = np.maximum(p, PROB_FLOOR)
    return SimplexPoint(p)


def log_softmax(s: ScoreVector, temperature: float) -> np.ndarray:
    """Normalized log-probabilities of softmax(s, T); never underflows."""
    z, _ = _over_temperature(s, check_temperature(temperature))
    m = float(z.max())
    return (z - m) - math.log(float(np.exp(z - m).sum()))


def _normalize_logs(ell: np.ndarray) -> np.ndarray:
    """Shift log-weights so they exponentiate to a probability vector (max-shifted)."""
    m = float(ell[ell.argmax()])  # ell.max(), at a third of the cost on a short vector
    return ell - (m + math.log(float(np.exp(ell - m).sum())))


def _normalize_rows(ell: np.ndarray) -> np.ndarray:
    """``_normalize_logs`` of each row of an (n, V) array, with the same
    arithmetic per row: the log of each row sum is ``math.log``, mapped over
    the sums with ``map``, since ``np.log`` does not match it to the bit."""
    m = ell.max(axis=1, keepdims=True)
    sums = np.exp(ell - m).sum(axis=1)
    return ell - (m + np.array(list(map(math.log, sums.tolist())))[:, np.newaxis])


def entropy(p: SimplexPoint) -> float:
    """Shannon entropy H(p) = -sum p_i log p_i in nats, with 0 log 0 := 0.

    Clamped to the exact bounds [0, log V] (float rounding can otherwise
    overshoot by one ulp at the uniform point).
    """
    probs = p.probs
    mask = probs > 0.0
    h = -float(np.sum(probs[mask] * np.log(probs[mask])))
    return min(max(h, 0.0), math.log(p.size))


def free_energy(p: SimplexPoint, s: ScoreVector, temperature: float) -> FreeEnergyReport:
    """F(p) = <p, s> + T H(p). Maximized uniquely at softmax(s, T), where it equals A(s)."""
    t = check_temperature(temperature)
    if p.size != s.size:
        raise InvalidInputError(f"size mismatch: p has {p.size} entries, s has {s.size}")
    inner = float(p.probs @ s.values)
    h = entropy(p)
    return FreeEnergyReport(inner=inner, entropy=h, value=inner + t * h)


def kl_divergence(p: SimplexPoint, q: SimplexPoint) -> float:
    """D(p||q) = sum over p_i > 0 of p_i log(p_i / q_i); requires support(p) in support(q)."""
    if p.size != q.size:
        raise InvalidInputError(f"size mismatch: {p.size} vs {q.size}")
    mask = p.probs > 0.0
    if np.any(q.probs[mask] == 0.0):
        raise SupportMismatchError("support of p is not contained in support of q")
    pv = p.probs[mask]
    d = float(np.sum(pv * np.log(pv / q.probs[mask])))
    return max(d, 0.0)


def softmax_jacobian(s: ScoreVector, temperature: float) -> np.ndarray:
    """Jacobian of s -> softmax(s, T): (1/T) (diag(pi) - pi pi^T).

    Symmetric, positive semidefinite, rows summing to zero.
    """
    t = check_temperature(temperature)
    pi = softmax(s, t).probs
    return (np.diag(pi) - np.outer(pi, pi)) / t


def restrict_to_face(
    s: ScoreVector, p: SimplexPoint, mask: FaceMask
) -> tuple[ScoreVector, SimplexPoint]:
    """Restrict scores and a simplex point to a face and renormalize.

    Returns the k-dimensional restriction (s_S, p_S) with p_S proportional
    to p on the face.  Requires at least two tokens on the face and strictly
    positive mass there.
    """
    if mask.size != s.size or mask.size != p.size:
        raise InvalidInputError("face mask size does not match scores/point")
    if mask.k < 2:
        raise DegenerateFaceError(
            f"face restriction needs at least 2 tokens, mask selects {mask.k}"
        )
    sel = mask.support
    mass = float(p.probs[sel].sum())
    if mass <= 0.0:
        raise DegenerateFaceError("point carries no probability mass on the face")
    return ScoreVector(s.values[sel]), SimplexPoint(p.probs[sel] / mass)


def embed_in_face(mask: FaceMask, p_face: SimplexPoint) -> SimplexPoint:
    """Embed a face-restricted point back into the ambient simplex.

    Off-face coordinates are exactly 0.0.
    """
    if p_face.size != mask.k:
        raise InvalidInputError(f"point has {p_face.size} entries, face has {mask.k}")
    full = np.zeros(mask.size)
    full[mask.support] = p_face.probs
    return SimplexPoint(full)


def build_face_topk(s: ScoreVector, k: int) -> FaceMask:
    """Face of the k largest scores; ties broken toward the lowest index."""
    k = int(k)
    if not 1 <= k <= s.size:
        raise InvalidInputError(f"k must be in [1, {s.size}], got {k}")
    order = np.argsort(-s.values, kind="stable")
    return FaceMask.from_indices(s.size, order[:k])


def build_face_nucleus(s: ScoreVector, temperature: float, mass: float) -> FaceMask:
    """Smallest prefix of probability-sorted tokens whose softmax mass reaches the target.

    Probabilities are sorted descending with ties broken toward the lowest
    index; the prefix is the shortest one with cumulative mass >= mass
    (within a 1e-12 rounding slack so mass=1.0 selects the full vocabulary).
    """
    mass = float(mass)
    if not 0.0 < mass <= 1.0:
        raise InvalidInputError(f"nucleus mass must be in (0, 1], got {mass!r}")
    pi = softmax(s, temperature).probs
    order = np.argsort(-pi, kind="stable")
    cum = np.cumsum(pi[order])
    k = int(np.searchsorted(cum, mass - 1e-12, side="left")) + 1
    k = min(k, s.size)
    return FaceMask.from_indices(s.size, order[:k])
