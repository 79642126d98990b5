"""Replicator dynamics with state-dependent scores s(p) = s0 + B p.

The linear family is the smallest one that separates conservative from
rotational (curl) behavior: the symmetric part of B derives from the
potential <p, s0> + 0.5 <p, B p>, while the antisymmetric part is a pure
non-potential component.  Under the entropic field kind and symmetric B, the
flow ascends the generalized free energy

    G(p) = <p, s0> + 0.5 <p, B p> + T H(p),

which is recorded as the free-energy annotation of every path-field
trajectory (for B = 0 it coincides with the fixed-score free energy).  The
flow is the adaptive integrator of ``replicator`` fed with
``ScoreField.scores_at`` and ``ScoreField.potential``.
Antisymmetric B produces rotation: with the literal kind the uniform point
becomes a center surrounded by closed orbits, giving detector-checkable
loops; mixed B yields multiple basins ("lock-in") that the probe below
clusters by terminal point.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import InvalidInputError
from .replicator import (
    DEFAULT_HORIZON,
    FieldKind,
    IntegratorControls,
    _row_dot,
    _run_flow,
    as_schedule,
    eval_field,
    integrate,
)
from .simplex import ScoreVector, SimplexPoint, check_temperature, entropy
from .trajectory import TerminalStatus, TrajectoryRecord


@dataclass(frozen=True, eq=False)
class ScoreField:
    """State-dependent scores s(p) = base + coupling @ p (coupling None = constant)."""

    base: np.ndarray
    coupling: Optional[np.ndarray] = None

    def __post_init__(self):
        base = np.asarray(self.base, dtype=np.float64)
        if base.ndim != 1 or base.size < 2 or not np.all(np.isfinite(base)):
            raise InvalidInputError("score field base must be a finite vector of size >= 2")
        base = base.copy()
        base.flags.writeable = False
        object.__setattr__(self, "base", base)
        if self.coupling is not None:
            b = np.asarray(self.coupling, dtype=np.float64)
            if b.shape != (base.size, base.size) or not np.all(np.isfinite(b)):
                raise InvalidInputError(
                    f"coupling must be a finite {base.size}x{base.size} matrix"
                )
            b = b.copy()
            b.flags.writeable = False
            object.__setattr__(self, "coupling", b)

    @property
    def size(self) -> int:
        return int(self.base.size)

    @property
    def kind(self) -> str:
        return "constant" if self.coupling is None else "linear"

    @property
    def constant_equivalent(self) -> bool:
        """True when scores do not actually depend on the state."""
        return self.coupling is None or not self.coupling.any()

    @property
    def lipschitz_bound(self) -> float:
        """Spectral norm of the coupling; Lipschitz constant of p -> s(p)."""
        if self.coupling is None:
            return 0.0
        return float(np.linalg.norm(self.coupling, 2))

    def scores_at(self, p: np.ndarray) -> np.ndarray:
        if self.coupling is None:
            return self.base
        return self.base + self.coupling @ p

    def potential(self, p: np.ndarray):
        """<p, s0> + 0.5 <p, B p> at a point, or at each row of a (K, V) array;
        its gradient is s(p) when B is symmetric."""
        value = p @ self.base
        if self.coupling is not None:
            value = value + 0.5 * (
                p @ (self.coupling @ p) if p.ndim == 1 else _row_dot(p, p @ self.coupling.T)
            )
        return value

    def to_json(self) -> str:
        payload = {"kind": self.kind, "s0": self.base.tolist()}
        if self.coupling is not None:
            payload["B"] = self.coupling.reshape(-1).tolist()
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ScoreField":
        payload = json.loads(text)
        s0 = np.asarray(payload["s0"], dtype=np.float64)
        if payload.get("kind") == "linear":
            flat = np.asarray(payload["B"], dtype=np.float64)
            return cls(s0, flat.reshape(s0.size, s0.size))
        return cls(s0)


def constant_field(s0) -> ScoreField:
    return ScoreField(np.asarray(s0, dtype=np.float64))


def linear_field(s0, coupling) -> ScoreField:
    return ScoreField(np.asarray(s0, dtype=np.float64), np.asarray(coupling, dtype=np.float64))


def rotation_coupling(beta: float) -> np.ndarray:
    """Cyclic antisymmetric 3x3 coupling with strength beta (B_12 = -B_21 = beta)."""
    k = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    return float(beta) * k


def eval_path_field(
    field: ScoreField, fieldkind: FieldKind, p: SimplexPoint, temperature: float
) -> np.ndarray:
    """Replicator field with state-dependent scores; tangent to the simplex."""
    if p.size != field.size:
        raise InvalidInputError(f"size mismatch: p has {p.size} entries, field has {field.size}")
    return eval_field(fieldkind, p, ScoreVector(field.scores_at(p.probs)), temperature)


def is_conservative(field: ScoreField, tol: float = 1e-12) -> bool:
    """True iff the coupling is symmetric, i.e. s(p) derives from a potential."""
    if field.coupling is None:
        return True
    return bool(np.max(np.abs(field.coupling - field.coupling.T)) <= tol)


def curl_magnitude(field: ScoreField) -> float:
    """Frobenius norm of B - B^T; the size of the non-potential component."""
    if field.coupling is None:
        return 0.0
    return float(np.linalg.norm(field.coupling - field.coupling.T, "fro"))


def generalized_free_energy(field: ScoreField, p: SimplexPoint, temperature: float) -> float:
    """G(p) = <p, s0> + 0.5 <p, B p> + T H(p); the ascent functional for symmetric B."""
    return float(field.potential(p.probs) + check_temperature(temperature) * entropy(p))


def integrate_path(
    field: ScoreField,
    fieldkind: FieldKind,
    p0: SimplexPoint,
    schedule,
    horizon: float = DEFAULT_HORIZON,
    controls: IntegratorControls = IntegratorControls(),
) -> TrajectoryRecord:
    """Integrate the replicator flow of a state-dependent score field.

    Fields with no actual state dependence are delegated to the fixed-score
    solver, so their runs are identical to the corresponding replicator
    runs.  Genuinely linear fields go through the adaptive integrator; their
    free-energy annotation is the generalized G above and no closed-form
    target exists, so ``kl_to_target`` is NaN, ``convergence_kl`` is unused
    and early stopping, if any, goes through ``convergence_field_norm``.
    """
    if field.constant_equivalent:
        return integrate(fieldkind, p0, ScoreVector(field.base), schedule, horizon, controls)

    if p0.size != field.size:
        raise InvalidInputError(f"size mismatch: p0 has {p0.size} entries, field has {field.size}")
    return _run_flow(
        fieldkind, p0, field.scores_at, field.potential, as_schedule(schedule), horizon, controls
    )


# ---------------------------------------------------------------------------
# recurrence detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceReport:
    """First detected loop of a trajectory, if any.

    ``first_return_time`` is the loop duration t2 - t1; ``drift_per_cycle``
    the net change of the recorded free energy over the loop.  A trajectory
    counts as recurrent only if it re-enters a ``delta_rec`` ball around an
    earlier sample after having left the concentric ball of radius
    ``excursion_factor * delta_rec`` in between.
    """

    recurrent: bool
    first_return_time: Optional[float]
    return_distance: float
    drift_per_cycle: float


def detect_recurrence(
    traj: TrajectoryRecord,
    delta_rec: float = 1e-3,
    min_separation: float = 0.5,
    excursion_factor: float = 5.0,
) -> RecurrenceReport:
    """Scan a trajectory for the first qualifying loop (sup-norm distances)."""
    if len(traj.samples) < 2:
        raise InvalidInputError("recurrence detection needs at least 2 samples")
    points = traj.probabilities
    times = traj.times
    energies = traj.free_energies
    n = len(times)
    for i in range(n - 1):
        dists = np.max(np.abs(points[i + 1 :] - points[i]), axis=1)
        # largest excursion over samples strictly between i and each candidate
        left_max = np.concatenate(([0.0], np.maximum.accumulate(dists)[:-1]))
        ok = (
            (times[i + 1 :] - times[i] >= min_separation)
            & (dists <= delta_rec)
            & (left_max >= excursion_factor * delta_rec)
        )
        if ok.any():
            m = int(np.argmax(ok))
            j = i + 1 + m
            return RecurrenceReport(
                recurrent=True,
                first_return_time=float(times[j] - times[i]),
                return_distance=float(dists[m]),
                drift_per_cycle=float(energies[j] - energies[i]),
            )
    return RecurrenceReport(
        recurrent=False, first_return_time=None, return_distance=math.inf, drift_per_cycle=0.0
    )


def find_recurrent_beta(
    betas: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0),
    temperature: float = 1.0,
    p0: Optional[SimplexPoint] = None,
    delta_rec: float = 1e-3,
    min_separation: float = 0.5,
    n_samples: int = 5000,
) -> tuple[Optional[float], dict]:
    """Sweep the rotation strength until the recurrence detector fires.

    Uses the literal kind, where the antisymmetric coupling makes the
    uniform point a center surrounded by closed orbits (the quadratic form
    <p, B p> vanishes, so the score mean is identically zero).  The horizon
    and sampling cadence scale with 1/beta so each run covers a few orbit
    periods with samples fine enough to witness the return.

    Returns (first recurrent beta or None, {beta: RecurrenceReport}).
    """
    t = check_temperature(temperature)
    if p0 is None:
        p0 = SimplexPoint(np.array([0.5, 0.3, 0.2]))
    reports: dict = {}
    for beta in betas:
        field = linear_field(np.zeros(3), rotation_coupling(beta))
        horizon = 50.0 * t / float(beta)
        controls = IntegratorControls(
            n_samples=n_samples, uniform_samples=True, convergence_kl=0.0
        )
        traj = integrate_path(field, FieldKind.LITERAL, p0, t, horizon, controls)
        report = detect_recurrence(
            traj, delta_rec=delta_rec, min_separation=min_separation
        )
        reports[float(beta)] = report
        if report.recurrent:
            return float(beta), reports
    return None, reports


# ---------------------------------------------------------------------------
# lock-in probe
# ---------------------------------------------------------------------------


@dataclass
class BasinCluster:
    representative: np.ndarray
    members: list
    terminal_free_energy: float


@dataclass
class LockinReport:
    clusters: list
    assignments: list  # cluster index per start, None for diverged runs
    diverged: list     # indices of starts whose runs diverged

    @property
    def basin_sizes(self) -> list:
        return [len(c.members) for c in self.clusters]


def lockin_probe(
    field: ScoreField,
    fieldkind: FieldKind,
    starts: Sequence[SimplexPoint],
    temperature: float,
    horizon: float = 200.0,
    cluster_tol: float = 1e-4,
    controls: Optional[IntegratorControls] = None,
) -> LockinReport:
    """Integrate each start and partition by terminal basin.

    Terminal points are clustered greedily by sup-norm distance
    ``cluster_tol``; each cluster reports its size and mean terminal value
    of the recorded free energy.
    """
    if controls is None:
        controls = IntegratorControls(convergence_field_norm=1e-12, n_samples=50)
    clusters: list[BasinCluster] = []
    assignments: list = []
    diverged: list = []
    energies: list[list[float]] = []
    for idx, start in enumerate(starts):
        traj = integrate_path(field, fieldkind, start, temperature, horizon, controls)
        if traj.terminal_status is TerminalStatus.DIVERGED:
            diverged.append(idx)
            assignments.append(None)
            continue
        terminal = traj.terminal
        placed = None
        for c_idx, cluster in enumerate(clusters):
            if float(np.max(np.abs(cluster.representative - terminal.p.probs))) <= cluster_tol:
                placed = c_idx
                break
        if placed is None:
            clusters.append(
                BasinCluster(
                    representative=np.array(terminal.p.probs),
                    members=[idx],
                    terminal_free_energy=terminal.free_energy,
                )
            )
            energies.append([terminal.free_energy])
            assignments.append(len(clusters) - 1)
        else:
            clusters[placed].members.append(idx)
            energies[placed].append(terminal.free_energy)
            assignments.append(placed)
    for cluster, vals in zip(clusters, energies):
        cluster.terminal_free_energy = float(np.mean(vals))
    return LockinReport(clusters=clusters, assignments=assignments, diverged=diverged)


# ---------------------------------------------------------------------------
# brute-force search for a multi-basin instance
# ---------------------------------------------------------------------------


#: lattice steps (di, dj, dk) to the six neighbours of a barycentric lattice point
_LATTICE_STEPS = ((1, -1, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, 1), (0, 1, -1), (0, -1, 1))


@functools.lru_cache(maxsize=8)
def _barycentric_lattice(resolution: int) -> tuple:
    """(points, neighbours): the interior points (i, j, k) / resolution with
    i + j + k = resolution, in the order i, then j, and per point the row of
    each of its six lattice neighbours, -1 where the neighbour is not interior."""
    keys = [
        (i, j, resolution - i - j)
        for i in range(1, resolution - 1)
        for j in range(1, resolution - i)
        if resolution - i - j >= 1
    ]
    row = {key: n for n, key in enumerate(keys)}
    neighbours = np.array(
        [[row.get((i + di, j + dj, k + dk), -1) for di, dj, dk in _LATTICE_STEPS]
         for i, j, k in keys],
        dtype=np.intp,
    ).reshape(len(keys), len(_LATTICE_STEPS))
    points = np.array(keys, dtype=np.float64).reshape(-1, 3) / resolution
    points.flags.writeable = False
    neighbours.flags.writeable = False
    return points, neighbours


def _grid_local_maxima(field: ScoreField, temperature: float, resolution: int = 24):
    """Strict local maxima of G on the interior barycentric lattice, as
    (point, value) pairs: G is evaluated on the whole lattice at once, so a
    value may differ from ``generalized_free_energy`` in its last bits."""
    points, neighbours = _barycentric_lattice(resolution)
    entropies = np.clip(-_row_dot(points, np.log(points)), 0.0, math.log(points.shape[1]))
    values = field.potential(points) + check_temperature(temperature) * entropies
    padded = np.append(values, -np.inf)  # row -1: no neighbour
    around = padded[neighbours].max(axis=1)
    strict = (neighbours >= 0).any(axis=1) & (values > around)
    return [(points[n], values[n]) for n in np.flatnonzero(strict)]


def find_multibasin_coupling(
    temperature: float = 0.5,
    entries: Sequence[int] = (0, 1, 2),
    resolution: int = 24,
    separation: float = 0.2,
    probe_starts: int = 12,
    seed: int = 7,
) -> tuple[Optional[ScoreField], list]:
    """Search small integer symmetric couplings (V=3) for >= 2 separated basins.

    Candidates are screened by counting separated local maxima of G on a
    barycentric lattice, then confirmed by clustering the terminal points of
    entropic flows from deterministic random starts.  Returns the first
    confirmed field and its grid maxima, or (None, []).
    """
    t = check_temperature(temperature)
    rng = np.random.default_rng(seed)
    starts = [SimplexPoint(rng.dirichlet(np.ones(3))) for _ in range(probe_starts)]
    for b11, b22, b33, b12, b13, b23 in itertools.product(entries, repeat=6):
        coupling = np.array(
            [[b11, b12, b13], [b12, b22, b23], [b13, b23, b33]], dtype=np.float64
        )
        if not coupling.any():
            continue
        field = linear_field(np.zeros(3), coupling)
        maxima = _grid_local_maxima(field, t, resolution)
        if len(maxima) < 2:
            continue
        pts = np.array([m[0] for m in maxima])
        separated = False
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if np.max(np.abs(pts[a] - pts[b])) >= separation:
                    separated = True
        if not separated:
            continue
        probe = lockin_probe(field, FieldKind.ENTROPIC, starts, t, horizon=300.0)
        if len(probe.clusters) >= 2:
            return field, maxima
    return None, []
