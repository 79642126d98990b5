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
    _check_cold_spread,
    _run_flows,
    as_schedule,
    eval_field,
    integrate_rows,
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

    def scores_at(self, p: np.ndarray) -> np.ndarray:
        """s(p) at a point, or at each row of a (K, V) array; stacked (1, V)
        products keep each row equal to its point to the bit, (K, V) @ B.T not."""
        if self.coupling is None:
            return self.base
        if p.ndim == 1:
            return self.base + self.coupling @ p
        return self.base + (p[:, np.newaxis, :] @ self.coupling.T)[:, 0]

    def potential(self, p: np.ndarray):
        """<p, s0> + 0.5 <p, B p> at a point, or at each row of a (K, V) array;
        its gradient is s(p) when B is symmetric."""
        value = p @ self.base
        if self.coupling is not None:
            # einsum, not _row_dot: its last bit decides _grid_local_maxima's maxima
            value = value + 0.5 * (
                p @ (self.coupling @ p) if p.ndim == 1
                else np.einsum("kv,kv->k", p, p @ self.coupling.T)
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


#: largest |B - B^T| entry that ``is_conservative`` still counts as symmetric
SYMMETRY_TOL = 1e-12


def is_conservative(field: ScoreField) -> bool:
    """True iff the coupling is symmetric (to ``SYMMETRY_TOL``), i.e. s(p)
    derives from a potential."""
    if field.coupling is None:
        return True
    return bool(np.max(np.abs(field.coupling - field.coupling.T)) <= SYMMETRY_TOL)


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
    *,
    dense: bool = False,
) -> TrajectoryRecord:
    """Integrate the replicator flow of a state-dependent score field.

    Fields with no actual state dependence are delegated to the fixed-score
    solver, so their runs are identical to the corresponding replicator
    runs.  Genuinely linear fields go through the adaptive integrator; their
    free-energy annotation is the generalized G above and no closed-form
    target exists, so ``kl_to_target`` is NaN, ``convergence_kl`` is unused
    and the run ends at the horizon or DIVERGED.  Scores over the run's
    smallest T that could overflow the integrator's stages, or a smallest T
    of 0, raise InvalidInputError.  Every schedule kind is monotone between
    breakpoints, so that T is taken at 0, the horizon or a breakpoint.
    With ``dense``, a linear field's steps land only on breakpoints and the
    horizon, and the samples between are read from each step's continuous
    extension (``replicator._run_flows``); a constant field ignores it.
    """
    return integrate_paths(field, fieldkind, [p0], schedule, horizon, controls, dense=dense)[0]


def integrate_paths(
    field: ScoreField,
    fieldkind: FieldKind,
    starts: Sequence[SimplexPoint],
    schedule,
    horizon: float = DEFAULT_HORIZON,
    controls: IntegratorControls = IntegratorControls(),
    *,
    dense: bool = False,
) -> list:
    """``integrate_path`` from each start, one record per start.  A linear
    field's starts are checked once and stepped as one block that shares
    every step (``replicator._run_flows``, with ``dense`` passed through); a
    field without state dependence is solved in closed form, its starts the
    rows of one ``integrate_rows`` call, each record equal to the bit to its
    ``integrate`` run."""
    if not starts:
        return []
    if field.constant_equivalent:
        scores = [ScoreVector(field.base)] * len(starts)
        return integrate_rows(fieldkind, starts, scores, schedule, horizon, controls)

    for p0 in starts:
        if p0.size != field.size:
            raise InvalidInputError(
                f"size mismatch: p0 has {p0.size} entries, field has {field.size}"
            )
    schedule = as_schedule(schedule)
    largest = float(np.abs(field.base).max()) + float(np.abs(field.coupling).max())
    _check_cold_spread("linear field scores", largest, field.size, schedule, horizon)
    return _run_flows(
        fieldkind, starts, field.scores_at, field.potential, schedule, horizon, controls,
        dense=dense,
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


def _loop_starts(points, times, delta_rec, min_separation, excursion_factor) -> np.ndarray:
    """The first samples i that the bounding boxes of ``detect_recurrence``
    leave open, in order; every i < n - 1 unless the times are nondecreasing."""
    n = len(times)
    i = np.arange(n - 1)
    if not (np.diff(times) >= 0.0).all():
        return i
    hi = np.maximum.accumulate(points[::-1], axis=0)[::-1]
    lo = np.minimum.accumulate(points[::-1], axis=0)[::-1]
    head = points[:-1]
    reach = np.maximum(hi[1:] - head, head - lo[1:]).max(axis=1)
    # j: the first sample with times[j] - times[i] >= min_separation, as the
    # scan tests it, from a searchsorted guess
    j = np.maximum(np.searchsorted(times, times[:-1] + min_separation), i + 1)
    while (back := (j > i + 1) & (times[j - 1] - times[i] >= min_separation)).any():
        j[back] -= 1
    while (ahead := (j < n) & (times[np.minimum(j, n - 1)] - times[i] < min_separation)).any():
        j[ahead] += 1
    late = np.minimum(j, n - 1)
    gap = np.maximum(lo[late] - head, head - hi[late]).max(axis=1)
    return np.flatnonzero((reach >= excursion_factor * delta_rec) & (j < n) & (gap <= delta_rec))


def detect_recurrence(
    traj: TrajectoryRecord,
    delta_rec: float = 1e-3,
    min_separation: float = 0.5,
    excursion_factor: float = 5.0,
) -> RecurrenceReport:
    """Scan a trajectory for the first qualifying loop (sup-norm distances).

    A first sample i gets the row scan only if two bounding boxes of the
    later samples, the running max and min of P taken from the end, allow a
    loop from it: the box from i + 1 reaches ``excursion_factor * delta_rec``
    away from p_i, and the box from the first sample ``min_separation`` later
    comes within ``delta_rec`` of it.  Float subtraction is monotone, so a
    sample's distance never passes its box's bound, and the first loop
    reported is the one the scan of every i finds.
    """
    points, times, energies = traj.P, traj.t, traj.free_energy
    n = len(times)
    if n < 2:
        raise InvalidInputError("recurrence detection needs at least 2 samples")
    for i in _loop_starts(points, times, delta_rec, min_separation, excursion_factor).tolist():
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
    n_samples: int = 5000,
) -> tuple[Optional[float], dict]:
    """Sweep the rotation strength until the recurrence detector fires.

    Uses the literal kind, where the antisymmetric coupling makes the
    uniform point a center surrounded by closed orbits (the quadratic form
    <p, B p> vanishes, so the score mean is identically zero).  The horizon
    and sampling cadence scale with 1/beta so each run covers a few orbit
    periods with samples fine enough to witness the return.  The runs use
    dense output: steps land only on the horizon, and the samples between
    are interpolated, so their number does not set the number of steps.
    Each run is scanned by ``detect_recurrence`` at its defaults.  Every beta
    must be positive and finite (else InvalidInputError, before any run).

    Returns (first recurrent beta or None, {beta: RecurrenceReport}).
    """
    t = check_temperature(temperature)
    betas = [float(beta) for beta in betas]
    for beta in betas:
        if not 0.0 < beta < math.inf:
            raise InvalidInputError(
                f"rotation strength beta must be positive and finite, got {beta!r}"
            )
    if p0 is None:
        p0 = SimplexPoint(np.array([0.5, 0.3, 0.2]))
    reports: dict = {}
    for beta in betas:
        field = linear_field(np.zeros(3), rotation_coupling(beta))
        horizon = 50.0 * t / beta
        controls = IntegratorControls(
            n_samples=n_samples, uniform_samples=True, convergence_kl=0.0
        )
        traj = integrate_path(field, FieldKind.LITERAL, p0, t, horizon, controls, dense=True)
        report = detect_recurrence(traj)
        reports[beta] = report
        if report.recurrent:
            return beta, reports
    return None, reports


# ---------------------------------------------------------------------------
# lock-in probe
# ---------------------------------------------------------------------------


#: sup-norm distance within which ``lockin_probe`` puts two terminal points
#: in one basin
CLUSTER_TOL = 1e-4


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
) -> LockinReport:
    """Integrate the starts with 50 samples and partition by terminal basin.

    A linear field's starts are one block that shares every step
    (``integrate_paths``), and a start whose row ends DIVERGED is listed in
    ``diverged`` alone; a field without state dependence is solved in closed
    form, its starts the rows of one call.  Terminal points (a linear
    field's at the horizon) are clustered greedily by sup-norm distance
    ``CLUSTER_TOL``; each cluster reports its size and mean terminal value of
    the recorded free energy.
    """
    runs = integrate_paths(
        field, fieldkind, starts, temperature, horizon, IntegratorControls(n_samples=50)
    )
    clusters: list[BasinCluster] = []
    assignments: list = []
    diverged: list = []
    for idx, traj in enumerate(runs):
        if traj.terminal_status is TerminalStatus.DIVERGED:
            diverged.append(idx)
            assignments.append(None)
            continue
        terminal = traj.terminal.p.probs
        placed = next(
            (c for c, cluster in enumerate(clusters)
             if float(np.max(np.abs(cluster.representative - terminal))) <= CLUSTER_TOL),
            len(clusters),
        )
        if placed == len(clusters):
            clusters.append(BasinCluster(np.array(terminal), [], math.nan))
        clusters[placed].members.append(idx)
        assignments.append(placed)
    for cluster in clusters:
        energies = [runs[idx].terminal.free_energy for idx in cluster.members]
        cluster.terminal_free_energy = float(np.mean(energies))
    return LockinReport(clusters=clusters, assignments=assignments, diverged=diverged)


# ---------------------------------------------------------------------------
# brute-force search for a multi-basin instance
# ---------------------------------------------------------------------------


#: the multibasin search: each of the six entries of a symmetric V = 3
#: coupling takes these values, the lattice screen divides the simplex into
#: this many steps per side, two of its maxima must lie this far apart (sup
#: norm), and the probe that confirms a candidate runs this many starts
SEARCH_ENTRIES = (0, 1, 2)
LATTICE_RESOLUTION = 24
BASIN_SEPARATION = 0.2
PROBE_STARTS = 12

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


def _grid_local_maxima(field: ScoreField, temperature: float):
    """Strict local maxima of G on the interior barycentric lattice of
    ``LATTICE_RESOLUTION``, as (point, value) pairs: G is evaluated on the
    whole lattice at once, by einsum, whose last bits decide the maxima, so
    a value may differ from ``generalized_free_energy`` in its last bits."""
    points, neighbours = _barycentric_lattice(LATTICE_RESOLUTION)
    entropies = np.clip(-np.einsum("kv,kv->k", points, np.log(points)), 0.0, math.log(3))
    values = field.potential(points) + check_temperature(temperature) * entropies
    padded = np.append(values, -np.inf)  # row -1: no neighbour
    around = padded[neighbours].max(axis=1)
    strict = (neighbours >= 0).any(axis=1) & (values > around)
    return [(points[n], values[n]) for n in np.flatnonzero(strict)]


def find_multibasin_coupling(
    temperature: float = 0.5,
    seed: int = 7,
) -> tuple[Optional[ScoreField], list]:
    """Search small integer symmetric couplings (V=3) for >= 2 separated basins.

    Candidates are screened by counting separated local maxima of G on a
    barycentric lattice, then confirmed by clustering the terminal points of
    entropic flows from deterministic random starts (the sizes of both are
    the module constants above).  Returns the first confirmed field and its
    grid maxima, or (None, []).
    """
    t = check_temperature(temperature)
    rng = np.random.default_rng(seed)
    starts = [SimplexPoint(rng.dirichlet(np.ones(3))) for _ in range(PROBE_STARTS)]
    for b11, b22, b33, b12, b13, b23 in itertools.product(SEARCH_ENTRIES, repeat=6):
        coupling = np.array(
            [[b11, b12, b13], [b12, b22, b23], [b13, b23, b33]], dtype=np.float64
        )
        if not coupling.any():
            continue
        field = linear_field(np.zeros(3), coupling)
        maxima = _grid_local_maxima(field, t)
        if len(maxima) < 2:
            continue
        pts = [point for point, _ in maxima]
        if not any(
            np.max(np.abs(a - b)) >= BASIN_SEPARATION
            for a, b in itertools.combinations(pts, 2)
        ):
            continue
        probe = lockin_probe(field, FieldKind.ENTROPIC, starts, t, horizon=300.0)
        if len(probe.clusters) >= 2:
            return field, maxima
    return None, []
