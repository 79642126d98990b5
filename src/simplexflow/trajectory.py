"""Time-stamped run records shared by the discrete and continuous drivers."""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .simplex import SimplexPoint


class TerminalStatus(Enum):
    CONVERGED = "converged"
    MAX_TIME = "max-time"
    DIVERGED = "diverged"
    #: a discrete run whose per-step move vanished far from its target
    STALLED = "stalled"


@dataclass(frozen=True)
class TrajectorySample:
    """One observation along a run.

    ``t`` is continuous time for flows and the step index for discrete
    iterations.  ``field_norm`` is the sup norm of the instantaneous vector
    field; discrete iterations evaluate no field and carry NaN, and their
    per-step KL move D(p_k || p_{k-1}) is ``kl_move`` of the record's
    ``certificates[k - 1]``.  ``kl_to_target`` is NaN when no closed-form
    target exists.
    """

    t: float
    p: SimplexPoint
    free_energy: float
    kl_to_target: float
    field_norm: float


@dataclass(frozen=True)
class AscentCertificate:
    """One-step record of the free-energy inequality F(q) >= F(p) + D(q||p)/eta.

    ``f_before`` and ``f_after`` are the record's free energy at the step's two
    iterates; ``slack`` is F(q) - F(p) - D(q||p)/eta, guaranteed nonnegative
    (to rounding) for the exact prox step only.
    """

    f_before: float
    f_after: float
    kl_move: float
    slack: float


@dataclass(frozen=True)
class BlockCounts:
    """Closed-form work of one run: rows evaluated (those past the stop in the
    last block included), rows up to and including the stop, and blocks."""

    stops_evaluated: int
    stops_kept: int
    blocks: int


@dataclass(frozen=True)
class StepCounts:
    """Adaptive-driver work of one run: accepted and rejected trial steps, and
    the smallest, largest and last accepted step size (NaN with no step)."""

    accepted_steps: int
    rejected_steps: int
    min_step: float
    max_step: float
    last_step: float


SAMPLE_COLUMNS = ("t", "free_energy", "kl_to_target", "field_norm")
CERTIFICATE_COLUMNS = ("kl_move", "slack")


class _Rows(Sequence):
    """Read-only sequence of ``n`` rows, row i built by ``make(i)`` on access."""

    def __init__(self, n: int, make: Callable[[int], object]):
        self._n, self._make = n, make

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._make(i) for i in range(*index.indices(self._n))]
        i = operator.index(index)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("row index out of range")
        return self._make(i)

    def __iter__(self):
        return map(self._make, range(self._n))

    def __eq__(self, other):
        if isinstance(other, Sequence) and not isinstance(other, str):
            return list(self) == list(other)
        return NotImplemented


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class TrajectoryRecord:
    """A run stored as columns: times ``t``, the (n, V) probabilities ``P``
    (each row meets ``SimplexPoint``'s invariants), ``free_energy``,
    ``kl_to_target`` and ``field_norm``, plus one ``kl_move`` and ``slack``
    per certified step.

    ``samples`` and ``certificates`` are read-only sequences that build a
    ``TrajectorySample`` or an ``AscentCertificate`` only when a row is read;
    ``len`` builds nothing.  Certificate k reads its free energies from
    samples k and k + 1.  The constructor takes a list of samples and makes a
    record without certificates; ``from_columns`` takes the arrays.
    ``block_counts`` is set by the closed-form solver only, ``step_counts`` by
    the adaptive driver only.
    """

    def __init__(self, samples: Sequence, terminal_status: TerminalStatus):
        samples = list(samples)
        columns = {name: [getattr(sample, name) for sample in samples] for name in SAMPLE_COLUMNS}
        probs = [sample.p.probs for sample in samples]
        P = np.vstack(probs) if probs else np.empty((0, 0))
        self._set(P, columns, terminal_status, 0, 0, "", None, None)

    @classmethod
    def from_columns(
        cls,
        P: np.ndarray,
        columns: dict,
        terminal_status: TerminalStatus,
        accepted_steps: int = 0,
        diagnostics: str = "",
        block_counts: Optional[BlockCounts] = None,
        renormalizations: int = 0,
        step_counts: Optional[StepCounts] = None,
    ) -> "TrajectoryRecord":
        """A record from checked probability rows and a dict holding every
        sample column and, when steps were certified, every certificate column."""
        record = cls.__new__(cls)
        record._set(
            P,
            columns,
            terminal_status,
            renormalizations,
            accepted_steps,
            diagnostics,
            block_counts,
            step_counts,
        )
        return record

    def _set(
        self, P, columns, status, renormalizations, accepted_steps, diagnostics, counts, steps
    ):
        self.P = _frozen(P)
        for name in SAMPLE_COLUMNS + CERTIFICATE_COLUMNS:
            setattr(self, name, _frozen(columns.get(name, ())))
        self.terminal_status = status
        self.renormalizations = renormalizations
        self.accepted_steps = accepted_steps
        self.diagnostics = diagnostics
        self.block_counts = counts
        self.step_counts = steps

    def _sample(self, i: int) -> TrajectorySample:
        return TrajectorySample(
            t=float(self.t[i]),
            p=SimplexPoint._from_checked(self.P[i]),
            free_energy=float(self.free_energy[i]),
            kl_to_target=float(self.kl_to_target[i]),
            field_norm=float(self.field_norm[i]),
        )

    def _certificate(self, i: int) -> AscentCertificate:
        f_before, f_after = self.free_energy[i : i + 2].tolist()
        return AscentCertificate(f_before, f_after, float(self.kl_move[i]), float(self.slack[i]))

    @property
    def samples(self) -> Sequence:
        return _Rows(len(self.t), self._sample)

    @property
    def certificates(self) -> Sequence:
        return _Rows(len(self.slack), self._certificate)

    @property
    def terminal(self) -> TrajectorySample:
        return self._sample(len(self.t) - 1)
