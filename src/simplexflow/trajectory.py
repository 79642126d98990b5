"""Time-stamped run records shared by the discrete and continuous drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .simplex import SimplexPoint


class TerminalStatus(Enum):
    CONVERGED = "converged"
    MAX_TIME = "max-time"
    DIVERGED = "diverged"


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


@dataclass
class TrajectoryRecord:
    samples: list[TrajectorySample]
    terminal_status: TerminalStatus
    renormalizations: int = 0
    accepted_steps: int = 0
    diagnostics: str = ""
    #: per-step ascent certificates, populated by the discrete mirror driver
    certificates: list = field(default_factory=list)

    @property
    def terminal(self) -> TrajectorySample:
        return self.samples[-1]

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    @property
    def free_energies(self) -> np.ndarray:
        return np.array([s.free_energy for s in self.samples])

    @property
    def probabilities(self) -> np.ndarray:
        """Samples stacked into an (n_samples, V) array."""
        return np.vstack([s.p.probs for s in self.samples])
