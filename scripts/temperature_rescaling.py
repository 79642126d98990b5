#!/usr/bin/env python3
"""Measure how exactly temperature schedules reparameterize time.

For the literal field the scheduled trajectory replayed at the closed-form
effective time must coincide with the unit-temperature trajectory; for the
entropic field it must not (temperature also moves the equilibrium).  This
script prints the measured sup-norm deviations for both, over a family of
schedules.
"""

import argparse

import numpy as np

from simplexflow import (
    ConstantSchedule,
    ExponentialSchedule,
    FieldKind,
    PiecewiseConstantSchedule,
    ScoreVector,
    SimplexPoint,
)
from simplexflow.replicator import REPARAMETERIZATION_CONTROLS, _reparameterization_deviation


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=4)
    ap.add_argument("--horizon", type=float, default=5.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    s = ScoreVector(rng.uniform(-3, 3, args.size))
    p0 = SimplexPoint(rng.dirichlet(np.ones(args.size)))

    schedules = {
        "constant T=0.5": ConstantSchedule(0.5),
        "constant T=2.0": ConstantSchedule(2.0),
        "piecewise 1 -> 0.5 -> 2": PiecewiseConstantSchedule((1.0, 2.5), (1.0, 0.5, 2.0)),
        "exponential warm r=+0.4": ExponentialSchedule(1.0, 0.4),
        "exponential anneal r=-0.3": ExponentialSchedule(2.0, -0.3),
    }
    print(f"{'schedule':<28}{'literal deviation':<20}entropic deviation")
    for name, sched in schedules.items():
        lit = _reparameterization_deviation(
            FieldKind.LITERAL, s, p0, sched, args.horizon, REPARAMETERIZATION_CONTROLS
        )
        ent = _reparameterization_deviation(
            FieldKind.ENTROPIC, s, p0, sched, args.horizon, REPARAMETERIZATION_CONTROLS
        )
        print(f"{name:<28}{lit:<20.3e}{ent:.3e}")
    print("\nliteral deviations sit at integrator tolerance; entropic ones do not vanish.")


if __name__ == "__main__":
    main()
