#!/usr/bin/env python3
"""Portrait of both flow kinds from a fan of random starts.

Writes one trajectory CSV per (kind, start) into --outdir, plus a summary
table on stdout: terminal KL to the field's own equilibrium, free-energy
gain, and sample counts.  Plot the CSVs with anything that reads
columns t, p_1..p_V, free_energy, kl_to_target, field_norm.
"""

import argparse
from pathlib import Path

import numpy as np

from simplexflow import FieldKind, IntegratorControls, ScoreVector, SimplexPoint
from simplexflow.cli import _trajectory_table, _write_table
from simplexflow.replicator import integrate_rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scores", default="1.5,0.5,0.0,-1.0")
    ap.add_argument("--temperature", type=float, default=1.0)
    ap.add_argument("--starts", type=int, default=8)
    ap.add_argument("--horizon", type=float, default=200.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default="portrait")
    args = ap.parse_args()

    s = ScoreVector([float(v) for v in args.scores.split(",")])
    rng = np.random.default_rng(args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    print(f"{'kind':<10}{'start':<7}{'status':<12}{'terminal KL':<14}{'F gain':<12}samples")
    for kind in FieldKind:
        # one row call per kind: each row is its start's own integrate run
        starts = [SimplexPoint(rng.dirichlet(np.ones(s.size))) for _ in range(args.starts)]
        trajs = integrate_rows(kind, starts, [s] * len(starts), args.temperature, args.horizon,
                               IntegratorControls(n_samples=120))
        for i, traj in enumerate(trajs):
            columns, body = _trajectory_table(traj, None)
            _write_table(outdir / f"{kind.value}_{i}.csv", columns, body, "csv")
            gain = traj.terminal.free_energy - traj.samples[0].free_energy
            print(
                f"{kind.value:<10}{i:<7}{traj.terminal_status.value:<12}"
                f"{traj.terminal.kl_to_target:<14.3e}{gain:<12.5f}{len(traj.samples)}"
            )
    print(f"\ntrajectories in {outdir}/")


if __name__ == "__main__":
    main()
