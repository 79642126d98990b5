"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/quartiles.py --workloads ensemble claims --seeds 1-10 \
        --out .perfbench-work/quartiles.json

Each run is ``run.py --trace 0`` for ``run_seconds`` from ``BENCHMARK.json``.
For every workload it summarises the gated metrics of the JSON line and the
printed ones (``op_ms_p50``, ``simulate_s``, ``witness_s``, ...): the median,
the quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and the
spread, the quartile distance as a share of the median.  Runs are
sequential, so they do not compete for the cores they measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
RUN_SECONDS = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "values": values,
    }


def summarise_all(runs: list, key: str) -> dict:
    return {
        name: dict(summarise([r[key][name]["value"] for r in runs]), unit=runs[0][key][name]["unit"])
        for name in runs[0][key]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(RUN_SECONDS), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            printed = next(line for line in lines if line.startswith("printed: "))
            result["printed"] = json.loads(printed[len("printed: "):])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary[workload] = {
            "seeds": args.seeds,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": summarise_all(runs, "metrics"),
            "printed": summarise_all(runs, "printed"),
        }
        for section in ("metrics", "printed"):
            for name, m in summary[workload][section].items():
                spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
                print(f"  {name:<42} median {m['median']:.6g} {m['unit']}  "
                      f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {spread}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
