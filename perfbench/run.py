"""simplexflow benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 28 --trace 0

Run from anywhere inside a checkout; the program is imported from ``src/``.
The run sets up (``IMPORT_REPEATS`` cold imports in fresh interpreters, then
``SETUP_REPEATS`` times input generation and warm-up), then repeats the
workload's round of ops until another round would pass ``--seconds``.  With ``--trace 1`` it
then replays one round under the span tracer (for ``sweep`` also a
``--jobs 1`` pass of the same grid) and reports per-layer metrics instead of
end-to-end ones.  Human-readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch files live under ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
#: pinned so the benchmark and its sweep workers use at most nproc threads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_ms_tail": "ms", "peak_rss_mb": "MB"}


def _stat_units(prefix, stats):
    units = {"calls": "count", "self_s": "s", "accepted_steps": "count", "steps": "count",
             "samples": "count", "us_per_step": "us"}
    return {f"{prefix}.{stat}": units[stat] for stat in stats}


PER_LAYER = {
    **_stat_units("replicator.integrate", ("calls", "self_s", "accepted_steps", "us_per_step", "samples")),
    **_stat_units("mirror.iterate", ("calls", "self_s", "steps", "us_per_step")),
    **_stat_units("mirror.ascent_certificate", ("calls", "self_s")),
    **{f"path_fields.{fn}.self_s": "s" for fn in (
        "integrate_path", "lockin_probe", "find_multibasin_coupling", "find_recurrent_beta",
        "detect_recurrence")},
    "path_fields.integrate_path.accepted_steps": "count",
    **_stat_units("path_fields.generalized_free_energy", ("calls", "self_s")),
    "oracles.run_adjudication.self_s": "s",
    "oracles.oracle_self_test.self_s": "s",
    **{k: v for fn in ("softmax", "kl_divergence", "free_energy", "log_softmax")
       for k, v in _stat_units(f"simplex.{fn}", ("calls", "self_s")).items()},
    "cli.table.self_s": "s",
    "cli.write.self_s": "s",
    "cli.write.bytes": "bytes",
    "cli.write.mb_per_s": "MB/s",
    "cli.resolve.self_s": "s",
    "cli.manifest.self_s": "s",
    "cli.sweep.cells": "count",
    "cli.sweep.serial_s": "s",
    "cli.sweep.parallel_efficiency": "ratio",
    "cli.sweep.dispatch_s": "s",
    "trace.overhead_s": "s",
}


def tail_percentile(values):
    """Highest percentile with at least 10 samples beyond it, else the maximum."""
    n = len(values)
    if n < 20:
        return 100.0, max(values)
    q = 100.0 * (1.0 - 10.0 / n)
    ordered = sorted(values)
    pos = q / 100.0 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return q, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": sha,
    }


def run_op(op, devnull, tracer=None):
    """Time one op; an exception or a failed check counts as a failure."""
    start = time.perf_counter()
    try:
        with redirect_stdout(devnull):
            if tracer is None:
                result = op.run()
            else:
                with tracer.op(op.kind):
                    result = op.run()
    except Exception:
        traceback.print_exc()
        return False, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    try:
        ok = bool(op.check(result))
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"perfbench: {op.kind} op failed its correctness check", file=sys.stderr)
    return ok, elapsed


#: time one gauge sample (the reference kernel) takes at the reference speed
REF_NOMINAL_S = 0.002
#: samples taken before and after each op
BRACKET_SAMPLES = 5
#: interval between samples taken while an op runs
SAMPLE_PERIOD_S = 0.05


def reference_kernel():
    """Fixed work shaped like the program's: small-array numpy steps and float formatting."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, 16)
    rows = []
    for _ in range(80):
        y = np.exp(x - float(x.max()))
        x = 0.5 * x + 0.01 * np.log(y / float(y.sum()))
        rows.append(",".join(f"{v:.17g}" for v in x[:4]))
    return rows


def _kernel_times(count):
    times = []
    for _ in range(count):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return times


def _helper(conn, barrier):
    """Gauge helper process: on each request, run the kernel with its peers."""
    while conn.recv():
        barrier.wait()
        conn.send(_kernel_times(BRACKET_SAMPLES))


class SpeedGauge:
    """Host speed, from the reference kernel timed around and during each op.

    On a shared host each CPU switches between a fast and a slow state, up
    to 2x apart, for seconds at a time, so raw times of one op repeated
    spread by 14-47 %.  The slowdown hits the kernel and the op alike, so an
    op's time is reported at the reference speed: its raw time times the mean
    of ``REF_NOMINAL_S / sample time`` over the kernel samples taken just
    before and after it and, every ``SAMPLE_PERIOD_S`` while it runs, from a
    ``SIGALRM`` handler in this process.  The handler's own time is taken
    out of the op's.  An op that keeps ``cores`` cores busy runs in other
    processes and is gauged, before and after only, by as many helper
    processes running the kernel together.
    """

    def __init__(self, cores=1):
        # plain processes, not a Pool: the parent must stay free of threads
        # because the program forks its sweep workers from it.  Forked, not
        # spawned: a spawn-context Barrier starts a resource-tracker process
        # that outlives the benchmark
        self.helpers = []
        if cores > 1:
            ctx = multiprocessing.get_context("fork")
            barrier = ctx.Barrier(cores)
            for _ in range(cores):
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=_helper, args=(child, barrier), daemon=True)
                proc.start()
                child.close()
                self.helpers.append((proc, conn))
        self.samples = []
        self.sampling_s = 0.0
        self.measure()
        self.last = self.measure()

    def measure(self) -> list:
        if self.helpers:
            for _, conn in self.helpers:
                conn.send(True)
            return [t for _, conn in self.helpers for t in conn.recv()]
        return _kernel_times(BRACKET_SAMPLES)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.sampling_s += elapsed

    @contextmanager
    def sampling(self):
        """Take kernel samples while the block runs (single-core gauge only)."""
        if self.helpers:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, elapsed: float) -> float:
        """``elapsed``, the time of what ran since the previous call, at the reference speed."""
        before, self.last = self.last, self.measure()
        samples = [*before, *self.samples, *self.last]
        busy = elapsed - self.sampling_s
        self.samples, self.sampling_s = [], 0.0
        return busy * statistics.mean(REF_NOMINAL_S / t for t in samples)

    def close(self):
        for _, conn in self.helpers:
            conn.send(False)
            conn.close()
        for proc, _ in self.helpers:
            proc.join()


class Tally:
    """Scaled and raw op times per position in the round, one entry per repeat."""

    def __init__(self, ops, gauge):
        self.gauge = gauge
        self.kinds = [op.kind for op in ops]
        self.repeats = [[] for _ in ops]
        self.raw = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0

    def run_round(self, ops, devnull, tracer=None):
        for index, op in enumerate(ops):
            if tracer is None:
                with self.gauge.sampling():
                    ok, elapsed = run_op(op, devnull)
            else:
                # no samples inside traced spans: they would count as self time
                ok, elapsed = run_op(op, devnull, tracer)
            self.repeats[index].append(self.gauge.scaled(elapsed))
            self.raw[index].append(elapsed)
            self.attempted += 1
            self.failed += not ok

    def medians(self, raw=False):
        return [statistics.median(times) for times in (self.raw if raw else self.repeats)]


def _cold_import():
    subprocess.run([sys.executable, "-c", "import simplexflow.cli"], check=True, cwd=ROOT)


def setup(workload, seed, tmp, smoke, devnull):
    """Set-up time: cold imports in fresh interpreters, then inputs and warm-up.

    Each part is repeated, timed like an op and its median taken.  Meanwhile
    the process is pinned to one CPU, which the cold-import child (and the
    ``sweep`` warm-up's pool workers) inherit, so the kernel that scales a
    part gauges the CPU the part ran on: the CPUs change speed independently.
    """
    import numpy as np

    def prepare():
        ops = workload.build(np.random.default_rng(seed), tmp, smoke)
        with redirect_stdout(devnull):
            workload.warmup(tmp)
        return ops

    def timed(fn):
        with gauge.sampling():
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
        return result, gauge.scaled(elapsed)

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        gauge = SpeedGauge()
        imports = [timed(_cold_import) for _ in range(IMPORT_REPEATS)]
        prepared = [timed(prepare) for _ in range(SETUP_REPEATS)]
    finally:
        os.sched_setaffinity(0, cpus)
    setup_s = statistics.median(t for _, t in imports) + statistics.median(t for _, t in prepared)
    return prepared[-1][0], setup_s


@contextmanager
def worker_peaks(cli):
    """Record the peak RSS (``VmHWM``, MB) of each worker of the CLI's process
    pool just before the pool shuts it down; yields the list of peaks."""
    peaks = []
    base = cli.ProcessPoolExecutor

    class Pool(base):
        def shutdown(self, *args, **kwargs):
            for proc in list((self._processes or {}).values()):
                try:
                    status = Path(f"/proc/{proc.pid}/status").read_text()
                except OSError:
                    continue
                for line in status.splitlines():
                    if line.startswith("VmHWM:"):
                        peaks.append(int(line.split()[1]) / 1024.0)
            super().shutdown(*args, **kwargs)

    cli.ProcessPoolExecutor = Pool
    try:
        yield peaks
    finally:
        cli.ProcessPoolExecutor = base


def end_to_end(tally, setup_s, rss_mb):
    per_op = tally.medians()
    q, tail = tail_percentile(per_op)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(per_op),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_ms_tail": 1e3 * tail,
        "peak_rss_mb": rss_mb,
    }
    # printed, not gated: on ensemble the median falls between the clusters
    # of short and long ops, so it moves with the seed's op mix
    extras = {"op_ms_p50": 1e3 * statistics.median(per_op)}
    notes = {
        "rounds": len(tally.repeats[0]),
        "op_ms_tail": f"p{q:.1f} of {len(per_op)} distinct ops",
        "raw_wall_s": sum(tally.medians(raw=True)),
    }
    return metrics, extras, notes


def per_kind(tally):
    """Workload-specific times: median per command, witnesses summed per round."""
    by_kind = defaultdict(list)
    for kind, median in zip(tally.kinds, tally.medians()):
        by_kind[kind].append(median)
    names = {"simulate": "simulate_s", "prox-iterate": "prox_iterate_s", "verify": "verify_s",
             "sweep": "sweep_s"}
    out = {}
    for kind, medians in sorted(by_kind.items()):
        if kind == "witness":
            out["witness_s"] = sum(medians)
        elif kind in names:
            out[names[kind]] = statistics.median(medians)
        else:
            out[f"{kind}_ms_p50"] = 1e3 * statistics.median(medians)
    return out


def per_layer(tracer, untraced_wall, sweep):
    totals = tracer.totals()

    def get(span, stat):
        return totals.get(span, {}).get("accepted_steps" if stat == "steps" else stat, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "cli.write.mb_per_s": ratio(get("cli.write", "bytes") / 1e6, get("cli.write", "self_s")),
        "cli.sweep.cells": sweep.get("cells", 0),
        "cli.sweep.serial_s": sweep.get("serial_s", 0.0),
        # serial time over the time two workers would need at perfect speed-up
        "cli.sweep.parallel_efficiency": ratio(sweep.get("serial_s", 0.0), 2.0 * untraced_wall),
        "cli.sweep.dispatch_s": tracer.dispatch_s,
        # timed directly: a traced replay minus the untraced median is mostly noise
        "trace.overhead_s": len(tracer.spans) * tracing.wrapper_cost(),
    }
    for span in ("replicator.integrate", "mirror.iterate"):
        metrics[f"{span}.us_per_step"] = ratio(1e6 * get(span, "self_s"), get(span, "steps"))
    for name in PER_LAYER:
        if name not in metrics:
            span, _, stat = name.rpartition(".")
            metrics[name] = get(span, stat)
    return metrics


def attribution(tracer) -> dict:
    """Per op kind: share of op time spent as self time of each span name."""
    kinds = {}
    op_time = defaultdict(float)
    for name, op, parent, start, end, _ in tracer.spans:
        if parent == -1:
            kinds[op] = name
            op_time[name] += end - start
    shares = defaultdict(lambda: defaultdict(float))
    for name, op, parent, _, _, self_s in tracer.spans:
        kind = kinds[op]
        shares[kind]["(benchmark)" if parent == -1 else name] += self_s / op_time[kind]
    return {k: dict(sorted(v.items(), key=lambda kv: -kv[1])) for k, v in shares.items()}


def benchmark(args, tmp: Path) -> dict:
    import numpy as np  # after the thread pinning

    import workloads

    from simplexflow import cli

    workload = workloads.WORKLOADS[args.workload]
    gauge = SpeedGauge(workload.cores)
    try:
        with open(os.devnull, "w") as devnull:
            ops, setup_s = setup(workload, args.seed, tmp, args.smoke, devnull)
            gauge.last = gauge.measure()  # the first op's samples start here

            tally = Tally(ops, gauge)
            rounds = []
            started = time.perf_counter()
            with worker_peaks(cli) as workers_mb:
                while True:
                    round_start = time.perf_counter()
                    tally.run_round(ops, devnull)
                    rounds.append(time.perf_counter() - round_start)
                    # start another round only if it should end within --seconds
                    if time.perf_counter() - started + statistics.median(rounds) > args.seconds:
                        break
            # the sweep's cells run in the pool's workers
            rss_mb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, *workers_mb])
            metrics, extras, notes = end_to_end(tally, setup_s, rss_mb)
            extras.update(per_kind(tally))
            if workers_mb:
                notes["worker_rss_mb"] = max(workers_mb)

            if args.trace:
                traced = Tally(ops, gauge)
                tracer = tracing.Tracer()
                tracer.install(pool_module=cli)
                try:
                    traced.run_round(ops, devnull, tracer)
                    sweep = {}
                    if args.workload == "sweep":
                        sweep["cells"] = ops[0].counts.get("cells", 0)
                        serial_ops = workloads.sweep_round(
                            np.random.default_rng(args.seed), tmp, args.smoke, jobs=1
                        )
                        serial = Tally(serial_ops, gauge)
                        serial.run_round(serial_ops, devnull, tracer)
                        sweep["serial_s"] = serial.medians()[0]
                        traced.attempted += serial.attempted
                        traced.failed += serial.failed
                finally:
                    tracer.uninstall()
                tally.attempted += traced.attempted
                tally.failed += traced.failed
                metrics = per_layer(tracer, sum(tally.medians()), sweep)
                notes["trace_spans"] = len(tracer.spans)
                notes["trace_file"] = str((WORK / f"trace-{args.workload}.csv").relative_to(ROOT))
                notes["attribution"] = attribution(tracer)
                tracer.write(WORK / f"trace-{args.workload}.csv")

    finally:
        gauge.close()

    units = PER_LAYER if args.trace else END_TO_END
    extras["failed_ratio"] = tally.failed / tally.attempted
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "printed": {name: {"value": value, "unit": printed_unit(name)} for name, value in extras.items()},
        "notes": notes,
    }


def stop_multiprocessing_servers():
    """Stop the resource tracker and fork server, if multiprocessing started
    either, and wait for them: they would otherwise outlive the benchmark."""
    from multiprocessing import forkserver, resource_tracker

    for server in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(server, "_stop", None)
        if stop is not None:
            stop()


def printed_unit(name: str) -> str:
    return "ms" if "_ms_" in name else ("ratio" if name == "failed_ratio" else "s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ensemble", "wide_vocab", "claims", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "simplexflow" / "__init__.py").is_file():
        print(f"perfbench: no simplexflow sources under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK, prefix="tmp-") as tmp:
            result = benchmark(args, Path(tmp))
    finally:
        stop_multiprocessing_servers()

    print(f"env: {json.dumps(environment())}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(result['notes'])}")
    for name, metric in (*result["metrics"].items(), *result["printed"].items()):
        print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}")
    # the ungated metrics as JSON, for quartiles.py
    print(f"printed: {json.dumps(result['printed'])}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
