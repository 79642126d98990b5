"""Span tracer installed around simplexflow's public functions from outside.

No file under ``src/`` is edited: ``Tracer.install`` replaces each target
function with a timing wrapper in its defining module *and* in every
``simplexflow`` module that imported it by name (``cli`` imports
``integrate``, ``iterate`` and ``integrate_path``; ``path_fields`` imports
``integrate``; ``oracles`` calls through ``rep.`` and ``mirror.``, which the
module attribute covers).  Spans are recorded only inside an op span opened
by the benchmark, kept in memory, and written out once at the end.  A span's
self time is its duration minus the time covered by its child spans.

Attribution inside ``replicator._run_flow`` (rejected steps, time per
``one_step``) needs counters inside the program and is not measured here.
"""

from __future__ import annotations

import csv
import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _record_counts(args, kwargs, record):
    return {"accepted_steps": record.accepted_steps, "samples": len(record.samples)}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path", args[0] if args else None))}


#: (module, function, span name, counter) — a counter maps a call to counts
TARGETS = (
    ("simplexflow.simplex", "softmax", "simplex.softmax", None),
    ("simplexflow.simplex", "kl_divergence", "simplex.kl_divergence", None),
    ("simplexflow.simplex", "free_energy", "simplex.free_energy", None),
    ("simplexflow.simplex", "log_softmax", "simplex.log_softmax", None),
    ("simplexflow.replicator", "integrate", "replicator.integrate", _record_counts),
    ("simplexflow.mirror", "iterate", "mirror.iterate", _record_counts),
    ("simplexflow.mirror", "ascent_certificate", "mirror.ascent_certificate", None),
    ("simplexflow.path_fields", "integrate_path", "path_fields.integrate_path", _record_counts),
    ("simplexflow.path_fields", "lockin_probe", "path_fields.lockin_probe", None),
    ("simplexflow.path_fields", "find_multibasin_coupling", "path_fields.find_multibasin_coupling", None),
    ("simplexflow.path_fields", "find_recurrent_beta", "path_fields.find_recurrent_beta", None),
    ("simplexflow.path_fields", "detect_recurrence", "path_fields.detect_recurrence", None),
    ("simplexflow.path_fields", "generalized_free_energy", "path_fields.generalized_free_energy", None),
    ("simplexflow.oracles", "run_adjudication", "oracles.run_adjudication", None),
    ("simplexflow.oracles", "oracle_self_test", "oracles.oracle_self_test", None),
    ("simplexflow.cli", "main", "cli.main", None),
    ("simplexflow.cli", "_resolve", "cli.resolve", None),
    ("simplexflow.cli", "_trajectory_table", "cli.table", None),
    ("simplexflow.cli", "_iterate_table", "cli.table", None),
    ("simplexflow.cli", "_write_table", "cli.write", _written_bytes),
    ("simplexflow.cli", "_write_manifest", "cli.manifest", None),
)


class Tracer:
    """Collects spans ``(name, op, parent, start, end, self)`` in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list = []  # [span id, child seconds] per open span
        self._op = -1
        self._restore: list = []
        self.dispatch_s = 0.0

    # -- recording ---------------------------------------------------------

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, 0.0])
        return sid, parent

    def _close(self, sid, parent, name, start):
        end = time.perf_counter()
        _, children = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans[sid] = (name, self._op, parent, start, end, end - start - children)

    @contextmanager
    def op(self, name: str):
        """Root span around one benchmark op; wrappers record only inside one."""
        self._op += 1
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[name][key] += value
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, pool_module=None):
        """Wrap every target at every import site; ``uninstall`` reverts it.

        ``pool_module`` (the ``cli`` module) gets a process pool whose
        construction, submission and shutdown time is summed in ``dispatch_s``.
        """
        for module_name, *_ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("simplexflow")]
        for module_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        if pool_module is not None:
            self._restore.append(
                (pool_module, "ProcessPoolExecutor", pool_module.ProcessPoolExecutor)
            )
            pool_module.ProcessPoolExecutor = _timed_pool(self, pool_module.ProcessPoolExecutor)

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, self seconds and the counters."""
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name, _, _, _, _, self_s in self.spans:
            out[name]["calls"] += 1
            out[name]["self_s"] += self_s
        for name, counts in self.counts.items():
            out[name].update(counts)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[3] for s in self.spans), default=0.0)
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "op", "name", "start_s", "end_s", "self_s"])
            for sid, (name, op, parent, start, end, self_s) in enumerate(self.spans):
                out.writerow(
                    [sid, parent, op, name, f"{start - origin:.9f}", f"{end - origin:.9f}", f"{self_s:.9f}"]
                )


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds a traced call costs more than an untraced one, timed on a no-op.

    Counters (the counts read from a result) are not included.
    """

    def noop():
        return None

    probe = Tracer()
    wrapped = probe._wrap(noop, "probe", None)
    with probe.op("probe"):
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
    return max(traced - bare, 0.0) / calls


def _timed_pool(tracer: Tracer, base):
    class TimedPool(base):
        def __init__(self, *args, **kwargs):
            start = time.perf_counter()
            super().__init__(*args, **kwargs)
            tracer.dispatch_s += time.perf_counter() - start

        def map(self, *args, **kwargs):
            # submits every cell (and forks the workers) before returning
            start = time.perf_counter()
            results = super().map(*args, **kwargs)
            tracer.dispatch_s += time.perf_counter() - start
            return results

        def shutdown(self, *args, **kwargs):
            start = time.perf_counter()
            super().shutdown(*args, **kwargs)
            tracer.dispatch_s += time.perf_counter() - start

    return TimedPool
