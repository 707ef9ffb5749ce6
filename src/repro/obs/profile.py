"""Profiling for the *real* runtimes — threads, actors, coroutines.

The kernel's :class:`~repro.obs.metrics.KernelMetrics` counts logical
ticks on the deterministic scheduler; this module measures the three
runtimes the paper actually raced: wall-clock lock waits and monitor
contention on :mod:`repro.threads`, mailbox enqueue→dequeue latency and
queue depth on :mod:`repro.actors`, resume latency and ready-queue
residency on :mod:`repro.coroutines`.

A :class:`Profiler` is strictly opt-in, mirroring the kernel's
``Scheduler(metrics=...)`` pattern: every instrumented primitive takes
``profiler=None`` and its hot path pays one ``is None`` test — no
allocation, no call — when profiling is off.  When on, all updates go
through one internal lock (the profiler is shared across threads by
design), and every timestamp is read through the profiler's ``clock``
callable.  That clock is **the** wall-clock seam for the obs layer:
tests inject :class:`FakeClock` and get deterministic latencies, and
nothing in ``repro.obs`` calls ``time.*`` directly except the default
clock here.

Metric-name convention (flat keys, dotted namespaces)::

    lock.acquires / lock.contended / lock.wait_us        threads/sync
    monitor.waits / monitor.wakeups / monitor.notifies   threads/sync
    thread.started / thread.finished / thread.start_latency_us
    pool.tasks / pool.task_us                            threads/pool
    mailbox.enqueued / mailbox.processed                 actors/system
    mailbox.latency_us / mailbox.depth / mailbox.depth_max
    coro.resumes / coro.resume_us / coro.ready_wait_us   coroutines
    coroutine.resumes / coroutine.resume_us              coroutines/core

Durations are recorded in **microseconds** (float) so the histogram
percentiles read naturally next to throughput numbers.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from .metrics import Histogram

__all__ = ["Profiler", "FakeClock", "wall_clock", "METRIC_NAMES"]

#: the obs layer's single source of wall-clock time
wall_clock: Callable[[], float] = time.perf_counter

#: every metric name the instrumented runtimes emit (the docstring's
#: convention table, machine-checkable)
METRIC_NAMES: tuple[str, ...] = (
    "lock.acquires", "lock.contended", "lock.wait_us",
    "monitor.waits", "monitor.wakeups", "monitor.notifies",
    "monitor.wait_us",
    "thread.started", "thread.finished", "thread.start_latency_us",
    "pool.tasks", "pool.task_us",
    "mailbox.enqueued", "mailbox.processed", "mailbox.latency_us",
    "mailbox.depth", "mailbox.depth_max", "mailbox.batch_size",
    "executor.steals", "executor.parks", "executor.local_hits",
    "cluster.local_fastpath",
    "coro.resumes", "coro.resume_us", "coro.ready_wait_us",
    "coro.parks", "coro.wakes",
    "coroutine.resumes", "coroutine.resume_us",
)


class FakeClock:
    """Deterministic clock for tests: each call advances by ``step``.

    ``FakeClock(step=0.001)()`` returns 0.0, 0.001, 0.002, ... — so any
    code path that brackets work with two clock reads measures exactly
    ``step`` seconds, run after run.
    """

    def __init__(self, step: float = 0.001, start: float = 0.0):
        self.step = step
        self.t = start
        self.calls = 0

    def __call__(self) -> float:
        value = self.t
        self.t += self.step
        self.calls += 1
        return value


class Profiler:
    """Counter/gauge/histogram sink the real runtimes write into.

    Create one, pass it to the primitives under test
    (``Monitor(profiler=...)``, ``ActorSystem(profiler=...)``,
    ``CoScheduler(profiler=...)`` ...), read :meth:`snapshot` when the
    workload finishes.  Thread-safe; share one instance across all the
    threads of a run.
    """

    __slots__ = ("clock", "counters", "gauges", "histograms", "_lock",
                 "_t0")

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock = clock if clock is not None else wall_clock
        self.counters: dict[str, int] = {}
        #: high-water marks (monotone max)
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()
        self._t0 = self.clock()

    # -- writers (called from runtime hot paths, profiler != None) ------
    def now(self) -> float:
        return self.clock()

    def elapsed(self) -> float:
        """Seconds since the profiler was created."""
        return self.clock() - self._t0

    def inc(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + delta

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.gauges.get(name, 0):
                self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record a raw value (depth, size ...) into a histogram."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.record(value)

    def observe_us(self, name: str, seconds: float) -> None:
        """Record a duration given in seconds, stored as microseconds."""
        self.observe(name, seconds * 1e6)

    def timed(self, name: str) -> "_Timed":
        """``with profiler.timed("phase"): ...`` — not for hot paths."""
        return _Timed(self, name)

    # -- readers --------------------------------------------------------
    #
    # Every reader below snapshots under ``_lock`` — the same lock every
    # writer holds — so a snapshot racing concurrent ``record()`` calls
    # can never observe a torn histogram (a count that doesn't match its
    # total/samples) or a counter mid-increment.  The telemetry agent
    # snapshots at heartbeat cadence from the cluster timer thread while
    # dispatch workers record; this consistency is load-bearing (and
    # regression-tested with a hammering thread).

    def get(self, name: str) -> int:
        with self._lock:
            return self.counters.get(name, 0)

    def rate(self, name: str) -> float:
        """Counter per elapsed second (0.0 when no time has passed)."""
        elapsed = self.elapsed()
        return self.get(name) / elapsed if elapsed > 0 else 0.0

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of everything collected (deterministic order)."""
        with self._lock:
            return {
                "counters": dict(sorted(self.counters.items())),
                "gauges": dict(sorted(self.gauges.items())),
                "histograms": {k: h.snapshot()
                               for k, h in sorted(self.histograms.items())},
            }

    def delta(self, cursor: dict, max_samples: int = 256) -> dict:
        """Changed-since-cursor view for the telemetry wire format.

        ``cursor`` is caller-owned state (start with ``{}``) updated in
        place; each call returns only what moved since the previous one:

        * ``counters``/``gauges`` — the *cumulative* value of every key
          that changed (cumulative, not differenced, so a lost telemetry
          frame only delays an update instead of corrupting totals);
        * ``hists`` — per histogram with new samples: cumulative
          ``count``/``total``/``min``/``max`` plus the new samples in
          insertion order, stride-downsampled to ``max_samples`` (the
          cumulative fields stay exact even when samples are thinned).

        The whole view is taken under the profiler lock, so the
        count/total/samples triple of one histogram is never torn by a
        concurrent ``record()``.
        """
        seen_counters = cursor.setdefault("counters", {})
        seen_gauges = cursor.setdefault("gauges", {})
        seen_hist = cursor.setdefault("hists", {})
        with self._lock:
            counters = {}
            for name, value in self.counters.items():
                if seen_counters.get(name) != value:
                    seen_counters[name] = counters[name] = value
            gauges = {}
            for name, value in self.gauges.items():
                if seen_gauges.get(name) != value:
                    seen_gauges[name] = gauges[name] = value
            hists = {}
            for name, h in self.histograms.items():
                start = seen_hist.get(name, 0)
                if h.count <= start:
                    continue
                new = h.samples_since(start)
                if len(new) > max_samples:
                    stride = len(new) / max_samples
                    new = [new[int(i * stride)] for i in range(max_samples)]
                hists[name] = {
                    "count": h.count, "total": h.total,
                    "min": h.min, "max": h.max,
                    "samples": [round(float(s), 3) for s in new],
                }
                seen_hist[name] = h.count
            return {"counters": counters, "gauges": gauges, "hists": hists}

    def format(self) -> str:
        """Human-readable table of the snapshot."""
        snap = self.snapshot()
        lines = []
        if snap["counters"]:
            lines.append("counters:")
            for name, value in snap["counters"].items():
                lines.append(f"  {name:<28} {value}")
        if snap["gauges"]:
            lines.append("gauges (high water):")
            for name, value in snap["gauges"].items():
                lines.append(f"  {name:<28} {value}")
        if snap["histograms"]:
            lines.append("histograms (us unless noted):")
            for name, h in snap["histograms"].items():
                lines.append(
                    f"  {name:<28} n={h['count']} mean={h['mean']:.1f} "
                    f"p50={h['p50']:.1f} p95={h['p95']:.1f} "
                    f"p99={h['p99']:.1f}")
        return "\n".join(lines) or "(profiler recorded nothing)"

    def __repr__(self) -> str:
        return (f"<Profiler {len(self.counters)} counters, "
                f"{len(self.histograms)} histograms>")


class _Timed:
    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: Profiler, name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Timed":
        self._t0 = self._profiler.now()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._profiler.observe_us(self._name,
                                  self._profiler.now() - self._t0)
