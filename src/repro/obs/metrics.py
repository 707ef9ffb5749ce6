"""The metrics registry every runtime writes into, and its primitives.

One :class:`Metrics` type serves the kernel and every real runtime;
what a run's numbers mean depends only on who writes them:

* the kernel's :class:`~repro.core.scheduler.Scheduler` (``metrics=``)
  writes *logical ticks* (scheduler step numbers) and never reads the
  registry's clock, so the same schedule always reports the same
  numbers — that is what makes kernel metrics usable as regression
  oracles;
* the real runtimes — threads, actors, coroutines, the cluster node
  (``profiler=``) — bracket work with :meth:`Metrics.now` and record
  wall-clock durations in microseconds with :meth:`Metrics.observe_us`.

The clock is **the** wall-clock seam for the obs layer: tests inject
:class:`FakeClock` and get deterministic latencies, and nothing in
``repro.obs`` calls ``time.*`` directly except :data:`wall_clock`.
Instrumentation is strictly opt-in: every instrumented primitive takes
``None`` by default and its hot path pays one ``is None`` test — no
allocation, no call — when nothing is attached.

:data:`METRIC_NAMES` lists every name the instrumented code emits
(see docs/OBSERVABILITY.md for their semantics).  Per-object kernel
families are ``fnmatch`` patterns: ``lock.*.acquires`` covers
``lock.buffer.acquires``.  Histogram names carry their unit
(``_ticks``, ``_us``) unless they hold a raw size or depth.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

__all__ = ["Histogram", "Metrics", "FakeClock", "wall_clock",
           "format_snapshot", "METRIC_NAMES"]

#: the obs layer's single source of wall-clock time
wall_clock: Callable[[], float] = time.perf_counter

#: every metric name the instrumented code emits, by writer
METRIC_NAMES: tuple[str, ...] = (
    # kernel scheduler (logical ticks) — the coroutine scheduler shares
    # context_switches and the tasks_* counters
    "steps", "context_switches", "enabled_fanout",
    "lock_acquires", "lock_contended", "lock_releases", "lock_wait_ticks",
    "lock.*.acquires", "lock.*.contended",
    "monitor_waits", "monitor_notifies",
    "messages_sent", "messages_delivered", "message_latency_ticks",
    "mailbox_depth", "mailbox_depth_max",
    "mailbox.*.sent", "mailbox.*.delivered", "mailbox.*.depth_max",
    "block_ticks", "tasks_spawned", "tasks_finished", "tasks_failed",
    # threads
    "lock.acquires", "lock.contended", "lock.wait_us",
    "monitor.waits", "monitor.wakeups", "monitor.notifies",
    "monitor.wait_us",
    "thread.started", "thread.finished", "thread.start_latency_us",
    "pool.tasks", "pool.task_us",
    # actors
    "mailbox.enqueued", "mailbox.processed", "mailbox.latency_us",
    "mailbox.depth", "mailbox.depth_max", "mailbox.batch_size",
    # coroutines
    "coro.resumes", "coro.resume_us", "coro.ready_wait_us",
    "coro.parks", "coro.wakes",
    "coroutine.resumes", "coroutine.resume_us",
    # cluster node
    "cluster.sent", "cluster.delivered", "cluster.local_fastpath",
    "cluster.mailbox_depth_max", "cluster.frames_out", "cluster.bytes_out",
    "cluster.frames_in", "cluster.bytes_in", "cluster.duplicates",
    "cluster.decode_errors", "cluster.retries", "cluster.dead_letters",
    "cluster.parks", "cluster.credit_wait_us", "cluster.staged",
    "cluster.resumes", "cluster.suspects", "cluster.downs",
    "cluster.telemetry_out", "cluster.telemetry_errors",
    "cluster.tick_errors",
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


class Histogram:
    """Summary of a numeric series: count/total/min/max/mean + percentiles.

    Deliberately not a bucketed histogram — the kernel's series are
    short and the consumers (CLI tables, JSON dumps, regression tests)
    want exact deterministic aggregates, not approximations.  The raw
    samples are retained so :meth:`percentile` can answer p50/p95/p99
    exactly (nearest-rank, so the result is always an observed value and
    identical across runs of the same schedule).
    """

    __slots__ = ("count", "total", "min", "max", "_samples", "_sorted",
                 "_dirty")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        #: raw samples in *insertion order* — consumers (the telemetry
        #: delta encoder) rely on ``_samples[n:]`` being "everything
        #: recorded after the first n", so percentile queries sort a
        #: cached copy instead of this list
        self._samples: list = []
        self._sorted: list = []
        self._dirty = False

    def record(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._samples.append(value)
        self._dirty = True

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s samples into this histogram, in place.

        Because samples are retained raw, the merge preserves exact
        percentile semantics: ``a.merge(b).percentile(p)`` equals the
        percentile of the union series recorded into one histogram —
        which is what lets the telemetry aggregator combine per-frame
        histogram buckets into sliding-window percentiles, and what
        ``merge_profiles`` cannot do from snapshots alone.  Returns
        ``self`` for chaining; ``other`` is not modified.
        """
        if other.count == 0:
            return self
        self.count += other.count
        self.total += other.total
        if self.min is None or (other.min is not None
                                and other.min < self.min):
            self.min = other.min
        if self.max is None or (other.max is not None
                                and other.max > self.max):
            self.max = other.max
        self._samples.extend(other._samples)
        self._dirty = True
        return self

    @classmethod
    def of(cls, samples) -> "Histogram":
        """A histogram pre-filled from an iterable of samples."""
        hist = cls()
        for value in samples:
            hist.record(value)
        return hist

    def samples_since(self, start: int) -> list:
        """Copy of every sample recorded after the first ``start``.

        Insertion-ordered (percentile queries never reorder the raw
        series), so a reader that remembers the last ``count`` it saw
        gets exactly the new samples — the telemetry delta encoding.
        """
        return self._samples[start:]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile of everything recorded (0 < p <= 100).

        Returns None for an empty histogram.  Nearest-rank rather than
        interpolation: the answer is always a value that actually
        occurred, which keeps regression baselines exact.
        """
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], not {p}")
        if not self._samples:
            return None
        if self._dirty:
            self._sorted = sorted(self._samples)
            self._dirty = False
        rank = max(1, -(-len(self._sorted) * p // 100))  # ceil
        return self._sorted[int(rank) - 1]

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(50)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(95)

    @property
    def p99(self) -> Optional[float]:
        return self.percentile(99)

    def snapshot(self) -> dict[str, Any]:
        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max,
                "mean": round(self.mean, 4),
                "p50": self.p50, "p95": self.p95, "p99": self.p99}

    def __repr__(self) -> str:
        return (f"<Histogram n={self.count} total={self.total} "
                f"min={self.min} max={self.max}>")


class Metrics:
    """Counter/gauge/histogram registry one run writes into.

    Create one, pass it to what you measure (``Scheduler(metrics=...)``,
    ``Monitor(profiler=...)``, ``ActorSystem(profiler=...)``,
    ``CoScheduler(profiler=...)`` ...) and read :meth:`snapshot` when
    the workload finishes.  A fresh instance per run keeps the numbers
    comparable across runs; sharing one accumulates.  Thread-safe: every
    writer and reader holds one internal lock, so a snapshot racing
    concurrent records never sees a torn histogram (a count that does
    not match its total) or a counter mid-increment — the telemetry
    agent reads :meth:`delta` from the cluster timer thread while
    dispatch workers record.
    """

    __slots__ = ("clock", "counters", "gauges", "histograms", "per_task",
                 "_lock")

    def __init__(self, clock: Callable[[], float] = wall_clock):
        self.clock = clock
        self.counters: dict[str, int] = {}
        #: high-water marks (monotone max)
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        #: task name -> {"steps": int, "block_ticks": int}
        self.per_task: dict[str, dict[str, int]] = {}
        self._lock = threading.Lock()

    # -- writers (called from hot paths, only when attached) ------------
    def now(self) -> float:
        return self.clock()

    def inc(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + delta

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.gauges.get(name, 0):
                self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record a raw value (ticks, depth, size ...) into a histogram."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.record(value)

    def observe_us(self, name: str, seconds: float) -> None:
        """Record a duration given in seconds, stored as microseconds."""
        self.observe(name, seconds * 1e6)

    def task_add(self, task_name: str, field: str, delta: int) -> None:
        with self._lock:
            stats = self.per_task.get(task_name)
            if stats is None:
                stats = self.per_task[task_name] = {"steps": 0,
                                                    "block_ticks": 0}
            stats[field] = stats.get(field, 0) + delta

    # -- readers --------------------------------------------------------
    def get(self, name: str) -> int:
        with self._lock:
            return self.counters.get(name, 0)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of everything collected (deterministic order)."""
        with self._lock:
            return {
                "counters": dict(sorted(self.counters.items())),
                "gauges": dict(sorted(self.gauges.items())),
                "histograms": {k: h.snapshot()
                               for k, h in sorted(self.histograms.items())},
                "per_task": {k: dict(v)
                             for k, v in sorted(self.per_task.items())},
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

        The whole view is taken under the registry lock, so the
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
        """Human-readable table of the snapshot (the ``repro stats`` view)."""
        return format_snapshot(self.snapshot())

    def __repr__(self) -> str:
        return (f"<Metrics {len(self.counters)} counters, "
                f"{len(self.histograms)} histograms>")


def format_snapshot(snap: dict[str, Any]) -> str:
    """Render a :meth:`Metrics.snapshot`-shaped dict as a table — one
    registry's, or several merged by
    :func:`~repro.cluster.observe.merge_profiles`."""
    lines = []
    if snap.get("counters"):
        lines.append("counters:")
        for name, value in sorted(snap["counters"].items()):
            lines.append(f"  {name:<32} {value:g}")
    if snap.get("gauges"):
        lines.append("gauges (high water):")
        for name, value in sorted(snap["gauges"].items()):
            lines.append(f"  {name:<32} {value:g}")
    if snap.get("histograms"):
        lines.append("histograms:")
        for name, h in sorted(snap["histograms"].items()):
            lines.append(
                f"  {name:<32} n={h['count']} min={h['min']:g} "
                f"mean={h['mean']:g} p50={h['p50']:g} p95={h['p95']:g} "
                f"p99={h['p99']:g} max={h['max']:g}")
    if snap.get("per_task"):
        lines.append("per task:")
        for name, stats in sorted(snap["per_task"].items()):
            lines.append(f"  {name:<32} steps={stats.get('steps', 0)} "
                         f"block_ticks={stats.get('block_ticks', 0)}")
    return "\n".join(lines) or "(nothing recorded)"
