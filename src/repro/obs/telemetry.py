"""The live telemetry plane — streaming metrics, SLOs, flight recording.

Everything observability built so far (PR 2–6) is post-hoc: profiles are
pulled after a run, traces merged offline, hazards detected in-process.
This module makes the cluster observable *while it runs*, in four
layers:

* :class:`TelemetryAgent` — attached to a :class:`ClusterNode`
  (``agent.attach(node)``), it snapshots the node's
  :class:`~repro.obs.Metrics` / ``executor_stats()`` / cluster
  delivery state at heartbeat cadence into **delta-encoded TELEMETRY
  frames** and broadcasts them to every ALIVE peer over the existing
  transport.  Frames are fire-and-forget but *loss-tolerant by
  construction*: counters ship their cumulative value (only for keys
  that changed), so a dropped frame delays an update instead of
  corrupting a total, and histogram samples ship as
  "new-since-last-frame" slices whose cumulative count/total stay exact
  even when the sample list is downsampled.
* :class:`Aggregator` — every agent feeds its own aggregator with local
  and received frames, so each node holds the whole cluster's sliding-
  window time series: counters become rates, gauges keep their latest
  value, and per-frame histogram buckets merge
  (:meth:`~repro.obs.metrics.Histogram.merge`) into exact window
  percentiles.
* :class:`SLOEngine` — declarative :class:`SLO` objects (p95 latency,
  error ratio, mailbox depth, credit-stall time) evaluated with
  **multi-window burn-rate alerting**: an alert fires only when the
  measurement breaches ``threshold x burn_rate`` over *both* the short
  and the long window (transient spikes don't page; sustained burns
  do), and resolves when the short window recovers.  Firing alerts are
  published as first-class :class:`~repro.obs.monitors.Hazard` records
  on a :class:`~repro.obs.monitors.MonitorBus` via ``publish``.
* :class:`FlightRecorder` — an always-on bounded ring of the node's
  cluster events (zero allocation while idle: the ring is preallocated
  and one tuple per event is the entire cost).  On actor failure,
  peer-DOWN, or alert fire the agent dumps a **postmortem bundle**:
  its own ring plus every reachable peer's (all pulled at once, under
  one 1 s deadline, via ``ClusterNode.flight_windows``), merged into a
  single Chrome trace with cross-node flow arrows, an ``explain``-style
  narrative, the active alerts, and the telemetry snapshot at the
  moment of failure.
  ``repro postmortem`` lists and unpacks the bundles; ``repro top``
  renders the aggregator live.

Wall-clock note: frames are stamped with ``time.time()`` (via the
agent's injectable ``time`` callable) because frames from different
processes must land on one comparable axis — the same reasoning as
:mod:`repro.cluster.observe`.  Node-internal cadence uses the node's
monotonic clock.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from .metrics import Histogram
from .monitors import Hazard, MonitorBus

__all__ = [
    "TimeSeries", "Aggregator", "SLO", "SLOEngine", "Alert",
    "FlightRecorder", "TelemetryAgent", "default_slos", "render_top",
]


# ===========================================================================
# sliding-window series
# ===========================================================================

class TimeSeries:
    """Bounded ``(ts, value)`` series with windowed rate/extremum queries.

    Retention is time-based (default 5 minutes): every append drops
    points older than ``retention`` seconds, so memory is bounded by
    frame cadence, not run length.
    """

    __slots__ = ("points", "retention")

    def __init__(self, retention: float = 300.0):
        self.points: deque = deque()
        self.retention = retention

    def add(self, ts: float, value: float) -> None:
        self.points.append((ts, value))
        cutoff = ts - self.retention
        while self.points and self.points[0][0] < cutoff:
            self.points.popleft()

    def latest(self) -> Optional[float]:
        return self.points[-1][1] if self.points else None

    def _floor(self, ts: float) -> Optional[tuple]:
        """Last point at or before ``ts`` (None when all are later)."""
        best = None
        for t, v in self.points:
            if t > ts:
                break
            best = (t, v)
        return best

    def rate(self, now: float, window: float) -> float:
        """Counter interpretation: increase per second over the window.

        Uses the last point at or before the window start as the base
        (falling back to the oldest point for short series), so a
        counter that stops moving decays to a zero rate as carried-
        forward points enter the window.
        """
        if len(self.points) < 2:
            return 0.0
        t1, v1 = self.points[-1]
        base = self._floor(now - window) or self.points[0]
        t0, v0 = base
        if t1 <= t0:
            return 0.0
        return max(0.0, (v1 - v0) / (t1 - t0))

    def delta(self, now: float, window: float) -> float:
        """Counter increase over the window (for ratio SLOs)."""
        if not self.points:
            return 0.0
        v1 = self.points[-1][1]
        base = self._floor(now - window) or self.points[0]
        return max(0.0, v1 - base[1])

    def window_max(self, now: float, window: float) -> float:
        """Gauge interpretation: maximum value observed in the window."""
        cutoff = now - window
        values = [v for t, v in self.points if t >= cutoff]
        if not values:
            return self.points[-1][1] if self.points else 0.0
        return max(values)

    def __len__(self) -> int:
        return len(self.points)


class _NodeSeries:
    """One node's telemetry state inside the aggregator."""

    __slots__ = ("counters", "gauges", "buckets", "hist_cum",
                 "last_seen", "frames", "lost", "last_seq", "missing")

    def __init__(self) -> None:
        self.counters: dict[str, TimeSeries] = {}
        self.gauges: dict[str, TimeSeries] = {}
        #: histogram name -> deque of (frame ts, per-frame Histogram)
        self.buckets: dict[str, deque] = {}
        #: histogram name -> last cumulative {"count","total","min","max"}
        self.hist_cum: dict[str, dict] = {}
        self.last_seen = 0.0
        self.frames = 0
        self.lost = 0          # gaps in the frame seq (dropped frames)
        self.last_seq = 0
        #: seqs counted as lost that may still arrive late — a late
        #: arrival is reordering, not loss, and backs the count out
        self.missing: set[int] = set()


class Aggregator:
    """Cluster-wide sliding-window time series built from frames.

    Thread-safe: frames arrive from the transport receive thread and
    the node's timer thread while ``repro top`` reads from the CLI
    thread.
    """

    def __init__(self, retention: float = 300.0,
                 clock: Optional[Callable[[], float]] = None):
        import time as _time
        self.retention = retention
        self.clock = clock if clock is not None else _time.time
        self._nodes: dict[str, _NodeSeries] = {}
        self._lock = threading.Lock()

    # -- ingest ---------------------------------------------------------
    def ingest(self, node: str, frame: dict) -> None:
        """Absorb one TELEMETRY frame (local or off the wire)."""
        ts = frame.get("ts")   # 0.0 is a valid stamp (injected clocks)
        ts = float(ts) if ts is not None else self.clock()
        with self._lock:
            ns = self._nodes.get(node)
            if ns is None:
                ns = self._nodes[node] = _NodeSeries()
            ns.frames += 1
            ns.last_seen = max(ns.last_seen, ts)
            seq = int(frame.get("seq") or 0)
            if seq:
                if ns.last_seq and seq > ns.last_seq + 1:
                    # a gap past the high-water mark looks like loss —
                    # but remember the hole (bounded), because UDP-ish
                    # transports reorder: if one of these seqs shows up
                    # late it was never lost and the count backs out
                    gap = seq - ns.last_seq - 1
                    ns.lost += gap
                    if gap <= 256 and len(ns.missing) < 1024:
                        ns.missing.update(range(ns.last_seq + 1, seq))
                elif seq in ns.missing:
                    ns.missing.discard(seq)
                    ns.lost -= 1
                # a duplicate (seq <= last_seq, not in missing) is a
                # no-op: replayed frames must not drive lost negative
                ns.last_seq = max(ns.last_seq, seq)

            changed = frame.get("counters") or {}
            for name, value in changed.items():
                series = ns.counters.get(name)
                if series is None:
                    series = ns.counters[name] = TimeSeries(self.retention)
                series.add(ts, float(value))
            # carry-forward: a counter absent from the frame did not
            # move — append its last value at this ts so rate windows
            # see the flat line and decay to zero instead of holding
            # the last burst forever
            for name, series in ns.counters.items():
                if name not in changed and series.points:
                    series.add(ts, series.points[-1][1])

            for name, value in (frame.get("gauges") or {}).items():
                series = ns.gauges.get(name)
                if series is None:
                    series = ns.gauges[name] = TimeSeries(self.retention)
                series.add(ts, float(value))

            cutoff = ts - self.retention
            for name, entry in (frame.get("hists") or {}).items():
                bucket = Histogram.of(entry.get("samples") or ())
                dq = ns.buckets.get(name)
                if dq is None:
                    dq = ns.buckets[name] = deque()
                if bucket.count:
                    dq.append((ts, bucket))
                while dq and dq[0][0] < cutoff:
                    dq.popleft()
                ns.hist_cum[name] = {
                    "count": entry.get("count", 0),
                    "total": entry.get("total", 0),
                    "min": entry.get("min"), "max": entry.get("max"),
                }

    # -- queries --------------------------------------------------------
    def nodes(self) -> list[str]:
        with self._lock:
            return sorted(self._nodes)

    def rate(self, node: str, name: str, window: float = 10.0,
             now: Optional[float] = None) -> float:
        now = self.clock() if now is None else now
        with self._lock:
            ns = self._nodes.get(node)
            series = ns.counters.get(name) if ns is not None else None
            return series.rate(now, window) if series is not None else 0.0

    def delta(self, node: str, name: str, window: float = 10.0,
              now: Optional[float] = None) -> float:
        now = self.clock() if now is None else now
        with self._lock:
            ns = self._nodes.get(node)
            series = ns.counters.get(name) if ns is not None else None
            return series.delta(now, window) if series is not None else 0.0

    def counter(self, node: str, name: str) -> float:
        """Latest cumulative value of a counter (0.0 when unseen)."""
        with self._lock:
            ns = self._nodes.get(node)
            series = ns.counters.get(name) if ns is not None else None
            value = series.latest() if series is not None else None
            return value if value is not None else 0.0

    def gauge(self, node: str, name: str, window: Optional[float] = None,
              now: Optional[float] = None) -> float:
        """Latest gauge value; with ``window``, the max over the window."""
        now = self.clock() if now is None else now
        with self._lock:
            ns = self._nodes.get(node)
            series = ns.gauges.get(name) if ns is not None else None
            if series is None:
                return 0.0
            if window is None:
                value = series.latest()
                return value if value is not None else 0.0
            return series.window_max(now, window)

    def window_histogram(self, node: str, name: str, window: float = 30.0,
                         now: Optional[float] = None) -> Histogram:
        """Merged histogram of every bucket inside the window."""
        now = self.clock() if now is None else now
        cutoff = now - window
        merged = Histogram()
        with self._lock:
            ns = self._nodes.get(node)
            dq = ns.buckets.get(name) if ns is not None else None
            if dq is not None:
                for ts, bucket in dq:
                    if ts >= cutoff:
                        merged.merge(bucket)
        return merged

    def percentile(self, node: str, name: str, p: float,
                   window: float = 30.0,
                   now: Optional[float] = None) -> Optional[float]:
        return self.window_histogram(node, name, window, now).percentile(p)

    def stall(self, node: str, name: str, window: float = 30.0,
              now: Optional[float] = None) -> float:
        """Total time (the histogram's unit, µs here) spent stalled in
        the window — the sum of every sample in the window's buckets."""
        return float(self.window_histogram(node, name, window, now).total)

    def cluster_rate(self, name: str, window: float = 10.0,
                     now: Optional[float] = None) -> float:
        now = self.clock() if now is None else now
        return sum(self.rate(node, name, window, now)
                   for node in self.nodes())

    def snapshot(self, window: float = 10.0,
                 now: Optional[float] = None) -> dict[str, Any]:
        """JSON-ready cluster view: rates, gauges, window percentiles."""
        now = self.clock() if now is None else now
        out: dict[str, Any] = {"ts": now, "window": window, "nodes": {}}
        for node in self.nodes():
            with self._lock:
                ns = self._nodes[node]
                counter_names = list(ns.counters)
                gauge_names = list(ns.gauges)
                hist_names = list(ns.buckets)
                meta = {"last_seen": ns.last_seen,
                        "age": round(max(0.0, now - ns.last_seen), 3),
                        "frames": ns.frames, "lost": ns.lost}
            rates = {name: round(self.rate(node, name, window, now), 3)
                     for name in sorted(counter_names)}
            gauges = {name: self.gauge(node, name)
                      for name in sorted(gauge_names)}
            hists = {}
            for name in sorted(hist_names):
                h = self.window_histogram(node, name, max(window, 30.0),
                                          now)
                if h.count:
                    hists[name] = {"count": h.count, "total": h.total,
                                   "mean": round(h.mean, 3),
                                   "p50": h.p50, "p95": h.p95,
                                   "p99": h.p99, "max": h.max}
            out["nodes"][node] = {**meta, "rates": rates,
                                  "gauges": gauges, "hists": hists}
        return out


# ===========================================================================
# SLOs with multi-window burn-rate alerting
# ===========================================================================

@dataclass(frozen=True)
class SLO:
    """One declarative service-level objective.

    ``metric`` is a tiny spec language over the aggregator:

    =================  ====================================================
    ``rate:NAME``      counter NAME's per-second rate over the window
    ``ratio:A/B``      counter A's window increase over counter B's
                       (0 when B did not move — no divide-by-zero pages)
    ``p95:NAME``       window percentile of histogram NAME (also p50/p99)
    ``gauge:NAME``     max value of gauge NAME over the window
    ``stall:NAME``     total µs accumulated by histogram NAME in-window
    =================  ====================================================

    The alert condition is the SRE burn-rate pattern: breach means
    ``measured >= threshold * burn_rate`` over **both** the short and
    the long window.  The long window proves the burn is sustained, the
    short window proves it is still happening (and drives resolution).
    """

    name: str
    metric: str
    threshold: float
    short_window: float = 5.0
    long_window: float = 60.0
    burn_rate: float = 1.0
    severity: str = "warning"
    description: str = ""

    def measure(self, agg: Aggregator, node: str, window: float,
                now: Optional[float] = None) -> float:
        kind, _, name = self.metric.partition(":")
        if kind == "rate":
            return agg.rate(node, name, window, now)
        if kind == "ratio":
            num, _, den = name.partition("/")
            bottom = agg.delta(node, den, window, now)
            if bottom <= 0:
                return 0.0
            return agg.delta(node, num, window, now) / bottom
        if kind in ("p50", "p95", "p99"):
            value = agg.percentile(node, name, float(kind[1:]), window, now)
            return value if value is not None else 0.0
        if kind == "gauge":
            return agg.gauge(node, name, window, now)
        if kind == "stall":
            return agg.stall(node, name, window, now)
        raise ValueError(f"unknown metric spec {self.metric!r}")


def default_slos() -> tuple[SLO, ...]:
    """The shipped objectives — one per telemetry-plane headline signal."""
    return (
        SLO("message-latency-p95", "p95:mailbox.latency_us",
            threshold=100_000.0, short_window=5.0, long_window=30.0,
            severity="warning",
            description="p95 local delivery latency stays under 100ms"),
        SLO("error-rate", "ratio:actor.failures/mailbox.processed",
            threshold=0.01, short_window=5.0, long_window=30.0,
            severity="error",
            description="fewer than 1% of processed messages fail"),
        SLO("mailbox-depth", "gauge:mailbox.depth",
            threshold=1024.0, short_window=5.0, long_window=30.0,
            severity="warning",
            description="total queued mail stays under 1024 messages"),
        SLO("credit-stall", "stall:cluster.credit_wait_us",
            threshold=1_000_000.0, short_window=5.0, long_window=30.0,
            severity="warning",
            description="senders spend under 1s/window parked on credit"),
    )


class Alert:
    """Mutable state of one (SLO, node) pair inside the engine."""

    __slots__ = ("slo", "node", "state", "fired_at", "resolved_at",
                 "short_value", "long_value")

    FIRING = "firing"
    RESOLVED = "resolved"

    def __init__(self, slo: SLO, node: str):
        self.slo = slo
        self.node = node
        self.state = Alert.RESOLVED
        self.fired_at = 0.0
        self.resolved_at = 0.0
        self.short_value = 0.0
        self.long_value = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {"slo": self.slo.name, "node": self.node,
                "state": self.state, "severity": self.slo.severity,
                "metric": self.slo.metric,
                "threshold": self.slo.threshold,
                "burn_rate": self.slo.burn_rate,
                "short_value": round(self.short_value, 3),
                "long_value": round(self.long_value, 3),
                "fired_at": self.fired_at,
                "resolved_at": self.resolved_at}

    def __repr__(self) -> str:
        return f"<Alert {self.slo.name}@{self.node} {self.state}>"


class SLOEngine:
    """Evaluate SLOs against an aggregator; publish burns as hazards.

    ``evaluate`` is called at frame cadence.  A fire publishes one
    :class:`Hazard` on the bus (``slo-burn:<name>``; the MonitorBus
    dedups on (kind, message), so a re-fire on the same node after a
    resolve publishes again only if the message changed — the hazard
    log stays readable) and invokes ``on_fire(alert)`` — the agent's
    postmortem trigger.
    """

    def __init__(self, slos: Optional[Iterable[SLO]] = None,
                 bus: Optional[MonitorBus] = None,
                 on_fire: Optional[Callable[[Alert], None]] = None):
        self.slos: tuple[SLO, ...] = tuple(
            slos if slos is not None else default_slos())
        self.bus = bus
        self.on_fire = on_fire
        self._alerts: dict[tuple[str, str], Alert] = {}

    def evaluate(self, agg: Aggregator,
                 now: Optional[float] = None) -> list[Alert]:
        """One evaluation pass; returns alerts that newly fired."""
        now = agg.clock() if now is None else now
        fired = []
        for slo in self.slos:
            bar = slo.threshold * slo.burn_rate
            for node in agg.nodes():
                short = slo.measure(agg, node, slo.short_window, now)
                long = slo.measure(agg, node, slo.long_window, now)
                alert = self._alerts.get((slo.name, node))
                if alert is None:
                    alert = self._alerts[(slo.name, node)] = \
                        Alert(slo, node)
                alert.short_value, alert.long_value = short, long
                if short >= bar and long >= bar:
                    if alert.state != Alert.FIRING:
                        alert.state = Alert.FIRING
                        alert.fired_at = now
                        fired.append(alert)
                        self._publish(alert)
                        if self.on_fire is not None:
                            self.on_fire(alert)
                elif alert.state == Alert.FIRING and short < bar:
                    alert.state = Alert.RESOLVED
                    alert.resolved_at = now
        return fired

    def _publish(self, alert: Alert) -> None:
        if self.bus is None:
            return
        slo = alert.slo
        self.bus.publish(Hazard(
            kind=f"slo-burn:{slo.name}", severity=slo.severity,
            step=0, tasks=(alert.node,), objects=(slo.metric,),
            message=f"SLO {slo.name!r} burning on node {alert.node!r}: "
                    f"{slo.metric} = {alert.short_value:.3g} (short) / "
                    f"{alert.long_value:.3g} (long) >= "
                    f"{slo.threshold * slo.burn_rate:.3g}"
                    + (f" — {slo.description}" if slo.description else "")))

    def alerts(self) -> list[Alert]:
        return [self._alerts[k] for k in sorted(self._alerts)]

    def active(self) -> list[Alert]:
        return [a for a in self.alerts() if a.state == Alert.FIRING]

    def as_dicts(self) -> list[dict[str, Any]]:
        return [a.as_dict() for a in self.alerts()]


# ===========================================================================
# flight recorder
# ===========================================================================

class FlightRecorder:
    """Always-on bounded window of cluster events for postmortems.

    Recording is *lock-free*: one tuple appended to a bounded deque
    (``deque.append`` with ``maxlen`` is atomic under the GIL, evicting
    the oldest entry in O(1)), because this runs per message on the
    cluster hot path where even an uncontended lock acquisition is
    measurable at six figures of events per second.  The total-events
    counter is maintained racily and may undercount by a hair under
    heavy cross-thread fire — it feeds a telemetry gauge and the dump's
    step base, both of which only need monotonicity, not exactness.
    ``dump`` returns the surviving window oldest-first as
    :class:`~repro.cluster.observe.ClusterEvent`-compatible dicts, so a
    dump slots straight into ``merge_chrome_traces``.
    """

    __slots__ = ("node", "capacity", "_dq", "_n")

    def __init__(self, capacity: int = 2048, node: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.node = node
        self.capacity = capacity
        self._dq: deque = deque(maxlen=capacity)
        self._n = 0

    def record(self, kind: str, actor: str = "", peer: str = "",
               msg_seq: Optional[int] = None,
               recv_seq: Optional[int] = None, ts: float = 0.0,
               extra: Optional[dict] = None) -> None:
        self._n += 1
        self._dq.append((kind, actor, peer, msg_seq, recv_seq, ts, extra))

    def __len__(self) -> int:
        return len(self._dq)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (>= len once the window filled)."""
        return self._n

    def dump(self) -> list[dict]:
        raw = list(self._dq.copy())      # deque.copy is a GIL-atomic C op
        base = max(0, self._n - len(raw))
        return [{"kind": kind, "node": self.node, "actor": actor,
                 "peer": peer, "step": base + i, "ts": ts,
                 "msg_seq": msg_seq, "recv_seq": recv_seq,
                 "extra": extra or {}}
                for i, (kind, actor, peer, msg_seq, recv_seq, ts,
                        extra) in enumerate(raw)]


# ===========================================================================
# the agent
# ===========================================================================

class TelemetryAgent:
    """Per-node telemetry: collect, ship, aggregate, alert, record.

    Attach with ``agent.attach(node)`` (or construct the node and call
    ``node.attach_telemetry(agent)`` — same thing).  The node then

    * feeds every cluster event into the agent's flight recorder,
    * calls :meth:`on_tick` from its timer (frames go out at
      ``config.telemetry_interval``, defaulting to the heartbeat
      interval — telemetry piggybacks the cadence that already proves
      liveness),
    * routes received TELEMETRY frames to :meth:`on_frame`, and
    * reports incidents (actor failure, peer DOWN) to
      :meth:`incident`, which — like an SLO alert firing — dumps a
      postmortem bundle, rate-limited by ``postmortem_cooldown``.

    Every agent aggregates the whole cluster (frames are broadcast), so
    ``repro top`` can ask any node for the full picture.
    """

    def __init__(self, interval: Optional[float] = None,
                 aggregator: Optional[Aggregator] = None,
                 slos: Optional[Iterable[SLO]] = None,
                 bus: Optional[MonitorBus] = None,
                 recorder_capacity: int = 2048,
                 postmortem_dir: Optional[str] = None,
                 postmortem_cooldown: float = 5.0,
                 eval_interval: Optional[float] = None,
                 time_source: Optional[Callable[[], float]] = None):
        import time as _time
        self.node: Optional[Any] = None
        self.interval = interval
        #: SLO evaluation pays a window-histogram merge per percentile
        #: objective, so it runs on its own (slower) cadence: burn
        #: windows are >= 5s, evaluating more than ~1/s buys nothing
        self.eval_interval = eval_interval
        self.time = time_source if time_source is not None else _time.time
        self.aggregator = aggregator if aggregator is not None \
            else Aggregator(clock=self.time)
        self.bus = bus
        self.engine = SLOEngine(slos, bus=bus, on_fire=self._on_alert)
        self.recorder = FlightRecorder(recorder_capacity)
        self.postmortem_dir = postmortem_dir
        self.postmortem_cooldown = postmortem_cooldown
        self.postmortems: list[dict] = []
        self._cursor: dict = {}
        self._extra_seen: dict[str, float] = {}
        self._seq = 0
        self._last_tick: Optional[float] = None
        self._last_eval: Optional[float] = None
        self._pm_last: Optional[float] = None
        self._pm_seq = 0
        self._pm_lock = threading.Lock()

    def attach(self, node: Any) -> "TelemetryAgent":
        node.attach_telemetry(self)
        return self

    # -- frame production -----------------------------------------------
    def _put_counter(self, frame: dict, name: str, value: float) -> None:
        """Delta-encode a non-profiler counter: changed keys only."""
        if self._extra_seen.get(name) != value:
            self._extra_seen[name] = value
            frame["counters"][name] = value

    def collect(self) -> dict[str, Any]:
        """Build one delta-encoded frame from the node's live state."""
        node = self.node
        self._seq += 1
        frame: dict[str, Any] = {
            "v": 1, "seq": self._seq, "node": node.name,
            "ts": self.time(), "counters": {}, "gauges": {}, "hists": {},
        }
        if node.profiler is not None:
            d = node.profiler.delta(self._cursor)
            frame["counters"].update(d["counters"])
            frame["gauges"].update(d["gauges"])
            frame["hists"].update(d["hists"])
        stats = node.system.executor_stats()
        for key in ("executed", "local_hits"):
            self._put_counter(frame, f"executor.{key}", stats[key])
        self._put_counter(frame, "actor.failures",
                          len(node.system.failures()))
        self._put_counter(frame, "cluster.dead_letters",
                          len(node.system.dead_letters))
        self._put_counter(frame, "flight.recorded", self.recorder.recorded)
        # protocol-conformance hazards from the node's monitor bus:
        # per-protocol violation counters plus one roll-up gauge, so
        # ``repro top`` surfaces non-conforming conversations per node
        bus = getattr(node, "monitors", None)
        if bus is not None:
            total = 0
            for det in getattr(bus, "detectors", ()):
                if hasattr(det, "protocols") and hasattr(det, "counts"):
                    for pname, n in det.counts().items():
                        self._put_counter(frame, f"protocol:{pname}", n)
                        total += n
            if total:
                frame["gauges"]["protocol.violations"] = total
        # instantaneous gauges, re-sampled every frame
        frame["gauges"]["executor.queued"] = stats.get("queued", 0)
        frame["gauges"]["mailbox.depth"] = self._mailbox_depth(node)
        frame["gauges"]["cluster.staged"] = node._staged_total
        return frame

    @staticmethod
    def _mailbox_depth(node: Any) -> int:
        # every runtime a node hosts hands out ActorRefs whose
        # ``pending`` is the len() of the cell's mailbox: it cannot raise
        return sum(ref.pending for ref in list(node._actors.values()))

    # -- node callbacks -------------------------------------------------
    def on_tick(self, now: float) -> bool:
        """Node timer callback: ship a frame when the cadence is due.

        ``now`` is in the *node's* clock domain (monotonic by default),
        used only for cadence; the frame itself is stamped with
        ``self.time()``.
        """
        node = self.node
        if node is None:
            return False
        interval = self.interval
        if interval is None:
            interval = node.config.telemetry_interval
        if interval is None:
            interval = node.config.heartbeat_interval
        if self._last_tick is not None \
                and now - self._last_tick < interval:
            return False
        self._last_tick = now
        frame = self.collect()
        self.aggregator.ingest(node.name, frame)
        for peer, state in node.peers().items():
            if state == "alive":
                node._send_telemetry(peer, frame)
        eval_every = self.eval_interval
        if eval_every is None:
            eval_every = max(1.0, interval)
        if self._last_eval is None \
                or now - self._last_eval >= eval_every:
            self._last_eval = now
            self.engine.evaluate(self.aggregator)
        return True

    def on_frame(self, origin: str, payload: Any) -> None:
        """A TELEMETRY frame arrived from a peer."""
        if not isinstance(payload, dict):
            return
        self.aggregator.ingest(payload.get("node") or origin, payload)

    # -- incidents / postmortems ----------------------------------------
    def _on_alert(self, alert: Alert) -> None:
        self.incident(f"slo-burn:{alert.slo.name}", alert.as_dict())

    def incident(self, kind: str, detail: Optional[dict] = None,
                 force: bool = False) -> Optional[dict]:
        """Something went wrong — dump a postmortem bundle (rate-limited).

        Returns the bundle, or None when inside the cooldown window.
        ``force=True`` bypasses the cooldown — used by the node's
        graceful stop, whose final bundle must not be swallowed just
        because an alert fired moments earlier.  Never raises: a
        postmortem must not take down the path that triggered it.
        """
        now = self.time()
        with self._pm_lock:
            if not force and self._pm_last is not None \
                    and now - self._pm_last < self.postmortem_cooldown:
                return None
            self._pm_last = now
            self._pm_seq += 1
            seq = self._pm_seq
        try:
            bundle = self.build_postmortem(kind, detail, seq=seq, now=now)
        except Exception:
            return None
        self.postmortems.append(bundle)
        if self.postmortem_dir:
            try:
                os.makedirs(self.postmortem_dir, exist_ok=True)
                path = os.path.join(self.postmortem_dir,
                                    f"pm-{seq:03d}-{_slug(kind)}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(bundle, fh, indent=1, default=str)
                bundle["path"] = path
            except OSError:
                pass
        return bundle

    def build_postmortem(self, kind: str, detail: Optional[dict] = None,
                         seq: int = 0,
                         now: Optional[float] = None) -> dict[str, Any]:
        """Assemble the merged bundle (no rate limit, no file I/O)."""
        # lazy: obs.telemetry must stay importable without the cluster
        # package (and the cluster imports obs — no import cycle)
        from ..cluster.observe import merge_chrome_traces
        from .explain import postmortem_narrative
        node = self.node
        now = self.time() if now is None else now
        node_events: dict[str, list] = {}
        if node is not None:
            self.recorder.node = node.name
            node_events[node.name] = self.recorder.dump()
            alive = [peer for peer, state in node.peers().items()
                     if state == "alive"]
            try:
                node_events.update(node.flight_windows(alive))
            except Exception:
                pass
        alerts = self.engine.as_dicts()
        bundle = {
            "v": 1, "seq": seq, "kind": kind,
            "node": node.name if node is not None else "",
            "ts": now, "detail": detail or {},
            "alerts": alerts,
            "telemetry": self.aggregator.snapshot(now=now),
            "events": {n: len(evs) for n, evs in node_events.items()},
            "trace": merge_chrome_traces(node_events),
            "narrative": postmortem_narrative(kind, detail, node_events,
                                              alerts),
        }
        return bundle

    # -- read side ------------------------------------------------------
    def snapshot(self, window: float = 10.0) -> dict[str, Any]:
        """Aggregated cluster view + alert states (JSON-ready)."""
        snap = self.aggregator.snapshot(window=window)
        snap["alerts"] = self.engine.as_dicts()
        snap["postmortems"] = len(self.postmortems)
        return snap


def _slug(kind: str) -> str:
    return "".join(c if c.isalnum() or c == "-" else "-" for c in kind)


# ===========================================================================
# repro top rendering
# ===========================================================================

_ANSI = {"reset": "\x1b[0m", "bold": "\x1b[1m", "dim": "\x1b[2m",
         "red": "\x1b[31m", "yellow": "\x1b[33m", "green": "\x1b[32m"}


def render_top(snapshot: dict[str, Any], color: bool = True,
               clear: bool = False) -> str:
    """One ``repro top`` screen from a :meth:`TelemetryAgent.snapshot`.

    Pure function of the snapshot so tests can pin the layout; ANSI is
    additive (``color=False`` yields plain text for ``--json``-adjacent
    piping and dumb terminals).
    """
    def paint(text: str, *styles: str) -> str:
        if not color:
            return text
        return "".join(_ANSI[s] for s in styles) + text + _ANSI["reset"]

    alerts = snapshot.get("alerts") or []
    firing = {(a["node"], a["slo"]): a for a in alerts
              if a.get("state") == "firing"}
    lines = []
    if clear:
        lines.append("\x1b[2J\x1b[H" if color else "")
    window = snapshot.get("window", 10.0)
    lines.append(paint(f"repro top — {len(snapshot.get('nodes') or {})} "
                       f"node(s), {window:g}s window", "bold"))
    header = (f"{'NODE':<12} {'OPS/S':>10} {'DELIVER/S':>10} "
              f"{'DEPTH':>7} {'STAGED':>7} {'STALL MS':>9} "
              f"{'P95 US':>9} {'AGE':>5}  ALERTS")
    lines.append(paint(header, "dim"))
    for name in sorted(snapshot.get("nodes") or {}):
        ns = snapshot["nodes"][name]
        rates = ns.get("rates") or {}
        gauges = ns.get("gauges") or {}
        hists = ns.get("hists") or {}
        ops = rates.get("mailbox.processed",
                        rates.get("executor.executed", 0.0))
        deliver = rates.get("cluster.delivered", 0.0)
        depth = gauges.get("mailbox.depth", 0)
        staged = gauges.get("cluster.staged", 0)
        stall_ms = (hists.get("cluster.credit_wait_us") or {}) \
            .get("total", 0.0) / 1000.0
        p95 = (hists.get("mailbox.latency_us") or {}).get("p95")
        mine = [slo for (node, slo) in firing if node == name]
        badge = paint(" ".join(sorted(mine)), "red", "bold") if mine \
            else paint("ok", "green")
        row = (f"{name:<12} {ops:>10.1f} {deliver:>10.1f} "
               f"{int(depth):>7} {int(staged):>7} "
               f"{(stall_ms or 0.0):>9.1f} "
               f"{(p95 if p95 is not None else 0.0):>9.1f} "
               f"{ns.get('age', 0.0):>5.1f}  {badge}")
        lines.append(paint(row, "red") if mine else row)
    if not snapshot.get("nodes"):
        lines.append(paint("  (no telemetry frames yet)", "dim"))
    for name in sorted(snapshot.get("nodes") or {}):
        ns = snapshot["nodes"][name]
        pv = (ns.get("gauges") or {}).get("protocol.violations")
        if pv:
            protos = sorted(k.split(":", 1)[1]
                            for k, v in (ns.get("rates") or {}).items()
                            if k.startswith("protocol:") and v > 0)
            detail = f" ({', '.join(protos)})" if protos else ""
            lines.append(paint(
                f"  PROTO {int(pv)} protocol violation(s) on "
                f"{name}{detail}", "red"))
    resolved = [a for a in alerts if a.get("state") != "firing"
                and a.get("fired_at")]
    for a in sorted(firing.values(),
                    key=lambda a: (a["node"], a["slo"])):
        # snapshots may come off the wire: render what the dict has
        lines.append(paint(
            f"  ALERT {a['slo']} on {a['node']}: {a.get('metric', '?')}"
            f" = {a.get('short_value', '?')} (short) / "
            f"{a.get('long_value', '?')} (long) "
            f">= {a.get('threshold', '?')}", "red"))
    if resolved:
        lines.append(paint(f"  {len(resolved)} resolved alert(s)", "dim"))
    return "\n".join(lines)
