"""Cross-process observability for the cluster runtime.

Three pieces let the PR 2–4 tooling see through process boundaries:

* :class:`ClusterEvent` — the one record of a node event: the trace
  log, the flight recorder and the monitor bus hold it, STATUS replies
  and flight dumps ship its dict form.  The bus hands it to each
  detector's ``on_cluster``; the kernel's
  :class:`~repro.obs.monitors.KernelView` never sees it.
* :func:`merge_profiles` / :func:`merge_chrome_traces` — fold per-node
  :class:`~repro.obs.Metrics` snapshots into one snapshot-shaped
  report (counters sum, gauges max, histograms stay per-node —
  percentiles do not merge) and per-node event logs into one Chrome
  trace where each node is a ``pid`` and send→receive pairs become
  flow arrows that survive the process boundary.  Cluster timestamps are ``time.time()``
  on purpose: wall clocks are comparable across same-host processes,
  ``perf_counter`` is not.
* :class:`ClusterSaturationDetector` / :class:`SuspectLossDetector` —
  MonitorBus detectors for the two distributed hazards the single
  process never sees: remote mailbox saturation (senders parking on
  credit) and possible message loss to a suspected/dead node.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple, Optional

from ..obs.monitors import Detector, Hazard, MonitorBus

__all__ = ["ClusterEvent", "ClusterSaturationDetector",
           "SuspectLossDetector", "cluster_detectors", "cluster_bus",
           "merge_profiles", "merge_chrome_traces"]


class ClusterEvent(NamedTuple):
    """One node-level occurrence (send, receive, retry, suspect, ...).

    ``step`` numbers the node's events; ``msg_seq``/``recv_seq`` are
    the flow id of a message sent/received, equal on both link ends;
    ``extra`` holds the kind's details (``None`` when it has none).
    ``_asdict()`` is the dict form shipped in STATUS replies and
    flight dumps; ``ClusterEvent(**d)`` reads it back.
    """

    kind: str
    node: str
    actor: str = ""
    peer: str = ""
    step: int = 0
    ts: float = 0.0
    msg_seq: Optional[int] = None
    recv_seq: Optional[int] = None
    extra: Optional[dict] = None


# ===========================================================================
# detectors
# ===========================================================================

class ClusterSaturationDetector(Detector):
    """Remote mailbox saturation: staged backlog + parked senders.

    Fires ``cluster-mailbox-saturation`` (warning) when a receiving
    node's staging queue for one actor reaches ``staged_threshold``
    (the bounded mailbox is full and arrivals keep coming), and
    ``cluster-backpressure`` (info) the first time a sending thread
    parks on a credit gate — evidence the protocol is actually slowing
    the producer rather than buffering without bound.
    """

    name = "cluster-saturation"

    def __init__(self, staged_threshold: int = 8):
        self.staged_threshold = staged_threshold
        self._saturated: set = set()
        self._parked: set = set()

    def on_cluster(self, event) -> Iterable[Hazard]:
        kind = event.kind
        if kind == "cluster-stage":
            staged = event.extra.get("staged", 0)
            target = (event.node, event.actor)
            if staged >= self.staged_threshold \
                    and target not in self._saturated:
                self._saturated.add(target)
                yield Hazard(
                    kind="cluster-mailbox-saturation", severity="warning",
                    step=event.step, tasks=(f"{event.node}/{event.actor}",),
                    objects=(event.actor,),
                    message=f"remote mailbox of {event.actor!r} on node "
                            f"{event.node!r} is full and {staged} more "
                            f"messages are staged: senders outpace the "
                            f"consumer (credit window exhausted)")
        elif kind == "cluster-park":
            path = event.extra.get("path", event.actor)
            if path not in self._parked:
                self._parked.add(path)
                yield Hazard(
                    kind="cluster-backpressure", severity="info",
                    step=event.step, tasks=(f"{event.node}/{event.actor}",),
                    objects=(path,),
                    message=f"sender on node {event.node!r} parked on "
                            f"credit for {path!r}: backpressure is "
                            f"propagating to the producer")


class SuspectLossDetector(Detector):
    """Possible message loss around suspected / down nodes.

    ``cluster-suspect-loss`` (warning) when a peer turns SUSPECT while
    reliable envelopes to it are unacknowledged; ``cluster-node-down``
    (error) when the failure detector declares a peer DOWN; and
    ``cluster-message-loss`` (error) when a reliable envelope exhausts
    its retries and dead-letters.
    """

    name = "cluster-suspect-loss"

    def __init__(self) -> None:
        self._suspected: set = set()
        self._down: set = set()
        self._lost = 0

    def on_cluster(self, event) -> Iterable[Hazard]:
        kind = event.kind
        if kind == "cluster-suspect":
            unacked = event.extra.get("unacked", 0)
            key = (event.node, event.peer)
            if unacked > 0 and key not in self._suspected:
                self._suspected.add(key)
                yield Hazard(
                    kind="cluster-suspect-loss", severity="warning",
                    step=event.step, tasks=(event.peer,),
                    message=f"node {event.node!r} suspects peer "
                            f"{event.peer!r} with {unacked} "
                            f"unacknowledged envelope(s) in flight — "
                            f"they may be lost if the peer is down")
        elif kind == "cluster-down":
            key = (event.node, event.peer)
            if key not in self._down:
                self._down.add(key)
                yield Hazard(
                    kind="cluster-node-down", severity="error",
                    step=event.step, tasks=(event.peer,),
                    message=f"node {event.node!r} declared peer "
                            f"{event.peer!r} DOWN: pending traffic "
                            f"dead-letters, watchers receive node-down "
                            f"signals")
        elif kind == "cluster-dead-letter" \
                and "undeliverable" in event.extra.get("why", ""):
            self._lost += 1
            if self._lost == 1:
                yield Hazard(
                    kind="cluster-message-loss", severity="error",
                    step=event.step, objects=(event.actor,),
                    message=f"reliable envelope to {event.actor!r} "
                            f"exhausted its retries and was dead-"
                            f"lettered: {event.extra.get('why', '')}")


def cluster_detectors() -> list[Detector]:
    """Fresh instances of the cluster-specific detectors."""
    return [ClusterSaturationDetector(), SuspectLossDetector()]


def cluster_bus(protocols: Optional[Iterable[Any]] = None) -> MonitorBus:
    """A MonitorBus wired with only the cluster detectors — the usual
    companion of ``ClusterNode(monitors=...)``.

    The bus sees a node's rare events (park, stage, retry, suspect,
    down, dead letter, ...), which the two detectors read; per-message
    send/recv/local events go only to the trace log and the flight
    recorder.  ``protocols`` adds a :class:`~repro.obs.ProtocolMonitor`
    over the given :class:`~repro.obs.Protocol` specs; the node finds
    it by its conformance rows and checks every send, delivery and
    local fast-path message against them inline (no sampling)."""
    detectors = cluster_detectors()
    if protocols is not None:
        from ..obs.protocol import ProtocolMonitor
        detectors.append(ProtocolMonitor(protocols))
    return MonitorBus(detectors=detectors)


# ===========================================================================
# profile merging
# ===========================================================================

def merge_profiles(snapshots: dict[str, dict]) -> dict[str, Any]:
    """Fold per-node profiler snapshots into one cluster-wide report.

    Counters sum and gauges max across nodes (both are well-defined
    under union); histogram *percentiles* are not mergeable from
    snapshots, so histograms keep their numbers per node under
    ``node:name`` keys rather than pretending p99s add up.  The result
    is snapshot-shaped, so :func:`~repro.obs.metrics.format_snapshot`
    renders it.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for node in sorted(snapshots):
        snap = snapshots[node] or {}
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in (snap.get("gauges") or {}).items():
            gauges[name] = max(gauges.get(name, value), value)
        for name, stats in (snap.get("histograms") or {}).items():
            histograms[f"{node}:{name}"] = stats
    return {"nodes": sorted(snapshots), "counters": counters,
            "gauges": gauges, "histograms": histograms}


# ===========================================================================
# chrome trace merging
# ===========================================================================

def merge_chrome_traces(node_events: dict[str, list]) -> dict[str, Any]:
    """Per-node event logs -> one Chrome ``traceEvents`` object.

    Each node becomes a Chrome *process* (``pid``); every event is an
    instant on that process's timeline; and a ``cluster-send`` pairs
    with the ``cluster-recv`` of the same flow id as an ``s``→``f``
    flow arrow, drawing the message's hop across the process boundary.
    Load the result in ``chrome://tracing`` / Perfetto.

    ``node_events`` values may be :class:`ClusterEvent` records or their
    dict forms (as shipped in STATUS replies and flight dumps).
    """
    normalized: dict[str, list[ClusterEvent]] = {}
    t0 = None
    for node in sorted(node_events):
        events = [e if isinstance(e, ClusterEvent) else ClusterEvent(**e)
                  for e in node_events[node]]
        normalized[node] = events
        for e in events:
            if e.ts and (t0 is None or e.ts < t0):
                t0 = e.ts
    t0 = t0 or 0.0

    out: list[dict[str, Any]] = []
    for pid, node in enumerate(sorted(normalized), start=1):
        out.append({"ph": "M", "pid": pid, "tid": 0,
                    "name": "process_name", "args": {"name": node}})
        for e in normalized[node]:
            ts = max(0.0, (e.ts - t0)) * 1e6
            extra = e.extra or {}
            out.append({
                "ph": "i", "s": "t", "pid": pid, "tid": 1, "ts": ts,
                "name": e.kind, "cat": "cluster",
                "args": {"actor": e.actor, "peer": e.peer,
                         "step": e.step, **extra},
            })
            # a traced message carries its request id onto the flow
            # arrow, so Perfetto can filter one request's hops out of
            # the whole cluster's arrows
            req = extra.get("request_id")
            if e.msg_seq is not None:
                rec: dict[str, Any] = {
                    "ph": "s", "pid": pid, "tid": 1, "ts": ts,
                    "name": "cluster-msg", "cat": "cluster-flow",
                    "id": e.msg_seq}
                if req is not None:
                    rec["args"] = {"request_id": req}
                out.append(rec)
            if e.recv_seq is not None:
                rec = {"ph": "f", "bp": "e", "pid": pid, "tid": 1,
                       "ts": ts, "name": "cluster-msg",
                       "cat": "cluster-flow", "id": e.recv_seq}
                if req is not None:
                    rec["args"] = {"request_id": req}
                out.append(rec)
    return {"traceEvents": out, "displayTimeUnit": "ms"}
