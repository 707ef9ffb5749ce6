"""Cross-process observability: merged profiles/traces + detectors.

Covers the three bridges between the cluster and the PR 2–4 tooling:
``ClusterEvent`` reaching the cluster detectors on a MonitorBus and
never the kernel view, per-node profile snapshots folding into one report,
and per-node event logs folding into one Chrome trace whose
send→receive flow arrows survive the process boundary.  Ends with an
integration check: a real loopback saturation run fires the cluster
detectors on a live node.
"""

import threading
import time

from repro.actors import Actor
from repro.cluster import (
    ClusterConfig,
    ClusterNode,
    LoopbackHub,
    cluster_bus,
)
from repro.cluster.observe import (
    ClusterEvent,
    ClusterSaturationDetector,
    SuspectLossDetector,
    cluster_detectors,
    merge_chrome_traces,
    merge_profiles,
)
from repro.obs import (KernelView, Metrics, MonitorBus, default_detectors,
                       format_snapshot)


# ---------------------------------------------------------------------------
# ClusterEvent
# ---------------------------------------------------------------------------

def test_cluster_event_dict_roundtrip():
    e = ClusterEvent("cluster-send", "a", actor="pinger", peer="b",
                     step=3, ts=12.5, msg_seq=77, extra={"seq": 1})
    back = ClusterEvent(**e._asdict())
    assert back == e
    assert back.kind == "cluster-send" and back.node == "a"
    assert back.actor == "pinger" and back.peer == "b"
    assert back.step == 3 and back.ts == 12.5
    assert back.msg_seq == 77 and back.recv_seq is None
    assert back.extra == {"seq": 1}


def test_cluster_event_reaches_only_cluster_detectors():
    """Cluster events fed to a bus that also carries every kernel
    detector raise only cluster hazards, and the kernel view never
    sees them."""
    bus = MonitorBus(default_detectors() + cluster_detectors())
    for e in (ClusterEvent("cluster-send", "a", actor="p", peer="b",
                           step=1, msg_seq=7),
              ClusterEvent("cluster-recv", "b", actor="sink", peer="a",
                           step=1, recv_seq=7),
              ClusterEvent("cluster-stage", "b", actor="sink", step=2,
                           extra={"staged": 99}),
              ClusterEvent("cluster-failure", "b", actor="sink", step=3,
                           extra={"error": "boom"}),
              ClusterEvent("cluster-down", "a", peer="b", step=4)):
        bus.feed_cluster(e)
    bus.finish()
    assert bus.events_seen == 5
    assert sorted(h.kind for h in bus.hazards) == [
        "cluster-mailbox-saturation", "cluster-node-down"]
    assert vars(bus.view) == vars(KernelView())


def test_flow_ids_stable_across_hash_randomization():
    """Flow ids pair events minted by *different* processes, so they
    must not depend on PYTHONHASHSEED — the builtin ``hash`` of a
    string differs per interpreter process."""
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    code = ("from repro.cluster.node import _flow_id\n"
            "print(_flow_id('a', 'b', 7))")
    pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    outs = set()
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": pkg_root + os.pathsep
               + os.environ.get("PYTHONPATH", "")}
        outs.add(subprocess.check_output(
            [sys.executable, "-c", code], env=env))
    assert len(outs) == 1


# ---------------------------------------------------------------------------
# profile merging
# ---------------------------------------------------------------------------

def _snapshot(**counters):
    p = Metrics()
    for name, n in counters.items():
        p.inc(name.replace("_", "."), n)
    return p.snapshot()


def test_merge_profiles_sums_counters_and_namespaces_histograms():
    a = Metrics()
    a.inc("cluster.sent", 10)
    a.gauge_max("cluster.mailbox_depth_max", 5)
    a.observe_us("cluster.credit_wait_us", 0.001)
    b = Metrics()
    b.inc("cluster.sent", 7)
    b.inc("cluster.delivered", 17)
    b.gauge_max("cluster.mailbox_depth_max", 9)
    merged = merge_profiles({"driver": a.snapshot(),
                             "worker": b.snapshot()})
    assert sorted(merged["nodes"]) == ["driver", "worker"]
    assert merged["counters"]["cluster.sent"] == 17        # summed
    assert merged["counters"]["cluster.delivered"] == 17
    assert merged["gauges"]["cluster.mailbox_depth_max"] == 9   # maxed
    # histograms keep their node prefix: percentiles don't merge
    assert any(k.startswith("driver:") for k in merged["histograms"])
    text = format_snapshot(merged)
    assert "driver" in text and "cluster.sent" in text


# ---------------------------------------------------------------------------
# chrome trace merging
# ---------------------------------------------------------------------------

def test_merge_chrome_traces_pids_and_flow_arrows():
    send = ClusterEvent("cluster-send", "a", actor="p", peer="b",
                        step=1, ts=100.0, msg_seq=42)
    recv = ClusterEvent("cluster-recv", "b", actor="e", peer="a",
                        step=1, ts=100.001, recv_seq=42)
    trace = merge_chrome_traces({"a": [send],
                                 "b": [recv._asdict()]})   # mixed forms
    events = trace["traceEvents"]
    # one process_name metadata record per node
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert names == {"a", "b"}
    pids = {e["args"]["name"]: e["pid"] for e in events if e["ph"] == "M"}
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert len(starts) == 1 and len(finishes) == 1
    assert starts[0]["id"] == finishes[0]["id"] == 42
    assert starts[0]["pid"] == pids["a"]
    assert finishes[0]["pid"] == pids["b"]
    # timestamps rebased to the earliest event, microseconds
    assert starts[0]["ts"] == 0.0
    assert 900 < finishes[0]["ts"] < 1100


# ---------------------------------------------------------------------------
# detectors (synthetic events)
# ---------------------------------------------------------------------------

def _feed(detector, event):
    return list(detector.on_cluster(event))


def test_saturation_detector_thresholds_and_dedup():
    det = ClusterSaturationDetector(staged_threshold=3)
    low = ClusterEvent("cluster-stage", "b", actor="sink",
                       extra={"staged": 2})
    assert _feed(det, low) == []
    hot = ClusterEvent("cluster-stage", "b", actor="sink",
                       extra={"staged": 3})
    hazards = _feed(det, hot)
    assert [h.kind for h in hazards] == ["cluster-mailbox-saturation"]
    assert hazards[0].severity == "warning"
    assert _feed(det, hot) == []                 # once per (node, actor)
    park = ClusterEvent("cluster-park", "a", actor="sink",
                        extra={"path": "b/sink"})
    hazards = _feed(det, park)
    assert [h.kind for h in hazards] == ["cluster-backpressure"]
    assert _feed(det, park) == []                # once per path


def test_suspect_loss_detector_escalation_ladder():
    det = SuspectLossDetector()
    quiet = ClusterEvent("cluster-suspect", "a", peer="b",
                         extra={"unacked": 0})
    assert _feed(det, quiet) == []               # nothing in flight: fine
    risky = ClusterEvent("cluster-suspect", "a", peer="b",
                         extra={"unacked": 4})
    hazards = _feed(det, risky)
    assert [h.kind for h in hazards] == ["cluster-suspect-loss"]
    down = ClusterEvent("cluster-down", "a", peer="b")
    hazards = _feed(det, down)
    assert [(h.kind, h.severity) for h in hazards] == \
        [("cluster-node-down", "error")]
    lost = ClusterEvent("cluster-dead-letter", "a", actor="b/sink",
                        extra={"why": "undeliverable to b after 5 attempts"})
    hazards = _feed(det, lost)
    assert [h.kind for h in hazards] == ["cluster-message-loss"]
    assert _feed(det, lost) == []                # first loss only


# ---------------------------------------------------------------------------
# live integration: detectors on a real loopback node
# ---------------------------------------------------------------------------

def test_status_pulls_coherent_under_pingpong_storm():
    """STATUS with every opt-in extra (profile, telemetry, flight)
    pulled in a tight loop while a pipelined pingpong storm saturates
    both nodes.  Guards the two regressions that bit this path before:
    a torn profiler snapshot under concurrent writers, and the STATUS
    handler deadlocking on ``_state_lock`` while the storm holds it."""
    from repro.obs.telemetry import TelemetryAgent

    hub = LoopbackHub()
    a = ClusterNode("a", hub.join("a"), profiler=Metrics(), workers=2)
    b = ClusterNode("b", hub.join("b"), profiler=Metrics(), workers=2)
    TelemetryAgent().attach(a)
    TelemetryAgent().attach(b)
    a.connect("b")
    b.connect("a")
    try:
        class Echo(Actor):
            def receive(self, msg, sender):
                if sender is not None:
                    sender.tell(msg, sender=self.self_ref)

        class Pinger(Actor):
            def __init__(self, target):
                super().__init__()
                self.target = target

            def receive(self, msg, sender):
                if msg == "start":
                    for i in range(16):          # pipelined window
                        self.target.tell(i, sender=self.self_ref)
                    return
                self.target.tell(msg, sender=self.self_ref)

        b.spawn(Echo, name="echo")
        pinger = a.spawn(Pinger, a.ref("b/echo"), name="pinger")
        pinger.tell("start")                     # perpetual storm
        deadline = time.monotonic() + 60         # deadlock guard
        while time.monotonic() < deadline and \
                b.profiler.get("mailbox.processed") == 0:
            time.sleep(0.005)                    # storm warm-up
        replies = []
        while len(replies) < 25 and time.monotonic() < deadline:
            replies.append(a.status_of("b", timeout=10.0, profile=True,
                                       telemetry=True, flight=True))
        assert len(replies) == 25, "status pulls starved by the storm"
        processed = 0
        for reply in replies:
            assert reply["node"] == "b"
            profile = reply["profile"]
            # coherent cut: latency samples are observed per *batch* at
            # dequeue while mailbox.processed increments per message
            # after handling, so a snapshot may run ahead by at most one
            # batch (throughput=16) per actor — but never further, and
            # never behind, if the snapshot isn't torn
            lat = profile["histograms"].get("mailbox.latency_us")
            if lat is not None:
                assert lat["count"] <= profile["counters"][
                    "mailbox.processed"] + 16
            assert set(reply["telemetry"]["nodes"]) <= {"a", "b"}
            assert isinstance(reply["flight"], list)
            processed = max(processed, profile["counters"].get(
                "mailbox.processed", 0))
        assert processed > 0                     # the storm really ran
    finally:
        a.close()
        b.close()


def test_live_saturation_run_raises_hazards_and_traces():
    clock = [0.0]
    hub = LoopbackHub()
    cfg = ClusterConfig(mailbox_bound=2, credit_window=64,
                        tick_interval=1e9, ack_every=4)
    bus = cluster_bus()
    a = ClusterNode("a", hub.join("a"), config=cfg, timer=False,
                    trace=True, clock=lambda: clock[0])
    b = ClusterNode("b", hub.join("b"), config=cfg, timer=False,
                    trace=True, monitors=bus, clock=lambda: clock[0])
    a.connect("b")
    b.connect("a")
    try:
        class Gate(Actor):
            def __init__(self, release):
                super().__init__()
                self.release = release

            def receive(self, msg, sender):
                self.release.wait(10)

        release = threading.Event()
        b.spawn(Gate, release, name="gate")
        rs = a.ref("b/gate")
        for i in range(16):                    # >> mailbox_bound of 2
            rs.tell(i)
        time.sleep(0.1)
        assert any(h.kind == "cluster-mailbox-saturation"
                   for h in bus.hazards), bus.hazards
        release.set()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and b.status()["staged"]:
            b.pump()
            time.sleep(0.01)
        assert b.drain(timeout=5)
        # both nodes traced; the merged trace has at least one flow pair
        merged = merge_chrome_traces({"a": a.trace_events,
                                      "b": b.trace_events})
        phases = {e["ph"] for e in merged["traceEvents"]}
        assert {"s", "f"} <= phases
    finally:
        release.set()
        a.close()
        b.close()
