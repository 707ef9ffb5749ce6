"""Telemetry plane on a live two-node cluster.

Integration coverage for the ISSUE-7 acceptance path: frames ship over
the TELEMETRY control kind at tick cadence and build live series on
*every* node's aggregator; the flight recorder runs always-on (no
``trace=``/``monitors=`` needed); a killed actor burns the error-rate
SLO onto the MonitorBus and dumps a postmortem bundle whose merged
Chrome trace pairs send→receive flows across the process boundary.

Determinism: nodes run ``timer=False`` with manual ``tick(now=...)``
and every clock — node clock, frame stamps, SLO windows — reads one
shared fake wall clock, so window math is exact.
"""

import json
import time

from repro.actors import Actor
from repro.cluster import ClusterConfig, ClusterNode, LoopbackHub
from repro.obs import Metrics, MonitorBus
from repro.obs.telemetry import SLO, TelemetryAgent


class Echo(Actor):
    def receive(self, message, sender):
        if sender is not None:
            sender.tell(message, sender=self.self_ref)


class Bomb(Actor):
    def receive(self, message, sender):
        raise RuntimeError("boom")


ERROR_RATE = SLO("error-rate", "ratio:actor.failures/mailbox.processed",
                 threshold=0.01, short_window=5.0, long_window=30.0,
                 severity="error")


class TwoNodeCluster:
    """Deterministic loopback pair with agents on both nodes."""

    def __init__(self, tmp_path=None, slos=None, bus=None, cooldown=0.0):
        self.clock = [0.0]
        self.hub = LoopbackHub()
        config = ClusterConfig(telemetry_interval=0.5, tick_interval=1e9)
        wall = lambda: self.clock[0]                       # noqa: E731
        self.a = ClusterNode("a", self.hub.join("a"), config=config,
                             timer=False, profiler=Metrics(), clock=wall)
        self.b = ClusterNode("b", self.hub.join("b"), config=config,
                             timer=False, profiler=Metrics(), clock=wall)
        self.ta = TelemetryAgent(time_source=wall).attach(self.a)
        self.tb = TelemetryAgent(
            slos=slos, bus=bus, time_source=wall,
            postmortem_cooldown=cooldown,
            postmortem_dir=str(tmp_path) if tmp_path else None,
        ).attach(self.b)
        self.a.connect("b")
        self.b.connect("a")
        self.b.spawn(Echo, name="echo")
        self.echo = self.a.ref("b/echo")

    def step(self, t, sends=2):
        """One fake second: traffic, settle, tick both nodes."""
        self.clock[0] = float(t)
        for k in range(sends):
            self.echo.tell(k)
        self.a.drain()
        self.b.drain()
        self.a.tick(now=self.clock[0])
        self.b.tick(now=self.clock[0])

    def close(self):
        self.a.close()
        self.b.close()


def test_frames_build_live_series_on_every_node(tmp_path):
    c = TwoNodeCluster()
    try:
        for t in range(12):
            c.step(t)
        now = c.clock[0]
        # both aggregators see the whole cluster (frames broadcast)
        assert c.ta.aggregator.nodes() == ["a", "b"]
        assert c.tb.aggregator.nodes() == ["a", "b"]
        # cross-checked live rates: b processes what a sends
        assert c.ta.aggregator.rate("b", "mailbox.processed",
                                    window=10.0, now=now) > 0
        assert c.tb.aggregator.rate("a", "cluster.sent",
                                    window=10.0, now=now) > 0
        assert c.ta.aggregator.counter("b", "mailbox.processed") >= 22
        # frames counted, none lost on loopback
        snap = c.ta.snapshot()
        assert snap["nodes"]["b"]["lost"] == 0
        assert snap["nodes"]["b"]["frames"] >= 10
        json.dumps(snap)                      # wire-safe
    finally:
        c.close()


def test_collect_is_delta_encoded():
    c = TwoNodeCluster()
    try:
        for t in range(3):
            c.step(t)
        # traffic since the last tick's frame: the counter moved again
        for k in range(2):
            c.echo.tell(k)
        c.b.drain()
        frame = c.tb.collect()
        assert "mailbox.processed" in frame["counters"]
        # idle second collect: unchanged counters drop out of the frame,
        # instantaneous gauges are re-sampled every frame
        idle = c.tb.collect()
        assert "mailbox.processed" not in idle["counters"]
        assert idle["seq"] == frame["seq"] + 1
        for f in (frame, idle):
            assert "mailbox.depth" in f["gauges"]
            assert "cluster.staged" in f["gauges"]
    finally:
        c.close()


def test_flight_recorder_is_always_on():
    """Recording needs no ``trace=True`` / ``monitors=`` — attaching
    the agent alone turns the event path on."""
    c = TwoNodeCluster()
    try:
        for t in range(4):
            c.step(t)
        assert c.a.trace_events is None and c.a.monitors is None
        assert len(c.ta.recorder) > 0
        assert len(c.tb.recorder) > 0
        kinds = {e["kind"] for e in c.ta.recorder.dump()}
        assert "cluster-send" in kinds
        sends = [e for e in c.ta.recorder.dump()
                 if e["kind"] == "cluster-send" and e["msg_seq"]]
        recvs = [e for e in c.tb.recorder.dump()
                 if e["kind"] == "cluster-recv" and e["recv_seq"]]
        # the same wire seqs on both sides: postmortem pairing material
        assert {e["msg_seq"] for e in sends} \
            & {e["recv_seq"] for e in recvs}
    finally:
        c.close()


def test_status_serves_telemetry_and_flight(tmp_path):
    c = TwoNodeCluster(tmp_path)
    try:
        for t in range(6):
            c.step(t)
        reply = c.a.status_of("b", telemetry=True, flight=True)
        snap = reply["telemetry"]
        assert set(snap["nodes"]) == {"a", "b"}
        assert "alerts" in snap
        flight = reply["flight"]
        assert flight and all("kind" in e and "step" in e for e in flight)
        # plain STATUS stays lean
        bare = c.a.status_of("b")
        assert "telemetry" not in bare and "flight" not in bare
    finally:
        c.close()


def test_killed_actor_burns_slo_and_dumps_postmortem(tmp_path):
    bus = MonitorBus(detectors=[])
    c = TwoNodeCluster(tmp_path, slos=[ERROR_RATE], bus=bus)
    try:
        bomb = c.b.spawn(Bomb, name="bomb")
        for t in range(50):
            c.step(t)
        bomb.tell("die")                      # one failure against ~2/s
        c.b.drain()
        for t in range(50, 56):
            c.step(t)

        # the burn is on the bus as a first-class hazard
        burns = [h for h in bus.hazards if h.kind == "slo-burn:error-rate"]
        assert burns, [h.kind for h in bus.hazards]
        assert burns[0].severity == "error"
        assert burns[0].tasks == ("b",)
        assert bus.flagged

        # both triggers dumped bundles: the failure itself, then the burn
        kinds = [p["kind"] for p in c.tb.postmortems]
        assert "actor-failure" in kinds
        assert "slo-burn:error-rate" in kinds

        pm = next(p for p in c.tb.postmortems
                  if p["kind"] == "slo-burn:error-rate")
        assert pm["detail"]["state"] == "firing"
        assert [a for a in pm["alerts"]
                if a["slo"] == "error-rate" and a["state"] == "firing"]
        # flight windows pulled from BOTH nodes over live STATUS...
        assert set(pm["events"]) == {"a", "b"}
        # ...and the merged Chrome trace pairs flows across the boundary
        phases = [e["ph"] for e in pm["trace"]["traceEvents"]]
        assert "s" in phases and "f" in phases
        assert pm["narrative"].startswith(
            "POSTMORTEM: slo-burn:error-rate")
        assert "flow" in pm["narrative"] or "pair" in pm["narrative"]

        # bundles hit disk for `repro postmortem`
        files = sorted(p.name for p in tmp_path.glob("pm-*.json"))
        assert len(files) == len(c.tb.postmortems)
        on_disk = json.loads(
            (tmp_path / files[-1]).read_text())
        assert on_disk["kind"] == kinds[-1]
    finally:
        c.close()


def test_postmortem_cooldown_coalesces_incidents(tmp_path):
    c = TwoNodeCluster(tmp_path, cooldown=5.0)
    try:
        for t in range(3):
            c.step(t)
        first = c.tb.incident("actor-failure", {"actor": "x"})
        assert first is not None
        # same fake second: rate-limited, no second bundle
        assert c.tb.incident("actor-failure", {"actor": "y"}) is None
        assert len(c.tb.postmortems) == 1
        c.clock[0] += 10.0
        assert c.tb.incident("peer-down", {"peer": "a"}) is not None
        assert len(c.tb.postmortems) == 2
    finally:
        c.close()


def test_incident_force_bypasses_cooldown(tmp_path):
    """``force=True`` punches through the rate limit — the graceful
    node-stop bundle must never be swallowed just because an alert
    fired moments before shutdown."""
    c = TwoNodeCluster(tmp_path, cooldown=5.0)
    try:
        for t in range(3):
            c.step(t)
        assert c.tb.incident("actor-failure", {"actor": "x"}) is not None
        # same fake second: rate-limited...
        assert c.tb.incident("actor-failure", {"actor": "y"}) is None
        # ...unless forced
        forced = c.tb.incident("node-stop", {"node": "b"}, force=True)
        assert forced is not None
        assert forced["kind"] == "node-stop"
        assert len(c.tb.postmortems) == 2
    finally:
        c.close()


def test_graceful_close_dumps_node_stop_bundle(tmp_path):
    """``ClusterNode.close()`` (the serve verb's SIGTERM/Ctrl-C path)
    dumps one final postmortem bundle while the transport is still up,
    so the flight recorder's last window survives a clean shutdown."""
    c = TwoNodeCluster(tmp_path, cooldown=60.0)
    try:
        for t in range(4):
            c.step(t)
    finally:
        c.close()
    kinds = [p["kind"] for p in c.tb.postmortems]
    assert kinds[-1] == "node-stop"
    pm = c.tb.postmortems[-1]
    assert pm["detail"] == {"node": "b"}
    assert pm["node"] == "b"
    # the bundle hit disk like any crash-triggered postmortem
    files = sorted(p.name for p in tmp_path.glob("pm-*.json"))
    assert any("node-stop" in f for f in files)
    # force: the long cooldown above could not have suppressed it
    assert len(c.tb.postmortems) == 1


def test_close_asks_silent_peers_at_once():
    """The ``node-stop`` postmortem asks every alive peer for its flight
    window under one 1 s deadline, not 1 s per silent peer; a peer that
    answers still lands in the bundle."""
    hub = LoopbackHub()
    config = ClusterConfig(flight_sample=1)
    nodes = {n: ClusterNode(n, hub.join(n), config=config, timer=False)
             for n in ("a", "b", "c", "d", "e")}
    TelemetryAgent().attach(nodes["e"])
    agent = TelemetryAgent().attach(nodes["a"])
    try:
        for peer in "bcde":
            nodes["a"].connect(peer)
        nodes["e"].spawn(Echo, name="echo")
        nodes["a"].ref("e/echo").tell("hi")   # something in e's window
        assert nodes["a"].drain() and nodes["e"].drain()
        for peer in "bcd":
            hub.partition("a", peer)          # alive, but silent
        t0 = time.monotonic()
        nodes["a"].close()
        took = time.monotonic() - t0
        pm = agent.postmortems[-1]
        assert pm["kind"] == "node-stop"
        assert set(pm["events"]) == {"a", "e"}
        assert took < 2.0, took
    finally:
        for peer in "bcd":
            hub.heal("a", peer)
        for n in nodes.values():
            n.close()


def test_telemetry_frames_are_fire_and_forget():
    """TELEMETRY is not a reliable kind: frames never enter retry
    outboxes, so a slow peer cannot make the telemetry plane amplify
    load."""
    from repro.cluster.message import RELIABLE_KINDS, TELEMETRY
    assert TELEMETRY not in RELIABLE_KINDS
    c = TwoNodeCluster()
    try:
        for t in range(6):
            c.step(t)
        assert not c.a.status()["unacked"]    # nothing waiting on acks
        assert c.a.profiler.snapshot()["counters"][
            "cluster.telemetry_out"] >= 5
    finally:
        c.close()
