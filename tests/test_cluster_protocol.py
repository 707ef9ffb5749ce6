"""Protocol conformance on the live cluster runtime.

Every bulk message — remote deliver, remote send, and the
zero-serialization local fast path — becomes one observation that the
node's observer hands to one conformance function, which steps the
``ProtocolMonitor.cluster_entries`` rows.  A node without a trace log
queues observations (one GIL-atomic append) for a daemon pump thread;
``drain()`` flushes the pump, so hazards are visible at quiescence.  A
node with a trace log (every simulated node) steps them inline, right
after logging the event.  Every remote conformance test runs in both
modes.  Violations feed the telemetry plane: per-protocol counters in
``repro top`` frames and a postmortem bundle per incident.
"""

import sys
import threading
import time

from repro.actors import Actor
from repro.actors.system import DeadLetter
from repro.cluster import (ClusterConfig, ClusterNode, LoopbackHub,
                           RemoteRef, cluster_bus)
from repro.obs import MonitorBus, Protocol, ProtocolMonitor, render_top
from repro.obs.telemetry import TelemetryAgent

BOOT = lambda **kw: Protocol("boot", "INIT -> WORK*",       # noqa: E731
                             parties=("worker",), **kw)


class Sink(Actor):
    def receive(self, message, sender):
        pass


#: conformance modes: pumped (no trace log) and inline (trace log)
MODES = (False, True)


class SlowHash(str):
    """A message head whose hash takes 50ms to compute."""

    def __hash__(self):
        time.sleep(0.05)
        return str.__hash__(self)


def _pair(protocols, sender_bus=None, trace=False):
    hub = LoopbackHub()
    bus = cluster_bus(protocols=protocols)
    a = ClusterNode("a", hub.join("a"), workers=2, monitors=sender_bus,
                    trace=trace)
    b = ClusterNode("b", hub.join("b"), workers=2, monitors=bus,
                    trace=trace)
    a.connect("b")
    b.connect("a")
    b.spawn(Sink, name="worker")
    return a, b, bus


def _close(*nodes):
    for n in nodes:
        n.close()


def _protocol_hazards(bus):
    return [h for h in bus.hazards if h.kind == "protocol-violation"]


class TestRemoteConformance:
    def test_out_of_order_delivery_flagged_at_quiescence(self):
        for trace in MODES:
            a, b, bus = _pair([BOOT()], trace=trace)
            try:
                a.ref("b/worker").tell(("work", 1))   # WORK before INIT
                a.ref("b/worker").tell(("init", 0))
                assert a.drain() and b.drain()
                flagged = _protocol_hazards(bus)
                assert len(flagged) == 1, trace
                hz = flagged[0]
                assert hz.severity == "error"
                assert hz.subject == "boot@worker"
                assert hz.seq is not None          # symmetric wire-flow id
                assert "b/worker" in hz.tasks
                assert "expected {init}" in hz.message
            finally:
                _close(a, b)

    def test_conforming_stream_is_clean_and_observed(self):
        for trace in MODES:
            a, b, bus = _pair([BOOT()], trace=trace)
            try:
                ref = a.ref("b/worker")
                ref.tell(("init", 0))
                for k in range(5):
                    ref.tell(("work", k))
                assert a.drain() and b.drain()
                assert not bus.hazards, trace
                mon = next(d for d in bus.detectors
                           if isinstance(d, ProtocolMonitor))
                assert mon._machines[0].moved      # it watched, silently
                assert not mon.counts()
            finally:
                _close(a, b)

    def test_send_point_flags_on_the_sending_node(self):
        for trace in MODES:
            sender_bus = cluster_bus(
                protocols=[BOOT(at="send")])
            a, b, _ = _pair([], sender_bus=sender_bus, trace=trace)
            try:
                a.ref("b/worker").tell(("work", 1))
                assert a.drain() and b.drain()
                flagged = _protocol_hazards(sender_bus)
                assert len(flagged) == 1, trace
                assert flagged[0].tasks == ("a/worker",)
            finally:
                _close(a, b)

    def test_strict_spec_flags_outside_alphabet_tokens(self):
        for trace in MODES:
            a, b, bus = _pair([BOOT(strict=True)], trace=trace)
            try:
                a.ref("b/worker").tell(("init", 0))
                a.ref("b/worker").tell(("frobnicate", 1))
                assert a.drain() and b.drain()
                flagged = _protocol_hazards(bus)
                assert len(flagged) == 1, trace
                assert "outside the protocol alphabet" in flagged[0].message
            finally:
                _close(a, b)

    def test_local_fastpath_messages_are_not_exempt(self):
        for trace in MODES:
            hub = LoopbackHub()
            bus = cluster_bus(protocols=[BOOT()])
            n = ClusterNode("solo", hub.join("solo"), workers=2,
                            monitors=bus, trace=trace)
            try:
                n.spawn(Sink, name="worker")
                # RemoteRef to a local actor takes the zero-serialization
                # fast path — conformance still sees every message
                RemoteRef(n, "solo/worker").tell(("work", 1))
                assert n.drain()
                flagged = _protocol_hazards(bus)
                assert len(flagged) == 1, trace
                assert flagged[0].subject == "boot@worker"
            finally:
                n.close()

    def test_fed_path_flags_the_same_stream(self):
        # with a trace log there is no pump: the node steps the automata
        # inline, right after logging the event, and must reach the
        # pump's verdict
        for trace in MODES:
            a, b, bus = _pair([BOOT()], trace=trace)
            try:
                a.ref("b/worker").tell(("work", 1))
                assert a.drain() and b.drain()
                assert len(_protocol_hazards(bus)) == 1, trace
                assert (b._proto_thread is None) == trace
            finally:
                _close(a, b)


    def test_drain_waits_for_the_pump_batch_in_flight(self):
        # senders outnumber cores and switch often, so the pump drains
        # batches while they send; the last message's head hashes
        # slowly, so the pump is still classifying it after it emptied
        # its queue — drain() must wait for it, and then the one
        # violation (INIT mid-session) is already flagged
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        a, b, bus = _pair([BOOT()])
        try:
            ref = a.ref("b/worker")
            ref.tell(("init", 0))

            def storm():
                for k in range(200):
                    ref.tell(("work", k))
            threads = [threading.Thread(target=storm) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert b.drain() and not _protocol_hazards(bus)
            ref.tell((SlowHash("init"), 1))
            assert b.drain()
            assert len(_protocol_hazards(bus)) == 1
        finally:
            sys.setswitchinterval(old)
            _close(a, b)


class TestTelemetryIntegration:
    def _cluster(self, tmp_path):
        clock = [0.0]
        wall = lambda: clock[0]                            # noqa: E731
        hub = LoopbackHub()
        config = ClusterConfig(telemetry_interval=0.5,
                               tick_interval=1e9)
        bus = cluster_bus(protocols=[BOOT()])
        a = ClusterNode("a", hub.join("a"), config=config,
                        timer=False, clock=wall)
        b = ClusterNode("b", hub.join("b"), config=config,
                        timer=False, clock=wall, monitors=bus)
        tb = TelemetryAgent(time_source=wall,
                            postmortem_dir=str(tmp_path)).attach(b)
        a.connect("b")
        b.connect("a")
        b.spawn(Sink, name="worker")
        return clock, a, b, bus, tb

    def test_violation_counts_postmortem_and_top_line(self, tmp_path):
        clock, a, b, bus, tb = self._cluster(tmp_path)
        try:
            ref = a.ref("b/worker")
            for t in range(3):                 # clean warm-up frames
                clock[0] = float(t)
                ref.tell(("init", 0) if t == 0 else ("work", t))
                a.drain()
                b.drain()
                a.tick(now=clock[0])
                b.tick(now=clock[0])
            snap = tb.snapshot()
            assert "protocol.violations" not in \
                (snap["nodes"]["b"].get("gauges") or {})

            ref.tell(("init", 9))              # INIT mid-session
            a.drain()
            b.drain()
            for t in range(3, 6):
                clock[0] = float(t)
                a.tick(now=clock[0])
                b.tick(now=clock[0])

            # the hazard is an incident: a postmortem bundle, on disk
            kinds = [p["kind"] for p in tb.postmortems]
            assert "protocol-violation" in kinds
            pm = next(p for p in tb.postmortems
                      if p["kind"] == "protocol-violation")
            assert pm["detail"]["subject"] == "boot@worker"
            assert list(tmp_path.glob("pm-*.json"))

            # ...and a counter in the live `repro top` snapshot
            snap = tb.snapshot()
            ns = snap["nodes"]["b"]
            assert ns["gauges"]["protocol.violations"] == 1
            top = render_top(snap, color=False)
            # (the per-protocol name detail is rate-gated: it shows
            # only while violations are actively recurring)
            assert "PROTO 1 protocol violation(s) on b" in top
        finally:
            a.close()
            b.close()


class TestDeadLetterContext:
    """Satellite: dead letters preserve the causal request context."""

    def test_request_id_from_wire_triple_and_live_context(self):
        assert DeadLetter("b/x", "m", None,
                          ("req-7", "span-3", 1.5)).request_id == "req-7"

        class Ctx:
            request_id = "req-live"
        assert DeadLetter("b/x", "m", None, Ctx()).request_id \
            == "req-live"
        assert DeadLetter("b/x", "m", None).request_id is None
        assert DeadLetter("b/x", "m", None, object()).request_id is None

    def test_repr_names_the_request(self):
        dl = DeadLetter("b/x", ("pay", 1), None, ("req-7", "s", 0.0))
        assert "[req req-7]" in repr(dl)
        assert "req" not in repr(DeadLetter("b/x", "m", None)).replace(
            "repr", "")

    def test_undeliverable_local_mail_keeps_context_slot(self):
        hub = LoopbackHub()
        n = ClusterNode("solo", hub.join("solo"), workers=2)
        try:
            RemoteRef(n, "solo/ghost").tell(("work", 1))
            n.drain()
            dls = list(n.system.dead_letters)
            assert dls and dls[-1].request_id is None   # no tracer: no id
        finally:
            n.close()


class TestBusWiring:
    def test_cluster_bus_grows_a_protocol_monitor_on_request(self):
        plain = cluster_bus()
        assert not [d for d in plain.detectors
                    if isinstance(d, ProtocolMonitor)]
        wired = cluster_bus(protocols=[BOOT()])
        mons = [d for d in wired.detectors
                if isinstance(d, ProtocolMonitor)]
        assert len(mons) == 1
        assert mons[0].protocols[0].name == "boot"

    def test_node_rejects_nothing_without_kind_wanting_detectors(self):
        # a plain cluster bus must not start a conformance pump
        hub = LoopbackHub()
        n = ClusterNode("solo", hub.join("solo"), workers=2,
                        monitors=cluster_bus())
        try:
            assert not [t for t in threading.enumerate()
                        if t.name == "solo.conformance" and t.is_alive()]
        finally:
            n.close()

    def test_shared_bus_dedups_the_same_wire_message(self):
        # the same non-conforming wire message worded from both ends
        # collapses onto one (kind, subject, seq) key
        bus = MonitorBus(detectors=[])
        from repro.obs import Hazard
        for wording in ("sender view", "receiver view"):
            bus.publish(Hazard(kind="protocol-violation",
                               severity="error", message=wording,
                               step=0, subject="boot@worker",
                               seq=123456))
        assert len(bus.hazards) == 1
