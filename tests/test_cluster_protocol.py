"""Protocol conformance on the live cluster runtime.

Every bulk message — remote deliver, remote send, and the
zero-serialization local fast path — becomes one observation that the
node's observer steps through the ``ProtocolMonitor.cluster_entries``
rows inline, on the thread that sent or delivered it, holding the
monitor's lock.  There is no conformance thread: a node with a trace log
and one without take the same path, so every remote conformance test
runs in both modes, and on a loopback link (which delivers on the
sending thread) a violation is flagged by the time ``tell`` returns.
Violations feed the telemetry plane: per-protocol counters in
``repro top`` frames and a postmortem bundle per incident, which is
built on a borrowed thread, off the message path.  Per-message events
reach the trace log and the flight recorder, never the monitor bus.
"""

import sys
import threading
import time

from repro.actors import Actor
from repro.actors.system import DeadLetter
from repro.cluster import (ClusterConfig, ClusterNode, LoopbackHub,
                           RemoteRef, cluster_bus)
from repro.obs import MonitorBus, Protocol, ProtocolMonitor, render_top
from repro.obs.protocol import ProtocolMachine
from repro.obs.telemetry import TelemetryAgent

BOOT = lambda **kw: Protocol("boot", "INIT -> WORK*",       # noqa: E731
                             parties=("worker",), **kw)


class Sink(Actor):
    def receive(self, message, sender):
        pass


#: the node runs without and with a trace log; conformance takes one
#: inline path in both
MODES = (False, True)


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


def _await_postmortem(agent, timeout=10.0):
    """The agent's protocol-violation bundle, once its borrowed thread
    has built it (and written it, with a ``postmortem_dir``)."""
    deadline = time.monotonic() + timeout
    while True:
        for pm in agent.postmortems:
            if pm["kind"] == "protocol-violation" \
                    and (not agent.postmortem_dir or "path" in pm):
                return pm
        assert time.monotonic() < deadline, "no postmortem"
        time.sleep(0.01)


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
        # with or without a trace log the node steps the automata inline
        # and reaches one verdict; no node starts a conformance thread
        for trace in MODES:
            a, b, bus = _pair([BOOT()], trace=trace)
            try:
                a.ref("b/worker").tell(("work", 1))
                assert a.drain() and b.drain()
                assert len(_protocol_hazards(bus)) == 1, trace
                assert not [t for t in threading.enumerate()
                            if t.name.endswith(".conformance")]
            finally:
                _close(a, b)

    def test_concurrent_storm_stays_clean_then_flags_one_violation(self):
        # senders outnumber cores and switch often, so deliveries from
        # four threads step the one automaton at once; the conforming
        # storm raises nothing, and the INIT sent mid-session is
        # flagged exactly once, before its tell returns
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
            ref.tell(("init", 1))
            assert len(_protocol_hazards(bus)) == 1
            assert b.drain()
            assert len(_protocol_hazards(bus)) == 1
        finally:
            sys.setswitchinterval(old)
            _close(a, b)


class TestSerializedSteps:
    def test_concurrent_sends_step_the_automaton_one_at_a_time(
            self, monkeypatch):
        # widen ProtocolMachine.advance's read-then-write of ``current``
        # to 20 ms.  Unserialized, three concurrent senders all read the
        # start state, so the third "a" of an "A A" session passes
        # unflagged; serialized, exactly that one is a violation.  Each
        # spec's step cache starts cold and advance fills it after the
        # sleep, so no step takes the node's inlined cached path
        step = ProtocolMachine.advance

        def widened(machine, kind):
            current = machine.current                 # the read
            time.sleep(0.02)
            probe = ProtocolMachine(machine._compiled)
            probe.current = current
            if not step(probe, kind):
                return False
            machine.current = probe.current           # the write
            machine.trail.append(kind)
            machine.moved = True
            return True

        monkeypatch.setattr(ProtocolMachine, "advance", widened)
        for trace in MODES:
            sender_bus = cluster_bus(protocols=[Protocol(
                "twice", "A A", parties=("worker",), at="send")])
            a, b, _ = _pair([], sender_bus=sender_bus, trace=trace)
            try:
                ref = a.ref("b/worker")
                go = threading.Barrier(3)

                def send():
                    go.wait()
                    ref.tell("a")
                threads = [threading.Thread(target=send) for _ in range(3)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert a.drain() and b.drain()
                assert len(_protocol_hazards(sender_bus)) == 1, trace
            finally:
                _close(a, b)


class TestHazardHook:
    def test_on_hazard_may_send_through_a_node_on_the_bus(self):
        # a hook that answers a violation with a message through a node
        # on the same bus steps the same rows on the same thread: it
        # must run after the monitor's lock is released
        for trace in MODES:
            hub = LoopbackHub()
            bus = cluster_bus(protocols=[BOOT(at="send")])
            bus.on_hazard = lambda hz: a.ref("b/worker").tell(("init", 0))
            a = ClusterNode("a", hub.join("a"), workers=2, monitors=bus,
                            trace=trace)
            b = ClusterNode("b", hub.join("b"), workers=2)
            try:
                a.connect("b")
                b.spawn(Sink, name="worker")
                sender = threading.Thread(
                    target=a.ref("b/worker").tell, args=(("work", 1),),
                    daemon=True)
                sender.start()
                sender.join(timeout=5)
                assert not sender.is_alive(), trace
                assert len(_protocol_hazards(bus)) == 1, trace
                machine = bus.detectors[-1]._machines[0]
                assert list(machine.trail) == ["init"], trace
            finally:
                _close(a, b)


class TestPostmortemOffTheMessagePath:
    def test_violating_tell_returns_before_its_postmortem(self):
        # the postmortem asks every alive peer for its flight window, and
        # a partitioned peer makes that wait out its 1 s timeout: the
        # wait must not fall on the thread that carried the message
        for trace in MODES:
            hub = LoopbackHub()
            bus = cluster_bus(protocols=[BOOT(at="send")])
            a = ClusterNode("a", hub.join("a"), workers=2, monitors=bus,
                            trace=trace, timer=False)
            b = ClusterNode("b", hub.join("b"), workers=2, timer=False)
            c = ClusterNode("c", hub.join("c"), workers=2, timer=False)
            agent = TelemetryAgent().attach(a)
            try:
                for peer in ("b", "c"):
                    a.connect(peer)
                b.spawn(Sink, name="worker")
                hub.partition("a", "c")              # alive, but silent
                t0 = time.monotonic()
                a.ref("b/worker").tell(("work", 1))  # WORK before INIT
                assert time.monotonic() - t0 < 0.5, trace
                assert len(_protocol_hazards(bus)) == 1, trace
                pm = _await_postmortem(agent)
                assert pm["detail"]["subject"] == "boot@worker"
            finally:
                hub.heal("a", "c")
                _close(a, b, c)


class TestSharedBusEscalation:
    def test_violation_reaches_the_node_that_flagged_it(self):
        # a and b share one bus and only b has an agent: the violation
        # flagged on b's delivery is b's incident, whichever node was
        # built first
        for trace in MODES:
            hub = LoopbackHub()
            bus = cluster_bus(protocols=[BOOT()])
            a = ClusterNode("a", hub.join("a"), workers=2, monitors=bus,
                            trace=trace, timer=False)
            b = ClusterNode("b", hub.join("b"), workers=2, monitors=bus,
                            trace=trace, timer=False)
            agent = TelemetryAgent().attach(b)
            try:
                a.connect("b")
                b.connect("a")
                b.spawn(Sink, name="worker")
                a.ref("b/worker").tell(("work", 1))  # WORK before INIT
                assert a.drain() and b.drain()
                assert len(_protocol_hazards(bus)) == 1, trace
                pm = _await_postmortem(agent)
                assert pm["node"] == "b", trace
                assert pm["detail"]["subject"] == "boot@worker"
                assert bus.on_hazard is None         # left to the owner
            finally:
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
            pm = _await_postmortem(tb)
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

    def test_bus_sees_only_rare_events(self):
        # per-message send/recv/local events go to the trace log and the
        # flight recorder, never to the bus: no detector reads them
        for trace in MODES:
            hub = LoopbackHub()
            bus = cluster_bus()
            a = ClusterNode("a", hub.join("a"), workers=2, monitors=bus,
                            trace=trace, timer=False)
            b = ClusterNode("b", hub.join("b"), workers=2, monitors=bus,
                            trace=trace, timer=False)
            try:
                a.connect("b")
                b.connect("a")
                b.spawn(Sink, name="worker")
                ref = a.ref("b/worker")
                for k in range(20):
                    ref.tell(("work", k))
                RemoteRef(b, "b/worker").tell(("work", 20))  # local path
                assert a.drain() and b.drain()
                assert bus.events_seen == 0, trace
                a.ref("b/ghost").tell("lost")        # one rare event
                assert a.drain() and b.drain()
                assert bus.events_seen == 1, trace
                if trace:
                    kinds = [e.kind for e in a.trace_events
                             + b.trace_events]
                    assert kinds.count("cluster-send") == 21
                    assert kinds.count("cluster-recv") == 20
                    assert kinds.count("cluster-local") == 1
                    assert kinds.count("cluster-dead-letter") == 1
            finally:
                _close(a, b)

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
