"""Cluster acceptance suite on the in-process loopback transport.

Every distributed behavior the cluster promises, exercised without a
single socket: the :class:`LoopbackHub` delivers frames synchronously
and injects faults (drop/dup/partition/cut) on demand, and nodes run
with ``timer=False`` plus a hand-cranked clock so retry timeouts,
suspect windows, and down declarations fire exactly when the test says
so — the suite is deterministic and belongs to tier 1.
"""

import threading
import time

import pytest

from repro.actors import Actor, SupervisionDirective
from repro.cluster import (
    ActorSignal,
    ClusterConfig,
    ClusterNode,
    LoopbackHub,
    PeerState,
    register_actor_type,
)


class Recorder(Actor):
    def __init__(self):
        super().__init__()
        self.got = []

    def receive(self, msg, sender):
        self.got.append(msg)


class Replier(Actor):
    def receive(self, msg, sender):
        if sender is not None:
            sender.tell(["echo", msg])


class Faulty(Actor):
    def receive(self, msg, sender):
        raise RuntimeError(f"cannot handle {msg!r}")


register_actor_type("test-recorder", Recorder)
register_actor_type("test-faulty", Faulty)


def _actor(ref):
    """The live instance behind a local ref (test-only peek)."""
    return ref._cell.actor


def _settle(*nodes, rounds=20):
    """Let synchronous loopback deliveries and executors quiesce."""
    for _ in range(rounds):
        for n in nodes:
            n.pump()
        time.sleep(0.005)


@pytest.fixture()
def pair():
    """Two connected loopback nodes with a crankable shared clock."""
    clock = [1000.0]
    hub = LoopbackHub()
    cfg = ClusterConfig(mailbox_bound=4, credit_window=8,
                        retry_timeout=0.5, max_attempts=3,
                        heartbeat_interval=0.5, suspect_after=1.5,
                        down_after=4.0, tick_interval=1e9, ack_every=2)
    a = ClusterNode("a", hub.join("a"), config=cfg, timer=False,
                    clock=lambda: clock[0])
    b = ClusterNode("b", hub.join("b"), config=cfg, timer=False,
                    clock=lambda: clock[0])
    a.connect("b")
    b.connect("a")
    yield hub, a, b, clock
    a.close()
    b.close()


def _advance(node, clock, dt):
    clock[0] += dt
    node.tick()


# ---------------------------------------------------------------------------
# basic delivery + location transparency
# ---------------------------------------------------------------------------

def test_remote_tell_delivers(pair):
    hub, a, b, clock = pair
    sink = b.spawn(Recorder, name="sink")
    a.ref("b/sink").tell(["hello", 1])
    assert b.drain(timeout=5)
    assert _actor(sink).got == [["hello", 1]]
    assert sum(hub.delivered.values()) > 0


def test_reply_via_remote_sender_ref(pair):
    hub, a, b, clock = pair
    b.spawn(Replier, name="rep")
    sink = a.spawn(Recorder, name="sink")
    a.ref("b/rep").tell("hi", sender=sink)
    _settle(a, b)
    assert a.drain(timeout=5) and b.drain(timeout=5)
    assert _actor(sink).got == [["echo", "hi"]]


def test_tell_to_missing_actor_dead_letters_on_receiver(pair):
    hub, a, b, clock = pair
    a.ref("b/nobody").tell("lost")
    _settle(a, b)
    assert any("nobody" in d.target for d in b.dead_letters())


def test_spawn_remote_and_status(pair):
    hub, a, b, clock = pair
    ref = a.spawn_remote("b", "test-recorder", "r1")
    assert ref.path == "b/r1"
    ref.tell("x")
    assert b.drain(timeout=5)
    status = a.status_of("b")
    assert status["node"] == "b"
    assert "r1" in status["actors"]
    assert status["peers"]["a"] == PeerState.ALIVE


# ---------------------------------------------------------------------------
# at-least-once wire + exactly-once actor delivery
# ---------------------------------------------------------------------------

def test_dropped_frame_is_retried_until_delivered(pair):
    hub, a, b, clock = pair
    sink = b.spawn(Recorder, name="sink")
    hub.drop("a", "b", count=1)
    a.ref("b/sink").tell(["once", 1])
    _settle(a, b)
    assert _actor(sink).got == []          # first copy was eaten
    _advance(a, clock, 0.6)                # past retry_timeout: resend
    _settle(a, b)
    assert b.drain(timeout=5)
    assert _actor(sink).got == [["once", 1]]


def test_duplicated_frame_is_deduplicated(pair):
    hub, a, b, clock = pair
    sink = b.spawn(Recorder, name="sink")
    hub.dup("a", "b", count=1)             # wire delivers two copies
    a.ref("b/sink").tell(["dup", 1])
    _settle(a, b)
    assert b.drain(timeout=5)
    assert _actor(sink).got == [["dup", 1]]


def test_retry_then_late_original_still_exactly_once(pair):
    """Retransmit + the retry's own dup: three wire copies, one
    delivery."""
    hub, a, b, clock = pair
    sink = b.spawn(Recorder, name="sink")
    hub.drop("a", "b", count=1)
    a.ref("b/sink").tell(["x", 1])
    hub.dup("a", "b", count=1)
    _advance(a, clock, 0.6)
    _settle(a, b)
    assert b.drain(timeout=5)
    assert _actor(sink).got == [["x", 1]]


def test_exhausted_retries_escalate_to_dead_letters(pair):
    hub, a, b, clock = pair
    b.spawn(Recorder, name="sink")
    hub.partition("a", "b")
    a.ref("b/sink").tell("doomed")
    # burn through every attempt (max_attempts=3, exponential backoff:
    # 0.5 + 1.0 + 2.0 s before expiry), keeping the detector quiet so
    # expiry — not node death — is what dead-letters the message
    for _ in range(8):
        _advance(a, clock, 0.7)
        a._heard_from("b")
    assert any("doomed" == d.message for d in a.dead_letters())


# ---------------------------------------------------------------------------
# backpressure
# ---------------------------------------------------------------------------

def test_saturation_parks_sender_and_loses_nothing(pair):
    hub, a, b, clock = pair

    class Slow(Actor):
        def __init__(self):
            super().__init__()
            self.n = 0

        def receive(self, msg, sender):
            time.sleep(0.002)
            self.n += 1

    slow = b.spawn(Slow, name="slow")
    rs = a.ref("b/slow")
    total = 40                              # 5x the credit window
    flood = threading.Thread(
        target=lambda: [rs.tell(i) for i in range(total)])
    flood.start()
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline and _actor(slow).n < total:
        _settle(a, b, rounds=1)
        a.tick()
        b.tick()
    flood.join()
    assert _actor(slow).n == total          # no drop, no dup
    assert not a.dead_letters() and not b.dead_letters()
    # the 8-credit window must actually have parked the flooder
    gate = a._gate("b/slow")
    assert gate.total_parks > 0


def test_staged_messages_bounded_by_stage_then_credit():
    """With the window larger than the mailbox bound, overflow stages
    on the receiver instead of growing the mailbox unboundedly."""
    clock = [0.0]
    hub = LoopbackHub()
    cfg = ClusterConfig(mailbox_bound=2, credit_window=64,
                        tick_interval=1e9, ack_every=4)
    a = ClusterNode("a", hub.join("a"), config=cfg, timer=False,
                    clock=lambda: clock[0])
    b = ClusterNode("b", hub.join("b"), config=cfg, timer=False,
                    clock=lambda: clock[0])
    a.connect("b")
    b.connect("a")
    try:
        class Gate(Actor):
            def __init__(self, release):
                super().__init__()
                self.release = release
                self.n = 0

            def receive(self, msg, sender):
                self.release.wait(10)
                self.n += 1

        release = threading.Event()
        gate = b.spawn(Gate, release, name="gate")
        rs = a.ref("b/gate")
        for i in range(12):
            rs.tell(i)
        time.sleep(0.1)
        staged = b.status()["staged"].get("gate", 0)
        assert staged > 0                  # overflow parked outside mailbox
        assert gate.pending <= cfg.mailbox_bound + 1
        release.set()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and _actor(gate).n < 12:
            b.pump()
            time.sleep(0.01)
        assert _actor(gate).n == 12
    finally:
        release.set()
        a.close()
        b.close()


# ---------------------------------------------------------------------------
# failure detector + cross-node supervision
# ---------------------------------------------------------------------------

class Watcher(Actor):
    def __init__(self, fired):
        super().__init__()
        self.fired = fired
        self.signals = []

    def receive(self, msg, sender):
        if isinstance(msg, ActorSignal):
            self.signals.append(msg)
            self.fired.set()


def test_cross_node_watch_applies_directive_and_signals(pair):
    hub, a, b, clock = pair
    faulty = b.spawn(Faulty, name="faulty")
    fired = threading.Event()
    w = a.spawn(Watcher, fired, name="w")
    a.watch("b/faulty", w, SupervisionDirective.STOP)
    _settle(a, b)
    a.ref("b/faulty").tell("kaboom")
    assert fired.wait(5)
    sig = _actor(w).signals[0]
    assert sig.kind == "failure"
    assert sig.path == "b/faulty"
    assert sig.directive == "stop"
    assert "RuntimeError" in sig.error
    _settle(a, b)
    assert faulty.is_stopped               # directive applied remotely


def test_silent_peer_goes_suspect_then_down(pair):
    hub, a, b, clock = pair
    hub.cut("b")
    _advance(a, clock, 2.0)                # past suspect_after
    assert a.peer_state("b") == PeerState.SUSPECT
    _advance(a, clock, 3.0)                # past down_after
    assert a.peer_state("b") == PeerState.DOWN


def test_node_down_signals_watchers_and_dead_letters_outbox(pair):
    hub, a, b, clock = pair
    b.spawn(Recorder, name="sink")
    fired = threading.Event()
    w = a.spawn(Watcher, fired, name="w")
    a.watch("b/sink", w, SupervisionDirective.RESTART)
    _settle(a, b)
    hub.cut("b")
    a.ref("b/sink").tell("never-arrives")
    _advance(a, clock, 5.0)                # straight past down_after
    assert fired.wait(5)
    sig = _actor(w).signals[0]
    assert sig.kind == "node-down"
    assert sig.path == "b/sink"
    assert any(d.message == "never-arrives" for d in a.dead_letters())
    # sends to a DOWN node fail fast into dead letters
    a.ref("b/sink").tell("late")
    assert any(d.message == "late" for d in a.dead_letters())


def test_peer_recovers_when_heard_again(pair):
    hub, a, b, clock = pair
    hub.cut("b")
    _advance(a, clock, 2.0)
    assert a.peer_state("b") == PeerState.SUSPECT
    hub.restore("b")
    _advance(b, clock, 0.6)                # b heartbeats out
    assert a.peer_state("b") == PeerState.ALIVE


def test_down_then_recover_remints_gates_and_delivers(pair):
    """DOWN -> ALIVE recovery must not leave broken credit gates behind:
    tells to a previously-used path on the recovered peer deliver again
    instead of dead-lettering forever."""
    hub, a, b, clock = pair
    sink = b.spawn(Recorder, name="sink")
    a.ref("b/sink").tell("before")
    _settle(a, b)
    hub.cut("b")
    a.ref("b/sink").tell("lost-in-flight")
    _advance(a, clock, 5.0)                # straight past down_after
    assert a.peer_state("b") == PeerState.DOWN
    assert a._gate("b/sink").broken is not None
    hub.restore("b")
    _advance(b, clock, 0.1)                # b heartbeats; a hears it
    assert a.peer_state("b") == PeerState.ALIVE
    # the broken gate was dropped: a fresh full-window gate is minted
    gate = a._gate("b/sink")
    assert gate.broken is None
    assert gate.available == a.config.credit_window
    a.ref("b/sink").tell("after-recovery")
    _settle(a, b)
    assert b.drain(timeout=5)
    assert _actor(sink).got == ["before", "after-recovery"]
    # the drained in-flight seq left a hole in b's cumulative-ACK
    # prefix; the SKIP resync closes it so the post-recovery tell is
    # acknowledged instead of falsely expiring into dead letters
    for _ in range(8):
        _advance(a, clock, 0.7)
        _advance(b, clock, 0.7)
    assert len(a._outboxes["b"]) == 0
    assert not any(d.message == "after-recovery" for d in a.dead_letters())


def test_expired_tell_releases_its_credit(pair):
    """Retry exhaustion on a lossy-but-alive link must return the TELL's
    credit — otherwise the send window permanently shrinks."""
    hub, a, b, clock = pair
    b.spawn(Recorder, name="sink")
    hub.partition("a", "b")
    a.ref("b/sink").tell("doomed")
    gate = a._gate("b/sink")
    assert gate.available == a.config.credit_window - 1
    for _ in range(8):                     # burn through every attempt
        _advance(a, clock, 0.7)
        a._heard_from("b")                 # keep the detector quiet
    assert any(d.message == "doomed" for d in a.dead_letters())
    assert gate.available == a.config.credit_window


def test_long_down_peer_state_is_evicted():
    clock = [0.0]
    hub = LoopbackHub()
    cfg = ClusterConfig(tick_interval=1e9, suspect_after=0.5,
                        down_after=1.0, evict_after=2.0)
    a = ClusterNode("a", hub.join("a"), config=cfg, timer=False,
                    clock=lambda: clock[0])
    b = ClusterNode("b", hub.join("b"), config=cfg, timer=False,
                    clock=lambda: clock[0])
    a.connect("b")
    b.connect("a")
    try:
        b.spawn(Recorder, name="sink")
        a.ref("b/sink").tell("hi")
        _settle(a, b, rounds=3)
        hub.cut("b")
        a.ref("b/sink").tell("lost")
        clock[0] += 1.5
        a.tick()                           # b declared DOWN
        assert a.peers()["b"] == PeerState.DOWN
        clock[0] += 4.0                    # past down_after + evict_after
        a.tick()
        assert "b" not in a.peers()        # per-peer state dropped
        assert "b" not in a._outboxes and "b" not in a._dedup
        assert not [p for p in a._gates if p.startswith("b/")]
        # a frame from the returned peer re-registers it from scratch
        hub.restore("b")
        clock[0] += 0.1
        b.tick()                           # heartbeat out
        assert a.peers().get("b") == PeerState.ALIVE
    finally:
        a.close()
        b.close()


def test_reply_cache_is_bounded():
    clock = [0.0]
    hub = LoopbackHub()
    cfg = ClusterConfig(tick_interval=1e9, reply_cache_size=4)
    a = ClusterNode("a", hub.join("a"), config=cfg, timer=False,
                    clock=lambda: clock[0])
    b = ClusterNode("b", hub.join("b"), config=cfg, timer=False,
                    clock=lambda: clock[0])
    a.connect("b")
    b.connect("a")
    try:
        for _ in range(10):
            a.status_of("b")
        assert len(b._reply_cache) <= cfg.reply_cache_size
    finally:
        a.close()
        b.close()


def test_broken_gate_fails_parked_senders_on_node_down():
    clock = [0.0]
    hub = LoopbackHub()
    cfg = ClusterConfig(mailbox_bound=1, credit_window=1,
                        park_timeout=30.0, tick_interval=1e9,
                        down_after=1.0, suspect_after=0.5)
    a = ClusterNode("a", hub.join("a"), config=cfg, timer=False,
                    clock=lambda: clock[0])
    b = ClusterNode("b", hub.join("b"), config=cfg, timer=False,
                    clock=lambda: clock[0])
    a.connect("b")
    b.connect("a")
    try:
        class Stuck(Actor):
            def receive(self, msg, sender):
                time.sleep(60)

        b.spawn(Stuck, name="stuck")
        hub.cut("b")
        results = []

        def send(i):
            a.ref("b/stuck").tell(i)
            results.append(i)

        threads = [threading.Thread(target=send, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.2)                    # let them park on 1 credit
        clock[0] += 2.0
        a.tick()                           # declares b DOWN, breaks gates
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive(), "parked sender never woke"
        assert len(a.dead_letters()) >= 2  # parked sends refused
    finally:
        a.close()
        b.close()


# ---------------------------------------------------------------------------
# node-level drain
# ---------------------------------------------------------------------------

def test_node_drain_reports_livelock(pair):
    hub, a, b, clock = pair

    class Feeder(Actor):
        def receive(self, msg, sender):
            self.self_ref.tell(msg + 1)

    f = b.spawn(Feeder, name="feeder")
    f.tell(0)
    assert b.drain(timeout=0.3) is False
    b.system.stop(f)


# ---------------------------------------------------------------------------
# drops and sink failures are counted without a profiler
# ---------------------------------------------------------------------------

def test_garbage_frame_counts_a_decode_error(pair):
    hub, a, b, clock = pair
    assert b.profiler is None
    a.transport.send("b", b"\x00 not an envelope")
    assert b.status()["decode_errors"] == 1
    rec = b.spawn(Recorder, name="rec")
    a.ref("b/rec").tell("after")           # the link still works
    _settle(a, b)
    assert _actor(rec).got == ["after"]


def test_failing_detector_counts_sink_errors_and_delivery_continues():
    from repro.obs.monitors import Detector, MonitorBus

    class Broken(Detector):
        name = "broken"

        def on_cluster(self, event):
            raise RuntimeError("detector bug")

    hub = LoopbackHub()
    a = ClusterNode("a", hub.join("a"), timer=False)
    b = ClusterNode("b", hub.join("b"), timer=False,
                    monitors=MonitorBus([Broken()]))
    try:
        a.connect("b")
        b.connect("a")
        rec = b.spawn(Recorder, name="rec")
        a.ref("b/rec").tell(0)
        # the bus gets rare events only: a tell to a missing actor is
        # one, the dead letter on b
        a.ref("b/ghost").tell("lost")
        for k in (1, 2):
            a.ref("b/rec").tell(k)
        assert b.drain(timeout=10)
        assert _actor(rec).got == [0, 1, 2]
        assert b.status()["sink_errors"] == 1
        assert a.status()["sink_errors"] == 0
    finally:
        a.close()
        b.close()


# ---------------------------------------------------------------------------
# zero-serialization local fast path
# ---------------------------------------------------------------------------

class TestLocalFastPath:
    def _solo(self, profiler=None, trace=False):
        hub = LoopbackHub()
        return ClusterNode("solo", hub.join("solo"), timer=False,
                           profiler=profiler, trace=trace)

    def test_remote_ref_to_own_node_skips_the_wire(self):
        from repro.cluster.node import RemoteRef
        from repro.obs import Metrics

        prof = Metrics()
        node = self._solo(profiler=prof)
        try:
            rec = node.spawn(Recorder, name="rec")
            ref = RemoteRef(node, "solo/rec")
            for i in range(10):
                ref.tell(i)
            assert node.drain(timeout=10)
            assert _actor(rec).got == list(range(10))
            snap = prof.snapshot()
            assert snap["counters"]["cluster.local_fastpath"] == 10
            # nothing serialized, nothing sent, no reliability state
            assert "cluster.sent" not in snap["counters"]
            assert "cluster.frames_out" not in snap["counters"]
            assert node.status()["unacked"] == {}
        finally:
            node.close()

    def test_send_tell_to_missing_local_actor_dead_letters(self):
        from repro.cluster.node import RemoteRef

        node = self._solo()
        try:
            RemoteRef(node, "solo/ghost").tell("lost?")
            dead = node.dead_letters()
            assert len(dead) == 1
            assert dead[0].message == "lost?"
            assert "ghost" in dead[0].target
        finally:
            node.close()

    def test_cached_local_ref_follows_respawn_under_same_name(self):
        """Stop the target, respawn under the same name: the cached
        fast-path ref must re-resolve to the new incarnation instead of
        feeding a dead cell forever."""
        from repro.cluster.node import RemoteRef

        node = self._solo()
        try:
            first = node.spawn(Recorder, name="phoenix")
            ref = RemoteRef(node, "solo/phoenix")
            ref.tell("one")
            assert node.drain(timeout=10)
            node.system.stop(first)
            assert node.system.drain(timeout=10)
            second = node.spawn(Recorder, name="phoenix")
            ref.tell("two")
            assert node.drain(timeout=10)
            assert _actor(first).got == ["one"]
            assert _actor(second).got == ["two"]
        finally:
            node.close()

    def test_local_delivery_emits_trace_event(self):
        from repro.cluster.node import RemoteRef

        node = self._solo(trace=True)
        try:
            node.spawn(Recorder, name="rec")
            RemoteRef(node, "solo/rec").tell("ping")
            assert node.drain(timeout=10)
            kinds = [e.kind for e in node.trace_events]
            assert "cluster-local" in kinds
        finally:
            node.close()

    def test_reply_path_round_trip_stays_local(self):
        """Request/reply where both parties address each other through
        cluster paths on one node — both directions take the fast path."""
        from repro.cluster.node import RemoteRef
        from repro.obs import Metrics

        prof = Metrics()
        node = self._solo(profiler=prof)
        try:
            node.spawn(Replier, name="rep")
            rec = node.spawn(Recorder, name="rec")
            target = RemoteRef(node, "solo/rep")
            target.tell("hi", sender=RemoteRef(node, "solo/rec"))
            assert node.drain(timeout=10)
            assert _actor(rec).got == [["echo", "hi"]]
            assert prof.snapshot()["counters"]["cluster.local_fastpath"] == 2
        finally:
            node.close()
