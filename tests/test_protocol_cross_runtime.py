"""One classifier for every runtime: the same payload, the same kind,
the same conformance verdict.

A message is classified once, when it is sent (``Send.kind`` on the
kernel, the channel tap on coroutines, the node's observer on the
cluster), by :func:`repro.obs.message_kind`.  The same stream of
payloads runs through a kernel Send/Receive program under ``explore``,
a tapped :class:`~repro.coroutines.CoChannel`, a loopback
:class:`~repro.cluster.ClusterNode` pair and a
:class:`~repro.actors.SimActorSystem` actor, each checked against the
same ``strict=True`` protocol at a party named ``svc``.  All four must
accept the same kinds and flag the same messages with the same words.
A pseudocode ``MESSAGE.name(v)`` is classified by its name.
"""

from repro.actors import Actor, SimActorSystem
from repro.cluster import ClusterNode, LoopbackHub, cluster_bus
from repro.core import Receive, RoundRobinPolicy, Scheduler, Send
from repro.core.mailbox import DeliveryPolicy, Mailbox
from repro.coroutines import CoChannel, CoScheduler
from repro.obs import (Detector, Protocol, ProtocolMonitor, message_kind,
                       protocol_bus)
from repro.verify import explore


class Plain:
    """A payload with no tag: classified by its type name."""


PAYLOADS = [("req", 1), "ping", 7, True, None, b"x", {"a": 1}, Plain()]
KINDS = ["req", "ping", "int", "bool", "nonetype", "bytes", "dict",
         "plain"]


def _proto():
    # "ping" cannot follow REQ; dict and plain are outside the alphabet
    return Protocol("p", "PING? -> REQ -> INT -> BOOL -> NONETYPE -> BYTES",
                    parties=("svc",), strict=True)


def _verdict(bus):
    """What a bus's protocol monitor concluded: the accepted kinds, and
    the violations as worded."""
    mon = next(d for d in bus.detectors if isinstance(d, ProtocolMonitor))
    return (tuple(mon._machines[0].trail),
            sorted(h.message for h in bus.hazards
                   if h.kind == "protocol-violation"))


EXPECTED = (("req", "int", "bool", "nonetype", "bytes"), sorted([
    "protocol 'p' at svc: message 'ping' cannot follow state after req; "
    "expected {int}",
    "protocol 'p' at svc: message 'dict' outside the protocol alphabet; "
    "expected {end of session}",
    "protocol 'p' at svc: message 'plain' outside the protocol alphabet; "
    "expected {end of session}",
]))


class _SentKinds(Detector):
    """Records the ``msg_kind`` of every send event on a bus."""

    def __init__(self):
        self.kinds = []

    def on_event(self, view, event, ready):
        if event.msg_seq is not None:
            self.kinds.append(event.msg_kind)
        return ()


def _bus():
    bus = protocol_bus([_proto()], include_default=False)
    bus.detectors.append(_SentKinds())
    return bus


def _sent_kinds(bus):
    return next(d for d in bus.detectors if isinstance(d, _SentKinds)).kinds


def test_the_classifier_names_each_payload():
    assert [message_kind(p) for p in PAYLOADS] == KINDS


def test_kernel_program_under_explore():
    buses = []

    def monitors():
        buses.append(_bus())
        return buses[-1]

    def program(sched):
        mb = Mailbox("svc", policy=DeliveryPolicy.FIFO)

        def producer():
            for p in PAYLOADS:
                yield Send(mb, p)

        def consumer():
            for _ in PAYLOADS:
                yield Receive(mb)
        sched.spawn(producer, name="producer")
        sched.spawn(consumer, name="consumer")

    res = explore(program, reduce="all", monitors=monitors)
    # the first run is complete (later ones may be pruned mid-run)
    assert _sent_kinds(buses[0]) == KINDS
    assert _verdict(buses[0]) == EXPECTED
    # and no explored interleaving flags anything else
    assert {h.message for h in res.hazards} == set(EXPECTED[1])


def test_tapped_coroutine_channel():
    bus = _bus()
    sched = CoScheduler(monitors=bus)
    chan = CoChannel(capacity=len(PAYLOADS), sched=sched, name="svc")

    def producer():
        for p in PAYLOADS:
            yield from chan.put(p)

    def consumer():
        for _ in PAYLOADS:
            yield from chan.get()
    sched.spawn(producer, name="producer")
    sched.spawn(consumer, name="consumer")
    sched.run()
    assert _sent_kinds(bus) == KINDS
    assert _verdict(bus) == EXPECTED


class Sink(Actor):
    def receive(self, message, sender):
        pass


def test_loopback_cluster_pair():
    hub = LoopbackHub()
    bus = cluster_bus(protocols=[_proto()])
    a = ClusterNode("a", hub.join("a"), workers=2, timer=False)
    b = ClusterNode("b", hub.join("b"), workers=2, monitors=bus,
                    timer=False)
    try:
        a.connect("b")
        b.connect("a")
        b.spawn(Sink, name="svc")
        ref = a.ref("b/svc")
        for p in PAYLOADS:
            ref.tell(p)
        assert a.drain() and b.drain()
        assert _verdict(bus) == EXPECTED
    finally:
        a.close()
        b.close()


def test_sim_actor_payload_is_classified_not_its_wrapper():
    bus = _bus()
    sched = Scheduler(RoundRobinPolicy(), monitors=bus)
    system = SimActorSystem(sched, mailbox_policy=DeliveryPolicy.FIFO)

    def driver():
        ref = system.spawn(Sink, name="svc")
        for p in PAYLOADS:
            yield from system.tell_gen(ref, p)
        yield from system.stop_gen(ref)
    sched.spawn(driver, name="driver")
    sched.run()
    # a stop signal is no protocol message: no kind, nothing flagged
    assert _sent_kinds(bus) == KINDS + [None]
    assert _verdict(bus) == EXPECTED


def test_pseudocode_message_name_is_its_kind():
    # the paper's Figure 5: MESSAGE.h and MESSAGE.w sent to one receiver
    from repro.pseudocode import compile_program
    program = compile_program("""
CLASS Receiver
  DEFINE receive()
    ON_RECEIVING
      MESSAGE.h(var)
        PRINT var
      MESSAGE.w(var)
        PRINTLN var
  ENDDEF
ENDCLASS
r1 = new Receiver()
r1.receive()
Send(MESSAGE.h("hello ")).To(r1)
Send(MESSAGE.w("world")).To(r1)
""").make_program()
    bus = protocol_bus([Protocol("wh", "W -> H", at="send", strict=True)],
                       include_default=False)
    bus.detectors.append(_SentKinds())
    sched = Scheduler(RoundRobinPolicy(), monitors=bus)
    program(sched)
    sched.run()
    assert _sent_kinds(bus) == ["h", "w"]
    # h is flagged and dropped; w then opens the session
    assert [h.kind for h in bus.hazards] == ["protocol-violation"]
    assert "message 'h' cannot follow the initial state" \
        in bus.hazards[0].message
