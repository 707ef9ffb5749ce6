"""Ping-pong — the minimal two-mailbox request/reply exchange.

Not a course problem but the canonical message-passing smoke test: a
pinger sends ``ping<i>`` requests to the ponger's mailbox and waits for
each ``pong<i>`` reply before emitting it.  Every step is either a send
or a receive, so the trace is wall-to-wall message traffic — the demo
case for the Chrome-trace exporter's flow arrows (each send pairs with
exactly one delivery) and the mailbox-depth counters.
"""

from __future__ import annotations

from ..core.effects import Emit, Receive, Send
from ..core.mailbox import DeliveryPolicy, Mailbox

__all__ = ["pingpong_program", "run_threads_pingpong",
           "run_actor_pingpong", "run_coroutine_pingpong"]


def pingpong_program(rounds: int = 2,
                     policy: DeliveryPolicy = DeliveryPolicy.ARBITRARY):
    """Kernel program factory: ``rounds`` request/reply round trips.

    The pinger emits each reply it receives, so the observable output of
    every schedule is ``pong0 pong1 ...`` — the exchange is fully
    synchronized and the output deterministic, even though the scheduler
    still interleaves the two tasks' steps freely.
    """

    def program(sched):
        ping_box = Mailbox("ping", policy=policy)   # replies, to pinger
        pong_box = Mailbox("pong", policy=policy)   # requests, to ponger

        def pinger():
            for i in range(rounds):
                yield Send(pong_box, f"ping{i}")
                reply = yield Receive(ping_box)
                yield Emit(reply)

        def ponger():
            for _ in range(rounds):
                msg = yield Receive(pong_box)
                yield Send(ping_box, msg.replace("ping", "pong"))

        sched.spawn(pinger, name="pinger")
        sched.spawn(ponger, name="ponger")

    return program


# ---------------------------------------------------------------------------
# the three runnable forms — the round-trip *latency* microbenchmark:
# every round is one request + one reply with nothing else to overlap,
# so each runtime's per-message cost dominates end to end
# ---------------------------------------------------------------------------

def run_threads_pingpong(rounds: int = 100, profiler=None) -> int:
    """Two threads trading messages over a pair of BlockingQueues."""
    from ..threads import BlockingQueue, JThread

    ping_q: BlockingQueue = BlockingQueue(name="ping", profiler=profiler)
    pong_q: BlockingQueue = BlockingQueue(name="pong", profiler=profiler)
    replies = [0]

    def pinger() -> None:
        for i in range(rounds):
            pong_q.put(("ping", i))
            ping_q.take()
            replies[0] += 1

    def ponger() -> None:
        for _ in range(rounds):
            kind, i = pong_q.take()
            ping_q.put(("pong", i))

    threads = [JThread(target=pinger, name="pinger", profiler=profiler),
               JThread(target=ponger, name="ponger", profiler=profiler)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    if replies[0] != rounds:
        raise AssertionError(f"lost replies: {replies[0]}/{rounds}")
    return replies[0]


def run_actor_pingpong(rounds: int = 100, profiler=None) -> int:
    """Two actors trading tell()s — mailbox round-trip latency."""
    import threading

    from ..actors import Actor, ActorSystem

    replies = [0]
    done = threading.Event()

    class Ponger(Actor):
        def receive(self, message, sender) -> None:
            sender.tell(("pong", message[1]), sender=self.self_ref)

    class Pinger(Actor):
        def __init__(self, ponger) -> None:
            super().__init__()
            self.ponger = ponger

        def pre_start(self) -> None:
            self.ponger.tell(("ping", 0), sender=self.self_ref)

        def receive(self, message, sender) -> None:
            replies[0] += 1
            if replies[0] >= rounds:
                done.set()
            else:
                self.ponger.tell(("ping", replies[0]), sender=self.self_ref)

    with ActorSystem(workers=2, profiler=profiler) as system:
        ponger = system.spawn(Ponger, name="ponger")
        system.spawn(Pinger, ponger, name="pinger")
        done.wait(timeout=30)
    if replies[0] != rounds:
        raise AssertionError(f"lost replies: {replies[0]}/{rounds}")
    return replies[0]


def run_coroutine_pingpong(rounds: int = 100, profiler=None) -> int:
    """Two cooperative tasks trading items over a pair of CoChannels."""
    from ..coroutines import CoChannel, CoScheduler

    ping_chan = CoChannel(capacity=1, name="ping")
    pong_chan = CoChannel(capacity=1, name="pong")
    replies = [0]

    def pinger():
        for i in range(rounds):
            yield from pong_chan.put(("ping", i))
            yield from ping_chan.get()
            replies[0] += 1

    def ponger():
        for _ in range(rounds):
            kind, i = yield from pong_chan.get()
            yield from ping_chan.put(("pong", i))

    sched = CoScheduler(profiler=profiler)
    sched.spawn(pinger, name="pinger")
    sched.spawn(ponger, name="ponger")
    sched.run()
    if replies[0] != rounds:
        raise AssertionError(f"lost replies: {replies[0]}/{rounds}")
    return replies[0]
