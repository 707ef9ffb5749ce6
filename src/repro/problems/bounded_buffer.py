"""Bounded buffer (producer/consumer) — homework 2's shared-memory
problem and homework 3's message-passing problem, in all three models
plus a kernel program for exhaustive exploration.

The invariant all variants are audited against: every produced item is
consumed exactly once, in FIFO order per producer, and the buffer never
exceeds its capacity.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from ..core import (Acquire, Effect, Emit, Notify, Release, Scheduler,
                    SimMonitor, Wait)

__all__ = ["PSEUDOCODE", "buffer_program", "audit_consumption",
           "audit_fifo_single",
           "run_threads_buffer", "run_actor_buffer", "run_coroutine_buffer"]

#: the pseudocode students write for homework 2 (shared-memory form)
PSEUDOCODE = '''\
count = 0
in_slot = 0
out_slot = 0
produced = 0
consumed = 0

DEFINE produce()
  EXC_ACC
    WHILE count >= 2
      WAIT()
    ENDWHILE
    count = count + 1
    produced = produced + 1
    NOTIFY()
  END_EXC_ACC
ENDDEF

DEFINE consume()
  EXC_ACC
    WHILE count <= 0
      WAIT()
    ENDWHILE
    count = count - 1
    consumed = consumed + 1
    NOTIFY()
  END_EXC_ACC
ENDDEF

PARA
  produce()
  produce()
  consume()
  consume()
ENDPARA
PRINT count
'''


def buffer_program(capacity: int = 2, producers: int = 2, consumers: int = 2,
                   items_each: int = 2):
    """Kernel program (for :func:`repro.verify.explore`): monitor-guarded
    ring buffer with multiple producers and consumers.

    Observation: (consumed-items-in-order, leftover-count).
    """

    def program(sched: Scheduler):
        monitor = SimMonitor("buffer")
        state: dict[str, Any] = {"items": [], "consumed": []}

        def producer(pid: int) -> Iterator[Effect]:
            for k in range(items_each):
                yield Acquire(monitor)
                while len(state["items"]) >= capacity:
                    yield Wait(monitor)
                state["items"].append((pid, k))
                yield Emit(("put", pid, k))
                yield Notify(monitor, all=True)
                yield Release(monitor)

        def consumer(cid: int) -> Iterator[Effect]:
            quota = (producers * items_each) // consumers
            for _ in range(quota):
                yield Acquire(monitor)
                while not state["items"]:
                    yield Wait(monitor)
                item = state["items"].pop(0)
                state["consumed"].append(item)
                yield Emit(("got", cid, item))
                yield Notify(monitor, all=True)
                yield Release(monitor)

        for p in range(producers):
            sched.spawn(producer, p, name=f"producer-{p}")
        for c in range(consumers):
            sched.spawn(consumer, c, name=f"consumer-{c}")
        # expose the buffer contents to scheduler fingerprints so the
        # explorer's state-deduplication reduction stays sound here
        sched.fingerprint_extra = lambda: (
            tuple(state["items"]), tuple(state["consumed"]))
        return lambda: (tuple(state["consumed"]), len(state["items"]))

    return program


def audit_consumption(consumed: list[tuple], producers: int,
                      items_each: int) -> Optional[str]:
    """Exactly-once delivery: the consumed multiset equals the produced set.

    Global per-producer *order* is only guaranteed with a single
    consumer (a consumer may be descheduled between taking an item and
    recording it), so order is deliberately not part of this audit —
    :func:`audit_fifo_single` checks it for the 1-consumer case.
    """
    expected = {(p, k) for p in range(producers) for k in range(items_each)}
    got = list(consumed)
    if len(got) != len(set(got)):
        dupes = sorted({x for x in got if got.count(x) > 1})
        return f"duplicated items: {dupes[:5]}"
    missing = expected - set(got)
    extra = set(got) - expected
    if missing or extra:
        return f"missing={sorted(missing)[:5]} extra={sorted(extra)[:5]}"
    return None


def audit_fifo_single(consumed: list[tuple], producers: int) -> Optional[str]:
    """Per-producer order — valid only for single-consumer runs."""
    last_seen = {p: -1 for p in range(producers)}
    for pid, k in consumed:
        if k <= last_seen[pid]:
            return f"producer {pid}: item {k} after {last_seen[pid]}"
        last_seen[pid] = k
    return None


# ---------------------------------------------------------------------------
# the three course models
# ---------------------------------------------------------------------------

def run_threads_buffer(capacity: int = 4, producers: int = 2,
                       consumers: int = 2, items_each: int = 50,
                       profiler=None) -> list[tuple]:
    """Monitor-based bounded buffer on real threads; returns consumed."""
    from ..threads import JThread, Monitor

    monitor = Monitor("buffer", profiler=profiler)
    items: list[tuple] = []
    consumed: list[tuple] = []
    total = producers * items_each

    def producer(pid: int) -> None:
        for k in range(items_each):
            with monitor:
                monitor.wait_until(lambda: len(items) < capacity)
                items.append((pid, k))
                monitor.notify_all()

    def consumer() -> None:
        while True:
            with monitor:
                monitor.wait_until(
                    lambda: items or len(consumed) >= total)
                if not items and len(consumed) >= total:
                    return
                if not items:
                    continue
                consumed.append(items.pop(0))
                monitor.notify_all()

    threads = ([JThread(target=producer, args=(p,), name=f"prod-{p}",
                        profiler=profiler)
                for p in range(producers)]
               + [JThread(target=consumer, name=f"cons-{c}",
                          profiler=profiler)
                  for c in range(consumers)])
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    problem = audit_consumption(consumed, producers, items_each)
    if problem:
        raise AssertionError(problem)
    return consumed


def run_actor_buffer(capacity: int = 4, producers: int = 2,
                     consumers: int = 2, items_each: int = 50,
                     profiler=None) -> list[tuple]:
    """Buffer actor mediating producers and consumers by messages.

    The buffer defers Get requests while empty and Put requests while
    full — the message-passing translation of conditional waiting that
    homework 3 asks for.
    """
    from ..actors import Actor, ActorSystem

    consumed: list[tuple] = []
    import threading
    done = threading.Event()
    total = producers * items_each

    class Buffer(Actor):
        def __init__(self) -> None:
            super().__init__()
            self.items: list[tuple] = []
            self.waiting_get: list[Any] = []
            self.waiting_put: list[tuple] = []

        def receive(self, message: Any, sender: Any) -> None:
            kind = message[0]
            if kind == "put":
                item = message[1]
                if len(self.items) < capacity:
                    self.items.append(item)
                    sender.tell(("ok",), sender=self.self_ref)
                    self._serve_getters()
                else:
                    self.waiting_put.append((item, sender))
            elif kind == "get":
                if self.items:
                    sender.tell(("item", self.items.pop(0)),
                                sender=self.self_ref)
                    self._serve_putters()
                else:
                    self.waiting_get.append(sender)

        def _serve_getters(self) -> None:
            while self.items and self.waiting_get:
                self.waiting_get.pop(0).tell(
                    ("item", self.items.pop(0)), sender=self.self_ref)

        def _serve_putters(self) -> None:
            while self.waiting_put and len(self.items) < capacity:
                item, sender = self.waiting_put.pop(0)
                self.items.append(item)
                sender.tell(("ok",), sender=self.self_ref)
                self._serve_getters()

    class Producer(Actor):
        def __init__(self, pid: int, buffer: Any) -> None:
            super().__init__()
            self.pid = pid
            self.buffer = buffer
            self.next_k = 0

        def pre_start(self) -> None:
            self._put()

        def _put(self) -> None:
            self.buffer.tell(("put", (self.pid, self.next_k)),
                             sender=self.self_ref)
            self.next_k += 1

        def receive(self, message: Any, sender: Any) -> None:
            if message[0] == "ok" and self.next_k < items_each:
                self._put()

    class Consumer(Actor):
        def __init__(self, buffer: Any) -> None:
            super().__init__()
            self.buffer = buffer

        def pre_start(self) -> None:
            self.buffer.tell(("get",), sender=self.self_ref)

        def receive(self, message: Any, sender: Any) -> None:
            if message[0] == "item":
                consumed.append(message[1])
                if len(consumed) >= total:
                    done.set()
                else:
                    self.buffer.tell(("get",), sender=self.self_ref)

    with ActorSystem(workers=4, profiler=profiler) as system:
        buffer = system.spawn(Buffer, name="buffer")
        for p in range(producers):
            system.spawn(Producer, p, buffer, name=f"prod-{p}")
        for c in range(consumers):
            system.spawn(Consumer, buffer, name=f"cons-{c}")
        done.wait(timeout=30)

    problem = audit_consumption(consumed, producers, items_each)
    if problem:
        raise AssertionError(problem)
    return consumed


def run_coroutine_buffer(capacity: int = 4, producers: int = 2,
                         consumers: int = 2, items_each: int = 50,
                         profiler=None) -> list[tuple]:
    """Cooperative bounded buffer over CoChannel."""
    from ..coroutines import CoChannel, CoScheduler

    chan = CoChannel(capacity=capacity, name="buffer")
    consumed: list[tuple] = []

    def producer(pid: int):
        for k in range(items_each):
            yield from chan.put((pid, k))

    def consumer(quota: int):
        for _ in range(quota):
            consumed.append((yield from chan.get()))

    sched = CoScheduler(profiler=profiler)
    for p in range(producers):
        sched.spawn(producer, p, name=f"prod-{p}")
    quota = (producers * items_each) // consumers
    for c in range(consumers):
        sched.spawn(consumer, quota, name=f"cons-{c}")
    sched.run()
    problem = audit_consumption(consumed, producers, items_each)
    if problem:
        raise AssertionError(problem)
    return consumed
