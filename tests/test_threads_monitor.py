"""Conformance of the threaded Monitor's wait queue.

The first half drives :class:`repro.threads.Monitor` with real threads:
recursion depth across ``wait``, ownership errors, ``notify(1)`` waking
exactly one waiter, timed-out waiters leaving the queue, and the
profiler's metric names and counts.  The second half ports the wait-queue
protocol to a kernel program and model-checks it, with one mutation per
step the protocol depends on.
"""

import sys
import threading
import time
from collections import deque

import pytest

from repro.core import (Access, AccessKind, Acquire, Choice, Release,
                        SimLock, SimSemaphore)
from repro.obs import (DeadlockDetector, FakeClock, LostWakeupDetector,
                       Metrics, MonitorBus)
from repro.threads import JThread, Monitor, MonitorStateError
from repro.verify import explore


def _park_waiters(m: Monitor, state: dict, count: int) -> None:
    """Return once ``count`` threads have counted themselves parked.

    Waiters bump ``state["parked"]`` while holding the monitor and then
    wait; a wait registers before it releases the monitor, so seeing the
    count here (monitor held) means every one of them is in the queue.
    """
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        with m:
            if state["parked"] == count:
                return
        time.sleep(0.001)
    raise AssertionError(f"only {state['parked']} of {count} waiters parked")


class TestRealThreads:
    def test_wait_at_depth_two_frees_the_monitor_and_restores_depth(self):
        m = Monitor()
        parking = threading.Event()
        after = {}

        def waiter():
            m.acquire()
            m.acquire()                     # depth 2
            parking.set()
            after["signalled"] = m.wait()
            m.release()
            after["held_after_one_release"] = m.held_by_me
            m.release()
            after["held_after_two_releases"] = m.held_by_me

        def entrant():
            with m:                         # enterable only while parked
                m.notify()
            return "entered"

        t = JThread(target=waiter).start()
        assert parking.wait(timeout=5)
        assert JThread(target=entrant).start().join(timeout=5) == "entered"
        t.join(timeout=5)
        assert after == {"signalled": True,
                         "held_after_one_release": True,
                         "held_after_two_releases": False}
        assert not m.held_by_me

    @pytest.mark.parametrize("call", [
        lambda m: m.wait(),
        lambda m: m.wait(0.01),
        lambda m: m.wait_until(lambda: True),
        lambda m: m.notify(),
        lambda m: m.notify_all(),
    ], ids=["wait", "timed-wait", "wait_until", "notify", "notify_all"])
    def test_condition_calls_need_the_monitor_held_by_the_caller(self, call):
        m = Monitor("owned-elsewhere")
        held, done = threading.Event(), threading.Event()

        def holder():
            with m:
                held.set()
                done.wait(timeout=5)

        t = JThread(target=holder).start()
        try:
            assert held.wait(timeout=5)
            assert not m.held_by_me
            with pytest.raises(MonitorStateError, match="owned-elsewhere"):
                call(m)
        finally:
            done.set()
            t.join(timeout=5)

    def test_notify_one_wakes_exactly_one_of_two_waiters(self):
        m = Monitor()
        state = {"parked": 0, "woken": 0}

        def waiter():
            with m:
                state["parked"] += 1
                m.wait()
                state["woken"] += 1

        threads = [JThread(target=waiter).start() for _ in range(2)]
        try:
            _park_waiters(m, state, 2)
            with m:
                m.notify(1)
            deadline = time.monotonic() + 5
            while state["woken"] == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.05)                # room for a wrong second wake
            with m:
                assert state["woken"] == 1
        finally:
            with m:
                m.notify_all()
            for t in threads:
                t.join(timeout=5)
        assert state["woken"] == 2

    def test_timed_out_waiter_does_not_swallow_a_later_notify(self):
        m = Monitor()
        state = {"parked": 0}
        with m:
            assert m.wait(0.01) is False    # times out: nobody notifies

        def waiter():
            with m:
                state["parked"] += 1
                return m.wait()

        t = JThread(target=waiter).start()
        try:
            _park_waiters(m, state, 1)
            with m:
                m.notify(1)                 # must reach the live waiter
            assert t.join(timeout=2) is True
        finally:
            with m:
                m.notify_all()
            t.join(timeout=5)

    def test_notify_that_meets_an_expired_waiter_is_delivered(self):
        m = Monitor()
        parking = threading.Event()

        def waiter():
            with m:
                parking.set()
                return m.wait(0.02)

        t = JThread(target=waiter).start()
        assert parking.wait(timeout=5)
        with m:                             # enterable only while parked
            time.sleep(0.1)                 # its timeout fires meanwhile
            m.notify(1)                     # ...but it is still queued
        assert t.join(timeout=5) is True

    def test_stress_handoff_with_timed_and_untimed_waiters(self):
        """More threads than cores and a short switch interval: every
        item is taken exactly once and every thread finishes, while
        timed waits keep expiring beside ``notify(1)`` calls."""
        m = Monitor()
        per_producer, producers = 500, 3
        total = per_producer * producers
        items, taken = deque(), []

        def producer(p):
            for i in range(per_producer):
                with m:
                    items.append((p, i))
                    m.notify(1)

        def consumer(timeout):
            while True:
                with m:
                    while not items and len(taken) < total:
                        m.wait(timeout)
                    if len(taken) == total:
                        return
                    taken.append(items.popleft())
                    if len(taken) == total:
                        m.notify_all()      # release the idle consumers

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [JThread(target=consumer, args=(t,)).start()
                       for t in (None, None, 0.0005, 0.001)]
            threads += [JThread(target=producer, args=(p,)).start()
                        for p in range(producers)]
            for t in threads:
                t.join(timeout=20)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert sorted(taken) == [(p, i) for p in range(producers)
                                 for i in range(per_producer)]

    def test_profiler_counts_with_a_fake_clock(self):
        class SignallingClock(FakeClock):
            """Sets ``read`` on each reading: the contended branch of
            ``__enter__`` reads the clock before it blocks."""

            def __init__(self):
                super().__init__()
                self.read = threading.Event()

            def __call__(self):
                self.read.set()
                return super().__call__()

        clock = SignallingClock()
        prof = Metrics(clock=clock)
        m = Monitor("metered", profiler=prof)
        with m:
            with m:
                m.notify()
                m.notify_all()
                assert m.wait(0) is False
                assert m.wait_until(lambda: True)

        held, clock.read = threading.Event(), threading.Event()

        def holder():
            with m:
                held.set()
                clock.read.wait(timeout=5)  # until the entrant contends

        t = JThread(target=holder).start()
        assert held.wait(timeout=5)
        with m:
            pass
        t.join(timeout=5)
        snap = prof.snapshot()
        assert snap["counters"] == {
            "lock.acquires": 4, "lock.contended": 1, "monitor.notifies": 2,
            "monitor.waits": 1, "monitor.wakeups": 1}
        assert {k: (h["count"], h["total"])
                for k, h in snap["histograms"].items()} == {
            "lock.wait_us": (1, pytest.approx(1000.0)),
            "monitor.wait_us": (1, pytest.approx(1000.0))}


# -- the wait-queue protocol, model-checked -----------------------------------

def _wait_queue_program(register_first: bool = True,
                        remove_timed_out: bool = True):
    """``Monitor.wait``/``notify`` as a kernel program.

    A :class:`SimLock` stands for the monitor's RLock and one
    ``SimSemaphore(0)`` per wait for the waiter's one-shot lock.  The
    waiter list and ``ready`` are plain shared state: every touch of
    them runs while the monitor is held, so the lock's own conflicts
    order them for the partial-order reduction — except registration,
    which one mutation moves outside the monitor, so it is announced
    with ``Access``.  A ``Choice`` is the timeout: it may fire at any
    point before the waiter blocks, so also after a notify already
    released its lock.

    Three threads: ``timed`` waits for ``ready`` with a timeout and gives
    up once it expires; ``patient`` waits without one; ``setter`` sets
    ``ready`` and calls ``notify(1)``.  A waiter that sees ``ready``
    passes one ``notify(1)`` on, so every waiter can finish — unless the
    queue itself loses a wakeup.  The two flags are the mutations:
    giving up the monitor before registering, and a timed-out waiter
    that stays in the queue.
    """
    def program(sched):
        monitor = SimLock("monitor")
        state = {"ready": False, "waiters": []}
        sched.fingerprint_extra = lambda: (
            state["ready"], tuple(s.name for s in state["waiters"]))

        def register(sem):
            yield Access("waiters", AccessKind.WRITE)
            state["waiters"].append(sem)

        def wait(name, timed):
            sem = SimSemaphore(0, f"{name}.waiter")
            if register_first:
                yield from register(sem)
                yield Release(monitor)
            else:
                yield Release(monitor)
                yield from register(sem)
            signalled = True
            if timed and (yield Choice(("wake", "timeout"))) == "timeout":
                signalled = False
            else:
                yield Acquire(sem)
            yield Acquire(monitor)
            if not signalled:
                if sem not in state["waiters"]:
                    signalled = True        # a notify popped it meanwhile
                elif remove_timed_out:
                    state["waiters"].remove(sem)
            return signalled

        def notify_one():
            if state["waiters"]:
                yield Release(state["waiters"].pop(0))

        def waiter(name, timed):
            yield Acquire(monitor)
            while not state["ready"]:
                if not (yield from wait(name, timed)):
                    break                   # timed out: give up
            if state["ready"]:
                yield from notify_one()     # pass the wakeup on
            yield Release(monitor)

        def setter():
            yield Acquire(monitor)
            state["ready"] = True
            yield from notify_one()
            yield Release(monitor)

        sched.spawn(waiter, "timed", True, name="timed")
        sched.spawn(waiter, "patient", False, name="patient")
        sched.spawn(setter, name="setter")
    return program


def _explore_armed(program):
    return explore(program, reduce="all", max_runs=5000,
                   monitors=lambda: MonitorBus([DeadlockDetector(),
                                                LostWakeupDetector()]))


class TestWaitQueueModel:
    def test_protocol_is_clean_over_every_schedule(self):
        res = _explore_armed(_wait_queue_program())
        assert res.complete
        assert not res.deadlock_possible
        assert res.hazards == []

    @pytest.mark.parametrize("mutation", [
        {"register_first": False},
        {"remove_timed_out": False},
    ], ids=["release-before-register", "timed-out-waiter-stays-queued"])
    def test_each_mutation_strands_a_waiter(self, mutation):
        res = _explore_armed(_wait_queue_program(**mutation))
        assert res.deadlock_possible
        stranded = [h for h in res.hazards if h.kind == "deadlock"]
        assert stranded and all("patient" in h.tasks for h in stranded)
