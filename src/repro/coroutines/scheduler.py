"""Cooperative multitasking on coroutines — the course's third model.

A :class:`CoScheduler` round-robins generator tasks; tasks give up the
CPU explicitly (``yield pause()``), block on each other (``yield from
task.join()`` via markers) and communicate through :class:`CoChannel`.
No preemption exists: between two yields a task cannot be interleaved,
which is the cooperative model's defining contrast with threads that
the course has students reason about.

The markers are internal; user code calls the generator helpers::

    def producer(chan):
        for i in range(3):
            yield from chan.put(i)

    def consumer(chan, out):
        for _ in range(3):
            out.append((yield from chan.get()))

    sched = CoScheduler()
    chan = CoChannel(capacity=1, name="items")
    out = []
    sched.spawn(producer, chan)
    sched.spawn(consumer, chan, out)
    sched.run()
"""

from __future__ import annotations

import inspect
from contextlib import suppress
from collections import deque
from typing import Any, Callable, Generator, Iterator, Optional

__all__ = ["CoDeadlock", "CoTask", "CoScheduler", "pause", "CoChannel",
           "CoEvent", "CoSemaphore", "ChannelClosed"]


class CoDeadlock(RuntimeError):
    """All live tasks are parked — nobody can ever run again."""


class ChannelClosed(RuntimeError):
    """Operation on a closed (and, for get, drained) channel."""


# -- internal markers a task may yield -------------------------------------

class _Pause:
    __slots__ = ()


_PAUSE = _Pause()


def pause() -> _Pause:
    """Yield this to give other tasks a turn: ``yield pause()``."""
    return _PAUSE


class _Park(list):
    """A wait list (owned by a channel/event) that is its own marker: a
    task parks on it by yielding it."""

    __slots__ = ()


class _Wake:
    """Move parked tasks from a wait list back to the ready queue."""

    __slots__ = ("waitlist", "count")

    def __init__(self, waitlist: _Park, count: Optional[int] = None):
        self.waitlist = waitlist
        self.count = count   # None = wake all


class _Join:
    __slots__ = ("task",)

    def __init__(self, task: "CoTask"):
        self.task = task


class CoTask:
    """Handle on a spawned cooperative task."""

    def __init__(self, gen: Generator, tid: int, name: str = ""):
        #: spawn-order index within its scheduler (monitor-bus identity)
        self.tid = tid
        self.name = name or f"cotask-{tid}"
        self.gen = gen
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.joiners: list["CoTask"] = []
        self.steps = 0
        #: True once some joiner observed this task's error
        self.error_observed = False
        #: profiling only: when this task last entered the ready queue
        self.ready_at = 0.0
        #: causal tracing only: request context, advanced per resume
        self.ctx: Any = None

    def join(self) -> Iterator[Any]:
        """``result = yield from task.join()`` — wait for completion."""
        if not self.done:
            yield _Join(self)
        if self.error is not None:
            self.error_observed = True
            raise self.error
        return self.result

    def __repr__(self) -> str:
        state = "done" if self.done else "live"
        return f"<CoTask {self.name} {state}>"


class _Observer:
    """A scheduler's sinks, compiled into the two hook points of its
    loop: :meth:`resume` and :meth:`finished`.  Built only when a sink
    is set, so an uninstrumented loop tests one ``None`` per step."""

    def __init__(self, sched: "CoScheduler") -> None:
        self.sched, self.bus = sched, sched.monitors
        self.prof, self.trc = sched.profiler, sched.tracer
        self.last: Optional[CoTask] = None   # for context-switch counting
        self.ready_names: tuple = ()

    def resume(self, task: CoTask) -> Any:
        """``task.gen.send(None)``, observed around the send; the marker
        it yields is observed before the loop acts on it."""
        prof, trc = self.prof, self.trc
        if prof is not None:
            t0 = prof.now()
            prof.inc("coro.resumes")
            if self.last is not None and self.last is not task:
                prof.inc("context_switches")
            self.last = task
            prof.task_add(task.name, "steps", 1)
            prof.observe_us("coro.ready_wait_us", t0 - task.ready_at)
        if self.bus is not None:
            # runnable set at choice time: the stepped task + the queue
            self.ready_names = (task.name,) + tuple(
                t.name for t in self.sched.ready)
        tctx = task.ctx if trc is not None else None
        if tctx is not None:
            # resume under the task's context; the closed span becomes
            # the parent of whatever this slice spawns or sends
            r0 = trc.now()
            trc.install(tctx)
        try:
            marker = task.gen.send(None)
        finally:
            if tctx is not None:
                task.ctx = trc.hop(tctx, "coro-resume", task.name, r0,
                                   trc.now())
                trc.uninstall()
            if prof is not None:
                prof.observe_us("coro.resume_us", prof.now() - t0)
        cls = marker.__class__
        if cls is _Park:
            if prof is not None:
                prof.inc("coro.parks")
            self._feed(task, "park")
        elif cls is _Join:
            self._feed(task, f"join {marker.task.name}")
        elif cls is _Pause or cls is _Wake or marker is None:
            woken = marker.waitlist[:marker.count] if cls is _Wake else []
            if prof is not None:   # back in the ready queue
                if woken:
                    prof.inc("coro.wakes", len(woken))
                now = prof.now()
                for t in (task, *woken):
                    t.ready_at = now
            self._feed(task, f"wake {len(woken)}" if cls is _Wake
                       else "pause")
        return marker   # an unknown one is reported by finished()

    def finished(self, task: CoTask) -> None:
        err = task.error
        prof = self.prof
        if prof is not None:
            prof.inc("tasks_failed" if err is not None else "tasks_finished")
            if task.joiners:
                now = prof.now()
                for j in task.joiners:
                    j.ready_at = now
        self._feed(task, "return" if err is None
                   else f"raise {type(err).__name__}")

    def _feed(self, task: Optional[CoTask], desc: str,
              ready: Optional[tuple] = None, kind: str = "run",
              **fields: Any) -> None:
        if self.bus is not None:   # ``ready`` defaults to resume's snapshot
            from ..core.trace import TraceEvent
            name, tid = ((task.name, task.tid) if task is not None
                         else ("?", -1))
            self.bus.feed(TraceEvent(
                step=self.sched.steps, task_tid=tid, task_name=name,
                kind=kind, effect_repr=desc, chosen_index=0, fanout=1,
                **fields), ready or self.ready_names)


class CoScheduler:
    """Round-robin driver for cooperative tasks.

    ``profiler`` takes an optional :class:`repro.obs.Metrics`; when
    provided, the scheduler records each event once: ``coro.resumes``,
    ``context_switches``, ``coro.parks``, ``coro.wakes``,
    ``tasks_spawned``, ``tasks_finished``/``tasks_failed`` and per-task
    step counts, plus the wall-clock ``coro.resume_us`` and
    ``coro.ready_wait_us`` (ready-queue residency) read through the
    registry's clock — inject a :class:`repro.obs.FakeClock` and two
    runs of the same program report identical snapshots.

    ``monitors`` takes an optional :class:`repro.obs.MonitorBus`: each
    step is synthesized into a kernel-shaped
    :class:`~repro.core.trace.TraceEvent` (effects ``pause`` / ``park``
    / ``wake n`` / ``join x`` / ``return`` / ``raise E``) and fed to
    the bus, so cross-model detectors — starvation, task failure,
    deadlock reporting — watch cooperative programs too.
    :meth:`run` delivers the outcome via ``bus.finish``;
    :meth:`run_until` does not (the run is intentionally partial).
    """

    def __init__(self, monitors: Optional[Any] = None,
                 profiler: Optional[Any] = None,
                 tracer: Optional[Any] = None) -> None:
        self.ready: deque[CoTask] = deque()
        self.tasks: list[CoTask] = []
        self.steps = 0
        self.monitors = monitors
        self.profiler = profiler
        #: optional :class:`repro.obs.causal.CausalTracer` — each resume
        #: runs under the context captured at spawn (``coro-resume`` span)
        self.tracer = tracer
        #: the sinks, fixed from here on, as one observer (None if unset)
        sinks = (monitors, profiler, tracer)
        self._obs = None if all(x is None for x in sinks) else _Observer(self)
        #: the task whose slice is running (channel taps attribute to it)
        self.current: Optional[CoTask] = None
        self._chan_seq = 0

    def spawn(self, fn: Callable[..., Generator] | Generator, *args: Any,
              name: str = "", **kwargs: Any) -> CoTask:
        gen = fn(*args, **kwargs) if inspect.isgeneratorfunction(fn) else fn
        task = CoTask(gen, len(self.tasks),
                      name=name or getattr(fn, "__name__", ""))
        self.tasks.append(task)
        self.ready.append(task)
        if self.profiler is not None:
            task.ready_at = self.profiler.now()
            self.profiler.inc("tasks_spawned")
        if self.tracer is not None:
            task.ctx = self.tracer.current()
        return task

    # ------------------------------------------------------------------
    def run(self, max_steps: int = 1_000_000) -> None:
        """Run until every task finishes.

        Raises :class:`CoDeadlock` if live tasks remain but all are
        parked — chained from the first unobserved task failure, if
        any — and re-raises the first such failure at the end.
        """
        self._drive(None, max_steps)
        failed = next((t for t in self.tasks
                       if t.error is not None and not t.error_observed), None)
        cause = failed.error if failed is not None else None
        leftover = [t for t in self.tasks if not t.done]
        if leftover:
            detail = "parked forever: " + ", ".join(t.name for t in leftover)
            if self.monitors is not None:
                self.monitors.finish("deadlock", detail)
            if failed is not None:
                detail += f" (after {failed.name} failed: {cause!r})"
            raise CoDeadlock(detail) from cause
        if self.monitors is not None:
            self.monitors.finish("failed" if failed else "done")
        if cause is not None:
            raise cause

    def run_until(self, predicate: Callable[[], bool],
                  max_steps: int = 1_000_000) -> bool:
        """Run until ``predicate()`` holds; False if tasks ran out first."""
        return self._drive(predicate, max_steps)

    def _drive(self, until: Optional[Callable[[], bool]],
               max_steps: int) -> bool:
        """The one dispatch loop: step ready tasks in FIFO order until
        ``until()`` holds (True) or the ready queue drains (False)."""
        ready = self.ready
        popleft, append = ready.popleft, ready.append
        obs = self._obs
        while True:
            if until is not None and until():
                return True
            if not ready:
                return False
            if self.steps >= max_steps:
                raise RuntimeError(f"exceeded {max_steps} scheduler steps")
            task = popleft()
            self.steps += 1
            task.steps += 1
            self.current = task
            try:
                marker = (task.gen.send(None) if obs is None
                          else obs.resume(task))
            except StopIteration as stop:
                self._finish(task, result=stop.value)
                continue
            except BaseException as exc:  # noqa: BLE001 - task code may raise
                self._finish(task, error=exc)
                continue
            cls = marker.__class__
            if cls is _Pause or marker is None:
                append(task)
            elif cls is _Park:
                marker.append(task)
            elif cls is _Wake:
                waitlist, count = marker.waitlist, marker.count
                woken = waitlist[:count]
                del waitlist[:count]
                ready.extend(woken)
                append(task)
            elif cls is _Join:   # join() yields it only while the task is live
                marker.task.joiners.append(task)
            else:   # fail the task; its finally blocks run now, not at GC
                with suppress(RuntimeError):   # a finally block yielded
                    task.gen.close()
                self._finish(task, error=TypeError(
                    f"{task.name} yielded unknown marker {marker!r}"))

    def _finish(self, task: CoTask, result: Any = None,
                error: Optional[BaseException] = None) -> None:
        task.done, task.result, task.error = True, result, error
        if self._obs is not None:
            self._obs.finished(task)
        self.ready.extend(task.joiners)
        task.joiners = []


# ---------------------------------------------------------------------------
# communication / synchronization for cooperative tasks
# ---------------------------------------------------------------------------

class CoChannel:
    """Bounded FIFO channel between cooperative tasks (capacity ≥ 1).

    Pass ``sched=`` to tap the channel into the scheduler's
    :class:`~repro.obs.MonitorBus`: each ``put`` feeds a send-shaped
    :class:`~repro.core.trace.TraceEvent` and each ``get`` a
    deliver-shaped one, both carrying ``name``, so message-stream
    detectors — including :class:`~repro.obs.ProtocolMonitor`
    conformance checking — watch coroutine channels exactly like kernel
    mailboxes.  An untapped channel (the default) does zero extra work.
    """

    def __init__(self, capacity: int = 1, *, name: str,
                 sched: Optional[Any] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.sched = sched
        self.name = name
        self._items: deque = deque()
        #: per-item send seq of a tapped channel
        self._meta: deque = deque()
        # wakes trim a wait list in place, so its markers are built once
        self._getters, self._putters = _Park(), _Park()
        self._wake_get = _Wake(self._getters)
        self._wake_put = _Wake(self._putters)
        #: sends and deliveries feed the scheduler's monitor bus
        self._tapped = sched is not None and sched.monitors is not None
        self.closed = False

    def _tap(self, item: Any, seq: Optional[int] = None) -> None:
        """Feed the bus a send event (no ``seq``) or the delivery of the
        send numbered ``seq``."""
        s, task = self.sched, self.sched.current
        ready = (task.name if task is not None else "?",) + tuple(
            t.name for t in s.ready)
        if seq is None:
            from ..core.effects import message_kind
            s._chan_seq += 1
            self._meta.append(s._chan_seq)
            s._obs._feed(task, f"send {item!r} to {self.name}", ready,
                         obj_name=self.name, msg_seq=s._chan_seq,
                         msg_kind=message_kind(item))
        else:
            s._obs._feed(task, f"recv from {self.name}", ready,
                         kind="deliver", payload_repr=repr(item),
                         recv_seq=seq, recv_mbox=self.name)

    def put(self, item: Any) -> Iterator[Any]:
        while len(self._items) >= self.capacity and not self.closed:
            yield self._putters
        if self.closed:
            raise ChannelClosed("put on closed channel")
        self._items.append(item)
        if self._tapped:
            self._tap(item)
        if self._getters:
            yield self._wake_get

    def get(self) -> Iterator[Any]:
        while not self._items and not self.closed:
            yield self._getters
        if not self._items:
            raise ChannelClosed("get on closed drained channel")
        item = self._items.popleft()
        if self._meta:   # tapped: attribute the delivery to its send
            self._tap(item, self._meta.popleft())
        if self._putters:
            yield self._wake_put
        return item

    def close(self) -> Iterator[Any]:
        self.closed = True
        if self._getters:
            yield self._wake_get
        if self._putters:
            yield self._wake_put

    def __len__(self) -> int:
        return len(self._items)


class CoEvent:
    """One-shot broadcast flag for cooperative tasks."""

    def __init__(self) -> None:
        self._set = False
        self._waiters = _Park()
        self._wake = _Wake(self._waiters)

    def wait(self) -> Iterator[Any]:
        while not self._set:
            yield self._waiters

    def set(self) -> Iterator[Any]:
        self._set = True
        if self._waiters:
            yield self._wake

    @property
    def is_set(self) -> bool:
        return self._set


class CoSemaphore:
    """Counting semaphore for cooperative tasks."""

    def __init__(self, permits: int = 1):
        if permits < 0:
            raise ValueError("permits must be >= 0")
        self.permits = permits
        self._waiters = _Park()
        self._wake = _Wake(self._waiters, 1)

    def acquire(self) -> Iterator[Any]:
        while self.permits == 0:
            yield self._waiters
        self.permits -= 1

    def release(self) -> Iterator[Any]:
        self.permits += 1
        if self._waiters:
            yield self._wake
