"""Threaded actor runtime — mailboxes + a work-stealing dispatcher.

Execution model (the standard event-driven actor dispatcher, as in
Akka/Scala rather than thread-per-actor):

* every actor owns an unbounded mailbox and a *scheduled* flag;
* ``tell`` enqueues and, if the actor is idle, submits a processing job
  to a shared :class:`~repro.actors.executor.WorkStealingExecutor`;
* a processing job swaps out a run of up to ``throughput`` messages in
  one go and invokes the actor's current behaviour one message at a
  time (the actor serialization guarantee), then yields the worker and
  reschedules itself — behind the worker's other work — if messages
  remain.

Hot-path discipline: with no profiler attached, ``enqueue`` is a single
``deque.append`` plus one non-blocking try-lock (the scheduled flag is
*represented by* a held :class:`threading.Lock`, so test-and-set is one
atomic C call), and a processing job drains its batch with plain
``popleft`` — single-element deque ops are atomic under the GIL and the
scheduled flag guarantees a single drainer.  Only a profiler forces the
cell's lock (its enqueue-timestamp deque must stay aligned with the
mailbox); the causal tracer stays lock-free by riding each message's
request context *inside* the mailbox entry — traced messages are
4-tuples, untraced ones keep the 2-tuple shape and pay one TLS read.
Each traced handler run spends one hop of the request's per-process
budget (``CausalTracer.hop_budget``), so a runaway request stops
paying tracing costs once its first few hundred hops are recorded.

Lifecycle, supervision (RESUME/RESTART/STOP) and dead-lettering live
in the shared cell core (:mod:`repro.actors.cell`); this module is the
dispatch only.  A stop in the middle of a drained batch dead-letters
the batch's remainder, exactly as if the messages were still queued.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Any, Optional

from .cell import (ActorRuntime, Cell, DeadLetter, StopSignal,
                   SupervisionDirective)
from .executor import WorkStealingExecutor
from .ref import ActorRef

__all__ = ["SupervisionDirective", "ActorSystem", "DeadLetter"]


class _Cell(Cell):
    """A cell plus the dispatcher's scheduling state."""

    __slots__ = ("_sched", "enq_times", "_batch", "_run", "affinity")

    def __init__(self, system: "ActorSystem", actor: Any, name: str,
                 actor_id: int,
                 directive: Optional[SupervisionDirective] = None):
        super().__init__(system, actor, name, actor_id, directive)
        #: the scheduled flag *is* this lock's held/free state —
        #: ``acquire(False)`` is an atomic test-and-set, so the
        #: profiler-off enqueue path claims scheduling rights without
        #: ever blocking or taking ``self.lock``
        self._sched = threading.Lock()
        #: enqueue timestamps, parallel to ``mailbox`` (profiling only —
        #: both deques are pushed/popped together under ``lock``, so the
        #: head timestamp always belongs to the head message)
        self.enq_times: deque[float] = deque()
        #: reusable drain buffer — one live batch per cell (guaranteed
        #: by the scheduled flag), so no per-batch list allocation
        self._batch: list[tuple[Any, Optional[ActorRef]]] = []
        #: the bound method the executor runs, created once per actor
        self._run = self._process
        #: stable home-worker key — a hot actor keeps hitting the same
        #: worker's deque (and that worker's caches) unless stolen
        self.affinity = actor_id

    @property
    def scheduled(self) -> bool:
        """True while a processing job is queued or running for us."""
        return self._sched.locked()

    def enqueue(self, message: Any, sender: Optional[ActorRef]) -> None:
        system = self.system
        prof = system.profiler
        trc = system.tracer
        if trc is None:
            entry: tuple = (message, sender)
        else:
            # the sender's causal position rides *inside* the mailbox
            # entry (a 4-tuple), so tracing needs no parallel deque and
            # no lock — an untraced message on a traced system pays one
            # TLS read and keeps the 2-tuple shape
            ctx = getattr(trc.tls, "ctx", None)
            entry = (message, sender) if ctx is None \
                else (message, sender, ctx, trc.clock())
        if prof is None:
            # lock-free fast path: one atomic append, one try-lock
            if self._stopped:
                system._dead_letter(self.ref.name, message, sender,
                                    entry[2] if len(entry) > 2 else None)
                return
            self.mailbox.append(entry)
            if self._stopped:
                # raced stop(): its drain may have run before our
                # append landed — flush so nothing rots in a dead mailbox
                self._drain_to_dead_letters()
                return
        else:
            with self.lock:
                if self._stopped:
                    system._dead_letter(self.ref.name, message, sender,
                                        entry[2] if len(entry) > 2
                                        else None)
                    return
                self.mailbox.append(entry)
                self.enq_times.append(prof.now())
            prof.inc("mailbox.enqueued")
            depth = len(self.mailbox)
            prof.observe("mailbox.depth", depth)
            prof.gauge_max("mailbox.depth_max", depth)
        if self._sched.acquire(False):
            if not system._executor.submit(self._run, affinity=self.affinity):
                self._reject()

    # -- message processing ----------------------------------------------------
    def _process(self) -> None:
        system = self.system
        actor = self.actor
        if not self.started and not self.start():
            # STOP directive fired in pre_start
            self._sched.release()
            return
        prof = system.profiler
        trc = system.tracer
        mailbox = self.mailbox
        batch = self._batch
        drain_t = 0.0
        if trc is not None:
            # the dequeue timestamp is taken once per batch by design
            drain_t = trc.clock()
        if prof is None:
            # single drainer (scheduled flag) + atomic popleft: no lock
            n = len(mailbox)
            if n > system.throughput:
                n = system.throughput
            for _ in range(n):
                batch.append(mailbox.popleft())
        else:
            # one lock acquisition amortized over the whole batch
            now = prof.now()
            with self.lock:
                n = min(len(mailbox), system.throughput)
                times = self.enq_times
                for _ in range(n):
                    batch.append(mailbox.popleft())
                    if times:
                        prof.observe_us("mailbox.latency_us",
                                        now - times.popleft())
            if n:
                prof.observe("mailbox.batch_size", n)

        lane = self.ref.name
        if trc is not None:
            # hot-loop locals: span recording is inlined below (id
            # counter, deque append, raw TLS) — per traced message the
            # whole chain costs three tuple appends, one clock read and
            # one budget-table update
            _ids = trc._ids
            _app = trc._spans.append
            _now = trc.clock
            _tls = trc.tls
            _Ctx = trc.context
            _left = trc._hops_left
            _hb = trc.hop_budget
            t_prev = drain_t
        for i in range(n):
            entry = batch[i]
            message, sender = entry[0], entry[1]
            if isinstance(message, StopSignal):
                self.stop()
            else:
                context = actor.context
                context.sender = sender
                traced = False
                if len(entry) == 4 and trc is not None:
                    # one handler run spends one hop of the request's
                    # per-process budget (inlined CausalTracer.admit);
                    # once it's gone the message runs untraced and the
                    # chain self-terminates — bounded tracing cost per
                    # request, like OpenTelemetry span limits
                    rid = entry[2].request_id
                    left = _left.get(rid)
                    if left is None:
                        if len(_left) >= 65536:
                            _left.clear()
                        left = _hb
                    if left > 0:
                        _left[rid] = left - 1
                        traced = True
                if traced:
                    # traced message: chain mailbox-wait → executor-queue
                    # → handler off the sender's span, and run the
                    # behaviour under the handler's context so nested
                    # tells keep the chain growing.  The handler start
                    # stamp reuses the previous handler's end (they are
                    # back-to-back in this loop), so the chain needs one
                    # clock read per message
                    ctx, enq_t = entry[2], entry[3]
                    h0 = t_prev
                    d = drain_t if drain_t >= enq_t else enq_t
                    if d > h0:
                        d = h0
                    w_id = next(_ids)
                    _app((w_id, ctx.span_id, rid, "mailbox-wait", lane,
                          enq_t if enq_t <= d else d, d))
                    q_id = next(_ids)
                    _app((q_id, w_id, rid, "executor-queue", lane, d, h0))
                    h_id = next(_ids)
                    _tls.ctx = _Ctx(rid, h_id)
                    try:
                        actor.current_behaviour()(message, sender)
                    except BaseException as exc:  # noqa: BLE001
                        system._on_failure(self, exc, message)
                    finally:
                        t_prev = _now()
                        _app((h_id, q_id, rid, "handler", lane, h0,
                              t_prev))
                        _tls.ctx = None
                        context.sender = None
                else:
                    try:
                        actor.current_behaviour()(message, sender)
                    except BaseException as exc:  # noqa: BLE001
                        system._on_failure(self, exc, message)
                    finally:
                        context.sender = None
            if prof is not None:
                # decoupled from the latency sample on purpose: messages
                # enqueued before a profiler was attached have no
                # timestamp but still count as processed (stop signals
                # included — they were dequeued and handled)
                prof.inc("mailbox.processed")
            if self._stopped:
                # stop (poison pill or STOP directive) mid-batch: the
                # batch remainder is mail behind the stop — dead-letter
                # it exactly like the messages still in the mailbox
                self._dead_letter_all(batch[i + 1:n])
                del batch[:]
                self._sched.release()
                return
        del batch[:]

        if mailbox:
            # budget exhausted with mail left: requeue *fairly*, behind
            # whatever else is waiting on our worker
            if not system._executor.submit(self._run, affinity=self.affinity,
                                           fair=True):
                self._reject()
            return
        self._sched.release()
        # a message may have slipped in between the emptiness check and
        # the release — whoever wins the try-lock reschedules
        if mailbox and self._sched.acquire(False):
            if not system._executor.submit(self._run, affinity=self.affinity):
                self._reject()

    def _take_all(self) -> list:
        with self.lock:
            leftovers = list(self.mailbox)
            self.mailbox.clear()
            self.enq_times.clear()
        return leftovers

    def _reject(self) -> None:
        """The executor refused a submit (it is shut down): we hold the
        scheduled flag but no worker will ever run us.  Dead-letter the
        pending mail and hand the flag back without stranding a message
        that arrives between our drain and our release."""
        while True:
            self._drain_to_dead_letters()
            self._sched.release()
            if not self.mailbox or not self._sched.acquire(False):
                return


class ActorSystem(ActorRuntime):
    """Container + dispatcher for a set of actors.

    ::

        with ActorSystem(workers=4) as system:
            echo = system.spawn(Echo, name="echo")
            echo.tell("hello")
            system.drain()          # wait until all mailboxes are empty
    """

    _ids = itertools.count(1)
    _cell_type = _Cell

    def __init__(self, workers: int = 4, throughput: int = 16,
                 directive: SupervisionDirective = SupervisionDirective.RESTART,
                 name: str = "actor-system",
                 profiler: Optional[Any] = None,
                 tracer: Optional[Any] = None):
        super().__init__(name, directive)
        self.throughput = throughput
        #: optional :class:`repro.obs.Metrics` — mailbox latency/depth,
        #: message throughput, executor steals/parks; None keeps the
        #: dispatch path untouched
        self.profiler = profiler
        #: optional :class:`repro.obs.causal.CausalTracer` — request
        #: contexts ride the mailbox and every traced handler records a
        #: mailbox-wait/executor-queue/handler span chain; None keeps
        #: the lock-free enqueue path
        self.tracer = tracer
        self._executor = WorkStealingExecutor(workers,
                                              name=f"{name}.dispatch",
                                              profiler=profiler)

    def _launch(self, cell: _Cell) -> None:
        # schedule once immediately so pre_start runs even for actors
        # that initiate conversations instead of waiting for mail
        cell._sched.acquire()
        if not self._executor.submit(cell._run, affinity=cell.affinity):
            cell._reject()

    def _forget(self, cell: Cell) -> None:
        with self._cells_lock:
            self._cells.pop(cell.ref.actor_id, None)

    # ------------------------------------------------------------------
    def drain(self, timeout: float = 10.0) -> bool:
        """Block until every mailbox is empty and no actor is running.

        Polls rather than waits on a condition: quiescence is a global
        property across all cells and the executor, and per-message
        notifications would cost more than the poll.  The poll spins
        (GIL yields) briefly before backing off to millisecond sleeps —
        a short workload quiesces in microseconds, and a 1 ms first
        sleep would dominate its entire wall time.
        """
        import time
        deadline = time.monotonic() + timeout
        spins = 0
        while not self._quiet():
            if time.monotonic() >= deadline:
                return False
            spins += 1
            time.sleep(0 if spins < 200 else 0.001)
        return True

    def _quiet(self) -> bool:
        with self._cells_lock:
            cells = list(self._cells.values())
        busy = any(c._sched.locked() or c.mailbox for c in cells)
        return not busy and self._executor.idle()

    def shutdown(self) -> None:
        with self._cells_lock:
            refs = [c.ref for c in self._cells.values()]
        for ref in refs:
            self.stop(ref)
        self.drain()
        self._executor.shutdown(wait=True)

    def executor_stats(self) -> dict[str, int]:
        """Dispatcher counters: queued, executed, steals, parks,
        local_hits, workers."""
        return self._executor.stats

    def __enter__(self) -> "ActorSystem":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
