"""Threaded actor runtime — mailboxes + one shared dispatch queue.

Execution model (the standard event-driven actor dispatcher, as in
Akka/Scala rather than thread-per-actor):

* every actor owns an unbounded mailbox and a *scheduled* flag;
* ``tell`` enqueues and, if the actor is idle, submits a processing job
  to the shared :class:`~repro.actors.executor.WorkStealingExecutor`:
  one queue every worker takes from, plus a run-next slot per worker
  that keeps a job submitted from a worker on that worker (the name
  predates this design);
* a processing job reads the mailbox length once, processes up to
  ``throughput`` messages straight off the mailbox, invoking the
  actor's current behaviour one message at a time (the actor
  serialization guarantee), then yields the worker and reschedules
  itself — behind everything already waiting — if messages remain.

Hot-path discipline: ``enqueue`` is one path for every system — build
the entry, one ``deque.append``, a recheck of the stopped flag and one
non-blocking try-lock (the scheduled flag is *represented by* a held
:class:`threading.Lock`, so test-and-set is one atomic C call) — and a
processing job pops each message with a plain ``popleft``:
single-element deque ops are atomic under the GIL and the scheduled
flag guarantees a single drainer, so neither side takes a lock.
Whatever a sink needs rides *inside* the mailbox entry: an untraced,
unprofiled message is a 2-tuple; the causal tracer's request context
and enqueue stamp make it a 4-tuple ``(message, sender, ctx, t)``; a
profiler appends its own enqueue stamp as a fifth slot (``ctx`` and
``t`` are None when the message carries no context).  Each traced
handler run spends one hop of the request's per-process budget
(``CausalTracer.hop_budget``), so a runaway request stops paying
tracing costs once its first few hundred hops are recorded.

Lifecycle, supervision (RESUME/RESTART/STOP) and dead-lettering live
in the shared cell core (:mod:`repro.actors.cell`); this module is the
dispatch only.  A stop in the middle of a run leaves the mail behind
it in the mailbox, where ``stop()`` dead-letters it in send order.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Optional

from .cell import (ActorRuntime, Cell, DeadLetter, StopSignal,
                   SupervisionDirective)
from .executor import WorkStealingExecutor
from .ref import ActorRef

__all__ = ["SupervisionDirective", "ActorSystem", "DeadLetter"]


class _Cell(Cell):
    """A cell plus the dispatcher's scheduling state."""

    __slots__ = ("_sched", "_run")

    def __init__(self, system: "ActorSystem", actor: Any, name: str,
                 actor_id: int,
                 directive: Optional[SupervisionDirective] = None):
        super().__init__(system, actor, name, actor_id, directive)
        #: the scheduled flag *is* this lock's held/free state —
        #: ``acquire(False)`` is an atomic test-and-set, so enqueue
        #: claims scheduling rights without ever blocking
        self._sched = threading.Lock()
        #: the bound method the executor runs, created once per actor
        self._run = self._process

    @property
    def scheduled(self) -> bool:
        """True while a processing job is queued or running for us."""
        return self._sched.locked()

    def enqueue(self, message: Any, sender: Optional[ActorRef]) -> None:
        system = self.system
        prof = system.profiler
        trc = system.tracer
        if trc is None and prof is None:
            entry: tuple = (message, sender)
        else:
            # the sender's causal position rides *inside* the mailbox
            # entry, so tracing needs no parallel deque and no lock — an
            # untraced message on a traced system pays one TLS read
            ctx = None if trc is None else getattr(trc.tls, "ctx", None)
            if prof is not None:
                entry = (message, sender, ctx,
                         None if ctx is None else trc.clock(), prof.now())
            elif ctx is None:
                entry = (message, sender)
            else:
                entry = (message, sender, ctx, trc.clock())
        self.mailbox.append(entry)
        if self._stopped:
            # stopped, or raced stop(): its drain may have run before
            # our append landed — flush so nothing rots in a dead mailbox
            self._drain_to_dead_letters()
            return
        if prof is not None:
            prof.inc("mailbox.enqueued")
            depth = len(self.mailbox)
            prof.observe("mailbox.depth", depth)
            prof.gauge_max("mailbox.depth_max", depth)
        if self._sched.acquire(False):
            if not system._executor.submit(self._run):
                self._reject()

    # -- message processing ----------------------------------------------------
    def _process(self) -> None:
        system = self.system
        if not self.started and not self.start():
            # STOP directive fired in pre_start
            self._sched.release()
            return
        mailbox = self.mailbox
        # single drainer (scheduled flag) + atomic popleft: no lock, and
        # the length is read once — mail arriving during the run waits
        # for the next one
        n = len(mailbox)
        if n > system.throughput:
            n = system.throughput
        prof = system.profiler
        now = 0.0
        if prof is not None and n:
            now = prof.now()
            prof.observe("mailbox.batch_size", n)
        if system.tracer is None:
            actor = self.actor
            context = actor.context
            for _ in range(n):
                entry = mailbox.popleft()
                message = entry[0]
                if prof is not None:
                    self._observe_dequeue(prof, entry, now)
                if isinstance(message, StopSignal):
                    self.stop()
                else:
                    sender = context.sender = entry[1]
                    try:
                        actor.current_behaviour()(message, sender)
                    except BaseException as exc:  # noqa: BLE001
                        system._on_failure(self, exc, message)
                    finally:
                        context.sender = None
                if self._stopped:
                    # stop (poison pill or STOP directive) mid-run: the
                    # mail behind it never left the mailbox, so stop()
                    # dead-lettered it there, in send order
                    self._sched.release()
                    return
        elif self._process_traced(n, prof, now):
            self._sched.release()
            return
        if mailbox:
            # budget exhausted with mail left: requeue *fairly*, behind
            # whatever else is waiting for a worker
            if not system._executor.submit(self._run, fair=True):
                self._reject()
            return
        self._sched.release()
        # a message may have slipped in between the emptiness check and
        # the release — whoever wins the try-lock reschedules
        if mailbox and self._sched.acquire(False):
            if not system._executor.submit(self._run):
                self._reject()

    @staticmethod
    def _observe_dequeue(prof: Any, entry: tuple, now: float) -> None:
        # decoupled from the latency sample on purpose: messages
        # enqueued before a profiler was attached have no stamp but
        # still count as processed (stop signals included)
        if len(entry) == 5:
            prof.observe_us("mailbox.latency_us", now - entry[4])
        prof.inc("mailbox.processed")

    def _process_traced(self, n: int, prof: Any, now: float) -> bool:
        """The run loop with a tracer attached; True when the cell
        stopped mid-run."""
        system = self.system
        actor = self.actor
        context = actor.context
        popleft = self.mailbox.popleft
        trc = system.tracer
        lane = self.ref.name
        # hot-loop locals: span recording is inlined below (id counter,
        # deque append, raw TLS) — per traced message the whole chain
        # costs three tuple appends, one clock read and one budget-table
        # update.  The dequeue timestamp is taken once per run by design
        _ids = trc._ids
        _app = trc._spans.append
        _now = trc.clock
        _tls = trc.tls
        _Ctx = trc.context
        _left = trc._hops_left
        _hb = trc.hop_budget
        drain_t = t_prev = _now()
        for _ in range(n):
            entry = popleft()
            message, sender = entry[0], entry[1]
            if prof is not None:
                self._observe_dequeue(prof, entry, now)
            ctx = entry[2] if len(entry) > 2 else None
            traced = False
            if ctx is not None and not isinstance(message, StopSignal):
                # one handler run spends one hop of the request's
                # per-process budget (inlined CausalTracer.admit); once
                # it's gone the message runs untraced and the chain
                # self-terminates — bounded tracing cost per request,
                # like OpenTelemetry span limits
                rid = ctx.request_id
                left = _left.get(rid)
                if left is None:
                    if len(_left) >= 65536:
                        _left.clear()
                    left = _hb
                if left > 0:
                    _left[rid] = left - 1
                    traced = True
            if not traced:
                self.deliver(message, sender)
                if self._stopped:
                    return True
                continue
            # traced message: chain mailbox-wait → executor-queue →
            # handler off the sender's span, and run the behaviour under
            # the handler's context so nested tells keep the chain
            # growing.  The handler start stamp reuses the previous
            # handler's end (they are back-to-back in this loop), so the
            # chain needs one clock read per message
            enq_t = entry[3]
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
            context.sender = sender
            try:
                actor.current_behaviour()(message, sender)
            except BaseException as exc:  # noqa: BLE001
                system._on_failure(self, exc, message)
            finally:
                t_prev = _now()
                _app((h_id, q_id, rid, "handler", lane, h0, t_prev))
                _tls.ctx = None
                context.sender = None
            if self._stopped:
                return True
        return False

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
        #: batch size and message throughput (the executor's own counters
        #: are :meth:`executor_stats`); None keeps the dispatch path
        #: untouched
        self.profiler = profiler
        #: optional :class:`repro.obs.causal.CausalTracer` — request
        #: contexts ride the mailbox and every traced handler records a
        #: mailbox-wait/executor-queue/handler span chain; None keeps
        #: the lock-free enqueue path
        self.tracer = tracer
        self._executor = WorkStealingExecutor(workers,
                                              name=f"{name}.dispatch")

    def _launch(self, cell: _Cell) -> None:
        # schedule once immediately so pre_start runs even for actors
        # that initiate conversations instead of waiting for mail
        cell._sched.acquire()
        if not self._executor.submit(cell._run):
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
        """Dispatcher counters: workers, queued, executed and
        local_hits (tasks that took a worker's run-next slot)."""
        return self._executor.stats

    def __enter__(self) -> "ActorSystem":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
