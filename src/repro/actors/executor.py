"""The actor dispatch engine: one shared C queue plus a run-next slot.

The actor model asks one thing of its dispatcher: every scheduled
mailbox runs, on one thread at a time.  Per-actor order, supervision
and dead letters live in :mod:`repro.actors.system`, which guarantees a
cell is submitted to at most one worker at a time; this executor runs
arbitrary callables and never lets one kill a worker.

* **one shared queue** — every worker blocks on the same
  :class:`queue.SimpleQueue`.  Its ``put``/``get`` are C calls, and a
  blocking ``get`` has no lost-wakeup window: a task put while workers
  sleep wakes one of them, so no park/wake protocol is needed;
* **a run-next slot per worker** — a task submitted *from* a worker
  takes that worker's slot if it is free and runs right after the
  current task.  A request/reply pair like ping-pong therefore stays a
  tight single-threaded loop, with no queue round trip and no other
  thread woken;
* **fair requeue** — a task re-submitted with ``fair=True`` (an actor
  that exhausted its throughput budget but still has mail) always goes
  to the shared queue, behind everything already waiting, so one
  flooded mailbox cannot monopolize its worker.

A slot task runs only on its own worker.  A task that blocks until
work it submitted itself has run therefore waits until its own wait
gives up once that work sits in the slot, unless it first calls
:meth:`~WorkStealingExecutor.yield_slot` (as ``ask`` does), which
moves the slot task to the shared queue.

Workers are jobs on threads borrowed from the process-wide cache
(:mod:`repro.threads.cache`), not threads of their own; each releases
an exit latch when it leaves its loop, and ``shutdown(wait=True)``
waits on those latches.

Quiescence: :meth:`idle` is exact without a lock on the hot path.
Every counter has one writer — each worker counts its own submits and
finished tasks, external submits count under a lock — and ``idle()``
reads every ``finished`` before any ``submitted``.  A task counts as
submitted before it is queued and as finished after it returned, so
equal sums mean that, at the instant between the two passes, no task
was queued, in a slot, or running.

Observability: :attr:`stats` sums those plain int counters (torn reads
are impossible under the GIL); ``local_hits`` counts slot takes.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Optional

from ..threads.cache import run_on_thread

__all__ = ["WorkStealingExecutor"]


class _CtxTask:
    """A submitted callable bundled with the submitter's request
    context: the worker runs it with the context installed and records
    one ``executor-queue``-parented span via the tracer's chain."""

    __slots__ = ("trc", "ctx", "task", "t_submit")

    def __init__(self, trc: Any, ctx: Any, task: Callable[[], Any]):
        self.trc = trc
        self.ctx = ctx
        self.task = task
        self.t_submit = trc.now()

    def __call__(self) -> Any:
        trc = self.trc
        if not trc.admit(self.ctx.request_id):
            # per-request hop budget spent: run untraced, drop the chain
            return self.task()
        t0 = trc.now()
        queued = trc.chain(self.ctx, "executor-queue", "executor",
                           self.t_submit, t0)
        run_id = trc.next_id()
        trc.install(trc.context(queued.request_id, run_id))
        try:
            return self.task()
        finally:
            trc.record(run_id, queued.span_id, queued.request_id,
                       "handler", "executor", t0, trc.now())
            trc.uninstall()


class _Worker:
    """One worker, its run-next slot and its own counters (this worker
    is their only writer), and its exit latch: a lock held until the
    worker leaves its loop."""

    __slots__ = ("slot", "submitted", "finished", "local_hits", "exited")

    def __init__(self) -> None:
        self.slot: Optional[Callable[[], Any]] = None
        self.submitted = self.finished = self.local_hits = 0
        self.exited = threading.Lock()
        self.exited.acquire()


class WorkStealingExecutor:
    """Fixed set of workers draining one shared queue.

    ::

        ex = WorkStealingExecutor(workers=4)
        ex.submit(task)                  # task: any zero-arg callable
        ...
        ex.shutdown(wait=True)

    :meth:`submit` returns ``False`` (instead of raising) once the
    executor is shut down — callers decide what a rejected task means
    (the actor system dead-letters the pending mail).

    The name says work stealing, which this class does not do; it is
    kept, with ``__init__`` and ``submit`` defined here rather than
    inherited, because the benchmark's worker cap and its per-layer
    ledger patch those two attributes of this class by name.
    """

    def __init__(self, workers: int = 4, name: str = "exec",
                 tracer: Optional[Any] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        #: optional :class:`~repro.obs.causal.CausalTracer` for *plain*
        #: callables: a submit made under a request context wraps the
        #: task so the context re-installs on the worker that runs it.
        #: Actor cells never need this (contexts ride the mailbox, and
        #: the system deliberately leaves its executor untraced), but a
        #: standalone executor is a cross-thread handoff like any other
        self.tracer = tracer
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._workers = [_Worker() for _ in range(workers)]
        self._tls = threading.local()
        #: submits from non-worker threads, counted under the lock
        self._submitted = 0
        #: guards the external count, the shut flag and the exit count
        self._lock = threading.Lock()
        self._live = workers
        self._shut = False
        for i, w in enumerate(self._workers):
            run_on_thread(lambda w=w: self._loop(w), f"{name}-w{i}")

    def submit(self, task: Callable[[], Any], fair: bool = False) -> bool:
        """Enqueue ``task``; returns False if the executor is shut down.

        From a worker thread the task takes that worker's run-next slot
        if it is free; every other submit, and every ``fair=True`` one,
        goes to the back of the shared queue.
        """
        if self._shut:
            return False
        trc = self.tracer
        if trc is not None:
            ctx = trc.current()
            if ctx is not None:
                task = _CtxTask(trc, ctx, task)
        me: Optional[_Worker] = getattr(self._tls, "worker", None)
        if me is None:
            # under the lock shutdown() takes: an accepted task is
            # queued ahead of the shutdown sentinels
            with self._lock:
                if self._shut:
                    return False
                self._submitted += 1
                self._queue.put(task)
            return True
        me.submitted += 1
        if not fair and me.slot is None:
            me.slot = task
            me.local_hits += 1
        else:
            self._queue.put(task)
        return True

    def _loop(self, w: _Worker) -> None:
        self._tls.worker = w
        get = self._queue.get
        try:
            while True:
                task, w.slot = w.slot, None
                if task is None:
                    try:
                        task = get()
                    except queue.Empty:  # the last worker ran the rest
                        return
                    if task is None:     # shutdown sentinel
                        with self._lock:
                            self._live -= 1
                            if self._live:
                                return
                        # the last worker out runs what other workers
                        # queued behind the sentinels, then exits
                        get = self._queue.get_nowait
                        continue
                try:
                    task()
                except BaseException:  # noqa: BLE001 - tasks must not
                    pass               # kill workers; cells route errors
                w.finished += 1
        finally:
            w.exited.release()

    def yield_slot(self) -> None:
        """Called on one of this executor's workers before it blocks:
        move its run-next slot task to the shared queue, where another
        worker can run it.  Anywhere else this does nothing.  The
        worker is its slot's one writer, and the task stays counted as
        submitted, so :meth:`idle` stays exact."""
        me: Optional[_Worker] = getattr(self._tls, "worker", None)
        if me is not None and me.slot is not None:
            task, me.slot = me.slot, None
            self._queue.put(task)

    def idle(self) -> bool:
        """True when no task is queued, in a slot, or running."""
        ws = self._workers
        finished = sum(w.finished for w in ws)   # before any submitted
        return finished == sum(w.submitted for w in ws) + self._submitted

    @property
    def stats(self) -> dict[str, int]:
        ws = self._workers
        slots = sum(w.slot is not None for w in ws)
        return {"workers": len(ws), "queued": self._queue.qsize() + slots,
                "executed": sum(w.finished for w in ws),
                "local_hits": sum(w.local_hits for w in ws)}

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; workers run what is queued and exit."""
        with self._lock:
            if not self._shut:
                self._shut = True
                for _ in self._workers:
                    self._queue.put(None)
        if wait:
            # wait for every worker to leave its loop, but not for the
            # one that may be calling
            me = getattr(self._tls, "worker", None)
            for w in self._workers:
                if w is not me:
                    w.exited.acquire()
                    w.exited.release()

    def __enter__(self) -> "WorkStealingExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown(wait=True)
