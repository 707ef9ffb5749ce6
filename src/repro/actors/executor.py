"""Work-stealing executor — the actor dispatch engine.

The original dispatcher pushed every processing job through one shared
:class:`~repro.threads.collections.BlockingQueue`, which cost a Monitor
acquire + notify (and usually an OS wakeup) per scheduled mailbox.  This
executor replaces that single point of contention with the standard
work-stealing arrangement:

* **per-worker deques** — each worker owns a ``collections.deque`` of
  runnable tasks.  Single-element ``append``/``pop``/``popleft`` on a
  deque are atomic under the GIL, so the common enqueue/dequeue pair is
  lock-free;
* **LIFO local push/pop** — a task submitted *from* a worker thread goes
  onto that worker's own deque and is popped right back off it (newest
  first).  A request/reply pair like ping-pong therefore executes as a
  tight single-threaded loop: the reply mailbox the handler just filled
  is still cache-warm, and no other thread is woken at all;
* **randomized FIFO stealing** — a worker that runs dry scans the other
  deques from a random start and takes the *oldest* task of the first
  non-empty victim, so stolen work is the work that waited longest;
* **parked-worker wakeup protocol** — idle workers park on a private
  ``Event``.  A parker registers itself in the parked list *before*
  re-checking every deque, and submitters enqueue *before* consulting
  the parked list; whichever side loses the race still observes the
  other's write, so no task is stranded (the classic lost-wakeup
  interleaving is impossible, and a bounded wait backstops the proof);
* **affinity** — external submits hash a stable key (the actor id) to a
  home worker, so a hot actor's cell keeps landing on the same thread
  instead of bouncing between caches, while stealing still rebalances
  whenever that thread falls behind.

Fairness: a task re-submitted with ``fair=True`` (an actor that
exhausted its throughput budget but still has mail) is pushed to the
*steal side* of the deque, behind everything already waiting — one
flooded mailbox cannot monopolize its worker.

The executor runs arbitrary callables and never lets one kill a worker;
actor semantics (per-actor ordering, supervision, dead letters) live in
:mod:`repro.actors.system`, which guarantees a cell is submitted to at
most one worker at a time.

Observability: per-worker counters are plain ints (single writer each,
torn reads impossible under the GIL) summed by :attr:`stats`; with a
:class:`~repro.obs.Metrics` attached the executor additionally
emits ``executor.steals``, ``executor.parks`` and ``executor.local_hits``
— all behind ``is None`` guards, so the hot path allocates nothing when
profiling is off.
"""

from __future__ import annotations

import itertools
import random
import threading
from collections import deque
from typing import Any, Callable, Optional

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
    """One worker thread and its task deque."""

    __slots__ = ("idx", "tasks", "event", "thread", "rng", "busy",
                 "executed", "steals", "parks", "local_hits")

    def __init__(self, idx: int, name: str):
        self.idx = idx
        #: right end = local LIFO side, left end = steal/fair-FIFO side
        self.tasks: deque[Callable[[], Any]] = deque()
        self.event = threading.Event()
        self.rng = random.Random(idx * 2654435761 + 1)
        #: True from just before a dequeue attempt until the task (if
        #: any) finished — read by idle() to cover the in-flight window
        self.busy = False
        self.executed = 0
        self.steals = 0
        self.parks = 0
        self.local_hits = 0
        self.thread: Optional[threading.Thread] = None


class WorkStealingExecutor:
    """Fixed set of workers draining per-worker deques with stealing.

    ::

        ex = WorkStealingExecutor(workers=4)
        ex.submit(task)                  # task: any zero-arg callable
        ...
        ex.shutdown(wait=True)

    :meth:`submit` returns ``False`` (instead of raising) once the
    executor is shut down — callers decide what a rejected task means
    (the actor system dead-letters the pending mail).
    """

    #: bounded park backstop: the wakeup protocol is lost-wakeup-free by
    #: construction, but a worker still re-scans this often so that an
    #: unforeseen hole degrades to latency, never to a hang
    PARK_TIMEOUT = 0.05

    def __init__(self, workers: int = 4, name: str = "exec",
                 profiler: Optional[Any] = None,
                 tracer: Optional[Any] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.name = name
        self.profiler = profiler
        #: optional :class:`~repro.obs.causal.CausalTracer` for *plain*
        #: callables: a submit made under a request context wraps the
        #: task so the context re-installs on the worker that runs it.
        #: Actor cells never need this (contexts ride the mailbox, and
        #: the system deliberately leaves its executor untraced), but a
        #: standalone executor is a cross-thread handoff like any other
        self.tracer = tracer
        self._workers = [_Worker(i, name) for i in range(workers)]
        self._n = workers
        self._parked: list[_Worker] = []
        self._park_lock = threading.Lock()
        self._tls = threading.local()
        self._rr = itertools.count()
        self._shut = False
        for w in self._workers:
            w.thread = threading.Thread(target=self._loop, args=(w,),
                                        name=f"{name}-w{w.idx}", daemon=True)
            w.thread.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, task: Callable[[], Any],
               affinity: Optional[int] = None, fair: bool = False) -> bool:
        """Enqueue ``task``; returns False if the executor is shut down.

        From a worker thread the task lands on that worker's own deque
        (LIFO — processed next, cache-warm); from any other thread it
        goes to the ``affinity``-hashed home worker (FIFO side).
        ``fair=True`` forces the steal side even from a worker thread —
        used for requeue-after-budget so one actor cannot starve the
        rest of its worker's queue.
        """
        if self._shut:
            return False
        trc = self.tracer
        if trc is not None:
            ctx = trc.current()
            if ctx is not None:
                task = _CtxTask(trc, ctx, task)
        me: Optional[_Worker] = getattr(self._tls, "worker", None)
        if me is not None:
            if fair:
                me.tasks.appendleft(task)
            else:
                me.tasks.append(task)
                me.local_hits += 1
                if self.profiler is not None:
                    self.profiler.inc("executor.local_hits")
            # a lone task will be popped by this very worker the moment
            # the current one returns — waking a thief for it would cost
            # a syscall per message; wake only when work actually piles up
            if len(me.tasks) > 1 and self._parked:
                self._wake_one()
            return True
        idx = affinity if affinity is not None else next(self._rr)
        self._workers[idx % self._n].tasks.appendleft(task)
        if self._parked:
            self._wake_one()
        return True

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------
    def _loop(self, w: _Worker) -> None:
        self._tls.worker = w
        tasks = w.tasks
        while True:
            w.busy = True            # before the pop: idle() must never
            task = None              # miss a task that left the deque
            try:
                task = tasks.pop()
            except IndexError:
                task = self._steal(w)
            if task is None:
                w.busy = False
                if self._shut:
                    return
                self._park(w)
                continue
            # work is piling up behind us: hand a parked worker a chance
            # to steal it while we run this task
            if tasks and self._parked:
                self._wake_one()
            try:
                task()
            except BaseException:  # noqa: BLE001 - tasks must not kill
                pass               # workers; cells route errors already
            w.executed += 1
            w.busy = False

    def _steal(self, w: _Worker) -> Optional[Callable[[], Any]]:
        n = self._n
        if n == 1:
            return None
        start = w.rng.randrange(n)
        for k in range(n):
            victim = self._workers[(start + k) % n]
            if victim is w:
                continue
            try:
                task = victim.tasks.popleft()   # oldest waits longest
            except IndexError:
                continue
            w.steals += 1
            if self.profiler is not None:
                self.profiler.inc("executor.steals")
            return task
        return None

    def _park(self, w: _Worker) -> None:
        with self._park_lock:
            if self._shut:
                return
            self._parked.append(w)
        # re-check *after* registering: any submit that missed us in the
        # parked list happened before our registration, so its task is
        # visible to this scan — the lost-wakeup window is closed
        if any(v.tasks for v in self._workers):
            with self._park_lock:
                try:
                    self._parked.remove(w)
                except ValueError:
                    pass           # a waker already popped us
            w.event.clear()        # consume any signal aimed at us
            return
        w.parks += 1
        if self.profiler is not None:
            self.profiler.inc("executor.parks")
        w.event.wait(self.PARK_TIMEOUT)
        w.event.clear()
        with self._park_lock:
            try:
                self._parked.remove(w)
            except ValueError:
                pass
    # ------------------------------------------------------------------
    def _wake_one(self) -> None:
        with self._park_lock:
            w = self._parked.pop() if self._parked else None
        if w is not None:
            w.event.set()

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def idle(self) -> bool:
        """True when no task is queued or running on any worker."""
        return all(not w.tasks and not w.busy for w in self._workers)

    @property
    def stats(self) -> dict[str, int]:
        ws = self._workers
        return {
            "workers": self._n,
            "queued": sum(len(w.tasks) for w in ws),
            "executed": sum(w.executed for w in ws),
            "steals": sum(w.steals for w in ws),
            "parks": sum(w.parks for w in ws),
            "local_hits": sum(w.local_hits for w in ws),
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; workers drain what is queued and exit."""
        self._shut = True
        with self._park_lock:
            parked, self._parked = self._parked, []
        for w in parked:
            w.event.set()
        if wait:
            for w in self._workers:
                if w.thread is not None and w.thread is not \
                        threading.current_thread():
                    w.thread.join()

    def __enter__(self) -> "WorkStealingExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown(wait=True)
