"""Fixed thread pool + futures — the course's "thread pool arithmetic
program" (the week-1 lab students run while watching CPU utilization).

A :class:`ThreadPool` runs N workers draining one BlockingQueue of
work items; :meth:`submit` returns a :class:`PoolFuture`.  Each worker
is a job on a thread borrowed from the process-wide cache
(:mod:`repro.threads.cache`), not a thread of its own, so a short-lived
pool does not pay for starting and joining OS threads.  Shutdown is
cooperative via queue close — no poison pills in user code — and
``shutdown(wait=True)`` waits for every worker to leave its loop.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Optional, TypeVar

from .cache import run_on_thread
from .collections import BlockingQueue, QueueClosed
from .sync import Monitor

__all__ = ["PoolFuture", "ThreadPool", "parallel_map"]

T = TypeVar("T")


class PoolFuture:
    """Result holder for a submitted task (a minimal j.u.c. Future)."""

    def __init__(self) -> None:
        self._monitor = Monitor("future")
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._cancelled = False

    def _complete(self, result: Any = None,
                  error: Optional[BaseException] = None) -> None:
        with self._monitor:
            self._result = result
            self._error = error
            self._done = True
            self._monitor.notify_all()

    def cancel(self) -> bool:
        """Best-effort: succeeds only if the task has not completed."""
        with self._monitor:
            if self._done:
                return False
            self._cancelled = True
            self._done = True
            self._monitor.notify_all()
            return True

    def done(self) -> bool:
        with self._monitor:
            return self._done

    def result(self, timeout: Optional[float] = None) -> Any:
        with self._monitor:
            if not self._monitor.wait_until(lambda: self._done, timeout):
                raise TimeoutError("future result timed out")
            if self._cancelled:
                raise RuntimeError("task was cancelled")
            if self._error is not None:
                raise self._error
            return self._result


class ThreadPool:
    """Fixed-size worker pool; usable as a context manager.

    ::

        with ThreadPool(4) as pool:
            futures = [pool.submit(fib, n) for n in range(20)]
            values = [f.result() for f in futures]
    """

    def __init__(self, workers: int = 4, queue_capacity: int = 0,
                 name: str = "pool", profiler: Optional[Any] = None,
                 tracer: Optional[Any] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.name = name
        self.profiler = profiler
        #: optional :class:`repro.obs.causal.CausalTracer` — submit
        #: captures the caller's request context into the work item and
        #: the worker re-installs it around the task (a pool-exec span)
        self.tracer = tracer
        self._queue: BlockingQueue = BlockingQueue(queue_capacity,
                                                   f"{name}.queue",
                                                   profiler=profiler)
        self._shut = False
        self._submitted = 0
        self._completed = 0
        self._stats_lock = threading.Lock()
        #: one exit latch per worker: a lock held until it leaves its loop
        self._exited = [threading.Lock() for _ in range(workers)]
        self._tls = threading.local()
        for i, exited in enumerate(self._exited):
            exited.acquire()
            run_on_thread(lambda e=exited: self._worker_loop(e),
                          f"{name}-w{i}")

    # ------------------------------------------------------------------
    def _worker_loop(self, exited: threading.Lock) -> None:
        self._tls.exited = exited
        try:
            self._drain()
        finally:
            exited.release()

    def _drain(self) -> None:
        while True:
            try:
                fn, args, future, ctx = self._queue.take()
            except QueueClosed:
                return
            if future.done():          # cancelled while queued
                continue
            prof = self.profiler
            trc = self.tracer
            t0 = prof.now() if prof is not None else 0.0
            if trc is not None and ctx is not None \
                    and trc.admit(ctx.request_id):
                w0 = trc.now()
                sid = trc.next_id()
                trc.install(trc.context(ctx.request_id, sid))
                try:
                    future._complete(result=fn(*args))
                except BaseException as exc:  # noqa: BLE001
                    future._complete(error=exc)
                finally:
                    trc.record(sid, ctx.span_id, ctx.request_id,
                               "pool-exec", self.name, w0, trc.now())
                    trc.uninstall()
            else:
                try:
                    future._complete(result=fn(*args))
                except BaseException as exc:  # noqa: BLE001 - to future
                    future._complete(error=exc)
            if prof is not None:
                prof.inc("pool.tasks")
                prof.observe_us("pool.task_us", prof.now() - t0)
            with self._stats_lock:
                self._completed += 1

    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., T], *args: Any) -> PoolFuture:
        if self._shut:
            raise RuntimeError(f"{self.name} is shut down")
        future = PoolFuture()
        trc = self.tracer
        ctx = trc.current() if trc is not None else None
        self._queue.put((fn, args, future, ctx))
        with self._stats_lock:
            self._submitted += 1
        return future

    def map(self, fn: Callable[[Any], T], items: Iterable[Any]) -> list[T]:
        futures = [self.submit(fn, item) for item in items]
        return [f.result() for f in futures]

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally wait for the workers to drain
        the queue and leave their loops (not for the calling worker)."""
        self._shut = True
        self._queue.close()
        if wait:
            # every worker but the one that may be calling
            me = getattr(self._tls, "exited", None)
            for exited in self._exited:
                if exited is not me:
                    exited.acquire()
                    exited.release()

    @property
    def stats(self) -> dict[str, int]:
        with self._stats_lock:
            return {"submitted": self._submitted,
                    "completed": self._completed,
                    "queued": len(self._queue),
                    "workers": len(self._exited)}

    def __enter__(self) -> "ThreadPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown(wait=True)


def parallel_map(fn: Callable[[Any], T], items: Iterable[Any],
                 workers: int = 4) -> list[T]:
    """One-shot pooled map — the arithmetic-lab entry point."""
    with ThreadPool(workers) as pool:
        return pool.map(fn, items)
