"""Java-style monitors over real Python threads.

The course teaches Java's intrinsic-lock idiom — ``synchronized`` blocks
plus ``wait()``/``notify()``/``notifyAll()``.  :class:`Monitor` packages
that idiom over :mod:`threading`: a reentrant lock with its own wait
queue, entered with ``with monitor:`` and signalled with the Java
method names.

``@synchronized`` marks methods the way Java's keyword does: the paper's
misconception S7 ("conflate order of method invocation/return with
get/release lock") is precisely about the *difference* between calling a
synchronized method and holding its monitor — the decorator acquires the
monitor only once the call frame is entered, and the test suite pins
that distinction.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import deque
from typing import Any, Callable, Optional, TypeVar

__all__ = ["Monitor", "synchronized", "MonitorStateError"]

F = TypeVar("F", bound=Callable[..., Any])


class MonitorStateError(RuntimeError):
    """wait/notify called without holding the monitor (Java's
    IllegalMonitorStateException)."""


class Monitor:
    """Java's intrinsic lock and wait set: one RLock (it tracks owner
    and depth) plus a deque of one-shot locks, one per parked wait.

    ``wait`` registers its lock before it releases the monitor at any
    depth (the RLock hooks :class:`threading.Condition` uses), so no
    notify misses it; ``notify`` pops waiters and releases their locks.
    A timed-out waiter leaves the deque once it holds the monitor
    again, and returns True if a notify popped it first.

    ::

        m = Monitor()
        with m:
            while not ready:
                m.wait()
            ...
            m.notify_all()
    """

    def __init__(self, name: str = "", profiler: Optional[Any] = None):
        self.name = name or f"monitor@{id(self):x}"
        self._lock = threading.RLock()
        #: one held lock per parked ``wait()``, in arrival order
        self._waiters: deque = deque()
        #: optional :class:`repro.obs.Metrics` — lock wait times and
        #: contention counts; None keeps every path allocation-free
        self.profiler = profiler

    # -- lock protocol -----------------------------------------------------
    def __enter__(self) -> "Monitor":
        prof = self.profiler
        if prof is None:
            self._lock.acquire()
        elif self._lock.acquire(blocking=False):
            prof.inc("lock.acquires")
        else:
            # contended: somebody else holds the lock — time the wait
            t0 = prof.now()
            self._lock.acquire()
            prof.inc("lock.acquires")
            prof.inc("lock.contended")
            prof.observe_us("lock.wait_us", prof.now() - t0)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._lock.release()

    def acquire(self) -> None:
        self.__enter__()

    def release(self) -> None:
        self.__exit__()

    @property
    def held_by_me(self) -> bool:
        return self._lock._is_owned()

    def _require_held(self, op: str) -> None:
        if not self._lock._is_owned():
            raise MonitorStateError(
                f"{op} on {self.name} without holding the monitor")

    # -- condition protocol ---------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        """Release the monitor and park; True unless the timeout expired.

        Mesa semantics: callers must re-check their predicate in a loop.
        """
        self._require_held("wait()")
        prof = self.profiler
        t0 = 0.0
        if prof is not None:
            prof.inc("monitor.waits")
            t0 = prof.now()
        waiter = threading.Lock()
        waiter.acquire()
        self._waiters.append(waiter)
        saved = self._lock._release_save()
        signalled = False
        try:
            signalled = waiter.acquire(
                True, -1 if timeout is None else max(timeout, 0))
        finally:
            self._lock._acquire_restore(saved)
            if not signalled:
                try:
                    self._waiters.remove(waiter)
                except ValueError:      # a notify popped it meanwhile
                    signalled = True
        if prof is not None:
            prof.inc("monitor.wakeups")
            prof.observe_us("monitor.wait_us", prof.now() - t0)
        return signalled

    def wait_until(self, predicate: Callable[[], bool],
                   timeout: Optional[float] = None) -> bool:
        """Guarded wait: ``WHILE NOT predicate() WAIT()`` from Figure 4."""
        self._require_held("wait_until()")
        deadline = None if timeout is None else time.monotonic() + timeout
        while not predicate():
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
            self.wait(remaining)
        return True

    def notify(self, n: int = 1) -> None:
        self._require_held("notify()")
        if self.profiler is not None:
            self.profiler.inc("monitor.notifies")
        for _ in range(min(n, len(self._waiters))):
            self._waiters.popleft().release()

    def notify_all(self) -> None:
        """The paper's NOTIFY(): every waiter finishes its WAIT()."""
        self._require_held("notifyAll()")
        if self.profiler is not None:
            self.profiler.inc("monitor.notifies")
        while self._waiters:
            self._waiters.popleft().release()

    def __repr__(self) -> str:
        return f"<Monitor {self.name}>"


def synchronized(method: F) -> F:
    """Java's ``synchronized`` method modifier.

    Serializes callers on a per-instance monitor stored as
    ``obj._monitor`` (created on first use; share it across methods of
    the same object, exactly like Java's intrinsic lock).  Inside the
    method, ``self._monitor.wait()`` / ``.notify_all()`` use its wait
    queue.
    """

    @functools.wraps(method)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        monitor = _intrinsic_monitor(self)
        with monitor:
            return method(self, *args, **kwargs)

    return wrapper  # type: ignore[return-value]


_intrinsic_guard = threading.Lock()


def _intrinsic_monitor(obj: Any) -> Monitor:
    monitor = getattr(obj, "_monitor", None)
    if monitor is None:
        with _intrinsic_guard:
            monitor = getattr(obj, "_monitor", None)
            if monitor is None:
                monitor = Monitor(f"{type(obj).__name__}@{id(obj):x}")
                obj._monitor = monitor
    return monitor
