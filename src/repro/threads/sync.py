"""Java-style monitors over real Python threads.

The course teaches Java's intrinsic-lock idiom — ``synchronized`` blocks
plus ``wait()``/``notify()``/``notifyAll()``.  :class:`Monitor` packages
that idiom over :mod:`threading`: a reentrant lock fused with one
condition queue, entered with ``with monitor:`` and signalled with the
Java method names.

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
from typing import Any, Callable, Optional, TypeVar

__all__ = ["Monitor", "synchronized", "MonitorStateError"]

F = TypeVar("F", bound=Callable[..., Any])


class MonitorStateError(RuntimeError):
    """wait/notify called without holding the monitor (Java's
    IllegalMonitorStateException)."""


class Monitor:
    """Reentrant lock + condition queue with Java naming.

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
        self._cond = threading.Condition(self._lock)
        self._owner: Optional[int] = None
        self._depth = 0
        #: lifetime entries / WAIT parks / NOTIFY signals — observability
        #: counters matching the kernel SimMonitor's; only mutated while
        #: the monitor is held, so no extra synchronization is needed
        self.acquire_count = 0
        self.wait_count = 0
        self.notify_count = 0
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
        self._owner = threading.get_ident()
        self._depth += 1
        if self._depth == 1:
            self.acquire_count += 1
        return self

    def __exit__(self, *exc: Any) -> None:
        self._depth -= 1
        if self._depth == 0:
            self._owner = None
        self._lock.release()

    def acquire(self) -> None:
        self.__enter__()

    def release(self) -> None:
        self.__exit__()

    @property
    def held_by_me(self) -> bool:
        return self._owner == threading.get_ident()

    def _require_held(self, op: str) -> None:
        if not self.held_by_me:
            raise MonitorStateError(
                f"{op} on {self.name} without holding the monitor")

    # -- condition protocol ---------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        """Release the monitor and park; True unless the timeout expired.

        Mesa semantics: callers must re-check their predicate in a loop.
        """
        self._require_held("wait()")
        self.wait_count += 1
        prof = self.profiler
        t0 = 0.0
        if prof is not None:
            prof.inc("monitor.waits")
            t0 = prof.now()
        depth = self._depth
        # threading.Condition handles full release/reacquire of the RLock
        self._depth = 0
        self._owner = None
        try:
            signalled = self._cond.wait(timeout)
        finally:
            self._owner = threading.get_ident()
            self._depth = depth
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
        self.notify_count += 1
        if self.profiler is not None:
            self.profiler.inc("monitor.notifies")
        self._cond.notify(n)

    def notify_all(self) -> None:
        """The paper's NOTIFY(): every waiter finishes its WAIT()."""
        self._require_held("notifyAll()")
        self.notify_count += 1
        if self.profiler is not None:
            self.profiler.inc("monitor.notifies")
        self._cond.notify_all()

    def __repr__(self) -> str:
        return f"<Monitor {self.name}>"


def synchronized(method: F) -> F:
    """Java's ``synchronized`` method modifier.

    Serializes callers on a per-instance monitor stored as
    ``obj._monitor`` (created on first use; share it across methods of
    the same object, exactly like Java's intrinsic lock).  Inside the
    method, ``self._monitor.wait()`` / ``.notify_all()`` provide the
    condition queue.
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
