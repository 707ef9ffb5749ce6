"""Java-style monitor — the semantics of the paper's ``EXC_ACC`` blocks.

A :class:`SimMonitor` is a reentrant lock plus a condition queue, exactly
the intrinsic-lock + ``wait()``/``notify()``/``notifyAll()`` construct of
Java that the course teaches, and the formal meaning of the pseudocode's
``EXC_ACC`` / ``END_EXC_ACC`` / ``WAIT()`` / ``NOTIFY()`` markers
(paper Figure 4):

* only one task executes inside the monitor at a time;
* ``WAIT()`` atomically releases the monitor and parks the caller; other
  tasks "that read or modify variables inside the block may execute";
* the paper's ``NOTIFY()`` is a broadcast: "once a NOTIFY() function is
  executed, all WAIT() functions finish their execution" — woken tasks
  then *re-contend* for the monitor (Mesa semantics, like Java).

Misconception S7 in the paper conflates method invocation/return with
lock acquire/release; misconception S5 conflates locking with
conditional waiting.  Keeping the entry queue and the condition queue as
two distinct fields here is what lets the misconception engine mutate
one without the other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from .effects import Acquire, Effect, Notify, Release, Wait
from .primitives import SimLock

if TYPE_CHECKING:  # pragma: no cover
    from .task import Task

__all__ = ["SimMonitor", "synchronized", "wait_while"]


class SimMonitor(SimLock):
    """Reentrant lock + condition queue (Java intrinsic monitor)."""

    def __init__(self, name: str):
        super().__init__(name, reentrant=True)
        #: tasks parked by WAIT, with the lock depth to restore on re-entry
        self._waiters: list[tuple["Task", int]] = []
        #: lifetime WAIT parks / NOTIFY signals (observability)
        self.wait_count = 0
        self.notify_count = 0

    # -- scheduler protocol ---------------------------------------------------
    def _park_waiter(self, task: "Task") -> None:
        depth = self._strip(task)
        self._waiters.append((task, depth))
        self.wait_count += 1

    def _pop_waiters(self, all_: bool) -> list[tuple["Task", int]]:
        """Remove and return the waiters being woken (FIFO order)."""
        self.notify_count += 1
        if all_:
            woken, self._waiters = self._waiters, []
        else:
            woken, self._waiters = self._waiters[:1], self._waiters[1:]
        return woken

    # -- inspection -----------------------------------------------------------
    def state_key(self) -> tuple:
        return super().state_key() + (
            tuple((t.tid, depth) for t, depth in self._waiters),)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def waiter_names(self) -> list[str]:
        return [t.name for t, _ in self._waiters]

    def __repr__(self) -> str:
        o = f" held by {self._owner.name}" if self._owner else ""
        w = f" waiters={self.waiter_names()}" if self._waiters else ""
        return f"<SimMonitor {self.name}{o}{w}>"


def synchronized(monitor: SimMonitor, body: Iterator[Effect]) -> Iterator[Effect]:
    """Run ``body`` holding ``monitor`` — an ``EXC_ACC ... END_EXC_ACC`` block.

    Reentrant: nesting ``synchronized`` on the same monitor is fine.
    """
    yield Acquire(monitor)
    try:
        yield from body
    finally:
        yield Release(monitor)


def wait_while(monitor: SimMonitor, predicate: Callable[[], bool],
               notify_after: bool = False) -> Iterator[Effect]:
    """The canonical guarded-wait idiom of paper Figure 4::

        WHILE <predicate> WAIT() ENDWHILE

    Must be yielded-from while holding ``monitor``.  Always re-checks the
    predicate after waking (Mesa monitors allow barging), which is the
    behaviour misconception S6 gets wrong ("conflate wait with continuous
    execution of the enclosing while loop").  With ``notify_after`` a
    broadcast follows, matching the figure's ``changeX`` example.
    """
    while predicate():
        yield Wait(monitor)
    if notify_after:
        yield Notify(monitor, all=True)
