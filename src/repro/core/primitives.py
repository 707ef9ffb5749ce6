"""Synchronization primitives for the simulation kernel.

These objects hold *state only* — ownership, wait queues, logical clocks.
All blocking/waking logic lives in the scheduler, which manipulates them
through the small ``_``-prefixed protocol defined here.  User tasks never
call these methods; they yield :class:`~repro.core.effects.Acquire` /
:class:`~repro.core.effects.Release` effects (or use the context-manager
helpers below that do the yielding for them).

:class:`SimLock` is reentrant (like Java intrinsic locks, which the
paper's ``EXC_ACC`` models); a plain mutex is the ``reentrant=False``
case.  :class:`SimSemaphore` and :class:`SimBarrier` are built from the
same grant protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from .clock import VectorClock
from .effects import Acquire, Effect, Release
from .errors import IllegalEffectError

if TYPE_CHECKING:  # pragma: no cover
    from .task import Task

__all__ = ["SimLock", "SimSemaphore", "SimBarrier", "locked"]


class SimLock:
    """A (reentrant) mutual-exclusion lock in simulated time.

    Use from a task body::

        yield Acquire(lock)
        ...critical section...
        yield Release(lock)

    or, equivalently, ``yield from locked(lock, body_gen)``.
    """

    def __init__(self, name: str, reentrant: bool = True):
        self.name = name
        self.reentrant = reentrant
        self._owner: Optional["Task"] = None
        self._count = 0
        #: release-time clock — next acquirer merges it (happens-before edge)
        self._vclock = VectorClock()
        #: grants of this lock to a non-owner (observability)
        self.acquire_count = 0
        #: acquire attempts that found the lock held by another task
        self.contention_count = 0

    # -- scheduler protocol -------------------------------------------------
    def _can_grant(self, task: "Task") -> bool:
        if self._owner is None:
            return True
        return self.reentrant and self._owner is task

    def _grant(self, task: "Task", count: int = 1) -> None:
        if self._owner is task:
            if not self.reentrant:
                raise IllegalEffectError(f"{task.name} re-acquired non-reentrant {self.name}")
            self._count += count
            return
        if self._owner is not None:
            raise IllegalEffectError(f"grant of held lock {self.name}")
        self._owner = task
        self._count = count
        self.acquire_count += 1

    def _release(self, task: "Task") -> bool:
        """Drop one hold level; returns True when fully released."""
        if self._owner is not task:
            raise IllegalEffectError(
                f"{task.name} released {self.name} owned by "
                f"{self._owner.name if self._owner else 'nobody'}"
            )
        self._count -= 1
        if self._count == 0:
            self._owner = None
            return True
        return False

    def _strip(self, task: "Task") -> int:
        """Fully release regardless of depth (the WAIT rule); returns depth."""
        if self._owner is not task:
            raise IllegalEffectError(f"{task.name} waited on {self.name} it does not own")
        depth, self._count, self._owner = self._count, 0, None
        return depth

    # -- inspection -----------------------------------------------------------
    @property
    def held(self) -> bool:
        return self._owner is not None

    def owner_name(self) -> Optional[str]:
        return self._owner.name if self._owner else None

    def state_key(self) -> tuple:
        """Hashable kernel-visible state for scheduler fingerprints."""
        owner = self._owner.tid if self._owner is not None else -1
        return ("lock", owner, self._count)

    def __repr__(self) -> str:
        o = f" held by {self._owner.name}x{self._count}" if self._owner else ""
        return f"<SimLock {self.name}{o}>"


def locked(lock: SimLock, body: Iterator[Effect]) -> Iterator[Effect]:
    """``synchronized``-block helper: acquire, run ``body``, always release.

    ``body`` is a generator; its yields pass through unchanged, so the
    critical section may itself block (e.g. on a nested lock).
    """
    yield Acquire(lock)
    try:
        yield from body
    finally:
        yield Release(lock)


class SimSemaphore:
    """Counting semaphore, expressed through the lock-grant protocol.

    The scheduler treats it like a lock whose ``_can_grant`` succeeds
    while permits remain; ``Release`` returns a permit.  Not reentrant
    and not owned — any task may release.
    """

    def __init__(self, permits: int, name: str):
        if permits < 0:
            raise ValueError("permits must be >= 0")
        self.name = name
        self.permits = permits
        self._vclock = VectorClock()
        self.acquire_count = 0
        self.contention_count = 0

    # scheduler protocol (duck-typed with SimLock)
    def _can_grant(self, task: "Task") -> bool:
        return self.permits > 0

    def _grant(self, task: "Task", count: int = 1) -> None:
        if self.permits <= 0:
            raise IllegalEffectError(f"grant on empty semaphore {self.name}")
        self.permits -= 1
        self.acquire_count += 1

    def _release(self, task: "Task") -> bool:
        self.permits += 1
        return True

    def state_key(self) -> tuple:
        return ("sem", self.permits)

    @property
    def held(self) -> bool:  # for uniform reporting
        return self.permits == 0

    def __repr__(self) -> str:
        return f"<SimSemaphore {self.name} permits={self.permits}>"


class SimBarrier:
    """Cyclic barrier for ``parties`` tasks, built on a semaphore pair.

    Implemented at the effect level in :meth:`wait_gen`; holds no
    scheduler-visible state of its own beyond its two semaphores, which
    keeps the kernel's primitive set minimal.
    """

    def __init__(self, parties: int, name: str):
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.name = name
        self.parties = parties
        self._mutex = SimLock(f"{self.name}.mutex")
        self._turnstile = SimSemaphore(0, f"{self.name}.turnstile")
        self._count = 0
        self.generation = 0

    def wait_gen(self) -> Iterator[Effect]:
        """Yield-from this to wait at the barrier."""
        yield Acquire(self._mutex)
        self._count += 1
        arrived = self._count
        if arrived == self.parties:
            # last arrival opens the turnstile for everyone (incl. itself)
            self._count = 0
            self.generation += 1
            for _ in range(self.parties):
                self._turnstile.permits += 1
        yield Release(self._mutex)
        yield Acquire(self._turnstile)

    def __repr__(self) -> str:
        return f"<SimBarrier {self.name} {self._count}/{self.parties}>"
