"""Task — a generator-backed cooperative thread of control.

A :class:`Task` wraps a generator produced by a task function.  The
scheduler resumes it, receives the next :class:`~repro.core.effects.Effect`,
and parks it according to the effect.  The task records enough metadata
(state, what it is blocked on, vector clock, statistics) for deadlock
reporting, fairness analysis and race detection.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

from .effects import Effect

__all__ = ["TaskState", "Task"]


class TaskState(enum.Enum):
    """Lifecycle of a task inside the scheduler."""

    READY = "ready"              # runnable; next resume executes one atomic step
    BLOCKED_ACQUIRE = "blocked-acquire"    # waiting for a lock/monitor to free up
    BLOCKED_WAIT = "blocked-wait"          # in a monitor's condition queue
    BLOCKED_RECEIVE = "blocked-receive"    # waiting for a deliverable message
    BLOCKED_JOIN = "blocked-join"          # waiting for another task to finish
    SLEEPING = "sleeping"                  # timed back-off (Sleep effect)
    DONE = "done"
    FAILED = "failed"


#: states from which a task can never run again
_TERMINAL = frozenset({TaskState.DONE, TaskState.FAILED})


class Task:
    """One simulated thread of control.

    Not created directly by user code — use
    :meth:`repro.core.scheduler.Scheduler.spawn` or yield a
    :class:`~repro.core.effects.Spawn` effect.
    """

    def __init__(self, gen: Generator[Effect, Any, Any], tid: int,
                 name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"task body must be a generator (did you forget to call the "
                f"generator function, or is it a plain function?): {gen!r}"
            )
        #: spawn-order index in the owning scheduler: the same task has
        #: the same tid on every replay of a schedule
        self.tid: int = tid
        self.name: str = name or f"task-{self.tid}"
        self.gen = gen
        self.state: TaskState = TaskState.READY
        #: object the task is blocked on (lock / monitor / mailbox / task)
        self.blocked_on: Any = None
        #: human-readable reason, used in DeadlockError reports
        self.blocked_reason: str = ""
        #: value to feed into ``gen.send`` at next resume
        self.pending_value: Any = None
        #: result of the generator once DONE
        self.result: Any = None
        #: exception if FAILED
        self.error: Optional[BaseException] = None
        #: tasks blocked on Join(self)
        self.joiners: list["Task"] = []
        #: matcher for the current Receive effect (selective receive)
        self.receive_matcher = None
        #: options of a pending Choice effect
        self.choice_options: Optional[tuple] = None
        #: remaining sleep ticks
        self.sleep_ticks: int = 0
        #: vector clock for happens-before tracking (lazily attached)
        self.vclock = None
        #: number of atomic steps this task has executed
        self.steps: int = 0
        #: daemon tasks do not prevent quiescent termination
        self.daemon: bool = False
        #: False when the program's ``fingerprint_extra`` captures this
        #: task's locals, so its input history is left out of fingerprints
        self.fingerprint_inputs: bool = True
        # -- per-step kernel bookkeeping (read by the scheduler) --------
        #: kernel-fed inputs (choice picks, delivered messages, join
        #: results), folded into fingerprints as task-local state
        self._inputs: tuple = ()
        #: footprint token of an ``Access`` yielded last step: the access
        #: it declares happens in the task's next segment
        self._announced_access: Optional[tuple] = None
        #: monitor re-entry depth restored by the next acquire grant
        self._reacquire_depth: int = 1
        #: the task has read a shared variable (fingerprints go opaque)
        self._read_access: bool = False
        #: step at which the task last blocked (lock/block tick metrics)
        self._blocked_at_step: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.state in _TERMINAL

    @property
    def runnable(self) -> bool:
        return self.state is TaskState.READY

    def describe_block(self) -> str:
        """One-line description for deadlock reports."""
        if self.blocked_reason:
            return self.blocked_reason
        return self.state.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.name} tid={self.tid} {self.state.value}>"
