"""Scheduling policies — who runs next, and which message is delivered.

The scheduler computes the set of *enabled transitions* at each step and
asks its policy to pick one.  A transition is a :class:`Transition`
naming the task to resume plus an optional payload choice (which pending
message to deliver, or which ``Choice`` option to take).

Policies are the kernel's single source of nondeterminism, which is what
makes executions replayable: record the chosen indices, replay them with
:class:`FixedPolicy`, and the run is reproduced bit-for-bit.  The model
checker in :mod:`repro.verify.explorer` is nothing more than a policy
that performs DFS over these indices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from .errors import ReplayError
from .task import Task

__all__ = [
    "Transition",
    "SchedulingPolicy",
    "RoundRobinPolicy",
    "RandomPolicy",
    "FixedPolicy",
    "RecordingPolicy",
]

#: bypasses the frozen ``__setattr__`` — for ``Transition.__init__`` only
_set = object.__setattr__


@dataclass(frozen=True, init=False)
class Transition:
    """One enabled step the scheduler could take next.

    ``kind`` is one of ``"run"`` (resume a READY task), ``"acquire"``
    (grant a free lock to a blocked acquirer), ``"deliver"`` (hand a
    pending message to a blocked receiver; ``payload`` is the message,
    ``payload_index`` its mailbox slot), or ``"choice"`` (resolve an
    explicit Choice effect; ``payload`` is the chosen option).

    ``footprint`` is the transition's declared access footprint — a
    frozenset of ``(domain, key, mode)`` tokens (see
    :meth:`repro.core.effects.Effect.footprint`) — when the scheduler
    can know it before execution: grants touch their lock, deliveries
    their mailbox, choices nothing.  ``None`` means *unknown* (a
    ``"run"`` resume may do anything), which reduction-aware policies
    must treat as conflicting with everything.

    The scheduler builds one per enabled transition per step, so
    ``__init__`` is written out as one ``__dict__`` store instead of
    the generated per-field frozen setattrs (see
    :class:`~repro.core.trace.TraceEvent`).
    """

    task: Task
    kind: str = "run"
    payload: Any = None
    payload_index: int = -1
    footprint: Optional[frozenset] = None

    def __init__(self, task: Task, kind: str = "run", payload: Any = None,
                 payload_index: int = -1,
                 footprint: Optional[frozenset] = None) -> None:
        _set(self, "__dict__", {"task": task, "kind": kind,
                                "payload": payload,
                                "payload_index": payload_index,
                                "footprint": footprint})

    def describe(self) -> str:
        if self.kind == "run":
            return f"run {self.task.name}"
        if self.kind == "acquire":
            return f"{self.task.name} acquires {self.task.blocked_on!r}"
        if self.kind == "deliver":
            return f"deliver {self.payload!r} to {self.task.name}"
        return f"{self.task.name} chooses {self.payload!r}"


class SchedulingPolicy:
    """Strategy interface: pick the index of the transition to execute."""

    def choose(self, transitions: Sequence[Transition]) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Called when a scheduler run starts; stateful policies rewind."""


class RoundRobinPolicy(SchedulingPolicy):
    """Deterministic fair rotation over tasks.

    Picks the transition whose task has least-recently run; ties are
    broken by task id, and among several transitions of the same task
    (message choices) the first is taken.  Gives every task a turn, so
    simple programs terminate and fairness-sensitive demos behave.
    """

    def __init__(self) -> None:
        self._last_run: dict[int, int] = {}
        self._tick = 0

    def reset(self) -> None:
        self._last_run.clear()
        self._tick = 0

    def choose(self, transitions: Sequence[Transition]) -> int:
        best_i = 0
        best_key: Optional[tuple[int, int]] = None
        for i, tr in enumerate(transitions):
            key = (self._last_run.get(tr.task.tid, -1), tr.task.tid)
            if best_key is None or key < best_key:
                best_key, best_i = key, i
        self._tick += 1
        self._last_run[transitions[best_i].task.tid] = self._tick
        return best_i


class RandomPolicy(SchedulingPolicy):
    """Seeded uniform choice — the stress-testing scheduler.

    With a fixed ``seed`` the run is reproducible; different seeds
    sample different interleavings, which is how the problem test
    suites hunt for races and deadlocks without full exploration.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def choose(self, transitions: Sequence[Transition]) -> int:
        return self._rng.randrange(len(transitions))


class FixedPolicy(SchedulingPolicy):
    """Replay a recorded choice sequence; then defer to ``tail``.

    Raises :class:`ReplayError` if a recorded index is out of range for
    the enabled set — that means the program is not deterministic given
    the schedule, i.e. a kernel bug or an impure task body.
    """

    def __init__(self, schedule: Sequence[int], tail: Optional[SchedulingPolicy] = None):
        self.schedule = list(schedule)
        self.tail = tail or RoundRobinPolicy()
        self._pos = 0

    def reset(self) -> None:
        self._pos = 0
        self.tail.reset()

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self.schedule)

    def choose(self, transitions: Sequence[Transition]) -> int:
        if self._pos < len(self.schedule):
            idx = self.schedule[self._pos]
            self._pos += 1
            if not 0 <= idx < len(transitions):
                raise ReplayError(
                    f"schedule step {self._pos - 1} wants transition {idx} "
                    f"but only {len(transitions)} enabled"
                )
            return idx
        return self.tail.choose(transitions)


class RecordingPolicy(SchedulingPolicy):
    """Wrap another policy and record (index, fan-out) per decision.

    The explorer uses the fan-out record to know where unexplored
    branches remain.
    """

    def __init__(self, inner: SchedulingPolicy):
        self.inner = inner
        self.decisions: list[tuple[int, int]] = []

    def reset(self) -> None:
        self.decisions = []
        self.inner.reset()

    def choose(self, transitions: Sequence[Transition]) -> int:
        idx = self.inner.choose(transitions)
        self.decisions.append((idx, len(transitions)))
        return idx
