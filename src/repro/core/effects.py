"""Effect vocabulary — the yield protocol between tasks and the scheduler.

A simulated task is a generator function.  Whenever it needs to interact
with the concurrent world it ``yield``s an :class:`Effect`; the scheduler
interprets the effect and later resumes the generator (possibly with a
value, e.g. the received message).  Code between two yields executes
atomically — exactly the atomicity model of the paper's pseudocode, where
"simple statements are executed atomically" and every statement boundary
is a potential interleaving point.

The effects double as the instruction set of the model checker in
:mod:`repro.verify`: every scheduling decision happens at an effect, so a
recorded sequence of decisions replays an execution exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional, Sequence

__all__ = [
    "EMPTY_FOOTPRINT",
    "Effect",
    "Pause",
    "Access",
    "AccessKind",
    "Acquire",
    "Release",
    "Wait",
    "Notify",
    "Send",
    "message_kind",
    "Receive",
    "Spawn",
    "Join",
    "Choice",
    "Emit",
    "Sleep",
]


#: an empty access footprint, shared by all pure effects
EMPTY_FOOTPRINT: frozenset = frozenset()


class Effect:
    """Base class for everything a task may yield to the scheduler.

    Every effect declares an *access footprint*: the set of
    ``(domain, key, mode)`` tokens naming the kernel-visible resources
    the effect touches (``mode`` is ``"r"`` or ``"w"``).  Two effects
    are *independent* when no token of one conflicts with a token of
    the other (same resource, at least one write) — the relation the
    partial-order reduction in :mod:`repro.verify.explorer` prunes by.
    Pure effects (:class:`Pause`, :class:`Choice`, :class:`Join`
    resolution) have an empty footprint and commute with everything.
    """

    __slots__ = ()

    def footprint(self) -> frozenset:
        """``(domain, key, mode)`` access tokens of this effect."""
        return EMPTY_FOOTPRINT


@dataclass(frozen=True)
class Pause(Effect):
    """A pure preemption point: "other tasks may run here".

    ``label`` is carried into the trace for debugging and for the
    pseudocode interpreter's statement-level annotations.
    """

    label: str = ""


class AccessKind(Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class Access(Effect):
    """A preemption point annotated with a shared-memory access.

    The kernel treats it like :class:`Pause`; the happens-before race
    detector (:mod:`repro.verify.race`) uses the ``var``/``kind``
    annotations to flag unsynchronized conflicting accesses.
    """

    var: str
    kind: AccessKind = AccessKind.READ
    label: str = ""

    def footprint(self) -> frozenset:
        return frozenset({("var", self.var,
                           "w" if self.kind is AccessKind.WRITE else "r")})


@dataclass(frozen=True)
class Acquire(Effect):
    """Block until ``lock`` can be taken, then take it atomically.

    ``lock`` is any object registered with the scheduler's lock table —
    in practice a :class:`repro.core.primitives.SimLock` or a
    :class:`repro.core.monitor.SimMonitor`.
    """

    lock: Any

    def footprint(self) -> frozenset:
        return frozenset({("lock", id(self.lock), "w")})


@dataclass(frozen=True)
class Release(Effect):
    """Release ``lock``; raises IllegalEffectError if not the owner."""

    lock: Any

    def footprint(self) -> frozenset:
        return frozenset({("lock", id(self.lock), "w")})


@dataclass(frozen=True)
class Wait(Effect):
    """Paper's ``WAIT()``: atomically release the monitor and join its
    condition queue; upon notify, re-contend for the monitor."""

    monitor: Any

    def footprint(self) -> frozenset:
        return frozenset({("lock", id(self.monitor), "w")})


@dataclass(frozen=True)
class Notify(Effect):
    """Paper's ``NOTIFY()``: wake waiters of ``monitor``.

    The paper's semantics is broadcast ("all WAIT() functions finish
    their execution"), i.e. ``all=True``; ``all=False`` gives Java's
    single ``notify()`` (FIFO waiter wake — a legal JLS implementation).
    """

    monitor: Any
    all: bool = True

    def footprint(self) -> frozenset:
        return frozenset({("lock", id(self.monitor), "w")})


#: head string / tuple or list type -> kind token.  Classification runs
#: once per distinct message shape instead of once per message; the
#: clear() bound keeps a pathological stream of unique heads from
#: growing it without limit.
_KIND_CACHE: dict = {}
#: payload type -> kind token, for the types that classify by type
#: name whatever their value (all but str, tuple, list and their
#: subclasses)
_TYPE_KINDS: dict = {}
#: "not given / not cached" sentinel: None is a valid kind
_UNSET = object()


def message_kind(message: Any) -> Optional[str]:
    """The protocol kind of a message — the one classifier every runtime
    uses, applied once, when the message is sent.

    Tagged tuples/lists classify by their string head, strings by
    themselves, everything else by type name — the conventions every
    actor example in this repo already follows (the paper's
    ``MESSAGE.name(v)``).  ``None`` when the head is not a kind token.
    """
    got = _TYPE_KINDS.get(type(message))
    if got is not None:
        return got
    if isinstance(message, (tuple, list)):
        key: Any = message[0] if message and isinstance(message[0], str) \
            else type(message)
    elif isinstance(message, str):
        key = message
    else:
        if len(_TYPE_KINDS) > 4096:
            _TYPE_KINDS.clear()
        got = _TYPE_KINDS[type(message)] = type(message).__name__.lower()
        return got
    got = _KIND_CACHE.get(key, _UNSET)
    if got is _UNSET:
        if len(_KIND_CACHE) > 4096:
            _KIND_CACHE.clear()
        got = _KIND_CACHE[key] = (
            _norm_kind(key) if isinstance(key, str)
            else key.__name__.lower())
    return got


def _norm_kind(token: str) -> Optional[str]:
    token = token.lower()
    return token if re.fullmatch(r"[\w.-]+", token) else None


@dataclass(frozen=True)
class Send(Effect):
    """Asynchronous message send — never blocks (Hewitt/actor semantics,
    and the paper's 'a send statement is asynchronous').

    ``kind`` is the message's protocol kind, recorded on the step's
    :class:`~repro.core.trace.TraceEvent` (``msg_kind``).  It defaults
    to :func:`message_kind` of ``message``; a runtime that wraps its
    payload in an envelope passes the payload's kind instead.
    """

    mailbox: Any
    message: Any
    kind: Optional[str] = _UNSET  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.kind is _UNSET:
            object.__setattr__(self, "kind", message_kind(self.message))

    def footprint(self) -> frozenset:
        return frozenset({("mbox", id(self.mailbox), "w")})


@dataclass(frozen=True)
class Receive(Effect):
    """Block until the mailbox can deliver a message this task accepts.

    ``matcher`` optionally restricts which pending messages are
    acceptable (selective receive, as in Scala's ``receive`` blocks).
    Which acceptable message arrives is a scheduler *choice point* under
    the mailbox's delivery policy — this is how "two messages sent
    concurrently can arrive in either order" is modelled.
    """

    mailbox: Any
    matcher: Optional[Callable[[Any], bool]] = None

    def footprint(self) -> frozenset:
        # parking as a receiver only *reads* the mailbox: actual removal
        # happens at the (separate) deliver transition, which writes
        return frozenset({("mbox", id(self.mailbox), "r")})


@dataclass(frozen=True)
class Spawn(Effect):
    """Create a new task from a generator; resumes with the new Task.

    ``daemon`` tasks do not keep the simulation alive: a run ends in
    quiescence (outcome "done") once every non-daemon task has finished
    and nothing is enabled — message-loop actors are daemons.
    """

    gen: Any
    name: str = ""
    daemon: bool = False

    def footprint(self) -> frozenset:
        return frozenset({("tasks", 0, "w")})


@dataclass(frozen=True)
class Join(Effect):
    """Block until ``task`` finishes; resumes with its return value.

    A task that failed has no return value: the joiner resumes with
    ``None``, whether the task failed before or during the join, and
    no exception is raised at the join (the error stays on
    ``task.error``; ``raise_on_failure`` still aborts the run when the
    task fails).  Pseudocode ``PARA`` relies on this to carry on after
    a failed arm.
    """

    task: Any

    def footprint(self) -> frozenset:
        return frozenset({("task", getattr(self.task, "tid", id(self.task)), "r")})


@dataclass(frozen=True)
class Choice(Effect):
    """Explicit nondeterministic choice among ``options``.

    The scheduler turns each option into a distinct enabled transition;
    the chosen option is sent back into the generator.  Used to model
    environmental nondeterminism (e.g. which car arrives first) so the
    explorer can enumerate scenarios.
    """

    options: Sequence[Any] = field(default_factory=tuple)


@dataclass(frozen=True)
class Emit(Effect):
    """Append ``value`` to the run's observable output (PRINT/PRINTLN).

    Observable output is what :func:`repro.verify.explorer.explore`
    deduplicates terminal states by.
    """

    value: Any

    def footprint(self) -> frozenset:
        # all emissions append to the one global output stream, so any
        # two Emits conflict: their order is observable
        return frozenset({("out", 0, "w")})


@dataclass(frozen=True)
class Sleep(Effect):
    """Advance this task's readiness by ``ticks`` of simulated time.

    The kernel is untimed by default; Sleep lowers a task's priority for
    ``ticks`` scheduler steps, providing a simple notion of delay for
    workload generators without introducing wall-clock time.
    """

    ticks: int = 1

    def footprint(self) -> frozenset:
        # sleeping couples the task to global step time, which every
        # scheduler step advances — conservatively conflicts with all
        return frozenset({("time", 0, "w")})
