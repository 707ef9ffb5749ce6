"""The actor cell core every runtime shares.

A *cell* is the runtime state of one actor: its instance, mailbox,
lifecycle flags and supervision override.  :class:`Cell` owns the
lifecycle — ``pre_start`` once before the first message, one message
at a time under supervision, and stop (mark stopped, dead-letter the
mail behind the stop, ``post_stop``).  :class:`ActorRuntime` owns what
spans cells: spawn and naming, the RESUME/RESTART/STOP failure path
with its failure log and ``failure_listener``, and the dead-letter
log.

The three runtimes differ only in who calls "process one message":

* :class:`~repro.actors.system.ActorSystem` — an executor worker
  draining a run of mail (its loop is inlined for speed but calls
  back into this core for stop, failure and dead-lettering);
* :class:`~repro.actors.sim.SimActorSystem` — a kernel daemon task
  receiving from a kernel mailbox, with sends buffered as effects;
* :class:`~repro.sim.inline.InlineActorSystem` — the simulator's
  ``process_one`` decision.

A runtime whose ``directive`` is None has no supervision: a failing
actor escalates (the exception propagates to whoever called "process
one message").  That is the kernel runtime, where a raising handler
fails its kernel task and the ``task-failure`` detector flags it.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from enum import Enum
from typing import Any, Iterable, Optional

from .actor import Actor, ActorContext
from .ref import ActorRef

__all__ = ["SupervisionDirective", "DeadLetter", "StopSignal", "Cell",
           "ActorRuntime"]


class SupervisionDirective(Enum):
    RESUME = "resume"
    RESTART = "restart"
    STOP = "stop"


class DeadLetter:
    """Record of a message that could not be delivered.

    ``ctx`` preserves the causal-tracing context the message carried at
    the drop point — either a live ``RequestContext`` or the cluster
    wire triple ``(request_id, span_id, t_send)`` — so ``repro
    critical`` and postmortem bundles can attribute the drop to the
    request that lost it.  ``why`` is the cluster node's reason for a
    node-level drop (``"node down"``, ``"no local actor"``, ...); None
    for mail to a stopped actor.
    """

    __slots__ = ("target", "message", "sender", "ctx", "why")

    def __init__(self, target: str, message: Any, sender: Optional[ActorRef],
                 ctx: Any = None, why: Optional[str] = None):
        self.target = target
        self.message = message
        self.sender = sender
        self.ctx = ctx
        self.why = why

    @property
    def request_id(self) -> Optional[str]:
        """Request id of the dropped message's causal context, if any."""
        ctx = self.ctx
        if ctx is None:
            return None
        rid = getattr(ctx, "request_id", None)
        if rid is not None:
            return rid
        try:
            return ctx[0]
        except (TypeError, IndexError, KeyError):
            return None

    def __repr__(self) -> str:
        rid = self.request_id
        tail = f" [req {rid}]" if rid is not None else ""
        return f"<DeadLetter to {self.target}: {self.message!r}{tail}>"


class StopSignal:
    """Poison pill ``stop`` sends: processed in mailbox order, so mail
    queued ahead of it is handled first and mail behind it is
    dead-lettered."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<stop>"


class Cell:
    """One actor's runtime state and lifecycle (the ``ActorCell``
    protocol :class:`ActorRef` talks to).

    Mailbox entries are ``(message, sender)`` tuples; the threaded
    dispatcher may append ``(ctx, t_enqueue)`` for traced messages and
    a profiler stamp after those, and dead-lettering keeps that
    ``ctx``.
    """

    __slots__ = ("system", "actor", "ref", "mailbox", "lock", "started",
                 "_stopped", "directive")

    def __init__(self, system: "ActorRuntime", actor: Actor, name: str,
                 actor_id: int,
                 directive: Optional[SupervisionDirective] = None):
        self.system = system
        self.actor = actor
        self.ref = ActorRef(actor_id, name, self)
        self.mailbox: Any = deque()
        #: makes ``stop()`` a test-and-set, so ``post_stop`` runs once
        self.lock = threading.Lock()
        self.started = False
        self._stopped = False
        #: per-actor supervision override (None = system default)
        self.directive = directive

    @property
    def stopped(self) -> bool:
        return self._stopped

    def depth(self) -> int:
        """Messages currently pending in the mailbox."""
        return len(self.mailbox)

    def enqueue(self, message: Any, sender: Optional[ActorRef]) -> None:
        if self._stopped:
            self.system._dead_letter(self.ref.name, message, sender)
            return
        self.mailbox.append((message, sender))

    # -- lifecycle --------------------------------------------------------
    def start(self) -> bool:
        """Run ``pre_start`` once; False when a STOP directive fired in
        it (the cell is already stopped)."""
        self.started = True
        try:
            self.actor.pre_start()
        except BaseException as exc:  # noqa: BLE001
            self.system._on_failure(self, exc, "<pre_start>")
        return not self._stopped

    def deliver(self, message: Any, sender: Optional[ActorRef]) -> None:
        """Process one message: a stop signal stops the cell, anything
        else runs the current behaviour under supervision."""
        if isinstance(message, StopSignal):
            self.stop()
            return
        actor = self.actor
        context = actor.context
        context.sender = sender
        try:
            actor.current_behaviour()(message, sender)
        except BaseException as exc:  # noqa: BLE001
            self.system._on_failure(self, exc, message)
        finally:
            context.sender = None

    def stop(self) -> None:
        """Mark stopped, dead-letter the mail behind the stop, run
        ``post_stop`` (its errors are swallowed: they must not kill the
        dispatcher), then let the runtime forget the cell."""
        with self.lock:
            if self._stopped:
                return
            self._stopped = True
        self._drain_to_dead_letters()
        try:
            self.actor.post_stop()
        except BaseException:  # noqa: BLE001
            pass
        self.system._forget(self)

    # -- dead-lettering -----------------------------------------------------
    def _take_all(self) -> Iterable[tuple]:
        """Pop everything queued, oldest first, one entry at a time: a
        lock-free sender may append at any moment, and an entry that
        lands after the last pop is its sender's to dead-letter (it
        rechecks ``_stopped`` after appending).  A snapshot-then-clear
        would drop an entry appended between the two."""
        mailbox = self.mailbox
        taken = []
        while mailbox:
            try:
                taken.append(mailbox.popleft())
            except IndexError:      # a racing flush emptied it first
                break
        return taken

    def _drain_to_dead_letters(self) -> None:
        self._dead_letter_all(self._take_all())

    def _dead_letter_all(self, entries: Iterable[tuple]) -> None:
        dead_letter = self.system._dead_letter
        name = self.ref.name
        for entry in entries:
            if not isinstance(entry[0], StopSignal):
                dead_letter(name, entry[0], entry[1],
                            entry[2] if len(entry) > 2 else None)


class ActorRuntime:
    """What every actor runtime shares: spawn, stop, supervision and
    the dead-letter log.  Subclasses set ``_cell_type`` and start a new
    cell in :meth:`_launch`."""

    _cell_type: type = Cell

    def __init__(self, name: str,
                 directive: Optional[SupervisionDirective]):
        self.name = name
        #: actor ids, counted per system so that actor names and ref
        #: reprs are the same on every replay of a schedule
        self._ids = itertools.count(1)
        #: system-wide supervision default; None = failures escalate
        self.directive = directive
        self._cells: dict[Any, Cell] = {}
        self._cells_lock = threading.Lock()
        self.dead_letters: list[DeadLetter] = []
        self._dl_lock = threading.Lock()
        self._failures: list[tuple[str, BaseException]] = []
        self._failures_lock = threading.Lock()
        #: optional callback (name, error, applied_directive) invoked after
        #: a failure is handled — the cluster layer hangs watch signals here
        self.failure_listener: Optional[Any] = None

    # ------------------------------------------------------------------
    def spawn(self, actor_class: type, *args: Any, name: str = "",
              directive: Optional[SupervisionDirective] = None,
              **kwargs: Any) -> ActorRef:
        """Instantiate and register an actor; returns its ref.

        ``directive`` overrides the system-wide supervision default for
        this actor only — one crashing actor can be STOPped while the
        rest RESTART.
        """
        if not issubclass(actor_class, Actor):
            raise TypeError(f"{actor_class.__name__} is not an Actor subclass")
        self._check_directive(directive)
        actor = actor_class(*args, **kwargs)
        actor_id = next(self._ids)
        cell = self._cell_type(
            self, actor, name or f"{actor_class.__name__.lower()}-{actor_id}",
            actor_id, directive)
        actor.context = ActorContext(self, cell.ref)
        self._register(cell)
        self._launch(cell)
        return cell.ref

    def stop(self, ref: ActorRef) -> None:
        """Graceful stop: messages already enqueued are processed first."""
        ref.tell(StopSignal())

    def tell(self, ref: ActorRef, message: Any) -> None:
        ref.tell(message, sender=None)

    def set_directive(self, ref: ActorRef,
                      directive: Optional[SupervisionDirective]) -> None:
        """Change one actor's supervision override (None = system default)."""
        self._check_directive(directive)
        cell = ref._cell
        if getattr(cell, "system", None) is self:
            cell.directive = directive

    def failures(self) -> list[tuple[str, BaseException]]:
        """Snapshot copy of every (actor name, error) recorded so far."""
        with self._failures_lock:
            return list(self._failures)

    @property
    def actor_count(self) -> int:
        """Actors spawned and not yet stopped."""
        with self._cells_lock:
            return sum(1 for c in self._cells.values() if not c.stopped)

    # ------------------------------------------------------------------
    # dispatcher hooks
    # ------------------------------------------------------------------
    def _register(self, cell: Cell) -> None:
        with self._cells_lock:
            self._cells[cell.ref.actor_id] = cell

    def _launch(self, cell: Cell) -> None:
        raise NotImplementedError

    def _forget(self, cell: Cell) -> None:
        """A cell stopped; runtimes that report stopped cells keep it."""

    def _quiet(self) -> bool:
        """No mail pending and no message being processed."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # the failure and dead-letter paths
    # ------------------------------------------------------------------
    def _check_directive(self,
                         directive: Optional[SupervisionDirective]) -> None:
        if directive is not None and self.directive is None:
            raise ValueError(
                f"{type(self).__name__} has no supervision: a failing "
                f"actor escalates (its kernel task fails), so it takes "
                f"no directive")

    def _dead_letter(self, target: str, message: Any,
                     sender: Optional[ActorRef], ctx: Any = None,
                     why: Optional[str] = None) -> None:
        with self._dl_lock:
            self.dead_letters.append(DeadLetter(target, message, sender,
                                                ctx, why))

    def _on_failure(self, cell: Cell, error: BaseException,
                    message: Any) -> None:
        directive = cell.directive if cell.directive is not None \
            else self.directive
        if directive is None:
            raise error
        # may run on dispatch workers: the failure log needs the same
        # lock discipline as dead_letters
        with self._failures_lock:
            self._failures.append((cell.ref.name, error))
        if directive is SupervisionDirective.RESTART:
            try:
                cell.actor.pre_restart(error, message)
            except BaseException:  # noqa: BLE001
                pass
        elif directive is SupervisionDirective.STOP:
            cell.stop()
        listener = self.failure_listener
        if listener is not None:
            try:
                listener(cell.ref.name, error, directive)
            except BaseException:  # noqa: BLE001 - listeners must not
                pass               # kill dispatch workers
