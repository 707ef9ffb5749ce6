"""Kernel-backed actor runtime — actors you can model-check.

Runs the same :class:`~repro.actors.actor.Actor` subclasses as the
threaded :class:`~repro.actors.system.ActorSystem`, but each actor is a
daemon task of the deterministic kernel with a
:class:`~repro.core.mailbox.Mailbox`.  Consequences:

* the explorer can enumerate every delivery order the mailbox policy
  admits — "two messages sent concurrently can arrive in either order"
  becomes an enumerable set of behaviours;
* message processing is one atomic step (the Hewitt model's per-message
  serialization), with sends/spawns buffered during the handler and
  issued as kernel effects right after — logically "during" processing,
  exactly as the actor axioms allow;
* quiescence ends a run: when only idle actors remain, the schedule is
  complete (kernel daemon rule);
* there is no supervision: a raising handler fails its kernel task,
  and the monitor bus's ``task-failure`` detector flags the run for
  the model checker (so ``spawn`` takes no ``directive``).

Lifecycle lives in the shared cell core (:mod:`repro.actors.cell`).

Driver code runs as a kernel task and uses the ``*_gen`` helpers::

    def program(sched):
        system = SimActorSystem(sched)
        def driver():
            counter = system.spawn(Counter, name="c")
            yield from system.tell_gen(counter, "inc")
            reply = yield from system.ask_gen(counter, "get")
            yield Emit(reply)
        sched.spawn(driver, name="driver")
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Optional

from ..core.effects import Effect, Receive, Send, Spawn, message_kind
from ..core.mailbox import DeliveryPolicy, Mailbox
from ..core.scheduler import Scheduler
from .cell import ActorRuntime, Cell, StopSignal
from .ref import ActorRef

__all__ = ["SimActorSystem"]


class _SimEnvelope:
    """Payload + logical sender ref, carried through the kernel mailbox."""

    __slots__ = ("payload", "sender")

    def __init__(self, payload: Any, sender: Optional[ActorRef]):
        self.payload = payload
        self.sender = sender

    def __repr__(self) -> str:
        who = self.sender.name if self.sender else "ext"
        return f"{self.payload!r}<-{who}"


def _send(mailbox: Mailbox, envelope: _SimEnvelope) -> Send:
    """The Send of a wrapped message, classified by its payload (the
    kind of the message the actor sent, not of its wrapper).  A stop
    signal is no protocol message and has no kind."""
    payload = envelope.payload
    return Send(mailbox, envelope, None if isinstance(payload, StopSignal)
                else message_kind(payload))


class _SimCell(Cell):
    """A cell whose mailbox is a kernel :class:`Mailbox`."""

    __slots__ = ("processed", "_pending_effects")

    def __init__(self, system: "SimActorSystem", actor: Any, name: str,
                 actor_id: int, directive: Any = None):
        super().__init__(system, actor, name, actor_id, directive)
        self.mailbox = Mailbox(name, policy=system.mailbox_policy)
        #: messages this actor has handled (stop signals excluded)
        self.processed = 0
        #: sends/spawns the running handler buffered, issued as effects
        self._pending_effects: list[tuple] = []

    def enqueue(self, message: Any, sender: Optional[ActorRef]) -> None:
        """Reached via ``ref.tell`` — only legal while a handler runs,
        where sends are buffered (asynchronous sends inside atomic
        message processing).  Outside a handler, use
        :meth:`SimActorSystem.tell_gen` from a kernel task."""
        outbox = self.system._outbox
        if outbox is None:
            raise RuntimeError(
                "tell() on a sim actor outside a message handler; use "
                "SimActorSystem.tell_gen(...) from kernel code")
        outbox.append(("send", self, _SimEnvelope(message, sender)))

    def _take_all(self) -> tuple:
        # mail behind the stop stays in the kernel mailbox: it is
        # kernel state the explorer sees, and nobody receives it
        return ()


class SimActorSystem(ActorRuntime):
    """Deterministic actor runtime on a :class:`Scheduler`.

    ``mailbox_policy`` selects which arrival reorderings exist —
    ARBITRARY is the paper's semantics, PER_SENDER_FIFO is the
    Erlang/Akka guarantee, FIFO is misconception M5's faulty world.

    ``spawn`` works from driver setup code and from inside handlers;
    ``tell``/``stop`` only from inside handlers, where sends are
    buffered — driver code uses the ``*_gen`` helpers.
    """

    _ids = itertools.count(1)
    _cell_type = _SimCell

    def __init__(self, sched: Scheduler,
                 mailbox_policy: DeliveryPolicy = DeliveryPolicy.ARBITRARY):
        super().__init__("sim-actors", directive=None)
        self.sched = sched
        self.mailbox_policy = mailbox_policy
        self._outbox: Optional[list[tuple]] = None

    def _launch(self, cell: _SimCell) -> None:
        """Run the new actor as a kernel daemon task — buffered as a
        Spawn effect when a handler spawns it (Hewitt axiom 2)."""
        if self._outbox is not None:
            self._outbox.append(("spawn", cell, None))
        else:
            self.sched.spawn(self._actor_loop(cell), name=cell.ref.name,
                             daemon=True)

    def _cell_of(self, ref: ActorRef) -> _SimCell:
        cell = self._cells.get(ref.actor_id)
        if cell is None:
            raise KeyError(f"unknown ref {ref!r}")
        return cell

    def hazards(self) -> list:
        """Hazards the kernel's monitor bus collected, if one is attached.

        Actors are plain kernel tasks, so creating the underlying
        scheduler with ``Scheduler(monitors=MonitorBus())`` already
        streams every actor send/deliver through the shipped detectors:
        mailbox saturation, message reordering (the M5 witness), actor
        handler failures.  This accessor just surfaces the result from
        actor-level code.
        """
        bus = getattr(self.sched, "monitors", None)
        return list(bus.hazards) if bus is not None else []

    def stats(self) -> dict[str, dict[str, Any]]:
        """Per-actor message statistics, keyed by actor name.

        Everything is in logical message counts — deterministic across
        replays of the same schedule — so tests can assert equality
        between runs and dashboards can diff snapshots.
        """
        return {
            cell.ref.name: {
                "processed": cell.processed,
                "pending": len(cell.mailbox),
                "mailbox_high_water": cell.mailbox.high_water,
                "delivered": cell.mailbox.delivered_count,
                "stopped": cell.stopped,
            }
            for cell in self._cells.values()
        }

    # ------------------------------------------------------------------
    # kernel-side generators
    # ------------------------------------------------------------------
    def tell_gen(self, ref: ActorRef, message: Any,
                 sender: Optional[ActorRef] = None) -> Iterator[Effect]:
        """Send from driver/kernel code (asynchronous, one Send effect)."""
        cell = self._cell_of(ref)
        yield _send(cell.mailbox, _SimEnvelope(message, sender))

    def stop_gen(self, ref: ActorRef) -> Iterator[Effect]:
        """Stop an actor from driver code (graceful: queued messages
        delivered first under FIFO policies)."""
        cell = self._cell_of(ref)
        yield _send(cell.mailbox, _SimEnvelope(StopSignal(), None))

    def ask_gen(self, ref: ActorRef, payload: Any,
                name: str = "ask") -> Iterator[Effect]:
        """Request/response from driver code: returns the reply payload."""
        reply_box = Mailbox(f"{name}-reply", policy=self.mailbox_policy)
        reply_ref = _ReplyRef(self, reply_box, name)
        cell = self._cell_of(ref)
        yield _send(cell.mailbox, _SimEnvelope(payload, reply_ref))
        envelope = yield Receive(reply_box)
        return envelope.payload

    def _actor_loop(self, cell: _SimCell) -> Iterator[Effect]:
        self._run_handler(cell, cell.start)
        yield from self._flush(cell)
        while not cell.stopped:
            envelope = yield Receive(cell.mailbox)
            self._run_handler(cell, cell.deliver, envelope.payload,
                              envelope.sender)
            if not cell.stopped:
                cell.processed += 1
            yield from self._flush(cell)

    def _run_handler(self, cell: _SimCell, fn, *args: Any) -> None:
        """Run user code with the send/spawn buffer installed."""
        previous, self._outbox = self._outbox, []
        try:
            fn(*args)
        finally:
            buffered = self._outbox
            self._outbox = previous
            cell._pending_effects = buffered

    def _flush(self, cell: _SimCell) -> Iterator[Effect]:
        """Issue the effects the handler buffered."""
        for kind, target, envelope in cell._pending_effects:
            if kind == "send":
                yield _send(target.mailbox, envelope)
            elif kind == "spawn":
                yield Spawn(self._actor_loop(target), name=target.ref.name,
                            daemon=True)
        cell._pending_effects = []


class _ReplyRef(ActorRef):
    """Sender ref whose cell is a bare reply mailbox (for ask_gen)."""

    _reply_ids = itertools.count(10**9)

    def __init__(self, system: SimActorSystem, mailbox: Mailbox, name: str):
        self.mailbox = mailbox
        self._system = system
        super().__init__(next(self._reply_ids), name, self)  # self as cell

    # ActorCell protocol
    @property
    def stopped(self) -> bool:
        return False

    def enqueue(self, message: Any, sender: Optional[ActorRef]) -> None:
        outbox = self._system._outbox
        if outbox is None:
            raise RuntimeError("reply outside a message handler")
        outbox.append(("send", self, _SimEnvelope(message, sender)))
