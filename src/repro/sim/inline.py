"""A single-threaded, externally-pumped actor system for simulation.

The threaded :class:`~repro.actors.system.ActorSystem` dispatches
mailboxes on a shared executor queue — real parallelism, real
nondeterminism.  Under deterministic simulation that nondeterminism
must be *scheduled*, not raced, so :class:`InlineActorSystem` never
starts a thread: ``tell`` only enqueues, and one message is processed
when — and only when — the simulation driver calls
:meth:`process_one`.  Which actor runs next is therefore a schedulable
decision like any frame delivery.

Lifecycle, supervision and dead-lettering are the shared cell core's
(:mod:`repro.actors.cell`), so they are the threaded system's by
construction; ``pre_start`` runs at spawn, on the spawner's stack.

Actor ids come from the shared core's per-system counter, not the
threaded system's process-wide one, so actor names and ref reprs are
identical on every replay of a schedule — a requirement for stable
fingerprints.  The kernel's :class:`~repro.actors.sim.SimActorSystem`
does the same, and its tasks and envelopes are numbered by the run.
Cells are kept by name in spawn order, stopped ones included (a
respawn under the same name takes the old cell's place), because the
world's replay digest reads them.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..actors.cell import ActorRuntime, Cell, StopSignal, SupervisionDirective

__all__ = ["InlineActorSystem"]


class InlineActorSystem(ActorRuntime):
    """Drop-in ``ActorSystem`` for :class:`~repro.sim.world.SimWorld`.

    ``on_deliver(actor_name, message)`` — optional hook called after
    every processed user message (the world's delivery ledger).
    """

    def __init__(self, name: str = "sim-system",
                 directive: SupervisionDirective =
                 SupervisionDirective.RESTART):
        super().__init__(name, directive)
        self.on_deliver: Optional[Callable[[str, Any], None]] = None

    def _register(self, cell: Cell) -> None:
        name = cell.ref.name
        old = self._cells.get(name)
        if old is not None and not old.stopped:
            raise ValueError(f"actor {name!r} already exists")
        self._cells[name] = cell

    def _launch(self, cell: Cell) -> None:
        cell.start()

    def _quiet(self) -> bool:
        return all(not c.mailbox for c in self._cells.values())

    def drain(self, timeout: float = 10.0) -> bool:
        """Pump every pending message to quiescence (no waiting)."""
        guard = 1_000_000
        while not self._quiet() and guard:
            for name in self.pending():
                self.process_one(name)
            guard -= 1
        return self._quiet()

    def shutdown(self) -> None:
        for cell in list(self._cells.values()):
            cell.stop()

    # ------------------------------------------------------------------
    # the simulation pump
    # ------------------------------------------------------------------
    def pending(self) -> list[str]:
        """Actor names with queued mail, in spawn order — the world
        turns each into one schedulable decision."""
        return [n for n, c in self._cells.items()
                if c.mailbox and not c.stopped]

    def process_one(self, name: str) -> bool:
        """Deliver exactly one mailbox message to ``name``.

        Returns False when there was nothing to process.  Everything
        the handler does (tells, spawns, stops) happens synchronously
        on the caller — new mail just queues for later decisions.
        """
        cell = self._cells.get(name)
        if cell is None or cell.stopped or not cell.mailbox:
            return False
        message, sender = cell.mailbox.popleft()
        cell.deliver(message, sender)
        if self.on_deliver is not None \
                and not isinstance(message, StopSignal):
            self.on_deliver(name, message)
        return True
