"""repro.actors — the Scala Actors model, in Python.

:class:`Actor` subclasses implement Hewitt's axioms (send / create /
designate-next-behaviour) and run on three runtimes, each a dispatcher
over one shared cell core (:class:`ActorRuntime`: spawn, lifecycle,
supervision, dead letters):

* :class:`ActorSystem` — real threads, shared dispatcher pool, for
  throughput and the performance benchmarks;
* :class:`SimActorSystem` — deterministic kernel tasks, for exhaustive
  exploration of message arrival orders with :mod:`repro.verify`;
* :class:`~repro.sim.inline.InlineActorSystem` — pumped one message at
  a time by the cluster simulator (:mod:`repro.sim`).

Plus the interaction patterns the labs use: :func:`ask` request/response,
routers, scatter-gather aggregation.
"""

from .actor import Actor, ActorContext, Behaviour
from .executor import WorkStealingExecutor
from .patterns import Ask, RoundRobinRouter, aggregate, ask
from .cell import ActorRuntime, DeadLetter, SupervisionDirective
from .ref import ActorRef
from .sim import SimActorSystem
from .system import ActorSystem

__all__ = [
    "Actor", "ActorContext", "Behaviour", "ActorRef",
    "ActorRuntime", "ActorSystem", "SupervisionDirective", "DeadLetter",
    "WorkStealingExecutor",
    "SimActorSystem",
    "ask", "Ask", "RoundRobinRouter", "aggregate",
]
