"""SimWorld — a multi-node cluster as one explorable kernel program.

The world owns everything nondeterministic about a cluster run and
turns each piece into a *decision*:

* ``deliver src>dst`` — hand the head-of-line frame of one link to its
  destination node (cross-link interleaving = message reordering);
* ``actor node/name`` — let one inline actor process one mailbox
  message;
* ``do <label>`` — fire one scripted action (client sends, crash,
  recover) whose dependencies/guards are satisfied;
* ``advance`` — jump the shared virtual clock to the next protocol
  deadline (retry due, heartbeat, suspect/down/evict threshold) and
  run every live node's maintenance tick at that instant.

A single driver task yields :class:`~repro.core.effects.Choice` over
the currently-enabled decisions, so the existing DFS explorer
enumerates cluster schedules exactly like thread interleavings, and
:meth:`SimWorld.fingerprint` (wired to ``Scheduler.fingerprint_extra``)
lets the fingerprint reduction prune schedules that reconverge to the
same protocol state.

Nodes run with ``timer=False`` (no timer thread — ticks are decisions),
an :class:`~repro.sim.inline.InlineActorSystem` (no dispatch threads —
actor runs are decisions), ``trace=True`` (a trace log, so a protocol
violation carries its logged event's step), and the world's
:class:`~repro.sim.clock.SimClock` as both ``clock`` and ``wall`` so
retries/heartbeats/timeouts *and* the timestamps on exported traces are
virtual — a replayed run is byte-comparable.

Crash semantics are SIGSTOP-style: a crashed node keeps its state but
is never ticked, its actors never run, its links are cut and their
in-flight frames purged; ``recover`` restores the links.  That is the
shape that exercises the DOWN→ALIVE protocol paths.

On top of the schedule machinery the world keeps a *delivery ledger*
for every payload handed to :meth:`send`, and :meth:`finish` audits it
— plus the protocol state of every live node — into hazards on the
monitor bus: ``sim-lost-message``, ``sim-duplicate-delivery``,
``sim-resync-stall`` (out-of-order deliveries never compacted at
quiescence — the SKIP-resync failure mode), ``sim-credit-leak``
(world quiescent but a healthy gate is short of its window),
``sim-recovery-loss`` (dead-lettered "node down" while the peer looks
ALIVE — the gate re-mint failure mode) and ``sim-evict-leak`` (a peer
DOWN far past the eviction window is still tracked).
"""

from __future__ import annotations

import hashlib
import zlib
from collections import deque
from typing import Any, Callable, Iterable, Optional, Union

from ..cluster.message import PickleSerializer, split_path
from ..cluster.node import ClusterConfig, ClusterNode, PeerState
from ..cluster.transport import LoopbackHub
from ..core.effects import Choice
from ..core.policy import FixedPolicy, RandomPolicy
from ..core.scheduler import Scheduler
from ..obs.monitors import Hazard, MonitorBus
from ..verify.explorer import ExplorationResult, explore
from .clock import SimClock
from .inline import InlineActorSystem

__all__ = ["SimHub", "SimWorld", "SimRun", "sim_config",
           "world_program", "explore_world", "run_world"]


def sim_config(**overrides: Any) -> ClusterConfig:
    """Small-world cluster tunables: tight windows and whole-second
    deadlines keep the enumerable schedule space small, and
    ``park_timeout=0`` makes backpressure fail fast (an observable
    dead letter) instead of blocking the single simulation thread."""
    base: dict[str, Any] = dict(
        mailbox_bound=4, credit_window=4, park_timeout=0.0,
        retry_timeout=1.0, retry_factor=2.0, max_attempts=2,
        heartbeat_interval=2.0, suspect_after=5.0, down_after=8.0,
        evict_after=8.0, tick_interval=1.0, ack_every=1,
        flight_sample=1)
    base.update(overrides)
    return ClusterConfig(**base)


class SimHub(LoopbackHub):
    """LoopbackHub with *deferred* delivery: frames queue per link and
    only move when the world schedules a ``deliver`` decision.

    Inherits the whole fault surface (count drops/dups, partitions,
    cuts, seeded chaos) via the shared ``_admit`` bookkeeping, and adds
    :meth:`drop_where` — deterministic selective drops matched on the
    decoded envelope (e.g. "eat every transmission of seq 1"), which is
    how fixtures force retry exhaustion without racing the retry count.
    """

    def __init__(self, seed: Optional[int] = None,
                 serializer: Optional[Any] = None):
        super().__init__(seed=seed)
        self.serializer = serializer if serializer is not None \
            else PickleSerializer()
        #: in-flight frames per (src, dst) link, FIFO per link
        self.queues: dict[tuple[str, str], deque] = {}
        # [src, dst, predicate(Envelope) -> bool, remaining]
        self._matchers: list[list] = []

    def drop_where(self, src: str, dst: str,
                   predicate: Callable[[Any], bool],
                   count: int = 1) -> None:
        """Drop the next ``count`` frames on ``src→dst`` whose decoded
        envelope satisfies ``predicate``."""
        self._matchers.append([src, dst, predicate, count])

    def _route(self, src: str, dst: str, frame: bytes) -> bool:
        for m in self._matchers:
            if m[3] > 0 and m[0] == src and m[1] == dst:
                try:
                    env = self.serializer.decode(frame)
                except Exception:
                    env = None
                if env is not None and m[2](env):
                    m[3] -= 1
                    self.dropped[(src, dst)] = \
                        self.dropped.get((src, dst), 0) + 1
                    return True
        copies = self._admit(src, dst, frame)
        if copies < 0:
            return False
        if copies:
            queue = self.queues.get((src, dst))
            if queue is None:
                queue = self.queues[(src, dst)] = deque()
            for _ in range(copies):
                queue.append(frame)
        return True

    def in_flight(self) -> list[tuple[str, str, int]]:
        """Non-empty links as (src, dst, depth), sorted — the world's
        ``deliver`` decision menu."""
        return [(s, d, len(q))
                for (s, d), q in sorted(self.queues.items()) if q]

    def deliver_next(self, src: str, dst: str) -> None:
        """Pop the head frame of one link into the destination node."""
        frame = self.queues[(src, dst)].popleft()
        self._nodes[dst]._deliver(frame)

    def purge(self, node: str) -> int:
        """Drop every queued frame to/from ``node`` (crash semantics);
        returns how many frames were lost."""
        lost = 0
        for (s, d), q in self.queues.items():
            if node in (s, d) and q:
                lost += len(q)
                self.dropped[(s, d)] = \
                    self.dropped.get((s, d), 0) + len(q)
                q.clear()
        return lost


class _Tracked:
    """Ledger row for one payload handed to :meth:`SimWorld.send`."""

    __slots__ = ("payload", "path", "delivered", "dead", "whys")

    def __init__(self, payload: Any, path: str):
        self.payload = payload
        self.path = path
        self.delivered = 0
        self.dead = 0
        self.whys: list[str] = []


class _Action:
    """One scripted step: fires at most once, when deps/guard allow."""

    __slots__ = ("label", "fn", "after", "when", "done")

    def __init__(self, label: str, fn: Callable[["SimWorld"], None],
                 after: tuple, when: Optional[Callable]):
        self.label = label
        self.fn = fn
        self.after = after
        self.when = when
        self.done = False


class SimWorld:
    """2–5 ClusterNodes + hub + virtual clock + script, fully steppable.

    ``config`` is one :class:`ClusterConfig` for every node or a
    ``{name: config}`` dict (asymmetric failure detectors are how a
    recovering node gets heard again before its peers also give up on
    it).  ``bus`` is the per-run :class:`MonitorBus` hazards publish
    to (None collects them on ``world.hazards`` only).
    """

    def __init__(self, names: Iterable[str] = ("a", "b"), *,
                 config: Union[ClusterConfig, dict, None] = None,
                 seed: Optional[int] = None,
                 horizon: float = 30.0,
                 bus: Optional[MonitorBus] = None):
        self.clock = SimClock()
        self.hub = SimHub(seed=seed)
        self.seed = seed
        self.horizon = float(horizon)
        self.bus = bus
        self.crashed: set[str] = set()
        self.decisions = 0
        self.log: list[str] = []
        self.hazards: list[Hazard] = []
        self._hazard_keys: set = set()
        self.ledger: dict[Any, _Tracked] = {}
        self._actions: list[_Action] = []
        self.finished = False

        self.nodes: dict[str, ClusterNode] = {}
        self.systems: dict[str, InlineActorSystem] = {}
        self.transports: dict[str, Any] = {}
        default = config if isinstance(config, ClusterConfig) else None
        for name in names:
            if isinstance(config, dict):
                cfg = config.get(name) or sim_config()
            else:
                cfg = default or sim_config()
            system = InlineActorSystem(name=f"{name}.sim")
            transport = self.hub.join(name)
            node = ClusterNode(name, transport, config=cfg,
                               system=system, timer=False, trace=True,
                               clock=self.clock, wall=self.clock,
                               monitors=bus)
            self.nodes[name] = node
            self.systems[name] = system
            self.transports[name] = transport
            system.on_deliver = \
                lambda actor, msg, _n=name: self._on_delivered(_n, actor,
                                                               msg)
            self._wrap_dead_letter(node)

    # ------------------------------------------------------------------
    # world construction helpers (used by scenarios)
    # ------------------------------------------------------------------
    def connect_all(self) -> None:
        for a in self.nodes.values():
            for b in self.nodes:
                if b != a.name:
                    a.connect(b)

    def spawn(self, node: str, actor_class: type, *args: Any,
              name: str = "", **kwargs: Any):
        return self.nodes[node].spawn(actor_class, *args, name=name,
                                      **kwargs)

    def act(self, label: str, fn: Callable[["SimWorld"], None],
            after: Iterable[str] = (),
            when: Optional[Callable[["SimWorld"], bool]] = None) -> str:
        """Register a scripted action; returns its label (for
        ``after=`` chaining)."""
        self._actions.append(_Action(label, fn, tuple(after), when))
        return label

    def send(self, src: str, path: str, *payloads: Any,
             label: Optional[str] = None, after: Iterable[str] = (),
             when: Optional[Callable[["SimWorld"], bool]] = None) -> str:
        """Scripted client send: tracks every payload in the delivery
        ledger, then tells ``path`` from ``src`` when the action
        fires.  Payloads must be hashable (they key the ledger)."""
        label = label or f"send-{src}:{len(self._actions)}"

        def fire(world: "SimWorld") -> None:
            node = world.nodes[src]
            for payload in payloads:
                world.track(payload, path)
                node.ref(path).tell(payload)
        return self.act(label, fire, after=after, when=when)

    def crash(self, node: str, label: Optional[str] = None,
              after: Iterable[str] = (),
              when: Optional[Callable[["SimWorld"], bool]] = None) -> str:
        label = label or f"crash-{node}"
        return self.act(label, lambda w: w.do_crash(node),
                        after=after, when=when)

    def recover(self, node: str, label: Optional[str] = None,
                after: Iterable[str] = (),
                when: Optional[Callable[["SimWorld"], bool]] = None
                ) -> str:
        label = label or f"recover-{node}"
        return self.act(label, lambda w: w.do_recover(node),
                        after=after, when=when)

    def track(self, payload: Any, path: str) -> None:
        self.ledger[payload] = _Tracked(payload, path)

    # ------------------------------------------------------------------
    # crash/recover primitives
    # ------------------------------------------------------------------
    def do_crash(self, name: str) -> None:
        self.crashed.add(name)
        self.hub.cut(name)
        self.hub.purge(name)

    def do_recover(self, name: str) -> None:
        self.crashed.discard(name)
        self.hub.restore(name)

    # ------------------------------------------------------------------
    # the decision surface
    # ------------------------------------------------------------------
    def options(self) -> list[str]:
        """Currently-enabled decisions, in canonical order."""
        opts = [f"deliver {s}>{d}" for s, d, _ in self.hub.in_flight()
                if s not in self.crashed and d not in self.crashed]
        for name in sorted(self.nodes):
            if name in self.crashed:
                continue
            for actor in self.systems[name].pending():
                opts.append(f"actor {name}/{actor}")
        done = {a.label for a in self._actions if a.done}
        for action in self._actions:
            if action.done or not set(action.after) <= done:
                continue
            if action.when is not None and not action.when(self):
                continue
            opts.append(f"do {action.label}")
        if self.clock.t < self.horizon - 1e-9:
            opts.append("advance")
        return opts

    def apply(self, option: str) -> None:
        self.decisions += 1
        self.log.append(option)
        if option == "advance":
            self._advance()
        elif option.startswith("deliver "):
            src, dst = option[8:].split(">", 1)
            self.hub.deliver_next(src, dst)
        elif option.startswith("actor "):
            node, actor = option[6:].split("/", 1)
            self.systems[node].process_one(actor)
        elif option.startswith("do "):
            label = option[3:]
            for action in self._actions:
                if action.label == label and not action.done:
                    action.done = True
                    action.fn(self)
                    return
            raise ValueError(f"unknown or spent action {label!r}")
        else:
            raise ValueError(f"unknown decision {option!r}")

    def _advance(self) -> None:
        """Jump to the earliest future protocol deadline (or the
        horizon) and tick every live node there, in name order."""
        now = self.clock.t
        nxt = self.horizon
        for name in sorted(self.nodes):
            if name in self.crashed:
                continue
            node = self.nodes[name]
            cfg = node.config
            cands: list[float] = []
            for peer in node._peers.values():
                if peer.state == PeerState.DOWN:
                    cands.append(peer.last_heard + cfg.down_after
                                 + cfg.evict_after)
                    continue
                cands.append(peer.last_beat + cfg.heartbeat_interval)
                cands.append(peer.last_heard + cfg.down_after)
                if peer.state == PeerState.ALIVE:
                    cands.append(peer.last_heard + cfg.suspect_after)
            for outbox in node._outboxes.values():
                cands.append(outbox._min_due)
            for cand in cands:
                if now + 1e-9 < cand < nxt:
                    nxt = cand
        self.clock.advance_to(nxt)
        for name in sorted(self.nodes):
            if name not in self.crashed:
                self.nodes[name].tick(nxt)

    # ------------------------------------------------------------------
    # ledger + invariants
    # ------------------------------------------------------------------
    def _on_delivered(self, node: str, actor: str, message: Any) -> None:
        try:
            entry = self.ledger.get(message)
        except TypeError:
            return
        if entry is not None and entry.path == f"{node}/{actor}":
            entry.delivered += 1

    def _wrap_dead_letter(self, node: ClusterNode) -> None:
        """Count drops where they are all recorded: the system's one
        dead-letter path, which node-level drops (with their ``why``)
        and actor-level ones (mail to a stopped actor) both reach."""
        system = node.system
        orig = system._dead_letter

        def wrapped(target: str, message: Any, sender: Any,
                    ctx: Any = None, why: Optional[str] = None) -> None:
            self._on_dead(node, target, message, why or "actor stopped")
            orig(target, message, sender, ctx=ctx, why=why)
        system._dead_letter = wrapped

    def _on_dead(self, node: ClusterNode, target: str, message: Any,
                 why: str) -> None:
        if "/" not in target:       # actor-level: a local actor's name
            target = f"{node.name}/{target}"
        try:
            entry = self.ledger.get(message)
        except TypeError:
            entry = None
        if entry is not None and entry.path == target:
            entry.dead += 1
            entry.whys.append(why)
        if "down" in why:
            # a drop blamed on a down peer while the failure detector
            # says the peer is ALIVE: the sender is refusing traffic it
            # could deliver — a stale broken credit gate survived the
            # peer's DOWN→ALIVE recovery
            dest = split_path(target)[0]
            peer = node._peers.get(dest)
            if dest not in self.crashed and peer is not None \
                    and peer.state == PeerState.ALIVE:
                self._hazard(
                    "sim-recovery-loss",
                    f"{node.name} dead-lettered {message!r} to {target} "
                    f"({why}) while its detector says {dest} is ALIVE",
                    subject=target)

    def _hazard(self, kind: str, message: str, subject: str = "",
                severity: str = "error") -> None:
        key = (kind, subject)
        if key in self._hazard_keys:
            return
        self._hazard_keys.add(key)
        hz = Hazard(kind=kind, severity=severity, message=message,
                    step=self.decisions, subject=subject)
        self.hazards.append(hz)
        if self.bus is not None:
            self.bus.publish(hz)

    def quiescent(self) -> bool:
        """No frame in flight, nothing staged or unacknowledged, every
        mailbox empty — the state end-of-run audits are valid in."""
        if any(q for q in self.hub.queues.values()):
            return False
        for name, node in self.nodes.items():
            if node._staged_total:
                return False
            if any(len(ob) for ob in node._outboxes.values()):
                return False
            if not self.systems[name]._quiet():
                return False
        return True

    def finish(self) -> None:
        """End-of-run audit: fold the delivery ledger and protocol state
        into hazards (published on the bus when one is attached)."""
        if self.finished:
            return
        self.finished = True
        quiet = self.quiescent()
        for payload, entry in sorted(self.ledger.items(),
                                     key=lambda kv: repr(kv[0])):
            subject = f"{entry.path}:{payload!r}"
            if entry.delivered > 1:
                self._hazard(
                    "sim-duplicate-delivery",
                    f"{payload!r} was delivered {entry.delivered}x to "
                    f"{entry.path}",
                    subject=subject)
            if quiet and not self.crashed \
                    and not entry.delivered and not entry.dead:
                self._hazard(
                    "sim-lost-message",
                    f"{payload!r} to {entry.path} was neither delivered "
                    f"nor dead-lettered in a quiescent world",
                    subject=subject)
        if quiet:
            # a quiescent link may not retain out-of-order deliveries:
            # the sender either still retries the gap (not quiescent)
            # or abandoned it and re-advertises SKIP every tick until
            # the receiver compacts — sparse seqs surviving quiescence
            # mean the resync never landed and every later send from
            # this origin will falsely expire
            for name, node in self.nodes.items():
                if name in self.crashed:
                    continue
                for origin, table in sorted(node._dedup.items()):
                    if origin in self.crashed or not table._sparse:
                        continue
                    self._hazard(
                        "sim-resync-stall",
                        f"{name} still holds out-of-order deliveries "
                        f"{sorted(table._sparse)} from {origin} above "
                        f"cumulative {table.high} at quiescence — the "
                        f"SKIP resync never advanced the prefix",
                        subject=f"{name}<{origin}")
        if quiet and not any(sum(n._credit_total.values())
                             for n in self.nodes.values()):
            for name, node in self.nodes.items():
                for path, gate in sorted(node._gates.items()):
                    dest = split_path(path)[0]
                    peer = node._peers.get(dest)
                    if gate.broken is not None or dest in self.crashed \
                            or peer is None \
                            or peer.state != PeerState.ALIVE:
                        continue
                    if gate.available < gate.window:
                        self._hazard(
                            "sim-credit-leak",
                            f"{name}: credit gate {path} settled at "
                            f"{gate.available}/{gate.window} with no "
                            f"credit owed anywhere — credits were lost",
                            subject=f"{name}:{path}")
        for name, node in self.nodes.items():
            if name in self.crashed:
                continue
            cfg = node.config
            overdue = cfg.down_after + cfg.evict_after \
                + 2 * cfg.heartbeat_interval
            for peer in list(node._peers.values()):
                if peer.state == PeerState.DOWN \
                        and self.clock.t - peer.last_heard > overdue:
                    self._hazard(
                        "sim-evict-leak",
                        f"{name} still tracks peer {peer.name}, DOWN and "
                        f"silent for {self.clock.t - peer.last_heard:.1f}s "
                        f"(eviction was due at "
                        f"{cfg.down_after + cfg.evict_after:.1f}s)",
                        subject=f"{name}:{peer.name}")

    # ------------------------------------------------------------------
    # explorer integration
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Canonical digest of protocol-relevant world state.

        Two schedule prefixes with equal fingerprints lead to identical
        futures, so the explorer's fingerprint reduction prunes one —
        the reduction that makes small-world exploration converge."""
        parts: list[Any] = [
            round(self.clock.t, 9),
            # the driver's remaining budget is part of its local state
            self.decisions,
            tuple(sorted(self.crashed)),
            tuple((link, tuple(zlib.crc32(f) for f in q))
                  for link, q in sorted(self.hub.queues.items()) if q),
            tuple(sorted(self.hub._drops.items())),
            tuple(sorted(self.hub._dups.items())),
            tuple(m[3] for m in self.hub._matchers),
            zlib.crc32(repr(self.hub._rng.getstate()).encode()),
            tuple(sorted(a.label for a in self._actions if not a.done)),
        ]
        for name in sorted(self.nodes):
            node = self.nodes[name]
            system = self.systems[name]
            parts.append((
                name,
                tuple((p, node._peers[p].state,
                       round(node._peers[p].last_heard, 9),
                       round(node._peers[p].last_beat, 9))
                      for p in sorted(node._peers)),
                tuple(sorted(node._seq.items())),
                tuple((dest, tuple((s, pend.attempts,
                                    round(pend.next_due, 9))
                                   for s, pend in
                                   sorted(outbox._pending.items())))
                      for dest, outbox in sorted(node._outboxes.items())),
                tuple((origin, table.high, tuple(sorted(table._sparse)))
                      for origin, table in sorted(node._dedup.items())),
                tuple(sorted(node._skip.items())),
                tuple((path, gate._available, gate._broken)
                      for path, gate in sorted(node._gates.items())),
                tuple((actor, len(q))
                      for actor, q in sorted(node._staged.items()) if q),
                tuple(sorted(node._ack_owed.items())),
                tuple((origin, tuple(sorted(owed.items())))
                      for origin, owed in
                      sorted(node._credit_owed.items())),
                tuple((cell_name, cell.stopped,
                       tuple(zlib.crc32(repr(m).encode())
                             for m, _ in cell.mailbox))
                      for cell_name, cell in system._cells.items()),
                len(system.dead_letters),
            ))
        parts.append(tuple(
            (repr(k), e.delivered, e.dead)
            for k, e in sorted(self.ledger.items(),
                               key=lambda kv: repr(kv[0]))))
        return hashlib.blake2b(repr(parts).encode(),
                               digest_size=12).hexdigest()

    def observation(self) -> tuple:
        """Terminal value the explorer dedups runs by."""
        return (
            tuple(sorted({hz.kind for hz in self.hazards})),
            tuple((repr(k), e.delivered, e.dead)
                  for k, e in sorted(self.ledger.items(),
                                     key=lambda kv: repr(kv[0]))),
            tuple(sorted(self.crashed)),
        )

    def close(self) -> None:
        for node in self.nodes.values():
            node.close()
        for system in self.systems.values():
            system.shutdown()


# ===========================================================================
# program wrapper + entry points
# ===========================================================================

#: a world factory takes the per-run monitor bus (or None) and builds a
#: fresh world — the explorer re-executes the program from scratch on
#: every run, so worlds must never be shared between runs
WorldFactory = Callable[[Optional[MonitorBus]], SimWorld]


def world_program(factory: WorldFactory, budget: int = 400,
                  on_world: Optional[Callable[[SimWorld], None]] = None):
    """Wrap a world factory as a kernel program for ``explore()``.

    One driver task steps the world: forced states (a single enabled
    decision) execute without a scheduling point, everything else is a
    :class:`Choice` whose options are the world's decision labels —
    replay-stable strings, so recorded schedules replay across
    processes.  ``budget`` caps decisions per run (the CI exploration
    budget); :meth:`SimWorld.finish` runs before the driver exits so
    every terminal carries its audit hazards.
    """
    def program(sched: Scheduler):
        bus = getattr(sched, "monitors", None)
        world = factory(bus)
        if on_world is not None:
            on_world(world)
        sched.fingerprint_extra = world.fingerprint

        def driver():
            while world.decisions < budget:
                options = world.options()
                if not options:
                    break
                if len(options) == 1:
                    pick = options[0]
                else:
                    pick = yield Choice(tuple(options))
                world.apply(pick)
            world.finish()
        task = sched.spawn(driver, name="sim-world")
        # the driver keeps no local state beyond the world (exposed via
        # fingerprint_extra) and its decision count (folded into the
        # world fingerprint), so its Choice-input history must not
        # block state reconvergence — this is what arms the
        # fingerprint reduction for single-driver programs
        task.fingerprint_inputs = False
        return world.observation
    return program


def explore_world(factory: WorldFactory, *, budget: int = 400,
                  max_runs: int = 5000, max_steps: int = 200_000,
                  reduce: Any = "fingerprint",
                  detectors: Optional[Callable[[], list]] = None,
                  progress: Optional[Callable] = None,
                  clock: Optional[Callable[[], float]] = None
                  ) -> ExplorationResult:
    """Exhaustive (budgeted) DFS over one simulated world's schedules.

    ``detectors`` supplies extra per-run bus detectors (e.g.
    :class:`~repro.obs.protocol.ProtocolMonitor` rows); the world's own
    audit hazards always ride the bus.  Deterministic: same factory +
    budgets ⇒ identical runs, decisions, terminals and hazard set.
    """
    program = world_program(factory, budget=budget)

    def monitor_factory() -> MonitorBus:
        extra = list(detectors()) if detectors is not None else []
        return MonitorBus(detectors=extra)
    return explore(program, max_runs=max_runs, max_steps=max_steps,
                   reduce=reduce, monitors=monitor_factory,
                   progress=progress, clock=clock)


class SimRun:
    """Result of one scheduled simulation run (seeded or replayed)."""

    def __init__(self, world: SimWorld, outcome: str, seed: int,
                 hazards: list, schedule: list[int]):
        self.world = world
        self.outcome = outcome
        self.seed = seed
        self.hazards = hazards
        #: scheduler decision indices — feed back via ``schedule=`` for
        #: an exact replay
        self.schedule = schedule
        #: human-readable world decisions, in execution order
        self.log = list(world.log)
        self.observation = world.observation()

    @property
    def flagged(self) -> bool:
        return any(hz.severity in ("error", "warning")
                   for hz in self.hazards)

    def digest(self) -> str:
        """Stable digest of (schedule, hazards) — equal digests ⇒ the
        replay reproduced the run exactly."""
        key = (tuple(self.log),
               tuple(sorted(hz.key for hz in self.hazards)))
        return hashlib.blake2b(repr(key).encode(),
                               digest_size=8).hexdigest()


def run_world(factory: WorldFactory, *, seed: int = 0, budget: int = 400,
              max_steps: int = 200_000,
              detectors: Optional[Callable[[], list]] = None,
              schedule: Optional[list[int]] = None) -> SimRun:
    """One simulation run under a seeded random schedule.

    With ``schedule`` (recorded decision indices) the run replays that
    exact path first and only falls back to the seeded policy past its
    end — the ``repro sim replay`` entry point.  Same seed ⇒ identical
    decision log, hazard set and digest, every time.
    """
    extra = list(detectors()) if detectors is not None else []
    bus = MonitorBus(detectors=extra)
    worlds: list[SimWorld] = []
    program = world_program(factory, budget=budget,
                            on_world=worlds.append)
    if schedule is None:
        policy: Any = RandomPolicy(seed)
    else:
        policy = FixedPolicy(list(schedule), tail=RandomPolicy(seed))
    sched = Scheduler(policy, raise_on_deadlock=False,
                      raise_on_failure=False, max_steps=max_steps,
                      record_from=0, monitors=bus)
    observe = program(sched)
    trace = sched.run()
    if observe is not None:
        observe()
    return SimRun(worlds[0], trace.outcome, seed, list(bus.hazards),
                  trace.schedule())
