"""ClusterNode — one process of the distributed actor runtime.

A node hosts a local :class:`~repro.actors.system.ActorSystem` and joins
it to the cluster through a frame transport
(:mod:`repro.cluster.transport`).  Everything the single-process actor
runtime promises locally, the node extends across the process boundary:

* **location transparency** — :meth:`ClusterNode.ref` hands back a local
  :class:`~repro.actors.ref.ActorRef` or a :class:`RemoteRef` depending
  on the ``node/actor`` path; both answer ``tell``;
* **at-least-once delivery, exactly-once processing** — reliable
  envelopes retry on timeout with exponential backoff
  (:class:`~repro.cluster.delivery.Outbox`), exhaust into the local
  dead-letter log, and are deduplicated at the receiver
  (:class:`~repro.cluster.delivery.DedupTable`) so the *actor* sees each
  message once no matter how often the wire repeated it;
* **bounded remote mailboxes with credit backpressure** — each remote
  target admits at most ``mailbox_bound`` undrained remote messages;
  beyond that, arrivals stage at the receiving node and the *sending*
  thread parks in a :class:`~repro.cluster.delivery.CreditGate` until
  CREDIT envelopes flow back (no drop, no unbounded growth, no OOM);
* **failure detection** — heartbeats mark silent peers SUSPECT then
  DOWN; a DOWN peer's in-flight and future traffic dead-letters, its
  credit gates break (parked senders wake and fail fast), and every
  locally watched actor on it receives a node-down signal;
* **cross-node supervision** — :meth:`watch` registers a supervisor for
  a remote actor and optionally overrides its supervision directive
  (RESUME/RESTART/STOP, per watch); the owner node applies the directive
  on failure and sends a SIGNAL envelope that is delivered to the
  supervisor's mailbox as an :class:`ActorSignal` message.

Timing is driven by :meth:`tick` — a daemon timer thread calls it every
``tick_interval`` by default, and deterministic tests construct the node
with ``timer=False`` and call ``tick(now=...)`` by hand.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Optional

from ..actors import (Actor, ActorRef, ActorRuntime, ActorSystem,
                      SupervisionDirective)
from ..obs.protocol import message_kind
from ..threads.cache import run_on_thread
from .delivery import CreditGate, DedupTable, Outbox, RetryPolicy
from .message import (ACK, CREDIT, HEARTBEAT, RELIABLE_KINDS, REPLY, SIGNAL,
                      SKIP, SPAWN, STATUS, TELEMETRY, TELL, WATCH, Envelope,
                      PickleSerializer, Serializer, make_path, split_path)
from .observe import ClusterEvent

__all__ = ["ClusterConfig", "ClusterNode", "RemoteRef", "ActorSignal",
           "PeerState", "register_actor_type", "actor_type",
           "actor_type_names"]


# ===========================================================================
# remote spawn registry
# ===========================================================================

#: name -> (actor class, inject_node): the types a node will instantiate
#: on behalf of remote SPAWN requests (never arbitrary classes off the wire)
_ACTOR_TYPES: dict[str, tuple[type, bool]] = {}


def register_actor_type(name: str, cls: type,
                        inject_node: bool = False) -> None:
    """Allow remote nodes to spawn ``cls`` under ``name``.

    ``inject_node=True`` passes the hosting :class:`ClusterNode` as the
    first constructor argument — for actors that need to mint remote
    refs themselves.
    """
    if not issubclass(cls, Actor):
        raise TypeError(f"{cls.__name__} is not an Actor subclass")
    _ACTOR_TYPES[name] = (cls, inject_node)


def actor_type(name: str) -> tuple[type, bool]:
    return _ACTOR_TYPES[name]


def actor_type_names() -> list[str]:
    return sorted(_ACTOR_TYPES)


# ===========================================================================
# config / small records
# ===========================================================================

@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of one node (assumed symmetric across the cluster)."""

    #: max undrained *remote* messages admitted into one actor's mailbox
    mailbox_bound: int = 256
    #: send-side credits per remote target (<= bound keeps staging finite)
    credit_window: int = 256
    #: how long a sender may park on a full target before dead-lettering
    park_timeout: float = 30.0
    #: reliable-delivery retry schedule
    retry_timeout: float = 0.2
    retry_factor: float = 2.0
    max_attempts: int = 5
    #: failure detector
    heartbeat_interval: float = 0.5
    suspect_after: float = 1.5
    down_after: float = 4.0
    #: drop a DOWN peer's per-peer state (outbox, dedup, gates, cached
    #: replies) after it has stayed silent this long past the DOWN mark —
    #: a long-running node must not accumulate state for every one-shot
    #: client that ever talked to it
    evict_after: float = 60.0
    #: timer-thread cadence (retries, acks, credits, heartbeats,
    #: staging pump)
    tick_interval: float = 0.005
    #: flush a cumulative ACK after this many fresh reliable frames
    ack_every: int = 16
    #: max cached request replies (duplicate-request replay window)
    reply_cache_size: int = 256
    #: telemetry-frame cadence; None piggybacks the heartbeat interval
    telemetry_interval: Optional[float] = None
    #: flight-recorder sampling for bulk send/recv/local events when the
    #: recorder is the *only* event sink (rounded down to a power of
    #: two; 1 records everything).  Both ends of a flow sample on the
    #: same wire seq, so sampled send/recv pairs still match up in the
    #: postmortem trace.  Full-fidelity tracing (``trace=True`` or a
    #: monitor bus) always records every event regardless.
    flight_sample: int = 8

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(self.retry_timeout, self.retry_factor,
                           self.max_attempts)

    @property
    def credit_flush(self) -> int:
        return max(1, self.credit_window // 4)


class PeerState:
    """Failure-detector view of one peer node."""

    ALIVE = "alive"
    SUSPECT = "suspect"
    DOWN = "down"

    __slots__ = ("name", "state", "last_heard", "last_beat")

    def __init__(self, name: str, now: float):
        self.name = name
        self.state = PeerState.ALIVE
        self.last_heard = now
        self.last_beat = 0.0

    def __repr__(self) -> str:
        return f"<PeerState {self.name}: {self.state}>"


class ActorSignal:
    """Supervision signal delivered to a watching supervisor's mailbox."""

    __slots__ = ("path", "kind", "error", "directive", "detail")

    def __init__(self, path: str, kind: str, error: str = "",
                 directive: Optional[str] = None, detail: str = ""):
        self.path = path
        self.kind = kind                  # "failure" | "node-down"
        self.error = error
        self.directive = directive
        self.detail = detail

    def as_dict(self) -> dict[str, Any]:
        return {"path": self.path, "kind": self.kind, "error": self.error,
                "directive": self.directive, "detail": self.detail}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ActorSignal":
        return cls(d["path"], d["kind"], d.get("error", ""),
                   d.get("directive"), d.get("detail", ""))

    def __repr__(self) -> str:
        return f"<ActorSignal {self.kind} {self.path} {self.error}>"


class RemoteRef:
    """Location-transparent handle on an actor of another node.

    Quacks like :class:`~repro.actors.ref.ActorRef` for the operations
    that make sense remotely (``tell``, ``name``, equality by identity);
    the node it was minted from does the routing.
    """

    __slots__ = ("node", "path", "node_name", "name", "_local")

    def __init__(self, node: "ClusterNode", path: str):
        self.node = node
        self.path = path
        self.node_name, self.name = split_path(path)
        #: cached local ActorRef when this path points back at the
        #: minting node — the zero-serialization fast path
        self._local: Optional[Any] = None

    def tell(self, message: Any, sender: Optional[Any] = None) -> None:
        """Asynchronous send; may park under backpressure, never drops
        silently (undeliverable messages land in dead letters)."""
        node = self.node
        if self.node_name == node.name:
            # local fast path: no serializer round-trip, no Outbox /
            # DedupTable / CreditGate bookkeeping — straight into the
            # target cell's mailbox.  The cached ref is re-looked-up
            # once its cell stops, so a respawn under the same name is
            # picked up transparently (a stopped cell dead-letters).
            local = self._local
            if local is None or local._cell.stopped:
                local = self._local = node._local_actor(self.name)
            if local is None:
                node._dead_letter(self.path, message, "no local actor")
                return
            local.tell(message, sender=sender)
            observe = node._on_local
            if observe is not None:
                observe(self.name, message)
            return
        node._send_tell(self.path, message, sender)

    def __lshift__(self, message: Any) -> "RemoteRef":
        self.tell(message)
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RemoteRef) and other.path == self.path

    def __hash__(self) -> int:
        return hash(("remote", self.path))

    def __repr__(self) -> str:
        return f"<RemoteRef {self.path}>"


class _Waiter:
    """One outstanding request/reply (SPAWN/STATUS) slot."""

    __slots__ = ("event", "value")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None


def _flow_id(origin: str, dest: str, seq: int) -> int:
    """Stable cross-process id pairing a send with its delivery.

    Must hash identically on both sides of the wire, so it cannot use
    the builtin ``hash`` (string hashing is randomized per process via
    PYTHONHASHSEED — sender and receiver would disagree and the merged
    Chrome trace would never pair its flow arrows).
    """
    return zlib.crc32(f"{origin}|{dest}|{seq}".encode()) & 0x7FFFFFFF


class _Observer:
    """A node's observing sinks compiled into one object.

    The sinks are the profiler counters, the trace log
    (``trace_events``), the monitor bus, the protocol rows of the bus's
    :class:`~repro.obs.protocol.ProtocolMonitor`\\ s and the flight
    recorder.  The node builds one only when a sink is attached, and
    calls a per-message site (:meth:`local`, :meth:`send`,
    :meth:`deliver`) only when some sink consumes that point, so an
    unobserved point costs one ``None`` test.  The observer owns the
    four rules those sites share:

    * where events go — bulk send/recv/local events reach the trace log
      and the flight recorder only, since no detector reads them; rare
      events (park, stage, retry, suspect, down, dead letter, ...) also
      reach the bus;
    * sampling — with the flight recorder as the *only* event sink,
      bulk events are kept 1-in-``flight_sample`` on the wire seq,
      which both link ends agree on, so a recorded recv always has its
      recorded send; rare events are always kept;
    * the point filter — conformance sees only the points (send or
      deliver) some protocol row watches; a zero-serialization local
      delivery is both the send and the deliver of its message;
    * how conformance runs — inline, on the thread that sent or
      delivered the message, right after its event is logged, holding
      the monitor's lock around that monitor's rows.  One bus can serve
      several in-process nodes, and a machine's step is a read then a
      write of its state.
    """

    def __init__(self, node: "ClusterNode"):
        tele = node.telemetry
        self.node, self.name, self.wall = node, node.name, node.wall
        self.prof = node.profiler
        self.rec = tele.recorder if tele is not None else None
        self.log, self.bus = node.trace_events, node.monitors
        # per point, ((lock, rows), ...): per protocol monitor on the
        # bus, the rows that watch the point, without their ``at``
        monitors = [(det.lock, det.cluster_entries())
                    for det in getattr(self.bus, "detectors", ())
                    if hasattr(det, "cluster_entries")]
        plans = []
        for point in ("local", "send", "deliver"):
            plan = []
            for lock, rows in monitors:
                picked = tuple(row[1:] for row in rows
                               if point in (row[0], "local"))
                if picked:
                    plan.append((lock, picked))
            plans.append(tuple(plan) or None)
        self.at_local, self.at_send, self.at_deliver = plans
        self.events = self.log is not None or self.rec is not None
        self.mask = 0
        if self.rec is not None and self.log is None and self.bus is None:
            sample = max(1, node.config.flight_sample)
            self.mask = (1 << (sample.bit_length() - 1)) - 1
        self.n_local = 0            # racy is fine: it only samples
        self.delivered = 0
        self.flow_pre: dict[tuple[str, str], bytes] = {}

    def sites(self) -> tuple:
        """``(local, send, deliver)``: each site, or ``None`` where no
        sink consumes the point."""
        counts = self.events or self.prof is not None
        return tuple(site if counts or plan is not None else None
                     for site, plan in ((self.local, self.at_local),
                                        (self.send, self.at_send),
                                        (self.deliver, self.at_deliver)))

    # -- the three per-message sites -----------------------------------
    def local(self, actor: str, message: Any) -> None:
        if self.prof is not None:
            self.prof.inc("cluster.local_fastpath")
        step = None
        if self.events:
            self.n_local += 1
            if not (self.n_local & self.mask):
                step = self._record("cluster-local", actor, self.name,
                                    None, None, None, None)
        if self.at_local is not None:
            self._conform(self.at_local, actor, message, None, None, None,
                          step)

    def send(self, target: str, dest: str, seq: int, payload: Any,
             ctx: Optional[tuple]) -> None:
        if self.prof is not None:
            self.prof.inc("cluster.sent")
        # target is always "<dest>/<actor>" here, so slice off the node
        # prefix instead of re-splitting the path
        actor = target[len(dest) + 1:]
        step = None
        if self.events and not (seq & self.mask):
            step = self._record(
                "cluster-send", actor, dest, self.flow(self.name, dest, seq),
                None, None if ctx is None else {"request_id": ctx[0]}, None)
        if self.at_send is not None:
            self._conform(self.at_send, actor, payload, self.name, dest,
                          seq, step)

    def deliver(self, ref: ActorRef, env: Envelope) -> None:
        step = None
        if self.events and not (env.seq & self.mask):
            step = self._record(
                "cluster-recv", ref.name, env.origin, None,
                self.flow(env.origin, self.name, env.seq),
                None if env.ctx is None else {"request_id": env.ctx[0]},
                None)
        if self.at_deliver is not None:
            self._conform(self.at_deliver, ref.name, env.payload,
                          env.origin, self.name, env.seq, step)
        prof = self.prof
        if prof is not None:
            prof.inc("cluster.delivered")
            self.delivered += 1
            if self.delivered & 0x1F == 0:   # sample: depth takes a lock
                prof.gauge_max("cluster.mailbox_depth_max", ref.pending)

    def _conform(self, plan: tuple, actor: str, payload: Any,
                 origin: Optional[str], dest: Optional[str],
                 seq: Optional[int], step: Optional[int]) -> None:
        """Step the rows of ``plan`` over one message under their
        monitor's lock (acquire/release costs half of ``with lock``),
        then publish the violations and escalate the new ones to this
        node's incident path.  They are published outside the lock: the
        bus's ``on_hazard`` may send through a node that shares the bus,
        and that send steps the same rows."""
        try:
            token = message_kind(payload)
            found = None
            for lock, rows in plan:
                lock.acquire()
                try:
                    for watch, alphabet, strict, machine, steps, flag \
                            in rows:
                        if watch is not None and actor not in watch:
                            continue
                        if token is not None and token in alphabet:
                            nxt = steps.get((machine.current, token))
                            if nxt is not None:
                                # ProtocolMachine.advance of a cached
                                # step, inlined
                                machine.current = nxt
                                machine.trail.append(token)
                                machine.moved = True
                                continue
                            if machine.advance(token):
                                continue
                            oob = False
                        elif strict and token is not None:
                            oob = True
                        else:
                            continue
                        # flow ids dedup a violation seen from both
                        # link ends; only violations (rare) pay for one
                        hz = flag(self.node._step if step is None
                                  else step, f"{self.name}/{actor}",
                                  actor, token,
                                  None if seq is None
                                  else self.flow(origin, dest, seq), oob)
                        if hz is not None:
                            found = [hz] if found is None else found + [hz]
                finally:
                    lock.release()
            if found is not None:
                for hz in found:
                    if self.bus.publish(hz):
                        self.node._on_hazard(hz)
        except Exception:               # a bad payload must never kill
            self.node._sink_error()     # conformance checking

    # -- rare events -------------------------------------------------------
    def event(self, kind: str, actor: str, peer: str,
              extra: Optional[dict], count: Optional[str]) -> None:
        if count is not None and self.prof is not None:
            self.prof.inc(count)
        self._record(kind, actor, peer, None, None, extra, self.bus)

    def _record(self, kind: str, actor: str, peer: str,
                msg_seq: Optional[int], recv_seq: Optional[int],
                extra: Optional[dict], bus: Any) -> Optional[int]:
        """Feed one event to the trace log, the flight recorder and
        ``bus``, those of them that exist; returns the event's step."""
        rec, log = self.rec, self.log
        if rec is None and log is None and bus is None:
            return None
        ts = self.wall()
        node = self.node
        # every sink keeps this one record, numbered by the node's step;
        # with the recorder alone, bulk events are sampled, so the lock
        # is taken for 1 in ``flight_sample`` messages
        with node._trace_lock:
            node._step += 1
            event = ClusterEvent(kind, self.name, actor, peer, node._step,
                                 ts, msg_seq, recv_seq, extra)
            if log is not None:
                log.append(event)
        if rec is not None:
            rec.record(event)
        if bus is not None:
            try:
                bus.feed_cluster(event)
            except Exception:
                node._sink_error()
        return event.step

    def flow(self, origin: str, dest: str, seq: int) -> int:
        """:func:`_flow_id` with the ``"origin|dest|"`` prefix bytes
        cached per pair: the same crc32 over the same bytes, minus the
        f-string build and encode on every message."""
        pre = self.flow_pre.get((origin, dest))
        if pre is None:
            pre = self.flow_pre[(origin, dest)] = \
                f"{origin}|{dest}|".encode()
        return zlib.crc32(pre + b"%d" % seq) & 0x7FFFFFFF


# ===========================================================================
# the node
# ===========================================================================

class ClusterNode:
    """One cluster member: ActorSystem + router + reliability + detector.

    ::

        hub = LoopbackHub()
        with ClusterNode("a", hub.join("a")) as a, \\
             ClusterNode("b", hub.join("b")) as b:
            a.connect("b")
            pong = b.spawn(Ponger, name="pong")
            a.ref("b/pong").tell("hello")
    """

    def __init__(self, name: str, transport: Any,
                 serializer: Optional[Serializer] = None,
                 config: Optional[ClusterConfig] = None,
                 system: Optional[ActorRuntime] = None,
                 workers: int = 4,
                 profiler: Optional[Any] = None,
                 tracer: Optional[Any] = None,
                 monitors: Optional[Any] = None,
                 trace: bool = False,
                 timer: bool = True,
                 clock: Callable[[], float] = time.monotonic,
                 wall: Optional[Callable[[], float]] = None):
        self.name = name
        self.transport = transport
        self.serializer = serializer if serializer is not None \
            else PickleSerializer()
        self.config = config if config is not None else ClusterConfig()
        self._own_system = system is None
        self.system = system if system is not None \
            else ActorSystem(workers=workers, name=f"{name}.system",
                             profiler=profiler, tracer=tracer)
        self.profiler = profiler
        #: optional :class:`~repro.obs.causal.CausalTracer` — request
        #: contexts ride TELL envelopes as a ``(request_id,
        #: parent_span_id, t_send)`` header, so a causal trace follows a
        #: message across the wire; None keeps every hot path untouched
        self.tracer = tracer
        self.monitors = monitors
        self.clock = clock
        #: wall-time source stamped on events/flight records.  Defaults
        #: to real time; the simulator injects its virtual clock so a
        #: replayed run's trace exports are byte-comparable.
        self.wall = wall if wall is not None else time.time
        self.closed = False

        # local actor registry: actor name -> local ref
        self._actors: dict[str, ActorRef] = {}
        self._actors_lock = threading.Lock()

        # reliability state
        self._seq: dict[str, int] = {}                 # per-dest counters
        self._outboxes: dict[str, Outbox] = {}
        self._dedup: dict[str, DedupTable] = {}
        self._gates: dict[str, CreditGate] = {}        # by target path
        # dest -> highest seq we dead-lettered (retry exhaustion or
        # peer-down drain); advertised as SKIP so the receiver's
        # cumulative ACK does not stall waiting for seqs that will
        # never be sent again
        self._skip: dict[str, int] = {}
        self._state_lock = threading.Lock()

        # receiver-side staging + owed control traffic.  Owed-ack/credit
        # bookkeeping gets its own lock so per-frame counting never
        # contends with senders holding ``_state_lock``.
        self._staged: dict[str, list] = {}             # actor -> [(env)...]
        self._staged_total = 0                         # fast pump() gate
        self._credit_owed: dict[str, dict[str, int]] = {}   # origin->path->n
        self._credit_total: dict[str, int] = {}        # origin -> sum owed
        self._ack_owed: dict[str, int] = {}            # origin -> fresh count
        self._flow_lock = threading.Lock()
        self._reply_cache: dict[tuple[str, int], Envelope] = {}
        self._remote_refs: dict[str, RemoteRef] = {}   # sender-path cache

        # supervision
        self._watchers: dict[str, list[str]] = {}      # local actor -> paths
        self._watching: dict[str, list[ActorRef]] = {} # remote path -> refs
        self.system.failure_listener = self._local_failure

        # failure detector
        self._peers: dict[str, PeerState] = {}
        self._replies: dict[tuple[str, int], _Waiter] = {}

        # observability
        self.trace_events: list = [] if trace else None
        self._trace_lock = threading.Lock()
        self._step = 0
        #: attached TelemetryAgent (see repro.obs.telemetry), or None
        self.telemetry: Optional[Any] = None
        #: undecodable frames and failed sinks, counted with or without
        #: a profiler (reported by ``status()``)
        self._decode_errors = 0
        self._sink_errors = 0
        self._observe()

        self._handlers = {
            TELL: self._handle_tell, ACK: self._handle_ack,
            CREDIT: self._handle_credit, HEARTBEAT: self._handle_heartbeat,
            SPAWN: self._handle_spawn, WATCH: self._handle_watch,
            SIGNAL: self._handle_signal, STATUS: self._handle_status,
            REPLY: self._handle_reply, SKIP: self._handle_skip,
            TELEMETRY: self._handle_telemetry,
        }
        self.transport.start(self._on_frame)
        self._timer: Optional[threading.Thread] = None
        if timer:
            self._timer = threading.Thread(target=self._timer_loop,
                                           name=f"{name}.cluster-timer",
                                           daemon=True)
            self._timer.start()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def connect(self, peer: str, address: Optional[tuple] = None) -> None:
        """Register (and for sockets, dial) a peer node."""
        if address is not None:
            self.transport.connect(peer, address)
        with self._state_lock:
            self._peers.setdefault(peer, PeerState(peer, self.clock()))

    def peers(self) -> dict[str, str]:
        with self._state_lock:
            return {p.name: p.state for p in self._peers.values()}

    def peer_state(self, peer: str) -> Optional[str]:
        with self._state_lock:
            state = self._peers.get(peer)
            return state.state if state is not None else None

    # ------------------------------------------------------------------
    # actors
    # ------------------------------------------------------------------
    def spawn(self, actor_class: type, *args: Any, name: str = "",
              directive: Optional[SupervisionDirective] = None,
              inject_node: bool = False, **kwargs: Any) -> ActorRef:
        """Spawn a local actor and make it addressable cluster-wide."""
        if inject_node:
            args = (self, *args)
        ref = self.system.spawn(actor_class, *args, name=name,
                                directive=directive, **kwargs)
        with self._actors_lock:
            self._actors[ref.name] = ref
        return ref

    def ref(self, path: str) -> Any:
        """Location-transparent lookup: ``node/actor`` -> a tellable ref."""
        node, actor = split_path(path)
        if node == self.name:
            with self._actors_lock:
                local = self._actors.get(actor)
            if local is None:
                raise KeyError(f"no local actor {actor!r} on node "
                               f"{self.name!r}")
            return local
        return RemoteRef(self, path)

    def path_of(self, ref: Any) -> str:
        """Cluster-wide path of a ref minted by this node."""
        if isinstance(ref, RemoteRef):
            return ref.path
        return make_path(self.name, ref.name)

    def actors(self) -> list[str]:
        with self._actors_lock:
            return sorted(self._actors)

    # ------------------------------------------------------------------
    # remote operations
    # ------------------------------------------------------------------
    def spawn_remote(self, dest: str, type_name: str, name: str,
                     args: tuple = (), timeout: float = 5.0) -> RemoteRef:
        """Ask ``dest`` to spawn a registered actor type; returns its ref."""
        payload = {"type": type_name, "name": name, "args": list(args)}
        reply = self._request(dest, SPAWN, payload, timeout)
        if "error" in reply:
            raise RuntimeError(f"remote spawn on {dest!r} failed: "
                               f"{reply['error']}")
        return RemoteRef(self, reply["path"])

    def status_of(self, dest: str, timeout: float = 5.0,
                  profile: bool = False, trace: bool = False,
                  telemetry: bool = False,
                  flight: bool = False) -> dict[str, Any]:
        """Fetch a peer's status.  Opt-in extras: profiler snapshot,
        trace log, aggregated telemetry view, flight-recorder dump."""
        return self._request(dest, STATUS,
                             {"profile": profile, "trace": trace,
                              "telemetry": telemetry, "flight": flight},
                             timeout)

    def flight_windows(self, dests: Iterable[str]) -> dict[str, list]:
        """Ask every peer in ``dests`` for its flight-recorder window at
        once, under one 1 s deadline; peers that do not answer in time, or
        have no telemetry agent, are left out."""
        replies = self._requests(dests, STATUS, {"flight": True}, 1.0)
        return {peer: reply["flight"] for peer, reply in replies.items()
                if reply.get("flight")}

    def watch(self, path: str, supervisor: ActorRef,
              directive: Optional[SupervisionDirective] = None) -> None:
        """Deliver ``path``'s failures to ``supervisor`` as ActorSignals.

        ``directive`` additionally overrides the watched actor's
        supervision directive on its own node — per watch, the
        RESUME/RESTART/STOP decision travels with the registration.
        """
        node, actor = split_path(path)
        with self._state_lock:
            self._watching.setdefault(path, []).append(supervisor)
        if node == self.name:
            with self._actors_lock:
                local = self._actors.get(actor)
            if local is not None and directive is not None:
                self.system.set_directive(local, directive)
            self._watchers.setdefault(actor, []).append(
                make_path(self.name, supervisor.name))
            return
        self._send_reliable(node, WATCH, node, {
            "actor": actor,
            "watcher": make_path(self.name, supervisor.name),
            "directive": directive.value if directive is not None else None,
        })

    def status(self) -> dict[str, Any]:
        """This node's own status record (JSON-able)."""
        with self._state_lock:
            unacked = {d: len(o) for d, o in self._outboxes.items() if o}
            staged = {k: len(v) for k, v in self._staged.items() if v}
        return {
            "node": self.name,
            "actors": self.actors(),
            "peers": self.peers(),
            "unacked": unacked,
            "dead_letters": len(self.system.dead_letters),
            "staged": staged,
            "decode_errors": self._decode_errors,
            "sink_errors": self._sink_errors,
        }

    # ------------------------------------------------------------------
    # telemetry plane
    # ------------------------------------------------------------------
    def attach_telemetry(self, agent: Any) -> Any:
        """Wire a :class:`~repro.obs.telemetry.TelemetryAgent` into this
        node: cluster events feed its flight recorder, the timer drives
        its frame cadence, TELEMETRY frames route to it, and incidents
        (actor failure, peer DOWN) trigger its postmortems."""
        agent.node = self
        self.telemetry = agent
        self._observe()
        return agent

    def _observe(self) -> None:
        """(Re)compile the observing sinks; None when none is attached."""
        sinks = (self.profiler, self.trace_events, self.monitors,
                 self.telemetry)
        obs = self._obs = None if all(s is None for s in sinks) \
            else _Observer(self)
        self._on_local, self._on_send, self._on_deliver = \
            (None, None, None) if obs is None else obs.sites()

    def _sink_error(self, counter: Optional[str] = None) -> None:
        self._sink_errors += 1
        if counter is not None and self.profiler is not None:
            self.profiler.inc(counter)

    def _telemetry(self, hook: str, *args: Any, **kwargs: Any) -> None:
        """Call one agent hook; its failures never reach the caller."""
        tele = self.telemetry
        if tele is not None:
            try:
                getattr(tele, hook)(*args, **kwargs)
            except Exception:
                self._sink_error("cluster.telemetry_errors")

    def _send_telemetry(self, peer: str, frame: dict) -> None:
        """Ship one frame, fire-and-forget (loss-tolerant by format)."""
        self._send_control(peer, TELEMETRY, peer, frame)
        if self.profiler is not None:
            self.profiler.inc("cluster.telemetry_out")

    def _handle_telemetry(self, env: Envelope) -> None:
        self._telemetry("on_frame", env.origin, env.payload)

    def _incident(self, kind: str, detail: Optional[dict] = None) -> None:
        """Report an incident to the agent (never into the caller)."""
        self._telemetry("incident", kind, detail)

    def _on_hazard(self, hz: Any) -> None:
        """A new hazard this node's conformance check flagged: an
        error-severity protocol hazard is an incident — dump a
        postmortem bundle around it.  The flagging node handles it, not
        the bus's ``on_hazard``: one bus may serve several nodes.

        The hazard lands on the thread that carried the message, and a
        postmortem asks every alive peer for its flight window, so the
        bundle is built on a borrowed thread.  Not on the timer thread:
        a blocked tick stops the heartbeats."""
        if self.telemetry is not None and hz.severity == "error" \
                and hz.kind.startswith("protocol"):
            run_on_thread(partial(self._incident, hz.kind,
                                  {"subject": hz.subject, "seq": hz.seq,
                                   "message": hz.message}),
                          f"{self.name}.postmortem")

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _local_actor(self, actor: str) -> Optional[ActorRef]:
        # plain dict read, no lock: dict.get is atomic under the GIL and
        # the registry only ever grows or replaces whole entries
        return self._actors.get(actor)

    def _send_tell(self, path: str, message: Any, sender: Any) -> None:
        """Remote TELL; :meth:`RemoteRef.tell` delivers to a target on
        this node itself."""
        dest, actor = split_path(path)
        sender_path = None
        if sender is not None:
            sender_path = self.path_of(sender)
        peer = self._peers.get(dest)   # lock-free state read (hot path)
        if peer is not None and peer.state == PeerState.DOWN:
            self._dead_letter(path, message, "node down")
            return
        gate = self._gate(path)
        trc = self.tracer
        send_ctx = None
        if gate.available <= 0 and gate.broken is None:
            self._event("cluster-park", actor=actor, peer=dest,
                        extra={"path": path}, count="cluster.parks")
            w0 = trc.now() if trc is not None else 0.0
            t0 = self.clock()
            if not gate.acquire(timeout=self.config.park_timeout):
                self._dead_letter(path, message,
                                  gate.broken or "backpressure timeout")
                return
            if self.profiler is not None:
                self.profiler.observe_us("cluster.credit_wait_us",
                                         self.clock() - t0)
            if trc is not None:
                ctx = trc.current()
                if ctx is not None:
                    # the parked pause becomes a credit-wait span and
                    # the wire stamp chains under it, so backpressure
                    # shows up on the request's critical path instead
                    # of as an unattributed gap before the network hop
                    send_ctx = trc.chain(ctx, "credit-wait", actor,
                                         w0, trc.now())
        elif not gate.acquire(timeout=self.config.park_timeout):
            self._dead_letter(path, message,
                              gate.broken or "backpressure timeout")
            return
        self._send_reliable(dest, TELL, path, message, sender=sender_path,
                            ctx=send_ctx)

    def _send_reliable(self, dest: str, kind: str, target: str,
                       payload: Any, sender: Optional[str] = None,
                       waiter: Optional[_Waiter] = None,
                       ctx: Any = None) -> int:
        with self._state_lock:
            seq = self._seq.get(dest, 0) + 1
            self._seq[dest] = seq
            outbox = self._outboxes.get(dest)
            if outbox is None:
                outbox = self._outboxes[dest] = \
                    Outbox(self.config.retry_policy())
            self._peers.setdefault(dest, PeerState(dest, self.clock()))
            if waiter is not None:
                # registered before the frame leaves: loopback delivery
                # is synchronous, so the REPLY can arrive mid-send
                self._replies[(dest, seq)] = waiter
        ectx = None
        trc = self.tracer
        if trc is not None and kind == TELL:
            # explicit ctx (a credit-wait chained by _send_tell) wins
            # over the caller's installed context; either way the wire
            # header is the triple the receiver chains its spans under
            c = ctx if ctx is not None else getattr(trc.tls, "ctx", None)
            if c is not None:
                ectx = (c.request_id, c.span_id, trc.clock())
        env = Envelope(kind, seq, self.name, target, payload=payload,
                       sender=sender, ctx=ectx)
        outbox.register(seq, env, self.clock())
        self._transmit(dest, env)
        observe = self._on_send
        if kind == TELL and observe is not None:
            observe(target, dest, seq, payload, ectx)
        return seq

    def _send_control(self, dest: str, kind: str, target: str,
                      payload: Any) -> None:
        self._transmit(dest, Envelope(kind, 0, self.name, target,
                                      payload=payload))

    def _transmit(self, dest: str, env: Envelope) -> bool:
        # frames are *unframed* serialized envelopes here — the socket
        # transport length-prefixes on the wire, loopback needs neither
        frame = self.serializer.encode(env)
        if self.profiler is not None:
            self.profiler.inc("cluster.frames_out")
            self.profiler.inc("cluster.bytes_out", len(frame))
        return self.transport.send(dest, frame)

    def _request(self, dest: str, kind: str, payload: Any,
                 timeout: float) -> dict[str, Any]:
        replies = self._requests((dest,), kind, payload, timeout)
        if dest not in replies:
            raise TimeoutError(f"no reply from {dest!r} within "
                               f"{timeout}s (state: "
                               f"{self.peer_state(dest)})")
        return replies[dest]

    def _requests(self, dests: Iterable[str], kind: str, payload: Any,
                  timeout: float) -> dict[str, Any]:
        """Send one request to each of ``dests`` before waiting for any
        reply; returns the replies that arrive within ``timeout`` of the
        last send, by peer."""
        sent: list = []
        try:
            for dest in dests:
                waiter = _Waiter()
                sent.append((dest, self._send_reliable(
                    dest, kind, dest, payload, waiter=waiter), waiter))
            deadline = time.monotonic() + timeout
            return {dest: waiter.value for dest, _, waiter in sent
                    if waiter.event.wait(
                        max(0.0, deadline - time.monotonic()))}
        finally:
            with self._state_lock:
                for dest, seq, _ in sent:
                    self._replies.pop((dest, seq), None)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_frame(self, frame: bytes) -> None:
        trc = self.tracer
        t_d0 = trc.clock() if trc is not None else 0.0
        try:
            env = self.serializer.decode(frame)
        except Exception:
            self._decode_errors += 1
            if self.profiler is not None:
                self.profiler.inc("cluster.decode_errors")
            return
        # the decode-end stamp is only needed for traced TELLs; acks,
        # credits and untraced tells skip the second clock read
        t_d1 = trc.clock() if trc is not None and env.ctx is not None \
            else 0.0
        if self.profiler is not None:
            self.profiler.inc("cluster.frames_in")
            self.profiler.inc("cluster.bytes_in", len(frame))
        self._heard_from(env.origin)
        handler = self._handlers.get(env.kind)
        if handler is None:
            return
        if env.kind in RELIABLE_KINDS:
            fresh = self._dedup_for(env.origin).fresh(env.seq)
            self._owe_ack(env.origin)
            if not fresh:
                if self.profiler is not None:
                    self.profiler.inc("cluster.duplicates")
                # replay cached replies for request kinds: the reply
                # may be what got lost, not the request
                cached = self._reply_cache.get((env.origin, env.seq))
                if cached is not None:
                    self._send_control(env.origin, REPLY, env.origin,
                                       cached.payload)
                return
        if trc is not None and env.kind == TELL and env.ctx is not None:
            # fresh frames only (we are past the dedup check): a
            # retransmit must not mint dangling network spans.  The
            # network span covers encode + transit + every retry; its
            # start clamps to the local decode start so cross-process
            # clock skew degrades to a zero-length hop, never negative
            req, parent, t_send = env.ctx
            if trc._hops_left.get(req, 1) > 0:
                _ids = trc._ids
                _app = trc._spans.append
                net = next(_ids)
                _app((net, parent, req, "network", env.origin,
                      t_send if t_send < t_d0 else t_d0, t_d0))
                ser = next(_ids)
                _app((ser, net, req, "serialize", self.name, t_d0, t_d1))
                # downstream spans (stage-wait, mailbox-wait, ...) chain
                # under the receive-side decode, in the local clock
                # domain
                env.ctx = (req, ser, t_d1)
            else:
                # this request already spent its per-process hop budget
                # here: drop the wire context so the delivery below runs
                # at untraced cost — a remote storm stops paying for
                # tracing the moment the receiver's budget is gone
                env.ctx = None
        handler(env)
        if self._staged_total:
            self.pump()

    def _handle_heartbeat(self, env: Envelope) -> None:
        pass                       # _heard_from already fed the detector

    def _dedup_for(self, origin: str) -> DedupTable:
        # lock-free fast path: dict reads are atomic under the GIL and
        # tables are created once, never replaced
        table = self._dedup.get(origin)
        if table is not None:
            return table
        with self._state_lock:
            table = self._dedup.get(origin)
            if table is None:
                table = self._dedup[origin] = DedupTable()
            return table

    def _gate(self, path: str) -> CreditGate:
        gate = self._gates.get(path)
        if gate is not None:
            return gate
        with self._state_lock:
            gate = self._gates.get(path)
            if gate is None:
                gate = self._gates[path] = \
                    CreditGate(self.config.credit_window, clock=self.clock)
            return gate

    def _owe_ack(self, origin: str) -> None:
        with self._flow_lock:
            owed = self._ack_owed.get(origin, 0) + 1
            self._ack_owed[origin] = owed
            flush = owed >= self.config.ack_every
        if flush:
            self._flush_acks(origin)

    def _flush_acks(self, only: Optional[str] = None) -> None:
        with self._flow_lock:
            origins = [only] if only is not None else \
                [o for o, n in self._ack_owed.items() if n > 0]
            cums = []
            for origin in origins:
                if self._ack_owed.get(origin, 0) <= 0:
                    continue
                self._ack_owed[origin] = 0
                table = self._dedup.get(origin)
                if table is not None:
                    cums.append((origin, table.cumulative))
        for origin, cum in cums:
            self._send_control(origin, ACK, origin, cum)

    # -- TELL path -----------------------------------------------------------
    def _handle_tell(self, env: Envelope) -> None:
        actor = split_path(env.target)[1]
        # lock-free registry read: dict lookups are atomic under the
        # GIL; ``_actors_lock`` guards compound spawn/stop updates
        ref = self._actors.get(actor)
        if ref is None or ref.is_stopped:
            self._dead_letter(env.target, env.payload,
                              f"no such actor on {self.name}",
                              ctx=env.ctx)
            self._owe_credit(env.origin, env.target)
            return
        if self._staged_total or ref.pending >= self.config.mailbox_bound:
            with self._state_lock:
                staged = self._staged.setdefault(actor, [])
                must_stage = bool(staged) \
                    or ref.pending >= self.config.mailbox_bound
                if must_stage:
                    staged.append(env)
                    self._staged_total += 1
            if must_stage:
                self._event("cluster-stage", actor=actor, peer=env.origin,
                            extra={"staged": len(staged)},
                            count="cluster.staged")
                return
        self._admit(ref, env)

    def _admit(self, ref: ActorRef, env: Envelope,
               staged: bool = False) -> None:
        sender = None
        if env.sender is not None:
            sender_node = split_path(env.sender)[0]
            if sender_node == self.name:
                sender = self._actors.get(split_path(env.sender)[1])
            if sender is None:
                sender = self._remote_refs.get(env.sender)
                if sender is None:       # benign race: refs compare by path
                    sender = self._remote_refs[env.sender] = \
                        RemoteRef(self, env.sender)
        trc = self.tracer
        if trc is not None and env.ctx is not None:
            req, parent, t0 = env.ctx
            if staged:
                # time spent parked in the staging queue (mailbox full)
                now = trc.now()
                sid = trc.next_id()
                trc.record(sid, parent, req, "stage-wait", ref.name,
                           t0 if t0 <= now else now, now)
                parent = sid
            # install the envelope's context only around the enqueue so
            # the cell captures it for its mailbox-wait chain — and put
            # the caller's own context back afterwards: a loopback
            # transport delivers on the *sending* thread, whose request
            # context must not be clobbered by the message it delivered
            tls = trc.tls
            prev = getattr(tls, "ctx", None)
            tls.ctx = trc.context(req, parent)
            try:
                ref.tell(env.payload, sender=sender)
            finally:
                tls.ctx = prev
        else:
            ref.tell(env.payload, sender=sender)
        observe = self._on_deliver
        if observe is not None:
            observe(ref, env)
        self._owe_credit(env.origin, env.target)

    def _owe_credit(self, origin: str, path: str) -> None:
        with self._flow_lock:
            owed = self._credit_owed.setdefault(origin, {})
            owed[path] = owed.get(path, 0) + 1
            total = self._credit_total.get(origin, 0) + 1
            self._credit_total[origin] = total
        if total >= self.config.credit_flush:
            self._flush_credits(origin)

    def _flush_credits(self, only: Optional[str] = None) -> None:
        with self._flow_lock:
            origins = [only] if only is not None \
                else list(self._credit_owed)
            batches = []
            for origin in origins:
                owed = self._credit_owed.get(origin)
                if owed:
                    batches.append((origin, dict(owed)))
                    owed.clear()
                    self._credit_total[origin] = 0
        for origin, grants in batches:
            self._send_control(origin, CREDIT, origin,
                               [[p, n] for p, n in sorted(grants.items())])

    def pump(self) -> None:
        """Admit staged remote messages whose target has mailbox room."""
        if not self._staged_total:
            return
        with self._state_lock:
            actors = [a for a, q in self._staged.items() if q]
        for actor in actors:
            ref = self._actors.get(actor)
            while True:
                with self._state_lock:
                    staged = self._staged.get(actor)
                    if not staged:
                        break
                    if ref is None or ref.is_stopped:
                        env = staged.pop(0)
                        self._staged_total -= 1
                        dead = True
                    elif ref.pending < self.config.mailbox_bound:
                        env = staged.pop(0)
                        self._staged_total -= 1
                        dead = False
                    else:
                        break
                if dead:
                    self._dead_letter(env.target, env.payload,
                                      f"no such actor on {self.name}",
                                      ctx=env.ctx)
                    self._owe_credit(env.origin, env.target)
                else:
                    self._admit(ref, env, staged=True)

    # -- control handlers ----------------------------------------------------
    def _handle_ack(self, env: Envelope) -> None:
        cum = int(env.payload)
        with self._state_lock:
            outbox = self._outboxes.get(env.origin)
            # once the peer's cumulative prefix covers every abandoned
            # seq, the link is resynced and SKIP stops being advertised
            if cum >= self._skip.get(env.origin, cum + 1):
                del self._skip[env.origin]
        if outbox is not None:
            outbox.on_ack(cum)

    def _handle_skip(self, env: Envelope) -> None:
        """Origin dead-lettered seqs <= payload: never wait for them."""
        self._dedup_for(env.origin).skip_to(int(env.payload))
        # ack immediately so the origin stops advertising the skip
        self._send_control(env.origin, ACK, env.origin,
                           self._dedup_for(env.origin).cumulative)

    def _handle_credit(self, env: Envelope) -> None:
        for path, n in env.payload:
            gate = self._gate(path)
            was_parked = gate.parked > 0
            gate.release(int(n))
            if was_parked:
                self._event("cluster-resume", peer=env.origin,
                            actor=split_path(path)[1],
                            extra={"path": path, "credits": int(n)},
                            count="cluster.resumes")

    def _handle_spawn(self, env: Envelope) -> None:
        payload = env.payload
        try:
            cls, inject = actor_type(payload["type"])
            ref = self.spawn(cls, *payload.get("args", ()),
                             name=payload["name"], inject_node=inject)
            reply = {"re": env.seq, "path": make_path(self.name, ref.name)}
            self._event("cluster-spawn", actor=ref.name, peer=env.origin)
        except Exception as exc:  # noqa: BLE001 - report, don't die
            reply = {"re": env.seq, "error": f"{type(exc).__name__}: {exc}"}
        self._cache_reply(env.origin, env.seq, reply)
        self._send_control(env.origin, REPLY, env.origin, reply)

    def _handle_watch(self, env: Envelope) -> None:
        payload = env.payload
        actor = payload["actor"]
        self._watchers.setdefault(actor, []).append(payload["watcher"])
        directive = payload.get("directive")
        if directive is not None:
            with self._actors_lock:
                ref = self._actors.get(actor)
            if ref is not None:
                self.system.set_directive(
                    ref, SupervisionDirective(directive))

    def _handle_signal(self, env: Envelope) -> None:
        signal = ActorSignal.from_dict(env.payload)
        actor = split_path(env.target)[1]
        with self._actors_lock:
            ref = self._actors.get(actor)
        self._event("cluster-signal", actor=actor, peer=env.origin,
                    extra={"signal": signal.kind, "watched": signal.path})
        if ref is None or ref.is_stopped:
            self._dead_letter(env.target, signal, "watcher gone")
            return
        ref.tell(signal, sender=None)

    def _handle_status(self, env: Envelope) -> None:
        want = env.payload if isinstance(env.payload, dict) else {}
        reply: dict[str, Any] = {"re": env.seq, **self.status()}
        if want.get("profile") and self.profiler is not None:
            reply["profile"] = self.profiler.snapshot()
        if want.get("trace") and self.trace_events is not None:
            with self._trace_lock:
                reply["trace"] = [e._asdict() for e in self.trace_events]
        tele = self.telemetry
        if tele is not None:
            if want.get("telemetry"):
                reply["telemetry"] = tele.snapshot()
            if want.get("flight"):
                reply["flight"] = tele.recorder.dump()
        self._cache_reply(env.origin, env.seq, reply)
        self._send_control(env.origin, REPLY, env.origin, reply)

    def _cache_reply(self, origin: str, seq: int, reply: Any) -> None:
        """Remember a request reply for duplicate replay, bounded FIFO."""
        with self._state_lock:
            self._reply_cache[(origin, seq)] = \
                Envelope(REPLY, 0, self.name, origin, payload=reply)
            while len(self._reply_cache) > self.config.reply_cache_size:
                self._reply_cache.pop(next(iter(self._reply_cache)))

    def _handle_reply(self, env: Envelope) -> None:
        key = (env.origin, env.payload.get("re"))
        with self._state_lock:
            waiter = self._replies.get(key)
        if waiter is not None:
            waiter.value = env.payload
            waiter.event.set()

    # ------------------------------------------------------------------
    # supervision plumbing
    # ------------------------------------------------------------------
    def _local_failure(self, actor_name: str, error: BaseException,
                       directive: SupervisionDirective) -> None:
        watchers = self._watchers.get(actor_name)
        self._event("cluster-failure", actor=actor_name,
                    extra={"error": repr(error),
                           "directive": directive.value})
        self._incident("actor-failure",
                       {"actor": actor_name, "error": repr(error),
                        "directive": directive.value})
        if not watchers:
            return
        signal = ActorSignal(make_path(self.name, actor_name), "failure",
                             error=f"{type(error).__name__}: {error}",
                             directive=directive.value)
        for watcher_path in list(watchers):
            watcher_node = split_path(watcher_path)[0]
            if watcher_node == self.name:
                with self._actors_lock:
                    ref = self._actors.get(split_path(watcher_path)[1])
                if ref is not None and not ref.is_stopped:
                    ref.tell(signal, sender=None)
                continue
            self._send_reliable(watcher_node, SIGNAL, watcher_path,
                                signal.as_dict())

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def tick(self, now: Optional[float] = None) -> None:
        """One maintenance pass: retries, expiries, heartbeats, detector
        transitions, owed acks/credits, staging pump."""
        now = self.clock() if now is None else now
        with self._state_lock:
            peers = list(self._peers.values())
            outboxes = dict(self._outboxes)

        # heartbeats out; re-advertise pending link resyncs while the
        # peer can hear them (cleared by the ACK they provoke)
        for peer in peers:
            if peer.state == PeerState.DOWN:
                continue
            if now - peer.last_beat >= self.config.heartbeat_interval:
                peer.last_beat = now
                self._send_control(peer.name, HEARTBEAT, peer.name, None)
            floor = self._skip.get(peer.name)
            if floor is not None:
                self._send_control(peer.name, SKIP, peer.name, floor)

        # telemetry frames piggyback the same cadence pass (the agent
        # applies its own interval); its failures never break the tick
        self._telemetry("on_tick", now)

        # retransmissions + expiries
        for dest, outbox in outboxes.items():
            for env in outbox.due(now):
                self._event("cluster-retry", peer=dest,
                            extra={"seq": env.seq, "kind": env.kind},
                            count="cluster.retries")
                self._transmit(dest, env)
            for env in outbox.expired(now):
                self._abandon(dest, env)
                self._dead_letter(env.target, env.payload,
                                  f"undeliverable to {dest} after "
                                  f"{self.config.max_attempts} attempts",
                                  ctx=env.ctx)

        # failure detector transitions + eviction of long-dead peers
        for peer in peers:
            silent = now - peer.last_heard
            if peer.state == PeerState.DOWN:
                if silent >= self.config.down_after + \
                        self.config.evict_after:
                    self._evict_peer(peer.name)
                continue
            if silent >= self.config.down_after:
                peer.state = PeerState.DOWN
                self._on_peer_down(peer.name)
            elif peer.state == PeerState.ALIVE \
                    and silent >= self.config.suspect_after:
                peer.state = PeerState.SUSPECT
                with self._state_lock:
                    unacked = len(self._outboxes.get(peer.name, ()))
                self._event("cluster-suspect", peer=peer.name,
                            extra={"unacked": unacked,
                                   "silent_s": round(silent, 3)},
                            count="cluster.suspects")

        self._flush_acks()
        self._flush_credits()
        self.pump()

    def _heard_from(self, origin: str) -> None:
        now = self.clock()
        peer = self._peers.get(origin)
        if peer is not None and peer.state == PeerState.ALIVE:
            peer.last_heard = now      # plain store; atomic under the GIL
            return
        with self._state_lock:
            peer = self._peers.get(origin)
            if peer is None:
                self._peers[origin] = PeerState(origin, now)
                return
            peer.last_heard = now
            recovered = peer.state != PeerState.ALIVE
            was_down = peer.state == PeerState.DOWN
            if recovered:
                peer.state = PeerState.ALIVE
            if was_down:
                # _on_peer_down broke this peer's credit gates, and a
                # CreditGate has no un-break: drop them so the next
                # send mints a fresh full-window gate instead of
                # dead-lettering forever against a peer we can hear
                for path in [p for p in self._gates
                             if split_path(p)[0] == origin]:
                    del self._gates[path]
        if recovered:
            self._event("cluster-recover", peer=origin)

    def _abandon(self, dest: str, env: Envelope) -> None:
        """Bookkeeping for a reliable envelope we gave up on: its seq
        must not stall the peer's cumulative ACK (SKIP advertises the
        hole), and a TELL returns the credit it acquired in _send_tell
        so a lossy link does not permanently shrink the window."""
        with self._state_lock:
            if env.seq > self._skip.get(dest, 0):
                self._skip[dest] = env.seq
        if env.kind == TELL:
            self._gate(env.target).release()

    def _on_peer_down(self, peer: str) -> None:
        self._event("cluster-down", peer=peer, count="cluster.downs")
        self._incident("peer-down", {"peer": peer})
        with self._state_lock:
            outbox = self._outboxes.get(peer)
            gates = [(path, g) for path, g in self._gates.items()
                     if split_path(path)[0] == peer]
            watching = [(path, refs) for path, refs in self._watching.items()
                        if split_path(path)[0] == peer]
        # parked senders wake and fail instead of waiting on a corpse
        # (broken before the drain below releases credits, so a freed
        # credit cannot wake a sender toward the dead node)
        for path, gate in gates:
            gate.brk(f"node {peer} down")
        # in-flight traffic can never be acknowledged — dead-letter it
        if outbox is not None:
            for env in outbox.drain():
                self._abandon(peer, env)
                self._dead_letter(env.target, env.payload,
                                  f"node {peer} down", ctx=env.ctx)
        # watched actors on the dead node: synthesize node-down signals
        for path, refs in watching:
            signal = ActorSignal(path, "node-down",
                                 detail=f"node {peer} marked down")
            for ref in refs:
                if not ref.is_stopped:
                    ref.tell(signal, sender=None)

    def _evict_peer(self, peer: str) -> None:
        """Forget a peer that stayed DOWN past the eviction window.

        Everything sized by traffic goes (outbox, dedup, gates, cached
        replies, owed acks/credits); the per-dest send counter stays so
        that if the peer ever does come back, our sequence numbers keep
        ascending instead of colliding with its surviving dedup state.
        """
        with self._state_lock:
            self._peers.pop(peer, None)
            self._outboxes.pop(peer, None)
            self._dedup.pop(peer, None)
            self._skip.pop(peer, None)
            for path in [p for p in self._gates
                         if split_path(p)[0] == peer]:
                del self._gates[path]
            for key in [k for k in self._reply_cache if k[0] == peer]:
                del self._reply_cache[key]
            for path in [p for p in self._remote_refs
                         if split_path(p)[0] == peer]:
                del self._remote_refs[path]
        with self._flow_lock:
            self._ack_owed.pop(peer, None)
            self._credit_owed.pop(peer, None)
            self._credit_total.pop(peer, None)
        self._event("cluster-evict", peer=peer)

    def _timer_loop(self) -> None:
        while not self.closed:
            time.sleep(self.config.tick_interval)
            try:
                self.tick()
            except Exception:
                if self.profiler is not None:
                    self.profiler.inc("cluster.tick_errors")

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def _dead_letter(self, target: str, message: Any, why: str,
                     ctx: Any = None) -> None:
        if ctx is None and self.tracer is not None:
            # sender-side drops (backpressure timeout, node down, ...)
            # happen on the requesting thread: its installed context is
            # the message's causal position
            ctx = self.tracer.current()
        req = parent = None
        if ctx is not None:
            req = getattr(ctx, "request_id", None)
            parent = getattr(ctx, "span_id", None)
            if req is None:        # cluster wire triple
                try:
                    req, parent = ctx[0], ctx[1]
                except (TypeError, IndexError):
                    req = parent = None
        trc = self.tracer
        if trc is not None and req is not None:
            # zero-length terminal span: the drop shows up on the
            # request's critical path instead of the chain just ending
            now = trc.now()
            trc.record(trc.next_id(), parent, req, "dead-letter",
                       target, now, now)
        self.system._dead_letter(target, message, None, ctx=ctx, why=why)
        extra = {"why": why}
        if req is not None:
            extra["request_id"] = req
        self._event("cluster-dead-letter", actor=target, extra=extra,
                    count="cluster.dead_letters")

    def dead_letters(self) -> list:
        """Snapshot of the hosting system's dead-letter log."""
        with self.system._dl_lock:
            return list(self.system.dead_letters)

    def _event(self, kind: str, actor: str = "", peer: str = "",
               extra: Optional[dict] = None,
               count: Optional[str] = None) -> None:
        """One rare event (park, stage, suspect, ...), with the profiler
        counter ``count`` that goes with it."""
        obs = self._obs
        if obs is not None:
            obs.event(kind, actor, peer, extra, count)

    def drain(self, timeout: float = 10.0) -> bool:
        """Local quiescence: every local mailbox empty, no staged remote
        messages, nothing running.

        ``timeout`` bounds a poll over *real* dispatcher threads, so it
        is measured on wall monotonic time — unlike retry/heartbeat
        deadlines it must keep expiring when ``clock`` is a frozen test
        clock (the simulator steps nodes directly and never drains).
        """
        deadline = time.monotonic() + timeout
        while True:
            with self._state_lock:
                staged = any(self._staged.values())
            if not staged and self.system._quiet():
                return True
            if time.monotonic() >= deadline:
                return False
            self.pump()
            time.sleep(0.001)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        # graceful-stop postmortem: dump the final flight window (ours
        # plus every reachable peer's) while the transport can still
        # pull them; ``force`` bypasses the incident cooldown so a
        # recent alert cannot swallow the run's last snapshot
        self._telemetry("incident", "node-stop", {"node": self.name},
                        force=True)
        self._flush_acks()
        self._flush_credits()
        self.transport.close()
        if self._own_system:
            self.system.shutdown()

    def __enter__(self) -> "ClusterNode":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
