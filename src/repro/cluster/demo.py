"""Cluster demo actors, their deep-window config and a worker launcher.

The actors here are registered actor types, so a ``repro cluster
serve`` process (which imports this module) can host them when a peer
asks with ``spawn_remote``:

``cluster-echo`` (:class:`Echo`)
    bounces every message back to its sender;
``cluster-bridge`` (:class:`ClusterBridge`)
    the paper's single-lane bridge arbiter as an actor;
``cluster-bridge-world`` (:class:`BridgeWorld`)
    the whole bridge world (arbiter plus :class:`Car` actors) on one
    node, where every crossing rides the local fast path.

:class:`Pinger` keeps a window of pings in flight against an echo.
``repro critical``/``repro whatif`` trace these actors
(:func:`repro.obs.causal.trace_cluster_cell`), the examples and the
cluster tests drive them across processes, and the overhead benchmarks
in ``benchmarks/test_bench_obs.py`` time them over a loopback hub.
:func:`spawn_worker` starts a ``repro cluster serve`` child and waits,
with a deadline, for the port it announces.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Optional

from ..actors import Actor
from .message import make_path
from .node import ClusterConfig, RemoteRef, register_actor_type

__all__ = ["BENCH_CONFIG", "Echo", "ClusterBridge", "Car", "Pinger",
           "BridgeWorld", "spawn_worker"]

#: deep windows for throughput runs: the point is messages per second,
#: and the backpressure tests use small bounds elsewhere
BENCH_CONFIG = ClusterConfig(mailbox_bound=4096, credit_window=4096,
                             retry_timeout=1.0, max_attempts=6,
                             heartbeat_interval=0.5, suspect_after=5.0,
                             down_after=30.0, ack_every=64)


class Echo(Actor):
    """Bounce every message straight back to its sender."""

    def receive(self, message, sender):
        if sender is not None:
            sender.tell(message, sender=self.self_ref)


class Pinger(Actor):
    """One pipelined ping source: keeps ``inflight`` messages racing.

    Starts a burst on ``("start", rounds)`` and signals ``done`` once
    every round-trip of the repetition completed — the driver thread
    times between those two points.

    ``sender_ref`` optionally overrides the identity the pinger hands
    out as reply-to: a same-node run passes a
    :class:`~repro.cluster.node.RemoteRef` to the pinger itself, so the
    echo's replies route through the cluster path machinery too instead
    of short-circuiting on the raw :class:`~repro.actors.ref.ActorRef`.
    """

    def __init__(self, target: Any, inflight: int,
                 done: threading.Event, sender_ref: Any = None):
        super().__init__()
        self.target = target
        self.inflight = inflight
        self.done = done
        self.sender_ref = sender_ref
        self.rounds = 0
        self.sent = 0
        self.received = 0

    def receive(self, message, sender):
        me = self.sender_ref if self.sender_ref is not None \
            else self.self_ref
        if isinstance(message, (tuple, list)) and message[0] == "start":
            self.rounds = int(message[1])
            self.sent = self.received = 0
            for _ in range(min(self.inflight, self.rounds)):
                self.sent += 1
                self.target.tell(self.sent, sender=me)
            return
        self.received += 1
        if self.sent < self.rounds:
            self.sent += 1
            self.target.tell(self.sent, sender=me)
        if self.received >= self.rounds:
            self.done.set()


class ClusterBridge(Actor):
    """Single-lane bridge arbiter living on the worker node.

    Cars on other nodes ask ``["enter", direction]`` and get ``"go"``
    when the lane is theirs; ``["exit", direction]`` frees it.  One
    direction holds the lane at a time; opposite-direction cars queue.
    """

    def __init__(self):
        super().__init__()
        self.direction: Optional[str] = None
        self.on_bridge = 0
        self.waiting: list[tuple[str, Any]] = []   # (direction, sender)

    def receive(self, message, sender):
        what, direction = message[0], message[1]
        if what == "enter":
            if self.on_bridge == 0 or self.direction == direction:
                self.direction = direction
                self.on_bridge += 1
                sender.tell("go", sender=self.self_ref)
            else:
                self.waiting.append((direction, sender))
        elif what == "exit":
            self.on_bridge -= 1
            if self.on_bridge == 0:
                self.direction = None
                if self.waiting:
                    self.direction = self.waiting[0][0]
                    grant = [w for w in self.waiting
                             if w[0] == self.direction]
                    self.waiting = [w for w in self.waiting
                                    if w[0] != self.direction]
                    for _, waiter in grant:
                        self.on_bridge += 1
                        waiter.tell("go", sender=self.self_ref)


class Car(Actor):
    """One car crossing the (possibly remote) bridge repeatedly.

    ``notify`` is any zero-arg callable invoked when this car finishes
    its quota — a ``threading.Event.set`` for a driver-side car, a
    closure telling a coordinator actor for a colocated one.
    ``sender_ref`` plays the same role as on :class:`Pinger`.
    """

    def __init__(self, bridge: Any, direction: str,
                 notify: Callable[[], None], sender_ref: Any = None):
        super().__init__()
        self.bridge = bridge
        self.direction = direction
        self.notify = notify
        self.sender_ref = sender_ref
        self.crossings = 0

    def receive(self, message, sender):
        me = self.sender_ref if self.sender_ref is not None \
            else self.self_ref
        if isinstance(message, (tuple, list)) and message[0] == "start":
            self.crossings = int(message[1])
            self.bridge.tell(["enter", self.direction], sender=me)
            return
        if message == "go":
            self.bridge.tell(["exit", self.direction], sender=me)
            self.crossings -= 1
            if self.crossings > 0:
                self.bridge.tell(["enter", self.direction], sender=me)
            else:
                self.notify()


class BridgeWorld(Actor):
    """Worker-side coordinator: the whole bridge world in one process.

    Spawned remotely (``inject_node=True``), it lazily builds the
    arbiter plus ``cars`` car actors *on its own node*, wiring every
    car to the bridge through a :class:`~repro.cluster.node.RemoteRef`
    so each enter/go/exit rides the zero-serialization local fast path.
    Each ``("start", cars, crossings)`` kicks one repetition; when the
    last car reports in, the world replies ``"done"`` to the message's
    sender — the only two frames that cross the wire per repetition.
    """

    def __init__(self, node: Any):
        super().__init__()
        self.node = node
        self.cars: list[Any] = []
        self.cars_done = 0
        self.cars_n = 0
        self.reply_to: Any = None

    def receive(self, message, sender):
        if isinstance(message, (tuple, list)) and message[0] == "start":
            self.cars_n = int(message[1])
            crossings = int(message[2])
            self.reply_to = sender
            self.cars_done = 0
            if not self.cars:
                self._build()
            for car in self.cars:
                car.tell(("start", crossings), sender=self.self_ref)
        elif message == "car-done":
            self.cars_done += 1
            if self.cars_done >= self.cars_n \
                    and self.reply_to is not None:
                self.reply_to.tell("done", sender=self.self_ref)

    def _build(self) -> None:
        node = self.node
        me = self.self_ref
        node.spawn(ClusterBridge, name="bridge")
        bridge_path = make_path(node.name, "bridge")
        for i in range(self.cars_n):
            name = f"car-{i}"
            self.cars.append(node.spawn(
                Car,
                RemoteRef(node, bridge_path),   # per-car ref, own cache
                "red" if i % 2 == 0 else "blue",
                lambda: me.tell("car-done"),
                name=name,
                sender_ref=RemoteRef(node, make_path(node.name, name))))


register_actor_type("cluster-echo", Echo)
register_actor_type("cluster-bridge", ClusterBridge)
register_actor_type("cluster-bridge-world", BridgeWorld, inject_node=True)


def spawn_worker(name: str = "worker", timeout: float = 20.0,
                 extra: Optional[list] = None
                 ) -> tuple[subprocess.Popen, int]:
    """Start a ``repro cluster serve`` child; returns (proc, port).

    The child binds an ephemeral port and announces ``PORT <n>`` on
    stdout.  The wait for that line ends at ``timeout`` seconds even
    when the child stays silent; on failure the child is killed and
    reaped before ``RuntimeError`` is raised.  ``extra`` appends
    additional ``serve`` flags (e.g. ``["--trace"]``).
    """
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "cluster", "serve",
         "--name", name, "--port", "0", "--serializer", "pickle",
         "--announce", *(extra or [])],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    deadline = time.monotonic() + timeout
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        for line in buf.split(b"\n")[:-1]:
            if line.startswith(b"PORT "):
                return proc, int(line.split()[1])
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            break
        chunk = os.read(fd, 4096)
        if not chunk:                   # the child closed stdout
            break
        buf += chunk
    proc.kill()
    proc.wait()
    proc.stdout.close()
    raise RuntimeError("cluster worker never announced its port")
