"""Real-socket cluster tests (pytest marker: ``cluster``).

Everything here opens actual TCP sockets — two in-process nodes over
localhost, then a genuine worker subprocess started through the CLI
(``python -m repro cluster serve``) — except the same-node cell of the
cluster throughput gates, which is their loopback baseline.  Excluded
from the default tier by ``-m "not cluster"``; the CI ``cluster-smoke``
job runs them with a hard timeout.
"""

import threading
import time

import pytest

from repro.actors import Actor
from repro.cluster import (
    ClusterNode,
    JsonSerializer,
    LoopbackHub,
    PickleSerializer,
    RemoteRef,
    SocketTransport,
    make_path,
    register_actor_type,
)
from repro.cluster.demo import BENCH_CONFIG, Echo, Pinger, spawn_worker
from repro.obs import Histogram, Profiler

pytestmark = pytest.mark.cluster


class Recorder(Actor):
    def __init__(self):
        super().__init__()
        self.got = []

    def receive(self, msg, sender):
        self.got.append(msg)
        if sender is not None:
            sender.tell(["ack", msg])


register_actor_type("sock-recorder", Recorder)


def _wait(pred, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(0.01)
    return pred()


def test_two_nodes_over_tcp_roundtrip():
    a = ClusterNode("a", SocketTransport("a"), serializer=JsonSerializer())
    b = ClusterNode("b", SocketTransport("b"), serializer=JsonSerializer())
    try:
        a.connect("b", ("127.0.0.1", b.transport.port))
        sink = b.spawn(Recorder, name="sink")
        back = a.spawn(Recorder, name="back")
        for i in range(20):
            a.ref("b/sink").tell(["m", i], sender=back)
        assert _wait(lambda: len(sink._cell.actor.got) == 20)
        # replies route over the same dialed socket (HELLO named it
        # in both directions — b never dialed a)
        assert _wait(lambda: len(back._cell.actor.got) == 20)
        assert b.status()["peers"]["a"] == "alive"
    finally:
        a.close()
        b.close()


def test_ephemeral_client_needs_no_listener():
    from repro.obs import Profiler

    server = ClusterNode("server", SocketTransport("server"),
                         serializer=PickleSerializer(),
                         profiler=Profiler())
    client = ClusterNode("client",
                         SocketTransport("client", listen=False),
                         serializer=PickleSerializer())
    try:
        client.connect("server", ("127.0.0.1", server.transport.port))
        ref = client.spawn_remote("server", "sock-recorder", "r")
        ref.tell(("hello", 1))
        status = client.status_of("server", profile=True)
        assert "r" in status["actors"]
        assert status["profile"]["counters"].get("cluster.delivered", 0) >= 1
    finally:
        client.close()
        server.close()


def test_worker_subprocess_end_to_end():
    """The full CLI story: serve a worker process, spawn into it, chat
    with it, pull its status, shut it down."""
    proc, port = spawn_worker(name="w1")
    driver = ClusterNode("driver",
                         SocketTransport("driver", listen=False),
                         serializer=PickleSerializer())
    try:
        driver.connect("w1", ("127.0.0.1", port))
        echo = driver.spawn_remote("w1", "cluster-echo", "e")
        done = threading.Event()

        class Counter(Actor):
            def __init__(self):
                super().__init__()
                self.n = 0

            def receive(self, msg, sender):
                self.n += 1
                if self.n == 50:
                    done.set()

        counter = driver.spawn(Counter, name="c")
        for i in range(50):
            echo.tell(("ping", i), sender=counter)
        assert done.wait(20), "echoes did not come back over TCP"
        status = driver.status_of("w1")
        assert status["node"] == "w1"
        assert "e" in status["actors"]
    finally:
        driver.close()
        proc.terminate()
        proc.wait(timeout=10)


# ---------------------------------------------------------------------------
# throughput gates of the three cluster cells
# ---------------------------------------------------------------------------

#: pinger/echo pairs x rounds per pair, and cars x crossings per car
PAIRS, ROUNDS, CARS, CROSSINGS = 4, 2000, 4, 62
WARMUP, REPETITIONS = 1, 3
#: ops/s floors: 10% of the throughputs once recorded for these cells
#: (17,171 / 65,268 / 29,539 ops/s on a 2-CPU host)
FLOORS = {"pingpong.cluster": 1717, "pingpong.cluster-local": 6527,
          "bridge.cluster": 2954}


def _timed_walls(start_rep):
    """Seconds per timed repetition, after the untimed warm-up."""
    walls = []
    for rep in range(WARMUP + REPETITIONS):
        t0 = time.perf_counter()
        assert start_rep(), "cluster repetition timed out"
        if rep >= WARMUP:
            walls.append(time.perf_counter() - t0)
    return walls


def _pinger_burst(node, targets, inflight, sender_refs=None):
    """One pipelined Pinger per target; returns a start-and-wait call."""
    events, pingers = [], []
    for i, target in enumerate(targets):
        done = threading.Event()
        events.append(done)
        pingers.append(node.spawn(
            Pinger, target, inflight, done, name=f"pinger-{i}",
            sender_ref=sender_refs[i] if sender_refs else None))

    def start_rep():
        for done in events:
            done.clear()
        for pinger in pingers:
            pinger.tell(("start", ROUNDS))
        return all(done.wait(120) for done in events)
    return start_rep


def _socket_cell(setup):
    """Run ``setup(driver)``'s repetitions against a worker process;
    returns (walls, the worker's profiler snapshot)."""
    proc, port = spawn_worker()
    driver = ClusterNode(
        "driver", SocketTransport("driver", listen=False),
        serializer=PickleSerializer(), config=BENCH_CONFIG,
        profiler=Profiler(), workers=4)
    try:
        driver.connect("worker", ("127.0.0.1", port))
        walls = _timed_walls(setup(driver))
        worker = driver.status_of("worker", profile=True, timeout=5.0)
        return walls, worker["profile"]
    finally:
        driver.close()
        proc.terminate()
        proc.wait(timeout=10)


def _socket_pingpong(driver):
    echoes = [driver.spawn_remote("worker", "cluster-echo", f"echo-{i}")
              for i in range(PAIRS)]
    return _pinger_burst(driver, echoes, inflight=128)


def _socket_bridge(driver):
    """The bridge world lives on the worker; the driver hears one
    ``"done"`` per repetition."""
    world = driver.spawn_remote("worker", "cluster-bridge-world", "world")
    done = threading.Event()

    class Collector(Actor):
        def receive(self, message, sender):
            if message == "done":
                done.set()

    collector = driver.spawn(Collector, name="collector")

    def start_rep():
        done.clear()
        world.tell(("start", CARS, CROSSINGS), sender=collector)
        return done.wait(120)
    return start_rep


def _local_cell():
    """Pinger/echo pairs on one loopback node, every tell path-addressed
    so it resolves to the local fast path; returns (walls, profile)."""
    profiler = Profiler()
    node = ClusterNode("solo", LoopbackHub().join("solo"),
                       serializer=PickleSerializer(), config=BENCH_CONFIG,
                       profiler=profiler, workers=4)
    try:
        echoes = []
        for i in range(PAIRS):
            node.spawn(Echo, name=f"echo-{i}")
            echoes.append(RemoteRef(node, make_path("solo", f"echo-{i}")))
        me = [RemoteRef(node, make_path("solo", f"pinger-{i}"))
              for i in range(PAIRS)]
        walls = _timed_walls(_pinger_burst(node, echoes, inflight=32,
                                           sender_refs=me))
        return walls, profiler.snapshot()
    finally:
        node.close()


def test_cluster_cells_hold_their_gates():
    """Two cells over TCP to a worker process and one on the local fast
    path: every cell moves its messages above its floor, the bridge's
    round trips stay under 10 ms p95, and the fast path both fires and
    out-runs the wire."""
    cells = {
        "pingpong.cluster": (_socket_cell(_socket_pingpong),
                             PAIRS * ROUNDS),
        "pingpong.cluster-local": (_local_cell(), PAIRS * ROUNDS),
        "bridge.cluster": (_socket_cell(_socket_bridge),
                           CARS * CROSSINGS),
    }
    rate, counters = {}, {}
    for key, ((walls, profile), ops) in cells.items():
        rate[key] = ops * len(walls) / sum(walls)
        counters[key] = profile["counters"]
        assert rate[key] > 0, key
        assert rate[key] >= FLOORS[key], (key, rate[key])

    # socket cells: the worker really delivered frames
    for key in ("pingpong.cluster", "bridge.cluster"):
        assert counters[key].get("cluster.delivered", 0) > 0, key

    # the bridge round trip (two socket hops around the colocated
    # crossing storm) stays interactive
    walls_us = Histogram()
    for wall in cells["bridge.cluster"][0][0]:
        walls_us.record(wall * 1e6)
    assert walls_us.snapshot()["p95"] < 10_000, walls_us.snapshot()

    # the zero-serialization fast path fired for every same-node tell...
    local = counters["pingpong.cluster-local"]
    assert local.get("cluster.local_fastpath", 0) > 0, local
    assert local.get("cluster.sent", 0) == 0, local
    # ...and colocated bridge traffic rides it too
    assert counters["bridge.cluster"].get("cluster.local_fastpath", 0) > 0
    # skipping serializer + framing + acks must show up as throughput
    assert rate["pingpong.cluster-local"] > rate["pingpong.cluster"], rate
