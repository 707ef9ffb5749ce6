"""``cluster-tell`` and ``cluster-rtt``: closed-loop TELL round trips
between two OS processes over TCP loopback.  Neither is in
BENCHMARK.json: on a shared host their figures follow the host's
scheduling too closely to gate on (see the README).

The driver process hosts a :class:`~repro.cluster.node.ClusterNode`
with one pinger actor per pair; the worker (:mod:`perfbench.worker`)
hosts the echoes.  Each pinger keeps a fixed window of TELLs in flight
and sends the next one only when a reply comes back (a closed loop), so
a slower system receives less load.  Payloads are 4-byte integers, the
smallest TELL the pickle serializer makes; their values start at a
seeded offset.

Both nodes use the library's default :class:`ClusterConfig`; the
driver makes one connection.  With two or more CPUs the driver process
is pinned to the first and the worker to the second, so neither
migrates or competes with the other for a core; each node's executor
has one worker, one per CPU its process may use.
"""

from __future__ import annotations

import os
import queue
import random
import select
import subprocess
import sys
import threading
import time
from array import array
from bisect import bisect_right
from itertools import count
from time import perf_counter
from typing import Any, Optional

from .common import (ROOT, SEGMENT_S, SETUPS, BenchError, cpu_s, median,
                     peak_rss_mb, percentile)
from .ledger import merge

#: workload -> (pinger/echo pairs, TELLs in flight per pair)
SHAPES = {"cluster-tell": (2, 64), "cluster-rtt": (1, 1)}
#: executor workers per node: each process is pinned to one CPU
WORKERS = 1
#: seconds of closed-loop traffic before each timed window
WARMUP_S = 1.0
#: generous bound on any single control exchange or drain
TIMEOUT_S = 30.0


class Loop:
    """State of one pinger's closed loop, shared with the driver's main
    thread: send and reply time of every round trip."""

    def __init__(self, name: str, window: int, first_seq: int):
        self.name = name
        self.window = window
        self.first_seq = first_seq
        self.next_seq = first_seq
        self.sent_at: dict[int, float] = {}
        self.t_send = array("d")
        self.t_recv = array("d")
        self.unexpected = 0
        self.running = False
        self.idle = threading.Event()
        self.idle.set()


def _actors() -> tuple[type, type]:
    """The driver's actor classes (defined after ``repro`` is importable)."""
    from repro.actors import Actor

    class Pinger(Actor):
        """Keeps ``loop.window`` TELLs in flight to one echo."""

        def __init__(self, echo: Any, loop: Loop):
            super().__init__()
            self.echo = echo
            self.loop = loop

        def _send(self) -> None:
            loop = self.loop
            seq = loop.next_seq
            loop.next_seq = seq + 1
            loop.sent_at[seq] = perf_counter()
            self.echo.tell(seq, sender=self.self_ref)

        def receive(self, message, sender):
            loop = self.loop
            if type(message) is int:
                t = perf_counter()
                t0 = loop.sent_at.pop(message, None)
                if t0 is None:            # a duplicate or a stranger
                    loop.unexpected += 1
                else:
                    loop.t_send.append(t0)
                    loop.t_recv.append(t)
                if loop.running:
                    self._send()
                elif not loop.sent_at:
                    loop.idle.set()
            elif message == "start":
                loop.idle.clear()
                loop.running = True
                for _ in range(loop.window):
                    self._send()
            elif message == "stop":
                loop.running = False
                if not loop.sent_at:
                    loop.idle.set()

    class Inbox(Actor):
        """Hands the probe's replies to the driver's main thread."""

        def __init__(self, box: queue.Queue):
            super().__init__()
            self.box = box

        def receive(self, message, sender):
            self.box.put(message)

    return Pinger, Inbox


def _read_port(proc: subprocess.Popen, deadline: float) -> int:
    buf = b""
    fd = proc.stdout.fileno()
    while b"\n" not in buf:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise BenchError("worker did not announce its port")
        chunk = os.read(fd, 4096)
        if not chunk:
            raise BenchError(f"worker exited early (code {proc.wait()})")
        buf += chunk
    line = buf.split(b"\n", 1)[0].decode()
    if not line.startswith("PORT "):
        raise BenchError(f"unexpected worker greeting {line!r}")
    return int(line.split()[1])


class Topology:
    """Driver node + worker process + echoes, torn down by :meth:`close`."""

    def __init__(self, pairs: int, cpu: Optional[int]):
        from repro.cluster import ClusterNode, PickleSerializer, \
            SocketTransport
        pin = ["--cpu", str(cpu)] if cpu is not None else []
        self.proc: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
             *pin],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
        self.driver = None
        try:
            port = _read_port(self.proc, time.monotonic() + TIMEOUT_S)
            self.driver = ClusterNode(
                "driver", SocketTransport("driver", listen=False),
                serializer=PickleSerializer(), workers=WORKERS)
            self.driver.connect("worker", ("127.0.0.1", port))
            self.echoes = [
                self.driver.spawn_remote("worker", "perfbench-echo",
                                         f"echo-{i}", timeout=TIMEOUT_S)
                for i in range(pairs)]
            _, Inbox = _actors()
            self.box: queue.Queue = queue.Queue()
            self.inbox = self.driver.spawn(Inbox, self.box, name="inbox")
            self.probe = self.driver.ref("worker/probe")
            self._tokens = count()
            for echo in self.echoes:            # one round trip each
                echo.tell(0, sender=self.inbox)
                if self.box.get(timeout=TIMEOUT_S) != 0:
                    raise BenchError("echo returned the wrong payload")
        except BaseException:
            self.close()
            raise

    def ask(self, *op: Any) -> Any:
        """One control exchange with the worker's probe actor."""
        token = next(self._tokens)
        self.probe.tell((op[0], token, *op[1:]), sender=self.inbox)
        while True:
            try:
                got = self.box.get(timeout=TIMEOUT_S)
            except queue.Empty:
                raise BenchError(f"probe did not answer {op[0]!r}") \
                    from None
            if isinstance(got, tuple) and got[0] == token:
                return got[1]

    def close(self) -> int:
        """Close the driver node, end the worker and reap it; returns
        the worker's exit code."""
        if self.driver is not None:
            self.driver.close()
        proc, self.proc = self.proc, None
        if proc is None:
            return 0
        try:
            proc.stdin.close()
            return proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -9
        finally:
            proc.stdout.close()


def _window(topo: Topology, pingers: list, loops: list[Loop],
            seconds: float, ledger: Any) -> dict[str, Any]:
    """Warm up, then time ``seconds`` of closed-loop traffic in
    segments of :data:`SEGMENT_S`.  Each figure is the median of its
    per-segment values, except the p99, which is the least one."""
    for p in pingers:
        p.tell("start")
    time.sleep(WARMUP_S)
    marks = [(perf_counter(), cpu_s(), topo.ask("mark", True)["cpu_s"])]
    if ledger is not None:
        ledger.reset()
    t_end = marks[0][0] + seconds
    while marks[-1][0] < t_end - 1e-3:
        time.sleep(min(SEGMENT_S, t_end - marks[-1][0]))
        t = perf_counter()
        local = ledger.snapshot() if ledger is not None \
            and t >= t_end - 1e-3 else None
        usage = topo.ask("mark", False)
        marks.append((t, cpu_s(), usage["cpu_s"]))
    for p in pingers:
        p.tell("stop")
    for p in loops:
        if not p.idle.wait(TIMEOUT_S):
            raise BenchError(f"{len(p.sent_at)} TELLs never came back")

    t0, t1 = marks[0][0], marks[-1][0]
    bounds = [m[0] for m in marks]
    nseg = len(marks) - 1
    ops = [0] * nseg
    lat: list[list[float]] = [[] for _ in range(nseg)]
    for p in loops:
        for ts, tr in zip(p.t_send, p.t_recv):
            if t0 <= tr < t1:
                ops[bisect_right(bounds, tr) - 1] += 1
            if t0 <= ts < t1:
                lat[bisect_right(bounds, ts) - 1].append((tr - ts) * 1e6)
    if not all(ops) or not all(lat):
        raise BenchError("a timed segment completed no round trip")
    for seg in lat:
        seg.sort()
    cpu = [(marks[i + 1][1] - marks[i][1]) + (marks[i + 1][2] - marks[i][2])
           for i in range(nseg)]
    return {
        "ops": sum(ops), "cpu_s": sum(cpu), "segments": nseg,
        "samples": sum(len(seg) for seg in lat),
        "ops_per_s": median(ops[i] / (bounds[i + 1] - bounds[i])
                            for i in range(nseg)),
        "p50_us": median(percentile(seg, 50) for seg in lat),
        "p99_us": min(percentile(seg, 99) for seg in lat),
        "cpu_us_per_op": median(cpu[i] / ops[i] * 1e6
                                for i in range(nseg)),
        "snap": merge(local, usage["ledger"]) if ledger is not None
        else None,
    }


def _check(loops: list[Loop]) -> int:
    """Every sequence number came back exactly once; returns how many
    round trips the run attempted."""
    attempted = 0
    for p in loops:
        sent = p.next_seq - p.first_seq
        attempted += sent
        if p.unexpected or p.sent_at or len(p.t_recv) != sent:
            raise BenchError(
                f"pinger {p.name}: sent {sent}, returned {len(p.t_recv)}, "
                f"missing {len(p.sent_at)}, unexpected {p.unexpected}")
    return attempted


def run(workload: str, seed: int, seconds: float,
        traced: bool) -> dict[str, Any]:
    from .ledger import Ledger

    pairs, window = SHAPES[workload]
    rng = random.Random(seed)
    cpus = sorted(os.sched_getaffinity(0))
    worker_cpu = None
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {cpus[0]})
        worker_cpu = cpus[1]
    Pinger, _ = _actors()
    setups: list[float] = []
    topo: Optional[Topology] = None
    try:
        for i in range(SETUPS):
            t0 = perf_counter()
            topo = Topology(pairs, worker_cpu)
            setups.append(perf_counter() - t0)
            if i < SETUPS - 1:
                code = topo.close()
                topo = None
                if code != 0:
                    raise BenchError(f"worker exited with {code}")
        loops = [Loop(f"pinger-{i}", window,
                      rng.randrange(1 << 20, 1 << 29))
                 for i in range(pairs)]
        pingers = [topo.driver.spawn(Pinger, echo, loop, name=loop.name)
                   for echo, loop in zip(topo.echoes, loops)]

        ledger = None
        if traced:
            half = seconds / 2.0
            plain = _window(topo, pingers, loops, half, None)
            ledger = Ledger()
            topo.ask("trace", True)
            ledger.install()
            try:
                measured = _window(topo, pingers, loops, half, ledger)
            finally:
                ledger.uninstall()
                topo.ask("trace", False)
        else:
            plain = measured = _window(topo, pingers, loops, seconds, None)

        attempted = _check(loops)
        usage = topo.ask("mark", False)
        dead = len(topo.driver.dead_letters()) + usage["dead_letters"]
        rss = peak_rss_mb() + usage["peak_rss_mb"]
        code = topo.close()
        topo = None
        if dead:
            raise BenchError(f"{dead} dead letters")
        if code != 0:
            raise BenchError(f"worker exited with {code}")
    finally:
        if topo is not None:
            topo.close()
        os.sched_setaffinity(0, cpus)

    return {
        "attempted": attempted, "failed": 0,
        "setup_s": median(setups), "rss_mb": rss,
        "plain": plain, "measured": measured,
        "trace_overhead": measured["ops_per_s"] / plain["ops_per_s"],
        "samples": {"latency_p50_us": plain["samples"],
                    "latency_p99_us": plain["samples"],
                    "ops_per_s": plain["ops"], "setup_s": SETUPS,
                    "segments": plain["segments"]},
        "params": {"pairs": pairs, "window": window, "workers": WORKERS,
                   "serializer": "pickle", "config": "ClusterConfig()",
                   "warmup_s": WARMUP_S, "setups": SETUPS,
                   "segment_s": SEGMENT_S, "pinned": worker_cpu is not None},
    }


def e2e(result: dict[str, Any]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of one cluster run."""
    m = result["plain"]
    ops_per_s = m["ops_per_s"]
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_us": (m["p50_us"], "us"),
        "latency_p99_us": (m["p99_us"], "us"),
        "cpu_us_per_op": (m["cpu_us_per_op"], "us"),
        # no thread, coroutine or model-check cell runs here: those
        # metrics repeat this workload's own figures (see README)
        "threads_ops_per_s": (ops_per_s, "1/s"),
        "actors_ops_per_s": (ops_per_s, "1/s"),
        "coroutines_ops_per_s": (ops_per_s, "1/s"),
        "check_s": (1000.0 / ops_per_s, "s"),
    }
