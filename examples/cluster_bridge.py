#!/usr/bin/env python
"""The single-lane bridge, distributed: cars sharded across two nodes.

The paper's bridge problem (§III) with the arbiter and the traffic
split over a *cluster*: the bridge actor lives on the ``west`` node
together with the westbound cars, while the eastbound cars live on the
``east`` node and negotiate every crossing over the wire — enter/go/
exit round trips riding the reliable TELL path with acks, retries, and
credit-based backpressure underneath.

Two transports, same program:

  python examples/cluster_bridge.py             # in-process loopback
  python examples/cluster_bridge.py --socket    # real worker subprocess
  python examples/cluster_bridge.py --socket --trace-out bridge_trace.json

At the end both nodes' profiler snapshots merge into one report
(counters sum across nodes, histograms stay per-node), and with
``--trace-out`` the per-node event logs merge into a single Chrome
trace — open it in chrome://tracing or Perfetto and the send→receive
flow arrows draw each crossing's hop between the two processes.
"""

import argparse
import json
import sys
import threading
import time

from repro.cluster import (
    ClusterConfig,
    ClusterNode,
    LoopbackHub,
    PickleSerializer,
    SocketTransport,
    format_merged_profile,
    merge_chrome_traces,
    merge_profiles,
)
from repro.cluster.demo import BENCH_CONFIG, Car, ClusterBridge, spawn_worker
from repro.obs import Profiler

CARS_PER_SIDE = 4
CROSSINGS = 200                  # total, across every car


def run(socket_mode: bool, trace_out: str | None) -> None:
    trace = trace_out is not None
    profiler = Profiler()
    config = BENCH_CONFIG if socket_mode else ClusterConfig()

    if socket_mode:
        # a real second interpreter: the worker subprocess hosts the
        # bridge; this process hosts every car
        proc, port = spawn_worker(name="west", extra=["--trace"] if trace
                                  else None)
        east = ClusterNode("east", SocketTransport("east", listen=False),
                           serializer=PickleSerializer(), config=config,
                           profiler=profiler, trace=trace)
        east.connect("west", ("127.0.0.1", port))
        bridge = east.spawn_remote("west", "cluster-bridge", "bridge")
        west = None
    else:
        hub = LoopbackHub()
        west = ClusterNode("west", hub.join("west"), config=config,
                           profiler=profiler, trace=trace)
        east = ClusterNode("east", hub.join("east"), config=config,
                           profiler=Profiler(), trace=trace)
        west.connect("east")
        east.connect("west")
        west.spawn(ClusterBridge, name="bridge")
        bridge = east.ref("west/bridge")
        proc = None

    done = threading.Event()
    pending_lock = threading.Lock()
    pending = {"cars": 0}

    def car_done() -> None:
        with pending_lock:
            pending["cars"] -= 1
            if pending["cars"] == 0:
                done.set()

    cars = []
    # westbound cars sit beside the arbiter (local tells); eastbound
    # cars are remote — every crossing is a cross-node conversation
    for i in range(CARS_PER_SIDE):
        if west is not None:
            cars.append(west.spawn(Car, west.ref("west/bridge"),
                                   "westbound", car_done,
                                   name=f"wcar-{i}"))
        cars.append(east.spawn(Car, bridge, "eastbound", car_done,
                               name=f"ecar-{i}"))

    pending["cars"] = len(cars)
    per_car = CROSSINGS // len(cars) + 1
    total = per_car * len(cars)
    t0 = time.perf_counter()
    for car in cars:
        car.tell(("start", per_car))
    if not done.wait(60):
        print("bridge run timed out", file=sys.stderr)
        raise SystemExit(1)
    dt = time.perf_counter() - t0
    print(f"{total} crossings by {len(cars)} cars on 2 nodes "
          f"in {dt:.2f}s ({total / dt:,.0f} crossings/s)\n")

    # ---- merged cross-node profile -----------------------------------
    if socket_mode:
        status = east.status_of("west", profile=True, trace=trace,
                                timeout=10.0)
        snapshots = {"east": profiler.snapshot(),
                     "west": status.get("profile") or {}}
        node_events = {"east": east.trace_events or [],
                       "west": status.get("trace") or []}
    else:
        snapshots = {"east": east.profiler.snapshot(),
                     "west": west.profiler.snapshot()}
        node_events = {"east": east.trace_events or [],
                       "west": west.trace_events or []}
    print(format_merged_profile(merge_profiles(snapshots)))

    if trace_out:
        merged = merge_chrome_traces(node_events)
        with open(trace_out, "w") as fh:
            json.dump(merged, fh, sort_keys=True)
        n = len(merged["traceEvents"])
        print(f"\nwrote {trace_out} ({n} Chrome trace events — load in "
              f"chrome://tracing)")

    east.close()
    if west is not None:
        west.close()
    if proc is not None:
        proc.terminate()
        proc.wait(timeout=10)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--socket", action="store_true",
                    help="run the bridge node as a real worker "
                         "subprocess over TCP (default: in-process "
                         "loopback)")
    ap.add_argument("--trace-out", default=None,
                    help="write the merged two-node Chrome trace here")
    args = ap.parse_args()
    run(args.socket, args.trace_out)


if __name__ == "__main__":
    main()
