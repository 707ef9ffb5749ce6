#!/usr/bin/env python
"""Profile the single-lane bridge on all three real runtimes.

The bridge is the paper's running example; this script runs it on
threads, actors, and coroutines with a :class:`repro.obs.Metrics`
attached to each runtime's own primitives, then prints what the wall
clock can't show: where the time went *inside* each runtime — lock
contention and monitor waits for threads, mailbox latency and queue
depth for actors, resume latency and ready-queue residency for
coroutines.  ``python3 perfbench/run.py`` is the benchmark; this is a
look inside one problem.

Run:  python examples/runtime_showdown.py
"""

import time
from statistics import median

from repro.obs import Metrics
from repro.problems.single_lane_bridge import (run_actor_bridge,
                                               run_coroutine_bridge,
                                               run_threads_bridge)

CARS = tuple((f"car-{i}", "red" if i % 2 == 0 else "blue")
             for i in range(4))
CROSSINGS = 50
REPETITIONS = 5

RUNNERS = {"threads": run_threads_bridge, "actors": run_actor_bridge,
           "coroutines": run_coroutine_bridge}

#: the per-runtime signals worth calling out next to the wall clock
HIGHLIGHTS = {
    "threads": ("lock.acquires", "lock.contended", "lock.wait_us",
                "monitor.waits", "monitor.wait_us"),
    "actors": ("mailbox.depth_max", "mailbox.latency_us",
               "mailbox.processed"),
    "coroutines": ("coro.resumes", "coro.resume_us", "coro.ready_wait_us"),
}


def race(run) -> tuple[float, dict]:
    """Median wall of the profiled repetitions, and their profile."""
    run(cars=CARS, crossings=CROSSINGS)            # warm-up, unprofiled
    profiler = Metrics()
    walls = []
    for _ in range(REPETITIONS):
        t0 = time.perf_counter()
        run(cars=CARS, crossings=CROSSINGS, profiler=profiler)
        walls.append(time.perf_counter() - t0)
    return median(walls), profiler.snapshot()


def main() -> None:
    print("== the bridge, raced on the three real runtimes ==")
    print(f"   ({len(CARS)} cars x {CROSSINGS} crossings, {REPETITIONS} "
          "profiled repetitions; CPython GIL: threads show blocking "
          "structure, not parallel speedup)\n")
    results = {runtime: race(run) for runtime, run in RUNNERS.items()}

    print("| runtime | crossings/s | median run ms |")
    print("|---|---|---|")
    for runtime, (wall, _) in results.items():
        print(f"| {runtime} | {len(CARS) * CROSSINGS / wall:,.0f} "
              f"| {wall * 1000:.2f} |")
    for runtime, (_, profile) in results.items():
        print(f"\n-- inside the {runtime} runtime --")
        if not any(name in profile["counters"] or name in profile["gauges"]
                   or name in profile["histograms"]
                   for name in HIGHLIGHTS[runtime]):
            print("   (no contention observed this run)")
        for name in HIGHLIGHTS[runtime]:
            if name in profile["counters"]:
                print(f"   {name:<22} {profile['counters'][name]}")
            elif name in profile["gauges"]:
                print(f"   {name:<22} {profile['gauges'][name]:.0f}")
            elif name in profile["histograms"]:
                h = profile["histograms"][name]
                print(f"   {name:<22} n={h['count']} p50={h['p50']:.1f}us "
                      f"p95={h['p95']:.1f}us p99={h['p99']:.1f}us")


if __name__ == "__main__":
    main()
