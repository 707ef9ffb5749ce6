"""``runtime-matrix``: the paper's comparison in one process.

Six classical problems run on threads, actors and coroutines at one
fixed size for every cell, with as many participants as the host has
CPUs and every actor executor capped at that many workers (the runners
ask for 2 to 4).  Each pass runs all 18 cells once, in an order drawn from the
seed; passes repeat until the time is up.  Every cell checks its
runner's own result against the expected count.  No cluster code runs
here, which makes this the workload every ``cluster.*`` change should
leave unchanged.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

from .common import (SETUPS, BenchError, Yardstick, cpu_s, geomean,
                     median, peak_rss_mb, percentile, segment_percentiles)
from .layers import PROBLEMS, RUNTIMES
from .coldstart import ColdStarts, timed_window

#: operations per participant in every cell (the runners' natural unit:
#: items, crossings, meals, rounds, values)
OPS = 500
#: untimed passes before the timed window
WARMUP_PASSES = 1
#: how strongly this workload's times follow the host's speed
#: (:meth:`~perfbench.common.Yardstick.rescale`), fitted on runs
#: across spells
ELASTICITY = 0.8

_PREFIX = {"threads": "threads", "actors": "actor",
           "coroutines": "coroutine"}


@contextmanager
def executors_capped(limit: int) -> Iterator[set[tuple[int, int]]]:
    """Build every actor executor inside the block with at most
    ``limit`` workers.  The runners size their own ``ActorSystem`` (4
    workers in most of them); the cap holds every cell to ``nproc``
    executor workers like every other executor in the benchmark.
    Yields the set of ``(asked, used)`` sizes of the executors built."""
    from repro.actors.executor import WorkStealingExecutor
    original = WorkStealingExecutor.__dict__["__init__"]
    built: set[tuple[int, int]] = set()

    def __init__(self: Any, workers: int = 4, *args: Any,
                 **kwargs: Any) -> None:
        used = min(workers, limit)
        built.add((workers, used))
        original(self, used, *args, **kwargs)

    WorkStealingExecutor.__init__ = __init__
    try:
        yield built
    finally:
        WorkStealingExecutor.__init__ = original


def make_cell(problem: str, runtime: str, workers: int,
          values: list[int]) -> Callable[[], int]:
    """One cell as a zero-argument call that checks its result and
    returns the operations it completed."""
    from repro.problems import (bounded_buffer, dining_philosophers,
                                pingpong, readers_writers,
                                single_lane_bridge, sum_workers)
    pre = _PREFIX[runtime]
    n = max(2, workers)

    if problem == "bounded_buffer":
        runner = getattr(bounded_buffer, f"run_{pre}_buffer")
        lanes = max(1, workers // 2)
        want = sorted((p, k) for p in range(lanes) for k in range(OPS))

        def cell() -> int:
            got = runner(capacity=n, producers=lanes, consumers=lanes,
                         items_each=OPS)
            if sorted(got) != want:
                raise BenchError(f"{problem}.{runtime}: consumed "
                                 f"{len(got)} of {len(want)} items")
            return len(want)
    elif problem == "bridge":
        runner = getattr(single_lane_bridge, f"run_{pre}_bridge")
        cars = tuple((f"car-{i}", "red" if i % 2 == 0 else "blue")
                     for i in range(n))
        want_log = Counter({(name, step): OPS for name, _ in cars
                            for step in ("enter-bridge", "exit-bridge")})

        def cell() -> int:
            log = runner(cars=cars, crossings=OPS)
            if Counter(log) != want_log:
                raise BenchError(f"{problem}.{runtime}: crossing log "
                                 f"has {len(log)} entries")
            return n * OPS
    elif problem == "dining_philosophers":
        runner = getattr(dining_philosophers, f"run_{pre}_philosophers")

        def cell() -> int:
            eaten = runner(n=n, meals=OPS)
            if eaten != n * OPS:
                raise BenchError(f"{problem}.{runtime}: {eaten} meals of "
                                 f"{n * OPS}")
            return eaten
    elif problem == "readers_writers":
        runner = getattr(readers_writers, f"run_{pre}_rw")
        readers, writers = max(1, workers), max(1, workers // 2)

        def cell() -> int:
            got = runner(readers=readers, writers=writers, rounds=OPS)
            if got["torn_reads"] or got["reads"] != readers * OPS:
                raise BenchError(f"{problem}.{runtime}: {got}")
            return (readers + writers) * OPS
    elif problem == "pingpong":
        runner = getattr(pingpong, f"run_{pre}_pingpong")
        rounds = OPS * workers

        def cell() -> int:
            replies = runner(rounds=rounds)
            if replies != rounds:
                raise BenchError(f"{problem}.{runtime}: {replies} replies "
                                 f"of {rounds}")
            return rounds
    else:
        runner = getattr(sum_workers, f"run_{pre}_sum")
        total = sum(values)

        def cell() -> int:
            got = runner(values=values, workers=workers)
            if got != total:
                raise BenchError(f"{problem}.{runtime}: sum {got} != "
                                 f"{total}")
            return len(values)
    return cell


def _passes(cells: dict, rng: random.Random, seconds: float,
            ledger: Any, setups: Optional[ColdStarts],
            yard: Yardstick) -> dict[str, Any]:
    """Run whole passes over the cells until ``seconds`` have gone,
    sampling the host's speed after every cell (outside its timings)."""
    keys = sorted(cells)
    for _ in range(WARMUP_PASSES):
        for key in keys:
            cells[key]()
    passes: list[dict[str, Any]] = []
    if ledger is not None:
        ledger.reset()
    for start in timed_window(seconds, setups):
        order = keys[:]
        rng.shuffle(order)
        walls = {}
        ops = 0
        yard_wall = yard_cpu = 0.0
        c0 = cpu_s()
        p0 = perf_counter()
        for key in order:
            s = perf_counter()
            done = cells[key]()
            walls[key] = (perf_counter() - s, done)
            ops += done
            w, c = yard.sample()
            yard_wall += w
            yard_cpu += c
        passes.append({"start": start, "ops": ops,
                       "cpu_s": cpu_s() - c0 - yard_cpu,
                       "wall": perf_counter() - p0 - yard_wall,
                       "walls": walls,
                       "lat": [dt / n * 1e6 for dt, n in walls.values()]})
    return {
        "ops": sum(p["ops"] for p in passes),
        "cpu_s": sum(p["cpu_s"] for p in passes),
        "passes": passes,
        "snap": ledger.snapshot() if ledger is not None else None,
        "attempted": len(passes) * len(keys),
    }


def _rates(m: dict[str, Any]) -> dict[tuple[str, str], float]:
    """Per cell, the median over passes of its ops/s.

    Medians per cell first, then means across cells: one cell's bad
    pass moves no figure."""
    passes = m["passes"]
    keys = sorted(passes[0]["walls"])
    return {k: median(p["walls"][k][1] / p["walls"][k][0] for p in passes)
            for k in keys}


def _headline(m: dict[str, Any]) -> float:
    return geomean(_rates(m).values())


def run(seed: int, seconds: float, traced: bool,
        workers: int) -> dict[str, Any]:
    from .ledger import Ledger

    setups = ColdStarts("runtime-matrix")
    yard = Yardstick()
    rng = random.Random(seed)
    values = [rng.randrange(1, 1 << 16) for _ in range(OPS * workers)]
    cells = {(p, r): make_cell(p, r, workers, values)
             for p in PROBLEMS for r in RUNTIMES}
    with executors_capped(workers) as executors:
        if traced:
            plain = _passes(cells, rng, seconds / 2.0, None, setups,
                            yard)
            ledger = Ledger().install()
            try:
                measured = _passes(cells, rng, seconds / 2.0, ledger, None,
                                   yard)
            finally:
                ledger.uninstall()
        else:
            plain = measured = _passes(cells, rng, seconds, None,
                                       setups, yard)
    extra = {f"matrix.{p}.{r}.ops_per_s": rate
             for (p, r), rate in _rates(plain).items()}
    return {
        "attempted": plain["attempted"] + (measured["attempted"]
                                           if traced else 0),
        "failed": 0,
        "setup_s": setups.median(), "rss_mb": peak_rss_mb(),
        "plain": plain, "measured": measured, "yard": yard,
        "elasticity": ELASTICITY,
        "trace_overhead": _headline(measured) / _headline(plain),
        "layer_extra": extra,
        "samples": {"setup_s": SETUPS, "latency_p50_us": len(plain["passes"]),
                    "latency_p99_us": len(plain["passes"]) * len(cells),
                    "passes": len(plain["passes"])},
        "params": {"ops": OPS, "workers": workers, "cells": len(cells),
                   "actor_executors_asked_used": sorted(executors),
                   "warmup_passes": WARMUP_PASSES,
                   "passes": len(plain["passes"])},
    }


def e2e(res: dict[str, Any]) -> dict[str, tuple[float, str]]:
    m = res["plain"]
    passes = m["passes"]
    rate = _rates(m)
    out = {
        "ops_per_s": (geomean(rate.values()), "1/s"),
        "latency_p50_us": (median(1e6 / r for r in rate.values()), "us"),
        # no single operation is timed here: the 99th percentile of the
        # cell runs' time per operation per one-second segment, and the
        # segment at the first quartile: a host stall only slows a
        # second, and in jittery spells most seconds had one
        "latency_p99_us": (percentile(sorted(
            segment_percentiles(passes, 99)), 25), "us"),
        "cpu_us_per_op": (median(p["cpu_s"] / p["ops"] * 1e6
                                 for p in passes), "us"),
        # wall time of one pass over the 18 cells, set-up included
        "check_s": (median(p["wall"] for p in passes), "s"),
    }
    for r in RUNTIMES:
        out[f"{r}_ops_per_s"] = (
            geomean(v for (_, rt), v in rate.items() if rt == r), "1/s")
    return out
