"""``model-check``: single-threaded kernel and explorer work.

One pass explores, to completion with every reduction on, the paper's
3-car single-lane bridge and the 2-producer/1-consumer bounded buffer,
then runs a budgeted ``explore_world`` of the ``chaos`` simulation
scenario, whose fault seed is the workload seed.  The simulated world
drives real :mod:`repro.cluster.delivery` code on a virtual clock with
no threads.  Passes repeat until the time is up; each is checked, and
every pass must explore exactly as many runs and decisions as the
first.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Optional

from .coldstart import ColdStarts, timed_window
from .common import (SETUPS, BenchError, Yardstick, cpu_s, median,
                     peak_rss_mb, percentile)

#: explored schedules of the simulation scenario per pass
SIM_MAX_RUNS = 50
#: decisions per simulated schedule
SIM_BUDGET = 500
#: explored schedules between two samples of the host's speed
YARD_EVERY = 16
#: how strongly this workload's times follow the host's speed
#: (:meth:`~perfbench.common.Yardstick.rescale`), fitted on runs
#: across spells
ELASTICITY = 0.6
#: the buffer's outputs under every schedule (2 producers, 1 consumer,
#: capacity 2, one item each)
BUFFER_OUTPUTS = frozenset({
    "('put', 0, 0)('got', 0, (0, 0))('put', 1, 0)('got', 0, (1, 0))",
    "('put', 0, 0)('put', 1, 0)('got', 0, (0, 0))('got', 0, (1, 0))",
    "('put', 1, 0)('got', 0, (1, 0))('put', 0, 0)('got', 0, (0, 0))",
    "('put', 1, 0)('put', 0, 0)('got', 0, (1, 0))('got', 0, (0, 0))",
})


def programs(seed: int) -> dict[str, Any]:
    """The pass's inputs: two kernel programs and one world factory."""
    from repro.problems.bounded_buffer import buffer_program
    from repro.problems.single_lane_bridge import bridge_program
    from repro.sim import scenarios
    return {
        "bridge": bridge_program(),
        "buffer": buffer_program(capacity=2, producers=2, consumers=1,
                                 items_each=1),
        "world": scenarios.get("chaos").factory(seed),
    }


def _check_bridge(res: Any) -> None:
    if not res.complete or len(res.terminals) != 14 \
            or res.deadlock_possible:
        raise BenchError(f"bridge exploration: {res.summary()}")


def _check_buffer(res: Any) -> None:
    if not res.complete or res.output_strings() != BUFFER_OUTPUTS:
        raise BenchError(f"buffer exploration: {res.summary()}")


def _check_world(res: Any) -> None:
    if res.hazards:
        raise BenchError(f"sim chaos raised {res.hazards}")


def _one_pass(inputs: dict[str, Any], ledger: Any,
              yard: Yardstick) -> dict[str, Any]:
    """Explore the fixed set once, sampling the host's speed after each
    exploration and, untraced, every :data:`YARD_EVERY` schedules, all
    outside the timings; returns counts and timings."""
    from contextlib import nullcontext

    from repro.sim import explore_world
    from repro.verify import explore

    def span(name: str, layer: str):
        return ledger.span(name, layer) if ledger is not None \
            else nullcontext()

    out: dict[str, Any] = {}
    yard_wall = yard_cpu = 0.0

    def sample() -> None:
        nonlocal yard_wall, yard_cpu
        w, c = yard.sample()
        yard_wall += w
        yard_cpu += c

    last = [0.0]
    lat_us: list[float] = []

    def tick(_stats: Any) -> None:
        now = perf_counter()
        lat_us.append((now - last[0]) * 1e6)
        # untraced, the host is also sampled between schedules, left
        # out of their times; traced, the sample would land in a span
        if ledger is None and len(lat_us) % YARD_EVERY == 0:
            sample()
            now = perf_counter()
        last[0] = now

    t_pass = perf_counter()
    c_pass = cpu_s()
    for name, check in (("bridge", _check_bridge),
                        ("buffer", _check_buffer)):
        with span("verify.explore", "verify"):
            y0 = yard_wall
            t0 = last[0] = perf_counter()
            res = explore(inputs[name], reduce="all", progress=tick,
                          progress_every=1)
            out[f"{name}_s"] = perf_counter() - t0 - (yard_wall - y0)
        sample()
        check(res)
        out[name] = (res.runs, res.decisions, res.pruned_runs)
    with span("sim.explore_world", "sim"):
        t0 = perf_counter()
        res = explore_world(inputs["world"], budget=SIM_BUDGET,
                            max_runs=SIM_MAX_RUNS)
        out["world_s"] = perf_counter() - t0
    sample()
    _check_world(res)
    out["world"] = (res.runs, res.decisions, res.pruned_runs)
    out["pass_s"] = perf_counter() - t_pass - yard_wall
    out["cpu_s"] = cpu_s() - c_pass - yard_cpu
    out["lat"] = lat_us
    out["runs"] = sum(out[k][0] for k in ("bridge", "buffer", "world"))
    return out


def _passes(inputs: dict[str, Any], seconds: float, ledger: Any,
            setups: Optional[ColdStarts], yard: Yardstick) -> dict[str, Any]:
    _one_pass(inputs, None, yard)                # warm-up
    passes: list[dict[str, Any]] = []
    if ledger is not None:
        ledger.reset()
    for start in timed_window(seconds, setups):
        passes.append(_one_pass(inputs, ledger, yard))
        passes[-1]["start"] = start
    counts = {k: passes[0][k] for k in ("bridge", "buffer", "world")}
    for p in passes:
        if any(p[k] != v for k, v in counts.items()):
            raise BenchError(f"exploration counts changed between "
                             f"passes: {counts} vs {p}")
    runs = sum(v[0] for v in counts.values()) * len(passes)
    return {
        "ops": runs, "passes": passes,
        "cpu_s": sum(p["cpu_s"] for p in passes),
        "ops_per_s": median(p["runs"] / p["pass_s"] for p in passes),
        "counts": counts,
        "snap": ledger.snapshot() if ledger is not None else None,
    }


def _sum(passes: list[dict[str, Any]], key: str) -> float:
    return sum(p[key] for p in passes)


def run(seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    from .ledger import Ledger

    setups = ColdStarts("model-check")
    yard = Yardstick()
    inputs = programs(seed)
    if traced:
        plain = _passes(inputs, seconds / 2.0, None, setups, yard)
        ledger = Ledger().install()
        try:
            measured = _passes(inputs, seconds / 2.0, ledger, None, yard)
        finally:
            ledger.uninstall()
    else:
        plain = measured = _passes(inputs, seconds, None, setups, yard)

    counts = plain["counts"]
    runs_v = counts["bridge"][0] + counts["buffer"][0]
    decisions_v = counts["bridge"][1] + counts["buffer"][1]
    verify_s = _sum(plain["passes"], "bridge_s") \
        + _sum(plain["passes"], "buffer_s")
    n = len(plain["passes"])
    snap = measured["snap"] or {}
    vrow = snap.get("verify.explore")
    extra: dict[str, float] = {
        "verify.runs": runs_v,
        "verify.decisions": decisions_v,
        "verify.pruned_runs": counts["bridge"][2] + counts["buffer"][2],
        "verify.decisions_per_s": decisions_v * n / verify_s,
        "verify.self_us": (vrow["self_s"] / (runs_v * vrow["calls"] / 2)
                           * 1e6) if vrow else 0.0,
        "sim.decisions": counts["world"][1],
        "sim.schedules_per_s": counts["world"][0] * n
        / _sum(plain["passes"], "world_s"),
    }
    return {
        "attempted": plain["ops"] + (measured["ops"] if traced else 0),
        "failed": 0,
        "setup_s": setups.median(), "rss_mb": peak_rss_mb(),
        "plain": plain, "measured": measured, "yard": yard,
        "elasticity": ELASTICITY,
        "trace_overhead": measured["ops_per_s"] / plain["ops_per_s"],
        "layer_extra": extra,
        "samples": {"setup_s": SETUPS, "latency_p50_us": sum(len(p["lat"])
                                          for p in plain["passes"]),
                    "latency_p99_us": sum(len(p["lat"])
                                          for p in plain["passes"]),
                    "check_s": n, "ops_per_s": plain["ops"]},
        "params": {"bridge": "3 cars", "buffer": "2p/1c capacity 2",
                   "sim": "chaos", "sim_seed": seed,
                   "sim_max_runs": SIM_MAX_RUNS, "sim_budget": SIM_BUDGET,
                   "counts": counts, "passes": n},
    }


def e2e(res: dict[str, Any]) -> dict[str, tuple[float, str]]:
    m = res["plain"]
    passes = m["passes"]
    ops_per_s = m["ops_per_s"]
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        # per pass, whose mix of bridge, buffer and sim schedules is
        # always the same (a one-second segment cuts passes anywhere);
        # the median pass, not the best: this tail is the program's own
        # (a full garbage collection every pass or so)
        "latency_p50_us": (median(percentile(sorted(p["lat"]), 50)
                                  for p in passes), "us"),
        "latency_p99_us": (median(percentile(sorted(p["lat"]), 99)
                                  for p in passes), "us"),
        "cpu_us_per_op": (median(p["cpu_s"] / p["runs"] * 1e6
                                 for p in passes), "us"),
        "check_s": (median(p["pass_s"] for p in passes), "s"),
        # no runtime cell runs here: those metrics repeat this
        # workload's own rate (see README)
        "threads_ops_per_s": (ops_per_s, "1/s"),
        "actors_ops_per_s": (ops_per_s, "1/s"),
        "coroutines_ops_per_s": (ops_per_s, "1/s"),
    }
