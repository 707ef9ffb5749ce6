"""Self-tests of the per-layer ledger.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import statistics
from time import perf_counter

import pytest

from perfbench import cluster, layers, matrix, modelcheck
from perfbench.common import ROOT
from perfbench.ledger import TARGETS, Ledger, blame

SLOWDOWN = 0.20
#: pairs of sham and slowed runs per slowdown test
REPS = 7
#: rounds of the slowdown tests' workload
MIXED_ROUNDS = 10
#: monitor acquire/notify/release triples after each explored schedule
#: of the buffer (93 schedules a round)
MONITOR_CALLS = 11


def _current() -> dict[str, object]:
    return {f"{t.module}:{t.owner}.{t.attr}":
            getattr(importlib.import_module(t.module), t.owner)
            .__dict__[t.attr] for t in TARGETS}


def test_install_wraps_every_target_and_uninstall_restores_it():
    before = _current()
    ledger = Ledger().install()
    try:
        during = _current()
        assert all(during[k] is not before[k] for k in before)
        assert all(during[k].__wrapped__ is before[k] for k in before)
    finally:
        ledger.uninstall()
    after = _current()
    assert all(after[k] is before[k] for k in before)


def test_a_timed_call_that_raises_keeps_its_exception():
    from repro.cluster.transport import MAX_FRAME, FrameDecoder
    ledger = Ledger().install()
    try:
        with pytest.raises(ValueError):
            FrameDecoder().push((MAX_FRAME + 1).to_bytes(4, "big"))
    finally:
        ledger.uninstall()
    assert ledger.snapshot()["transport.push"]["calls"] == 1


@pytest.mark.parametrize("workload", ["cluster-rtt", "runtime-matrix",
                                      "model-check"])
def test_untraced_runs_execute_the_original_functions(monkeypatch,
                                                      workload):
    def forbidden(self):
        raise AssertionError("ledger installed in an untraced run")

    monkeypatch.setattr(Ledger, "install", forbidden)
    asked: list[str] = []
    ask = cluster.Topology.ask

    def recording_ask(self, *op):
        asked.append(op[0])
        return ask(self, *op)

    monkeypatch.setattr(cluster.Topology, "ask", recording_ask)
    before = _current()
    if workload == "cluster-rtt":
        res = cluster.run(workload, 1, 0.5, False)
        assert "trace" not in asked      # the worker never installs
    elif workload == "runtime-matrix":
        res = matrix.run(1, 0.2, False, 2)
    else:
        res = modelcheck.run(1, 0.2, False)
    assert res["measured"]["snap"] is None
    assert _current() == before


def _spinning(fn, extra_s: float):
    """``fn`` behind a wrapper that spins for ``extra_s`` seconds per
    call before calling it.  With ``extra_s == 0`` it is the sham the
    slowed runs are compared with: both pay the wrapper's own cost, so
    the spin is the only difference between them."""
    def slow(*args, **kwargs):
        end = perf_counter() + extra_s
        while perf_counter() < end:
            pass
        return fn(*args, **kwargs)
    return slow


def _mixed() -> None:
    """Single-threaded work in eight layers: the kernel exploring the
    buffer; two simulated cluster nodes (serializer, transport,
    delivery, routing, actors, kernel); an uncontended monitor;
    coroutines.
    One thread keeps lock waits and handoffs out of the timings, and
    every round does a little of each, so every span samples the whole
    run and a slow spell of the host hits them all alike.  The monitor
    calls come a few after every schedule the kernel explores (about
    1,000 a round): in one block of their own, a spell of a few
    milliseconds could slow them alone."""
    from repro.problems.bounded_buffer import buffer_program
    from repro.problems.pingpong import run_coroutine_pingpong
    from repro.sim import explore_world, scenarios
    from repro.threads import Monitor
    from repro.verify import explore
    monitor = Monitor("loop")

    def monitor_calls(_stats) -> None:
        for _ in range(MONITOR_CALLS):
            monitor.acquire()
            monitor.notify_all()
            monitor.release()

    for i in range(MIXED_ROUNDS):
        assert explore(buffer_program(capacity=2, producers=2,
                                      consumers=1, items_each=1),
                       reduce="all", progress=monitor_calls,
                       progress_every=1).complete
        res = explore_world(scenarios.get("chaos").factory(i), budget=500,
                            max_runs=10)
        assert not res.hazards
        assert run_coroutine_pingpong(rounds=200) == 200


def _traced() -> dict:
    """The ledger of one run, with the garbage collector off: a full
    collection lands in whichever call happens to allocate, and would
    add milliseconds to one span of one run."""
    gc.collect()
    gc.disable()
    ledger = Ledger().install()
    try:
        _mixed()
    finally:
        ledger.uninstall()
        gc.enable()
    return ledger.snapshot()


def _mean_duration_s(owner, attr: str) -> float:
    """Mean duration of one call of ``owner.attr`` in an untraced run
    of :func:`_mixed`: the call as its caller sees it, children and
    all."""
    original = owner.__dict__[attr]
    total = [0.0, 0]

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            total[0] += perf_counter() - t0
            total[1] += 1
    setattr(owner, attr, timed)
    try:
        _mixed()
    finally:
        setattr(owner, attr, original)
    assert total[1], f"{attr} never ran"
    return total[0] / total[1]


def _self_us(row: dict) -> float:
    return row["self_s"] / row["calls"] * 1e6


@pytest.mark.parametrize("path,layer,span", [
    ("repro.cluster.message:PickleSerializer.encode", "cluster.message",
     "message.encode"),
    ("repro.cluster.delivery:DedupTable.fresh", "cluster.delivery",
     "delivery.dedup_fresh"),
    ("repro.core.scheduler:Scheduler.step", "core", "core.step"),
    ("repro.threads.sync:Monitor.acquire", "threads",
     "threads.monitor_acquire_call"),
])
def test_a_20_percent_slowdown_is_blamed_on_its_layer(path, layer, span):
    """Slowing a function by 20% means each call takes 20% of the
    function's mean untraced duration longer (inclusive: for
    ``Monitor.acquire``, the ``Monitor.__enter__`` it calls, never
    blocked here).  The added time lands in the function's own span,
    and the ledger must name that span and its layer among all the
    spans of a workload that runs eight layers."""
    module, qual = path.split(":")
    owner_name, attr = qual.rsplit(".", 1)
    owner = getattr(importlib.import_module(module), owner_name)
    original = owner.__dict__[attr]
    extra_s = SLOWDOWN * min(_mean_duration_s(owner, attr)
                             for _ in range(2))
    # pairs of sham and slowed runs made one after the other, so a
    # slow spell of the host lands on both sides of a pair
    pairs = []
    for _ in range(REPS):
        pair = []
        for spin in (0.0, extra_s):
            setattr(owner, attr, _spinning(original, spin))
            try:
                pair.append(_traced())
            finally:
                setattr(owner, attr, original)
        pairs.append(tuple(pair))
    named, blamed, growth = blame(pairs)
    assert (named, blamed) == (layer, span), growth
    # the ledger puts the spin in the span, and no multiple of it
    base_us = statistics.median(_self_us(b[span]) for b, _ in pairs)
    added_us = (growth - 1) * base_us
    assert 0 < added_us < 2 * extra_s * 1e6, (added_us, extra_s)


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert per_layer == list(layers.METRICS)
    assert {w["name"] for w in bench["workloads"]} == {
        "runtime-matrix", "model-check"}
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "ops_per_s", "latency_p50_us", "latency_p99_us",
        "cpu_us_per_op", "threads_ops_per_s", "actors_ops_per_s",
        "coroutines_ops_per_s", "check_s", "peak_rss_mb"}
