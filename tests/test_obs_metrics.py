"""The metrics registry: units, determinism across runtimes,
non-interference."""

from fnmatch import fnmatchcase

import pytest

from repro.actors import Actor, SimActorSystem
from repro.core import RandomPolicy, Scheduler
from repro.coroutines import CoChannel, CoScheduler
from repro.obs import FakeClock, Histogram, Metrics
from repro.obs.metrics import METRIC_NAMES
from repro.problems import kernel_program
from repro.problems.bounded_buffer import buffer_program


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.snapshot() == {"count": 0, "total": 0, "min": None,
                                "max": None, "mean": 0.0,
                                "p50": None, "p95": None, "p99": None}

    def test_record(self):
        h = Histogram()
        for v in (3, 1, 8):
            h.record(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 1
        assert snap["max"] == 8
        assert snap["mean"] == pytest.approx(4.0)
        assert snap["p50"] == 3

    def test_percentiles_nearest_rank(self):
        h = Histogram()
        for v in range(1, 101):          # 1..100, recorded out of order
            h.record(101 - v)
        assert h.p50 == 50
        assert h.p95 == 95
        assert h.p99 == 99
        assert h.percentile(100) == 100
        assert h.percentile(1) == 1

    def test_percentiles_interleave_with_records(self):
        h = Histogram()
        h.record(10)
        assert h.p50 == 10               # sorted-cache then invalidated
        h.record(2)
        h.record(4)
        assert h.p50 == 4
        assert h.p99 == 10

    def test_percentile_rejects_out_of_range(self):
        h = Histogram()
        h.record(1)
        with pytest.raises(ValueError):
            h.percentile(0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_merge_equals_union_series(self):
        """a.merge(b) must answer every percentile exactly as if the
        union had been recorded into one histogram — the property the
        telemetry aggregator's sliding-window buckets rest on."""
        left = Histogram.of([5, 1, 9])
        right = Histogram.of([2, 8, 100, 3])
        union = Histogram.of([5, 1, 9, 2, 8, 100, 3])
        merged = left.merge(right)
        assert merged is left                    # in place, chainable
        assert merged.count == union.count
        assert merged.total == union.total
        assert merged.min == union.min and merged.max == union.max
        for p in (1, 25, 50, 75, 95, 99, 100):
            assert merged.percentile(p) == union.percentile(p)
        # other side untouched
        assert right.count == 4 and right.percentile(50) == 3

    def test_merge_empty_cases(self):
        h = Histogram.of([1, 2])
        h.merge(Histogram())                     # no-op
        assert h.count == 2 and h.min == 1
        empty = Histogram()
        empty.merge(Histogram.of([7]))
        assert (empty.count, empty.min, empty.max) == (1, 7, 7)

    def test_merge_after_percentile_queries(self):
        """Percentile queries sort a cached copy; merging afterwards
        must still extend the raw insertion-order series."""
        h = Histogram.of([3, 1])
        assert h.p50 == 1
        h.merge(Histogram.of([2]))
        assert h.p50 == 2
        assert h.samples_since(0) == [3, 1, 2]   # insertion order kept

    def test_samples_since_is_the_delta_cursor(self):
        h = Histogram()
        for v in (4, 6, 5):
            h.record(v)
        seen = h.count
        assert h.samples_since(0) == [4, 6, 5]
        h.record(9)
        h.record(7)
        assert h.samples_since(seen) == [9, 7]
        assert h.samples_since(h.count) == []


class TestKernelMetrics:
    def test_counters_and_gauges(self):
        m = Metrics()
        m.inc("steps")
        m.inc("steps", 2)
        m.gauge_max("depth", 3)
        m.gauge_max("depth", 1)   # monotone: must not shrink
        m.observe("wait", 5)
        m.task_add("t", "steps", 1)
        assert m.get("steps") == 3
        assert m.get("missing") == 0
        snap = m.snapshot()
        assert snap["counters"]["steps"] == 3
        assert snap["gauges"]["depth"] == 3
        assert snap["histograms"]["wait"]["count"] == 1
        assert snap["per_task"]["t"]["steps"] == 1

    def test_format_lists_everything(self):
        m = Metrics()
        m.inc("steps", 7)
        m.observe("lock_wait_ticks", 2)
        m.task_add("worker", "steps", 7)
        text = m.format()
        assert "steps" in text
        assert "lock_wait_ticks" in text
        assert "worker" in text


def _kernel_snapshot(seed):
    """Bounded buffer (monitor/threads model) on the kernel, instrumented."""
    metrics = Metrics()
    sched = Scheduler(RandomPolicy(seed), raise_on_deadlock=False,
                      raise_on_failure=False, metrics=metrics)
    buffer_program()(sched)
    trace = sched.run()
    return trace, metrics.snapshot()


def _actor_snapshot(seed):
    """Actor runtime on the kernel: messages + per-actor stats."""
    class Echo(Actor):
        def receive(self, message, sender):
            pass

    metrics = Metrics()
    sched = Scheduler(RandomPolicy(seed), raise_on_deadlock=False,
                      raise_on_failure=False, metrics=metrics)
    system = SimActorSystem(sched)
    ref = system.spawn(Echo, name="echo")

    def driver():
        for i in range(3):
            yield from system.tell_gen(ref, i)
    sched.spawn(driver, name="driver")
    sched.run()
    return system.stats(), metrics.snapshot()


def _coroutine_snapshot():
    """Cooperative runtime: channel producer/consumer, instrumented."""
    metrics = Metrics(clock=FakeClock())
    sched = CoScheduler(profiler=metrics)
    chan = CoChannel(capacity=1, name="chan")
    out = []

    def producer():
        for i in range(3):
            yield from chan.put(i)

    def consumer():
        for _ in range(3):
            out.append((yield from chan.get()))

    sched.spawn(producer)
    sched.spawn(consumer)
    sched.run()
    return out, metrics.snapshot()


class TestDeterminism:
    """Same seed ⇒ identical metric snapshots: the kernel writes logical
    ticks, and the coroutine run reads time through a FakeClock."""

    def test_kernel_runtime_deterministic(self):
        (trace_a, snap_a) = _kernel_snapshot(seed=11)
        (trace_b, snap_b) = _kernel_snapshot(seed=11)
        assert trace_a.schedule() == trace_b.schedule()
        assert snap_a == snap_b
        assert snap_a["counters"]["steps"] == len(trace_a.events)

    def test_actor_runtime_deterministic(self):
        stats_a, snap_a = _actor_snapshot(seed=5)
        stats_b, snap_b = _actor_snapshot(seed=5)
        assert stats_a == stats_b
        assert snap_a == snap_b
        assert snap_a["counters"]["messages_sent"] == 3
        assert stats_a["echo"]["processed"] == 3

    def test_coroutine_runtime_deterministic(self):
        out_a, snap_a = _coroutine_snapshot()
        out_b, snap_b = _coroutine_snapshot()
        assert out_a == out_b == [0, 1, 2]
        assert snap_a == snap_b
        assert snap_a["counters"]["coro.parks"] >= 1

    def test_different_seeds_still_internally_consistent(self):
        _, snap = _kernel_snapshot(seed=3)
        c = snap["counters"]
        assert c["lock_acquires"] == c["lock.buffer.acquires"]
        assert c["tasks_spawned"] == c["tasks_finished"]


class TestNonInterference:
    """Attaching metrics must not change what the scheduler does."""

    @pytest.mark.parametrize("name", ["bounded_buffer", "pingpong",
                                      "bridge_2car"])
    def test_schedule_unchanged_by_metrics(self, name):
        def run(metrics):
            sched = Scheduler(RandomPolicy(42), raise_on_deadlock=False,
                              raise_on_failure=False, metrics=metrics)
            kernel_program(name)(sched)
            return sched.run()

        bare = run(None)
        instrumented = run(Metrics())
        assert bare.schedule() == instrumented.schedule()
        assert bare.outcome == instrumented.outcome
        assert bare.output == instrumented.output

    def test_message_latency_recorded(self):
        metrics = Metrics()
        sched = Scheduler(RandomPolicy(1), raise_on_deadlock=False,
                          raise_on_failure=False, metrics=metrics)
        kernel_program("pingpong")(sched)
        sched.run()
        snap = metrics.snapshot()
        assert snap["counters"]["messages_sent"] == 4
        assert snap["counters"]["messages_delivered"] == 4
        assert snap["histograms"]["message_latency_ticks"]["count"] == 4


def _unlisted(snap):
    """Snapshot keys no entry (or pattern) of METRIC_NAMES covers."""
    names = [*snap["counters"], *snap["gauges"], *snap["histograms"]]
    return [n for n in names
            if not any(fnmatchcase(n, pat) for pat in METRIC_NAMES)]


class TestNameTable:
    """METRIC_NAMES lists every name the instrumented code emits."""

    @pytest.mark.parametrize("runtime", ["threads", "actors", "coroutines"])
    def test_bridge_runtimes(self, runtime):
        from repro.problems import single_lane_bridge as bridge
        run = getattr(bridge, {"threads": "run_threads_bridge",
                               "actors": "run_actor_bridge",
                               "coroutines": "run_coroutine_bridge"}[runtime])
        metrics = Metrics()
        run(crossings=2, profiler=metrics)
        snap = metrics.snapshot()
        assert snap["counters"]
        assert _unlisted(snap) == []

    def test_kernel_bounded_buffer(self):
        _, snap = _kernel_snapshot(seed=11)
        assert "lock.buffer.acquires" in snap["counters"]   # a pattern hit
        assert _unlisted(snap) == []

    def test_two_node_loopback_pingpong(self):
        import threading

        from repro.cluster import ClusterNode, LoopbackHub
        from repro.cluster.demo import Echo, Pinger

        hub = LoopbackHub()
        a, b = Metrics(), Metrics()
        driver = ClusterNode("driver", hub.join("driver"), workers=2,
                             profiler=a)
        worker = ClusterNode("worker", hub.join("worker"), workers=2,
                             profiler=b)
        try:
            driver.connect("worker")
            worker.connect("driver")
            worker.spawn(Echo, name="echo")
            done = threading.Event()
            pinger = driver.spawn(Pinger, driver.ref("worker/echo"), 4,
                                  done, name="pinger")
            pinger.tell(("start", 50))
            assert done.wait(30)
        finally:
            driver.close()
            worker.close()
        for snap in (a.snapshot(), b.snapshot()):
            assert snap["counters"]["cluster.delivered"] > 0
            assert _unlisted(snap) == []
