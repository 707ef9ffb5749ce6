"""Runtime profiler tests — FakeClock, Profiler, and the opt-in hooks
inside the real runtimes (threads / actors / coroutines).

The contract under test is the one the kernel's ``metrics=`` pattern
established: profiling is strictly opt-in, a runtime created without a
profiler executes the exact same instruction sequence with a single
``is None`` test per hot-path operation — asserted here down to the
allocation level — and with one attached, each runtime reports its own
internal signals (lock waits, mailbox latency, resume latency).
"""

import sys
import threading
import tracemalloc

import pytest

from repro.obs import FakeClock, Profiler, wall_clock
from repro.obs.profile import METRIC_NAMES


# ---------------------------------------------------------------------------
# FakeClock — the one time seam
# ---------------------------------------------------------------------------

def test_fake_clock_advances_fixed_step():
    clock = FakeClock(step=0.5, start=10.0)
    assert clock() == 10.0
    assert clock() == 10.5
    assert clock() == 11.0
    assert clock.calls == 3


def test_wall_clock_is_monotonic_seam():
    t0 = wall_clock()
    t1 = wall_clock()
    assert t1 >= t0


# ---------------------------------------------------------------------------
# Profiler core
# ---------------------------------------------------------------------------

def test_counters_gauges_histograms():
    prof = Profiler(clock=FakeClock())
    prof.inc("lock.acquires")
    prof.inc("lock.acquires", 2)
    prof.gauge_max("mailbox.depth_max", 3)
    prof.gauge_max("mailbox.depth_max", 1)    # lower: no change
    prof.observe("mailbox.depth", 2.0)
    snap = prof.snapshot()
    assert snap["counters"] == {"lock.acquires": 3}
    assert snap["gauges"] == {"mailbox.depth_max": 3}
    assert snap["histograms"]["mailbox.depth"]["count"] == 1
    assert snap["histograms"]["mailbox.depth"]["p50"] == 2.0


def test_observe_us_converts_seconds_to_microseconds():
    prof = Profiler(clock=FakeClock())
    prof.observe_us("lock.wait_us", 0.002)
    assert prof.histograms["lock.wait_us"].max == pytest.approx(2000.0)


def test_timed_context_manager_uses_injected_clock():
    prof = Profiler(clock=FakeClock(step=0.25))
    with prof.timed("pool.task_us"):
        pass
    hist = prof.histograms["pool.task_us"]
    assert hist.count == 1
    assert hist.max == pytest.approx(250_000.0)   # 0.25 s in µs


def test_rate_is_counter_over_elapsed():
    prof = Profiler(clock=FakeClock(step=1.0))   # t0 stamped at init
    prof.inc("coro.resumes", 10)
    assert prof.rate("coro.resumes") == pytest.approx(10.0)  # 10 in 1 s


def test_format_mentions_every_recorded_metric():
    prof = Profiler(clock=FakeClock())
    prof.inc("thread.started")
    prof.observe_us("coro.resume_us", 0.001)
    text = prof.format()
    assert "thread.started" in text
    assert "coro.resume_us" in text


def test_thread_safety_under_concurrent_increments():
    prof = Profiler()
    n, per = 8, 2_000

    def work():
        for _ in range(per):
            prof.inc("pool.tasks")
            prof.observe("pool.task_us", 1.0)

    threads = [threading.Thread(target=work) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert prof.get("pool.tasks") == n * per
    assert prof.histograms["pool.task_us"].count == n * per


def test_snapshot_never_torn_by_concurrent_records():
    """Regression: readers take the same lock as writers, so a
    histogram's count/total pair is a consistent cut — a torn read
    (count bumped, total not yet) shows up as count != total when
    every sample is exactly 1.0."""
    prof = Profiler()
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            prof.inc("ops")
            prof.observe("lat", 1.0)

    writers = [threading.Thread(target=hammer) for _ in range(4)]
    for t in writers:
        t.start()
    try:
        for _ in range(300):
            snap = prof.snapshot()
            h = snap["histograms"].get("lat")
            if h is not None and h["count"]:
                assert h["count"] == h["total"], (h["count"], h["total"])
                assert h["min"] == h["max"] == 1.0
    finally:
        stop.set()
        for t in writers:
            t.join()


def test_delta_consistent_under_concurrent_records():
    """The telemetry cursor walk must stay exact while writers hammer:
    cumulative fields of each delta are a consistent cut, cursors are
    monotone, and the final drained delta accounts for every sample."""
    prof = Profiler()
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            prof.inc("ops")
            prof.observe("lat", 1.0)

    writers = [threading.Thread(target=hammer) for _ in range(4)]
    for t in writers:
        t.start()
    cursor = {}
    try:
        last_count = 0
        for _ in range(100):
            d = prof.delta(cursor, max_samples=1 << 30)
            lat = d["hists"].get("lat")
            if lat is None:
                continue
            assert lat["count"] == lat["total"]          # consistent cut
            # un-thinned samples: exactly the records since last time
            assert len(lat["samples"]) == lat["count"] - last_count
            assert lat["count"] >= last_count            # monotone cursor
            last_count = lat["count"]
    finally:
        stop.set()
        for t in writers:
            t.join()
    prof.delta(cursor, max_samples=1 << 30)
    assert cursor["hists"]["lat"] == prof.histograms["lat"].count
    assert cursor["counters"]["ops"] == prof.get("ops")
    assert prof.delta(cursor) == {"counters": {}, "gauges": {},
                                  "hists": {}}           # fully drained


def test_delta_downsamples_but_keeps_cumulative_exact():
    prof = Profiler()
    for i in range(1000):
        prof.observe("lat", float(i % 7))
    d = prof.delta({}, max_samples=64)
    lat = d["hists"]["lat"]
    assert len(lat["samples"]) == 64                     # thinned wire
    assert lat["count"] == 1000                          # totals exact
    assert lat["total"] == sum(float(i % 7) for i in range(1000))


def test_metric_name_registry_matches_convention():
    for name in ("lock.wait_us", "mailbox.latency_us", "coro.resume_us",
                 "thread.start_latency_us", "pool.task_us"):
        assert name in METRIC_NAMES


# ---------------------------------------------------------------------------
# runtime hooks: one spot check per runtime
# ---------------------------------------------------------------------------

def _wait_until_blocked_in(thread: threading.Thread, filename: str,
                           timeout: float = 5.0) -> bool:
    """Poll until ``thread``'s top frame is inside ``filename``."""
    deadline = wall_clock() + timeout
    while wall_clock() < deadline:
        frame = sys._current_frames().get(thread.ident)
        if frame is not None \
                and frame.f_code.co_filename.endswith(filename):
            return True
    return False


def test_monitor_reports_lock_contention():
    from repro.threads import Monitor

    prof = Profiler()
    m = Monitor("hot", profiler=prof)

    def contender():
        with m:
            pass

    # retry until one contender demonstrably blocked on the held lock
    # (the blocked-frame probe has a tiny pre-probe window)
    deadline = wall_clock() + 10
    while prof.get("lock.contended") == 0 and wall_clock() < deadline:
        with m:
            t = threading.Thread(target=contender)
            t.start()
            _wait_until_blocked_in(t, "sync.py")
        t.join(timeout=5)
    snap = prof.snapshot()
    assert snap["counters"]["lock.contended"] >= 1
    assert snap["counters"]["lock.acquires"] >= 1
    assert snap["histograms"]["lock.wait_us"]["count"] >= 1


def test_monitor_reports_wait_and_notify():
    from repro.threads import Monitor

    prof = Profiler()
    m = Monitor("cond", profiler=prof)
    state = {"go": False}
    parked = threading.Event()

    def waiter():
        with m:
            parked.set()
            m.wait_until(lambda: state["go"])

    t = threading.Thread(target=waiter)
    t.start()
    assert parked.wait(timeout=5)
    with m:                                 # enterable only once parked
        state["go"] = True
        m.notify_all()
    t.join(timeout=5)
    snap = prof.snapshot()
    assert snap["counters"]["monitor.waits"] >= 1
    assert snap["counters"]["monitor.wakeups"] >= 1
    assert snap["counters"]["monitor.notifies"] >= 1
    assert snap["histograms"]["monitor.wait_us"]["count"] >= 1


def test_jthread_reports_lifecycle_and_start_latency():
    from repro.threads import JThread

    prof = Profiler()
    t = JThread(target=lambda: None, name="probe", profiler=prof)
    t.start()
    t.join(timeout=5)
    snap = prof.snapshot()
    assert snap["counters"]["thread.started"] == 1
    assert snap["counters"]["thread.finished"] == 1
    assert snap["histograms"]["thread.start_latency_us"]["count"] == 1


def test_actor_system_reports_mailbox_latency():
    from repro.problems.pingpong import run_actor_pingpong

    prof = Profiler()
    assert run_actor_pingpong(rounds=20, profiler=prof) == 20
    snap = prof.snapshot()
    assert snap["counters"]["mailbox.enqueued"] >= 40   # pings + pongs
    assert snap["counters"]["mailbox.processed"] == \
        snap["counters"]["mailbox.enqueued"]
    assert snap["histograms"]["mailbox.latency_us"]["count"] >= 40
    assert snap["gauges"]["mailbox.depth_max"] >= 1


def test_coroutine_scheduler_reports_resume_latency():
    from repro.problems.pingpong import run_coroutine_pingpong

    prof = Profiler()
    assert run_coroutine_pingpong(rounds=20, profiler=prof) == 20
    snap = prof.snapshot()
    assert snap["counters"]["coro.resumes"] > 40
    assert snap["histograms"]["coro.resume_us"]["count"] == \
        snap["counters"]["coro.resumes"]
    assert snap["histograms"]["coro.ready_wait_us"]["count"] == \
        snap["counters"]["coro.resumes"]


# ---------------------------------------------------------------------------
# the overhead contract: disabled profiling allocates nothing
# ---------------------------------------------------------------------------

def test_disabled_profiling_adds_zero_allocations_on_monitor_hot_path():
    """With ``profiler=None`` the Monitor enter/exit hot path performs
    zero Python-level allocations — the opt-in costs one ``is None``
    test, not an object."""
    from repro.threads import Monitor

    m = Monitor("hot")
    for _ in range(50):                     # warm any lazy caches
        with m:
            pass
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    for _ in range(500):
        with m:
            pass
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    # a per-operation allocation would show up ~500 times; tolerate
    # one-off cache fills (count +1, a few bytes) that don't scale
    grew = [s for s in after.compare_to(before, "filename")
            if s.size_diff > 0 and s.count_diff >= 10
            and ("repro/threads" in s.traceback[0].filename
                 or "repro/obs" in s.traceback[0].filename)]
    assert not grew, [str(s) for s in grew]


def test_disabled_profiling_is_the_default_everywhere():
    from repro.actors.system import ActorSystem
    from repro.coroutines.scheduler import CoScheduler
    from repro.threads.jthread import JThread
    from repro.threads.sync import Monitor

    assert Monitor("m").profiler is None
    assert JThread(target=lambda: None).profiler is None
    assert CoScheduler().profiler is None
    system = ActorSystem(workers=1)
    try:
        assert system.profiler is None
    finally:
        system.shutdown()
