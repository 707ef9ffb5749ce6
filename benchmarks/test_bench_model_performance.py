"""Model performance — the course's "investigate the efficiency of
these implementations" exercise (§I), run on our three runtimes.

GIL caveat (DESIGN.md §6, banded in the reproduction prompt): CPython
serializes bytecode, so the *threads* rows measure synchronization and
scheduling overhead, not parallel speedup — which is exactly what the
comparison below exposes: cooperative coroutines beat threads and
actors on pure coordination workloads because they pay no kernel
context switches or lock contention.
"""

import time
from statistics import median

import pytest

from repro.problems import bounded_buffer
from repro.problems.thread_pool_arith import fib, run_arith_lab

ITEMS = 400

#: perfbench's ``runtime-matrix`` cell size: operations per participant,
#: and participants (one per CPU of the 2-core reference host)
CELL_OPS, CELL_WORKERS = 500, 2


def test_buffer_throughput_threads(benchmark):
    result = benchmark(lambda: bounded_buffer.run_threads_buffer(
        capacity=32, producers=2, consumers=2, items_each=ITEMS // 2))
    assert len(result) == ITEMS


def test_buffer_throughput_actors(benchmark):
    result = benchmark(lambda: bounded_buffer.run_actor_buffer(
        capacity=32, producers=2, consumers=2, items_each=ITEMS // 2))
    assert len(result) == ITEMS


def test_buffer_throughput_coroutines(benchmark):
    result = benchmark(lambda: bounded_buffer.run_coroutine_buffer(
        capacity=32, producers=2, consumers=2, items_each=ITEMS // 2))
    assert len(result) == ITEMS


def test_buffer_throughput_asyncio(benchmark):
    """The same cooperative tasks on asyncio's production event loop."""
    import asyncio

    from repro.coroutines import CoChannel, gather_generators

    def run():
        chan = CoChannel(capacity=32)
        out = []

        def producer(pid):
            for k in range(ITEMS // 2):
                yield from chan.put((pid, k))

        def consumer():
            for _ in range(ITEMS // 2):
                out.append((yield from chan.get()))
        asyncio.run(gather_generators(
            lambda: producer(0), lambda: producer(1),
            consumer, consumer))
        return out

    assert len(benchmark(run)) == ITEMS


@pytest.mark.parametrize("workers", [1, 4], ids=["pool1", "pool4"])
def test_cpu_bound_pool_scaling(benchmark, workers):
    """The week-1 arithmetic lab: under the GIL, adding workers to a
    CPU-bound pure-Python pool does NOT speed it up — the number the
    course has students explain."""
    from repro.threads import ThreadPool

    def run():
        with ThreadPool(workers) as pool:
            futures = [pool.submit(fib, 1500) for _ in range(16)]
            return sum(f.result() % 997 for f in futures)
    assert benchmark(run) >= 0


def test_arith_lab_gil_shape(benchmark):
    """4 workers must NOT be dramatically faster than 1 on CPU-bound
    work (allowing generous noise); checksum identical."""
    rows = benchmark(lambda: run_arith_lab(tasks=16, workload=1200,
                                           pool_sizes=(1, 4)))
    t1 = next(r for r in rows if r["workers"] == 1)
    t4 = next(r for r in rows if r["workers"] == 4)
    assert t4["checksum"] == t1["checksum"]
    assert t4["elapsed_s"] > t1["elapsed_s"] * 0.4   # no real speedup


def test_pingpong_latency_actors_vs_coroutines(benchmark):
    """Message round-trip cost, cooperative scheduler."""
    from repro.coroutines import CoChannel, CoScheduler

    def run():
        ping, pong = CoChannel(1), CoChannel(1)

        def player_a():
            for i in range(200):
                yield from ping.put(i)
                yield from pong.get()

        def player_b():
            for _ in range(200):
                value = yield from ping.get()
                yield from pong.put(value)
        sched = CoScheduler()
        sched.spawn(player_a)
        sched.spawn(player_b)
        sched.run()
        return sched.steps
    assert benchmark(run) > 400


def test_bench_actors_within_3x_of_coroutines():
    """The actor dispatcher's acceptance bar: preemptive actors pay
    real threads, locks, and cross-thread handoffs that cooperative
    coroutines don't, but the hot path (lock-free enqueue, batched
    drains, one shared C queue, a worker's run-next slot) must keep
    that tax under 3× on the message-passing cells.

    Each problem runs at perfbench's cell size with no profiler; the two
    runtimes alternate, and the gate reads the median of seven
    coroutine/actor throughput ratios (one per pair of runs)."""
    from repro.problems import pingpong, sum_workers

    ops = CELL_OPS * CELL_WORKERS
    values = list(range(ops))
    cells = {
        "pingpong": (
            lambda: pingpong.run_actor_pingpong(rounds=ops),
            lambda: pingpong.run_coroutine_pingpong(rounds=ops)),
        "sum_workers": (
            lambda: sum_workers.run_actor_sum(values=values,
                                              workers=CELL_WORKERS),
            lambda: sum_workers.run_coroutine_sum(values=values,
                                                  workers=CELL_WORKERS)),
    }

    def wall(run):
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0

    for problem, (actors, coroutines) in cells.items():
        actors()                                 # warm both runtimes
        coroutines()
        # equal work per run, so the wall ratio is the throughput ratio
        ratio = median(wall(actors) / wall(coroutines) for _ in range(7))
        assert ratio <= 3, (
            f"{problem}: coroutines out-run actors {ratio:.2f}x (bound 3x)")
