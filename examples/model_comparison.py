#!/usr/bin/env python
"""Compare the three programming models on the same problems —
the course's "costs and benefits" exercise (§I: students "investigate
the efficiency of these implementations" and assess ease of
programming).

Three comparisons:
  1. correctness under stress (all models solve each problem, audited);
  2. throughput on a producer/consumer workload (GIL caveat printed);
  3. structural effort metrics of the implementations themselves.

Run:  python examples/model_comparison.py
"""

import time
from statistics import median

from repro.problems import bounded_buffer, sleeping_barber
from repro.study import problem_effort


def correctness_sweep() -> None:
    print("== 1. every model solves every problem (audited) ==")
    jobs = [
        ("bounded buffer", [
            ("threads", lambda: bounded_buffer.run_threads_buffer()),
            ("actors", lambda: bounded_buffer.run_actor_buffer()),
            ("coroutines", lambda: bounded_buffer.run_coroutine_buffer())]),
        ("sleeping barber", [
            ("threads", lambda: sleeping_barber.run_threads_barber()),
            ("actors", lambda: sleeping_barber.run_actor_barber()),
            ("coroutines", lambda: sleeping_barber.run_coroutine_barber())]),
    ]
    for problem, runners in jobs:
        line = ", ".join(f"{name} ok" for name, run in runners
                         if run() is not None)
        print(f"  {problem}: {line}")


def throughput() -> None:
    print("\n== 2. producer/consumer throughput ==")
    print("  (CPython GIL: threads show blocking structure, not "
          "parallel speedup — see EXPERIMENTS.md)")
    # `python3 perfbench/run.py` times all six problems on every runtime
    lanes, items_each = 2, 1000
    for runtime, run in (("threads", bounded_buffer.run_threads_buffer),
                         ("actors", bounded_buffer.run_actor_buffer),
                         ("coroutines", bounded_buffer.run_coroutine_buffer)):
        walls = []
        for rep in range(4):                  # the first one warms up
            t0 = time.perf_counter()
            run(capacity=4, producers=lanes, consumers=lanes,
                items_each=items_each)
            if rep:
                walls.append(time.perf_counter() - t0)
        wall = median(walls)
        print(f"  {runtime:<12} {lanes * items_each / wall:>12,.0f} items/s"
              f"   median run {wall * 1000:.2f} ms")


def effort() -> None:
    print("\n== 3. implementation effort (Test-2 cost/benefit) ==")
    for problem in ("bridge", "barber", "buffer"):
        print(f"  {problem}:")
        for metrics in problem_effort(problem):
            print(f"    {metrics.describe()}")


if __name__ == "__main__":
    correctness_sweep()
    throughput()
    effort()
