"""Set-up time of the in-process workloads: a cold interpreter that
imports the workload's layers and builds its inputs.

A :class:`ColdStarts` runs ``python3 perfbench/coldstart.py <workload>``
:data:`~perfbench.common.SETUPS` times, spread evenly over the run's
timed window (between passes, outside their timings), and reports the
median seconds from launch until the child reports ``READY``.  Spread
out, the launches sample the host as the rest of the run does, instead
of one moment of it.  Work moved into import time or input
construction shows up here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter
from typing import Iterator, Optional

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench.common import ROOT, SETUPS, BenchError, median  # noqa: E402


class ColdStarts:
    """The set-ups of one run, launched as its timed window passes."""

    def __init__(self, workload: str):
        self.workload = workload
        self.times: list[float] = []

    def due(self, done: float) -> bool:
        """Whether a launch is due once ``done`` (0 to 1) of the window
        has passed."""
        return len(self.times) < SETUPS and done >= len(self.times) / SETUPS

    def launch(self) -> None:
        t0 = perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "coldstart.py"),
             self.workload], cwd=ROOT, capture_output=True, text=True,
            timeout=120)
        self.times.append(perf_counter() - t0)
        if out.returncode != 0 or out.stdout.strip() != "READY":
            raise BenchError(f"cold start of {self.workload} failed: "
                             f"{out.stderr.strip()[-400:]}")

    def median(self) -> float:
        """The median set-up time, after launching any still due."""
        while len(self.times) < SETUPS:
            self.launch()
        return median(self.times)


def timed_window(seconds: float,
                 setups: Optional[ColdStarts]) -> Iterator[float]:
    """Yield the start of each pass, in seconds into the window, until
    ``seconds`` have gone.  Set-ups due are launched between passes and
    their time is left out of the window."""
    t0 = perf_counter()
    paused = 0.0
    while True:
        now = perf_counter() - t0 - paused
        if now >= seconds:
            return
        if setups is not None and setups.due(now / seconds):
            s = perf_counter()
            setups.launch()
            paused += perf_counter() - s
        else:
            yield now


def _build(workload: str) -> None:
    from perfbench.common import ensure_src, nproc
    ensure_src()
    if workload == "runtime-matrix":
        from perfbench.layers import PROBLEMS, RUNTIMES
        from perfbench.matrix import OPS, make_cell
        values = list(range(OPS * nproc()))
        for p in PROBLEMS:
            for r in RUNTIMES:
                make_cell(p, r, nproc(), values)
    elif workload == "model-check":
        from perfbench.modelcheck import programs
        programs(0)
    else:
        raise BenchError(f"no cold start for {workload!r}")


if __name__ == "__main__":
    _build(sys.argv[1])
    print("READY")
