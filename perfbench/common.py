"""Shared helpers: locating the source tree, statistics, provenance."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Any, Iterable, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: length of one timed segment: a run's figures are medians over its
#: segments, so a short stall of the host moves them less
SEGMENT_S = 1.0
#: set-ups per run; ``setup_s`` is their median
SETUPS = 9


class BenchError(RuntimeError):
    """A failed output check or a broken run: no result is printed."""


def ensure_src() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and make sure
    ``repro`` is imported from it, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise BenchError(f"repro imported from {where}, not {SRC}")


#: ``personality(2)`` flag: no address-space layout randomisation
ADDR_NO_RANDOMIZE = 0x0040000


def _personality(flags: Optional[int] = None) -> int:
    """Read this process's personality, or set it to ``flags``."""
    libc = ctypes.CDLL(None)
    return libc.personality(0xFFFFFFFF if flags is None else flags)


def fix_layout() -> None:
    """Turn off address-space randomisation for the programs this
    process execs from now on, and their children.  Where the kernel
    refuses, they stay randomised (the provenance says which)."""
    _personality(_personality() | ADDR_NO_RANDOMIZE)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise BenchError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def segment_percentiles(passes: Sequence[dict[str, Any]],
                        q: float) -> list[float]:
    """Per one-second segment, the ``q``-th percentile of the ``lat``
    samples of the passes that started in it."""
    groups: dict[int, list[float]] = {}
    for p in passes:
        groups.setdefault(int(p["start"] // SEGMENT_S), []).extend(p["lat"])
    return [percentile(sorted(g), q) for g in groups.values()]


def geomean(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals or min(vals) <= 0:
        raise BenchError(f"geometric mean needs positive values: {vals}")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


#: iterations of the reference loop in one :class:`Yardstick` sample
YARD_ITERS = 4000
#: the reference loop's nominal time per sample: every reported time is
#: rescaled to a host on which one sample takes exactly this long
YARD_NOMINAL_S = 0.5e-3
#: how strongly a cold start's time follows the host (see
#: :meth:`Yardstick.rescale`)
SETUP_ELASTICITY = 0.5


def _yard_loop(n: int) -> int:
    # plain interpreter work that allocates nothing the garbage
    # collector tracks, so the heap a workload leaves behind cannot
    # slow it
    d: dict[int, int] = {}
    acc = 0
    for i in range(n):
        k = i & 255
        d[k] = d.get(k, 0) + 1
        acc += abs(i ^ (i >> 3))
    return acc


class Yardstick:
    """The host's current speed, measured next to the workload.

    The shared host ran a fixed pure-Python loop at speeds up to 2.4x
    apart in spells lasting seconds to minutes, and every figure
    followed it.  A workload calls :meth:`sample` between its units of
    work (cells, schedules, explorations), outside their timings, so the
    samples spread over the whole run and see the same spells as the
    work.  :meth:`factor` is then how much slower than nominal the host
    ran, and :meth:`rescale` turns a run's figures into what they would
    read on a host of nominal speed.  A change to the program moves the
    work but not the loop, so it still shows in full."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self) -> tuple[float, float]:
        """Time the reference loop once; returns the wall and CPU
        seconds it took, for callers that keep it out of their own
        timings."""
        c0 = time.thread_time()
        t0 = time.perf_counter()
        _yard_loop(YARD_ITERS)
        wall = time.perf_counter() - t0
        cpu = time.thread_time() - c0
        self.wall.append(wall)
        self.cpu.append(cpu)
        return wall, cpu

    def factor(self, cpu: bool = False) -> float:
        """Median sample time over nominal, in wall or CPU time."""
        return median(self.cpu if cpu else self.wall) / YARD_NOMINAL_S

    def rescale(self, metrics: dict[str, tuple[float, str]],
                elasticity: float) -> dict[str, tuple[float, str]]:
        """``metrics`` as on a host of nominal speed.

        A workload's times follow the loop's only in part: the loop
        runs from the first-level cache, the workload also waits on
        memory, which a slow spell slows less.  Its times grow as the
        factor to the power ``elasticity`` (:data:`SETUP_ELASTICITY`
        for ``setup_s``), fitted on runs across spells.  Times (``s``,
        ``us``) are divided by that power of the wall factor,
        ``cpu_us_per_op`` by that of the CPU factor, rates (``1/s``)
        multiplied by it; counts, ratios and sizes stay as they are."""
        out = {}
        for name, (value, unit) in metrics.items():
            f = self.factor(cpu=name == "cpu_us_per_op") ** (
                SETUP_ELASTICITY if name == "setup_s" else elasticity)
            if unit in ("s", "us"):
                value /= f
            elif unit == "1/s":
                value *= f
            out[name] = (value, unit)
        return out


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_s() -> float:
    """User plus system CPU time of this process, all threads."""
    return time.process_time()


def _commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    # a checkout nested inside some other repository is not that commit
    if out.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and content — identifies
    the measured code where the checkout is not a git repository."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance(workload: str, seed: int, trace: bool, seconds: float,
               params: dict[str, Any], crossed_tcp: bool,
               cpus: int) -> dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "seconds": seconds,
        "params": params,
        "crossed_tcp": crossed_tcp,
        "nproc": cpus,
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "address_randomisation": not _personality() & ADDR_NO_RANDOMIZE,
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": _commit(),
        "source_sha256": source_digest(),
    }
