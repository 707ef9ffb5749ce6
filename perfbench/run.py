"""The repository's benchmark: one workload per run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload model-check --seed 1 --seconds 20

``--trace 0`` measures with nothing patched and reports the end-to-end
metrics.  ``--trace 1`` measures an untraced half and a traced half of
the same length, and reports the per-layer ledger (see
``perfbench/ledger.py``) plus ``trace.overhead``.  On the in-process
workloads, times and rates are rescaled to a host of nominal speed
(``perfbench.common.Yardstick``); the figures as measured are in the
provenance.  Every run checks the program's outputs; a failed check
prints no result and exits 1.  The last line of standard output is the
JSON result; a copy with the run's provenance is written under
``perfbench/out/``.  See ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench.common import (ROOT, SETUP_ELASTICITY,  # noqa: E402
                              BenchError, ensure_src, fix_layout, nproc,
                              provenance)

WORKLOADS = ("cluster-tell", "cluster-rtt", "runtime-matrix",
             "model-check")


def measure(workload: str, seed: int, seconds: float, traced: bool
            ) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload; returns (result line, provenance record)."""
    from perfbench import cluster, layers, matrix, modelcheck

    workers = nproc()
    if workload in cluster.SHAPES:
        res = cluster.run(workload, seed, seconds, traced)
        e2e = cluster.e2e(res)
        tcp = True
    elif workload == "runtime-matrix":
        res = matrix.run(seed, seconds, traced, workers)
        e2e = matrix.e2e(res)
        tcp = False
    else:
        res = modelcheck.run(seed, seconds, traced)
        e2e = modelcheck.e2e(res)
        tcp = False
    e2e["setup_s"] = (res["setup_s"], "s")
    e2e["peak_rss_mb"] = (res["rss_mb"], "MB")
    metrics = layers.metrics(res) if traced else e2e
    yard = res.get("yard")
    if yard is not None:
        raw, metrics = metrics, yard.rescale(metrics, res["elasticity"])
    line = {
        "correct": True,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    prov = provenance(workload, seed, traced, seconds, res["params"], tcp,
                      workers)
    prov["samples"] = res["samples"]
    if yard is not None:
        prov["host"] = {"elasticity": res["elasticity"],
                        "setup_elasticity": SETUP_ELASTICITY,
                        "wall_factor": yard.factor(),
                        "cpu_factor": yard.factor(cpu=True),
                        "samples": len(yard.wall),
                        "raw_metrics": {k: v for k, (v, _) in raw.items()}}
    return line, prov


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        ensure_src()
        line, prov = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except (BenchError, ImportError, AssertionError) as exc:
        traceback.print_exc()
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    samples = prov["samples"]
    for name, m in line["metrics"].items():
        n = samples.get(name)
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']:6s}"
              + (f" n={n}" if n is not None else ""))
    print("provenance " + json.dumps(prov, sort_keys=True))
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": prov, "result": line}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    # the interpreter's hash seed alone moved single-threaded throughput
    # by up to 20% from one process to the next (dict and set layout),
    # and a randomised address space sent some runs of one seed 15-25%
    # faster than the rest, so every run, and every process it starts,
    # uses the same hash seed and the same layout
    if os.environ.get("PYTHONHASHSEED") != "0":
        fix_layout()
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main(sys.argv[1:]))
