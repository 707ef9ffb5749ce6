#!/usr/bin/env python
"""Trace viewer tour — instrument a run, export it, read the numbers.

1. run a problem with kernel metrics attached and print the report;
2. export the trace as Chrome `trace_event` JSON (open the file in
   chrome://tracing or https://ui.perfetto.dev — task lanes, message
   flow arrows, mailbox depth counters);
3. stream the same run as JSONL and as the full vector-clocked listing;
4. explore the schedule space and read the reduction statistics.

Run:  python examples/trace_viewer.py [outdir]
"""

import json
import sys
from pathlib import Path

from repro.core import RandomPolicy, Scheduler
from repro.obs import Metrics
from repro.problems import kernel_program
from repro.verify import explore


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")

    # ------------------------------------------------------------------
    # 1. one instrumented run (message passing: ping/pong round trips)
    # ------------------------------------------------------------------
    print("== 1. kernel metrics ==")
    metrics = Metrics()
    sched = Scheduler(RandomPolicy(7), raise_on_deadlock=False,
                      metrics=metrics)
    kernel_program("pingpong", rounds=3)(sched)
    trace = sched.run()
    print(f"outcome: {trace.outcome}, output: {trace.output_str()!r}")
    print(metrics.format())

    # ------------------------------------------------------------------
    # 2. Chrome trace_event export (the visual artifact)
    # ------------------------------------------------------------------
    print("\n== 2. chrome trace ==")
    chrome_path = outdir / "pingpong_trace.json"
    chrome_path.write_text(json.dumps(trace.to_chrome_trace(),
                                      sort_keys=True))
    flows = sum(1 for e in trace.events if e.msg_seq is not None)
    print(f"wrote {chrome_path} — open it in chrome://tracing or "
          f"https://ui.perfetto.dev")
    print(f"({len(trace.events)} step slices, {flows} message flow arrows)")

    # ------------------------------------------------------------------
    # 3. the same run as text: JSONL stream + vector-clocked listing
    # ------------------------------------------------------------------
    print("\n== 3. jsonl + listing ==")
    jsonl_path = outdir / "pingpong_trace.jsonl"
    jsonl_path.write_text(trace.to_jsonl())
    print(f"wrote {jsonl_path}; first record:")
    print("  " + trace.to_jsonl().split("\n", 1)[0])
    print("last 4 events, vector clocks on:")
    for line in trace.format(limit=4).splitlines():
        print("  " + line)

    # ------------------------------------------------------------------
    # 4. exploration statistics (what the reductions saved)
    # ------------------------------------------------------------------
    print("\n== 4. explorer stats ==")
    result = explore(kernel_program("bridge_2car"),
                     reduce="sleep+fingerprint")
    print(f"2-car bridge, reduced: {result.summary()}")
    print(json.dumps(result.stats.as_dict(), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
