"""repro.obs — cross-cutting instrumentation for the simulation kernel.

The paper's pedagogy rests on making interleavings *visible*: students
fail the Test-1 bridge questions precisely because they cannot see which
schedules are reachable.  This subsystem makes every layer observable:

* :class:`Metrics` — the one counter / high-water gauge / histogram
  registry: the kernel scheduler fills it in logical ticks (context
  switches, lock contention and wait times, mailbox depth, message
  latency, per-task run/block time — two runs of the same schedule
  report identical numbers), the real runtimes in wall-clock
  microseconds read through its clock (:data:`wall_clock`, or
  :class:`FakeClock` in tests);
* :func:`chrome_trace` / :func:`jsonl_events` — export any
  :class:`~repro.core.trace.Trace` as Chrome ``trace_event`` JSON (one
  lane per task, flow arrows for message send→receive; opens in
  ``chrome://tracing`` and Perfetto) or as a JSONL structured-event
  stream;
* :class:`MonitorBus` + the shipped :class:`Detector` set — online
  hazard monitors fed each :class:`~repro.core.trace.TraceEvent` as it
  happens (``Scheduler(monitors=...)`` /
  ``explore(..., monitors=True)``): deadlock cycles, lost wakeups,
  starvation, message reordering / mailbox saturation, data races,
  task failures, and misconception-refuting witnesses;
* :class:`Protocol` + :class:`ProtocolMonitor` — session-typed
  conformance checking: declarative message-sequence specs (a small
  combinator/mini-language: ``REQ -> (REPLY | ERR)``, repetition,
  alternation, turn-taking) checked online against the same event
  streams, across all three runtimes and the cluster, emitting
  ``protocol-violation`` hazards with the offending message, the
  automaton state and the expected-next set;
* :func:`explain_program` / :func:`explain_trace` — causal
  counterexample explanation for explorer violations: delta-debugging
  schedule minimization, the critical racing transition pair, and a
  narrative rendered as text or a self-contained HTML report
  (:func:`html_report`).

Collection is strictly opt-in: a scheduler created without
``metrics=``/``monitors=`` executes the exact same instruction
sequence with no bookkeeping beyond a single ``is None`` test per
step, and the monitors reconstruct kernel state purely from the event
stream — they can never perturb scheduling, fingerprints or sleep
sets.
"""

from .causal import (SEGMENTS, CausalTracer, RequestContext, RequestTrace,
                     Span, build_requests, chrome_trace_from_causal,
                     critical_path, critical_report, current_context,
                     format_critical, format_requests, format_whatif,
                     parse_speedup, rank_targets, trace_cluster_cell,
                     whatif_report)
from .explain import (CriticalPair, Explanation, explain_hazard,
                      explain_program, explain_trace, find_critical_pair,
                      minimize_schedule, postmortem_narrative)
from .export import chrome_trace, jsonl_events
from .metrics import (FakeClock, Histogram, Metrics, format_snapshot,
                      wall_clock)
from .monitors import (DeadlockDetector, Detector, FailureDetector, Hazard,
                       KernelView, LostWakeupDetector, MessageOrderDetector,
                       MonitorBus, RaceDetector, StarvationDetector,
                       WitnessDetector, default_detectors, trace_locksets)
from .protocol import (PExpr, Protocol, ProtocolMachine, ProtocolMonitor,
                       at_most_one_outstanding, message_kind,
                       protocol_bus, request_reply, turn_taking)
from .report import html_report
from .telemetry import (SLO, Aggregator, Alert, FlightRecorder, SLOEngine,
                        TelemetryAgent, TimeSeries, default_slos,
                        render_top)

__all__ = [
    "Histogram", "Metrics", "format_snapshot", "chrome_trace",
    "jsonl_events", "FakeClock", "wall_clock",
    "Hazard", "KernelView", "Detector", "MonitorBus",
    "DeadlockDetector", "LostWakeupDetector", "StarvationDetector",
    "MessageOrderDetector", "RaceDetector", "FailureDetector",
    "WitnessDetector", "default_detectors", "trace_locksets",
    "Explanation", "CriticalPair", "minimize_schedule",
    "find_critical_pair", "explain_trace", "explain_program",
    "explain_hazard",
    "postmortem_narrative", "html_report",
    "TimeSeries", "Aggregator", "SLO", "SLOEngine", "Alert",
    "FlightRecorder", "TelemetryAgent", "default_slos", "render_top",
    "PExpr", "Protocol", "ProtocolMachine", "ProtocolMonitor",
    "protocol_bus", "turn_taking", "at_most_one_outstanding",
    "request_reply", "message_kind",
    "SEGMENTS", "CausalTracer", "RequestContext", "current_context",
    "Span", "RequestTrace", "build_requests", "critical_path",
    "critical_report", "whatif_report", "rank_targets", "parse_speedup",
    "chrome_trace_from_causal", "format_critical", "format_whatif",
    "format_requests", "trace_cluster_cell",
]
