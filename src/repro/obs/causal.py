"""Causal request tracing: context propagation, critical paths, what-if.

The telemetry plane (:mod:`repro.obs.telemetry`) says *that* p95
burned; this module says *where one request's latency went* and *which
segment is worth optimizing next*.  Three pieces:

**Context propagation.**  A :class:`RequestContext` — request id plus
the causal parent span id — is stamped at ingress
(:meth:`CausalTracer.start_request`) and carried through every handoff
a request makes: thread starts (``JThread``), pool submissions
(``ThreadPool``), actor messages (mailbox enqueue → shared-queue
dispatch → handler), coroutine resumes, and cluster frames (an
optional envelope header field, local fast path included).  The
contract mirrors the profiler: every instrumentation site guards on
``tracer is None`` *first*, so the tracing-off hot path costs one
attribute load and allocates nothing.  Tracing *on* is bounded per
request by a hop budget (:data:`DEFAULT_HOP_BUDGET`, the
OpenTelemetry span-limit idea): once a request has traced that many
execution handoffs on a process, its chain self-terminates and the
rest of the request runs at attached-idle cost.

**Span recording.**  Runtimes record closed spans as plain tuples
``(span_id, parent_id, request_id, segment, lane, t0, t1)`` appended
to a deque — a GIL-atomic operation, no lock on the hot path.  Each
hop contributes a short *chain* of spans (``mailbox-wait`` →
``executor-queue`` → ``handler``; cluster hops add ``credit-wait``,
``network``, ``serialize``, ``stage-wait``), and the context installed
while a handler runs points at the handler's span, so nested tells
keep extending the causal chain.

**Critical-path attribution.**  Offline, spans are grouped per request
into a DAG.  The walk starts at the *terminal* span (latest end time)
and follows parent pointers back to the ingress root; each step
attributes the interval ``[span.t0, t_hi]`` to the span's segment and
lowers ``t_hi`` to ``span.t0``.  Because consecutive intervals share
endpoints, the per-segment attribution *partitions* the traced
end-to-end latency exactly — scheduling gaps land in the span that
follows them, nothing is dropped and nothing is counted twice.  Given
the wall window a caller measured, the report clips the walk to it, so
coverage (attributed over measured) never exceeds 1.

**What-if profiling.**  Coz-style virtual speedup, offline: re-schedule
the recorded DAG with one segment's durations scaled by ``1 -
speedup`` (children launch at proportionally scaled offsets inside a
shrunk parent) and read the predicted end-to-end latency off the new
terminal.  :func:`rank_targets` runs that for every observed segment
and ranks the predicted wins — the "what should we optimize next"
report the CLI prints as ``repro whatif``.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import deque
from typing import Any, Callable, Iterable, Optional

from .metrics import wall_clock

__all__ = [
    "RequestContext", "CausalTracer", "DEFAULT_HOP_BUDGET",
    "current_context", "set_context", "clear_context",
    "Span", "RequestTrace", "build_requests", "critical_path",
    "critical_report", "whatif_report", "rank_targets", "parse_speedup",
    "chrome_trace_from_causal", "format_critical", "format_whatif",
    "format_requests", "trace_cluster_cell", "SEGMENTS",
]

#: every segment the built-in instrumentation can attribute time to
SEGMENTS = (
    "ingress",         # request birth until the first hop is enqueued
    "handler",         # actor behaviour execution
    "mailbox-wait",    # enqueue -> the cell's drain grabbed the batch
    "executor-queue",  # drain grabbed -> this message's handler started
    "credit-wait",     # sender parked on the credit gate (backpressure)
    "network",         # wire time: encode + transit + retries until recv
    "serialize",       # receive-side frame decode
    "stage-wait",      # admitted late from the receive staging queue
    "thread-exec",     # JThread body
    "pool-exec",       # ThreadPool task body
    "coro-resume",     # coroutine resume slice (includes parked gaps)
    "dead-letter",     # zero-length terminal span: the message dropped
)


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

#: default per-request hop budget — how many execution handoffs
#: (handler runs, pool tasks, thread starts, coroutine resumes) a
#: single request may trace *per process* before propagation stops.
#: Production tracers always bound per-trace span counts
#: (OpenTelemetry span limits, Jaeger trace buffers) so one degenerate
#: request — say a million-message pingpong storm downstream of one
#: ingress — cannot monopolize the hot path; 256 hops is ~1k spans,
#: far more than any sane request, and it is what keeps the tracing-on
#: overhead gate in ``benchmarks/test_bench_obs.py`` bounded by design
#: rather than by luck.  The count lives in the tracer (not the
#: context), so it bounds *total* traced work per request even under
#: fan-out, where a depth counter would not.  Analysis runs that must
#: not truncate (``trace_cluster_cell``) pass an explicit larger
#: budget.
DEFAULT_HOP_BUDGET = 256


class RequestContext:
    """Immutable causal position: which request, which parent span."""

    __slots__ = ("request_id", "span_id")

    def __init__(self, request_id: int, span_id: int):
        self.request_id = request_id
        self.span_id = span_id

    def __repr__(self) -> str:
        return f"<RequestContext req={self.request_id} span={self.span_id}>"


_tls = threading.local()


def current_context() -> Optional[RequestContext]:
    """The context installed on this thread, or None."""
    try:
        return _tls.ctx
    except AttributeError:
        # first read on this thread: seed the slot so every later read
        # is a plain dict hit instead of a raised-and-caught miss (this
        # runs once per thread, but the read runs per message)
        _tls.ctx = None
        return None


def set_context(ctx: Optional[RequestContext]) -> None:
    _tls.ctx = ctx


def clear_context() -> None:
    _tls.ctx = None


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

class CausalTracer:
    """Collects closed spans; shared by every runtime in one process.

    Span ids come from one :func:`itertools.count` so chains built on
    different threads never collide; appends go straight into a deque
    (``capacity`` bounds it for long-running processes — the analysis
    walk stops cleanly at an evicted parent).
    """

    __slots__ = ("clock", "hop_budget", "_spans", "_ids", "_reqs",
                 "_hops_left")

    #: context primitives re-exported as attributes so instrumented
    #: runtimes (actors/threads/coroutines) can stay import-free of
    #: :mod:`repro.obs` — everything they need rides on the tracer
    #: object they were handed
    current = staticmethod(current_context)
    install = staticmethod(set_context)
    uninstall = staticmethod(clear_context)
    context = RequestContext
    #: the raw thread-local storage — hot loops (actor drain, cluster
    #: admit) write ``trc.tls.ctx`` directly instead of paying a
    #: function call per install/uninstall
    tls = _tls

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 capacity: Optional[int] = None,
                 hop_budget: int = DEFAULT_HOP_BUDGET):
        if hop_budget <= 0:
            raise ValueError(f"hop_budget must be positive, "
                             f"got {hop_budget}")
        self.clock = clock if clock is not None else wall_clock
        self.hop_budget = hop_budget
        self._spans: deque = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._reqs = itertools.count(1)
        #: request id -> traced handoffs remaining on this process.
        #: Plain dict, no lock: reads/writes are GIL-atomic and a
        #: racy double-admit merely overshoots the budget by a hop
        self._hops_left: dict = {}

    # -- hot path ------------------------------------------------------------
    def now(self) -> float:
        return self.clock()

    def next_id(self) -> int:
        return next(self._ids)

    def record(self, span_id: int, parent_id: int, request_id: int,
               segment: str, lane: str, t0: float, t1: float) -> None:
        """Append one closed span (GIL-atomic; call from any thread)."""
        self._spans.append(
            (span_id, parent_id, request_id, segment, lane, t0, t1))

    def chain(self, ctx: RequestContext, segment: str, lane: str,
              t0: float, t1: float) -> RequestContext:
        """Record a span under ``ctx`` and return the context that
        continues the chain from it (same hop — no budget spent)."""
        sid = next(self._ids)
        self._spans.append(
            (sid, ctx.span_id, ctx.request_id, segment, lane, t0, t1))
        return RequestContext(ctx.request_id, sid)

    def admit(self, request_id: int) -> bool:
        """Spend one of ``request_id``'s traced handoffs.  Returns
        False once the per-process budget is gone — the caller runs
        the handoff untraced and drops the context, so a runaway
        request stops paying tracing costs instead of flooding the
        span buffer."""
        left = self._hops_left.get(request_id)
        if left is None:
            # first handoff of this request on this process; the table
            # is bounded so a long-lived node can't leak one entry per
            # request forever (a reset re-admits in-flight requests —
            # harmless, the budget is a cost bound, not an exact count)
            if len(self._hops_left) >= 65536:
                self._hops_left.clear()
            left = self.hop_budget
        if left <= 0:
            return False
        self._hops_left[request_id] = left - 1
        return True

    def hop(self, ctx: RequestContext, segment: str, lane: str,
            t0: float, t1: float) -> Optional[RequestContext]:
        """Like :meth:`chain`, but the span closes one execution
        handoff: it spends budget via :meth:`admit`, and once the
        request is out ``None`` comes back with nothing recorded — the
        caller drops the context and the chain self-terminates."""
        rid = ctx.request_id
        if not self.admit(rid):
            return None
        sid = next(self._ids)
        self._spans.append(
            (sid, ctx.span_id, rid, segment, lane, t0, t1))
        return RequestContext(rid, sid)

    # -- ingress -------------------------------------------------------------
    def start_request(self, name: str = "request",
                      install: bool = True) -> RequestContext:
        """Mint a request at its ingress point and (by default) install
        its context on the calling thread.  Pair with
        :func:`clear_context` once the caller's synchronous part ends —
        the request itself keeps running wherever its messages go."""
        rid = next(self._reqs)
        sid = next(self._ids)
        t = self.clock()
        self._spans.append((sid, 0, rid, "ingress", name, t, t))
        ctx = RequestContext(rid, sid)
        if install:
            set_context(ctx)
        return ctx

    # -- offline -------------------------------------------------------------
    def spans(self) -> list:
        return list(self._spans)

    def clear(self) -> None:
        self._spans.clear()
        self._hops_left.clear()

    def __len__(self) -> int:
        return len(self._spans)


# ---------------------------------------------------------------------------
# offline reconstruction
# ---------------------------------------------------------------------------

class Span:
    """One closed span, linked into its request's DAG."""

    __slots__ = ("id", "parent", "request", "segment", "lane",
                 "t0", "t1", "children")

    def __init__(self, sid, parent, request, segment, lane, t0, t1):
        self.id = sid
        self.parent = parent
        self.request = request
        self.segment = segment
        self.lane = lane
        self.t0 = t0
        self.t1 = t1
        self.children: list = []

    @property
    def duration(self) -> float:
        return max(0.0, self.t1 - self.t0)

    def __repr__(self) -> str:
        return (f"<Span {self.id} {self.segment}@{self.lane} "
                f"req={self.request} {self.t0:.6f}..{self.t1:.6f}>")


class RequestTrace:
    """All spans of one request: index, root, terminal."""

    __slots__ = ("request_id", "spans", "root", "terminal")

    def __init__(self, request_id: int, spans: dict):
        self.request_id = request_id
        self.spans = spans
        self.root = None
        self.terminal = None
        for s in spans.values():
            if s.parent not in spans and (
                    self.root is None or s.t0 < self.root.t0):
                self.root = s
            if self.terminal is None or s.t1 > self.terminal.t1:
                self.terminal = s

    @property
    def e2e(self) -> float:
        """Traced end-to-end: ingress start to terminal end."""
        if self.root is None or self.terminal is None:
            return 0.0
        return max(0.0, self.terminal.t1 - self.root.t0)


def build_requests(spans: Iterable) -> dict[int, RequestTrace]:
    """Group raw span tuples per request and link parent/children."""
    per_req: dict[int, dict] = {}
    for sid, parent, rid, segment, lane, t0, t1 in spans:
        per_req.setdefault(rid, {})[sid] = Span(
            sid, parent, rid, segment, lane, t0, t1)
    out: dict[int, RequestTrace] = {}
    for rid, index in per_req.items():
        for s in index.values():
            p = index.get(s.parent)
            if p is not None:
                p.children.append(s)
        out[rid] = RequestTrace(rid, index)
    return out


def critical_path(trace: RequestTrace) -> list[tuple]:
    """Walk terminal → root; returns ``[(span, lo, hi), ...]`` in
    causal order, where ``hi - lo`` is the wall time attributed to
    that span's segment.  The intervals tile ``[root.t0,
    terminal.t1]`` exactly (each step's ``lo`` is the next older
    step's ``hi``), so segment attribution partitions the traced
    end-to-end latency."""
    steps: list[tuple] = []
    node = trace.terminal
    if node is None:
        return steps
    t_hi = node.t1
    seen: set = set()
    while node is not None and node.id not in seen:
        seen.add(node.id)
        lo = min(node.t0, t_hi)
        steps.append((node, lo, t_hi))
        t_hi = lo
        node = trace.spans.get(node.parent)
    steps.reverse()
    return steps


def _percentile(values: list, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, int(round(q / 100.0
                                               * (len(ordered) - 1)))))
    return ordered[k]


def critical_report(spans: Iterable,
                    measured: Optional[dict] = None) -> dict:
    """Per-segment critical-path attribution across all requests.

    ``measured`` optionally maps request id → the ``(start, end)`` wall
    window (tracer clock) a caller measured around the request.  The
    walk is then clipped to that window and coverage is
    attributed/measured, at most 1.0; otherwise coverage is
    attributed/traced (1.0 by construction).
    """
    traces = build_requests(spans)
    seg_times: dict[str, list] = {}
    e2e_list: list = []
    attributed_total = 0.0
    e2e_total = 0.0
    for rid, trace in sorted(traces.items()):
        per_seg: dict[str, float] = {}
        walked = 0.0
        start, end = (measured or {}).get(rid, (-math.inf, math.inf))
        for span, lo, hi in critical_path(trace):
            width = max(0.0, min(hi, end) - max(lo, start))
            per_seg[span.segment] = per_seg.get(span.segment, 0.0) + width
            walked += width
        e2e = trace.e2e if end == math.inf else end - start
        for seg, t in per_seg.items():
            seg_times.setdefault(seg, []).append(t)
        e2e_list.append(e2e)
        attributed_total += walked
        e2e_total += e2e
    segments = {}
    for seg, times in seg_times.items():
        total = sum(times)
        segments[seg] = {
            "p50_ms": round(_percentile(times, 50) * 1e3, 3),
            "p95_ms": round(_percentile(times, 95) * 1e3, 3),
            "total_ms": round(total * 1e3, 3),
            "share": round(total / e2e_total, 4) if e2e_total > 0 else 0.0,
        }
    return {
        "requests": len(traces),
        "e2e_p50_ms": round(_percentile(e2e_list, 50) * 1e3, 3),
        "e2e_p95_ms": round(_percentile(e2e_list, 95) * 1e3, 3),
        "coverage": round(attributed_total / e2e_total, 4)
        if e2e_total > 0 else 0.0,
        "segments": dict(sorted(segments.items(),
                                key=lambda kv: -kv[1]["total_ms"])),
    }


# ---------------------------------------------------------------------------
# what-if: virtual speedup on the span DAG
# ---------------------------------------------------------------------------

def _reschedule(trace: RequestTrace, segment: str, factor: float) -> float:
    """Predicted end-to-end after scaling ``segment`` durations by
    ``factor``.  Children launch at offsets scaled with their parent's
    shrink, the new terminal is the latest rescheduled end — an
    iterative DAG walk (request chains run thousands of spans deep)."""
    root = trace.root
    if root is None:
        return 0.0
    best = root.t0
    stack: list[tuple] = [(root, root.t0)]
    while stack:
        span, t0n = stack.pop()
        dur = span.duration
        ndur = dur * factor if span.segment == segment else dur
        scale = (ndur / dur) if dur > 0 else 1.0
        end = t0n + ndur
        if end > best:
            best = end
        for ch in span.children:
            off = max(0.0, ch.t0 - span.t0) * scale
            stack.append((ch, t0n + off))
    return max(0.0, best - root.t0)


def whatif_report(spans: Iterable, segment: str,
                  speedup: float) -> dict:
    """Predict the latency delta of making ``segment`` ``speedup``
    (0..1) faster, per request and in aggregate."""
    factor = 1.0 - speedup
    traces = build_requests(spans)
    baseline: list = []
    predicted: list = []
    for trace in traces.values():
        baseline.append(trace.e2e)
        predicted.append(_reschedule(trace, segment, factor))
    base_p50 = _percentile(baseline, 50)
    pred_p50 = _percentile(predicted, 50)
    return {
        "segment": segment,
        "speedup": speedup,
        "requests": len(traces),
        "baseline_p50_ms": round(base_p50 * 1e3, 3),
        "predicted_p50_ms": round(pred_p50 * 1e3, 3),
        "improvement_p50_ms": round((base_p50 - pred_p50) * 1e3, 3),
        "improvement_pct": round((1 - pred_p50 / base_p50) * 100, 2)
        if base_p50 > 0 else 0.0,
        "baseline_p95_ms": round(_percentile(baseline, 95) * 1e3, 3),
        "predicted_p95_ms": round(_percentile(predicted, 95) * 1e3, 3),
    }


def rank_targets(spans: Iterable, speedup: float = 0.2) -> list[dict]:
    """What-if every observed segment at the same speedup; ranked by
    predicted p50 win — the "top optimization targets" report."""
    spans = list(spans)
    seen_segments = sorted({s[3] for s in spans})
    ranked = [whatif_report(spans, seg, speedup) for seg in seen_segments]
    ranked.sort(key=lambda r: -r["improvement_p50_ms"])
    return ranked


def parse_speedup(text: str) -> float:
    """Accept ``20%`` or ``0.2``; returns a fraction in (0, 1)."""
    raw = text.strip()
    value = float(raw[:-1]) / 100.0 if raw.endswith("%") else float(raw)
    if not 0.0 < value < 1.0:
        raise ValueError(f"speedup must be in (0,1), got {text!r}")
    return value


# ---------------------------------------------------------------------------
# exports & rendering
# ---------------------------------------------------------------------------

def chrome_trace_from_causal(spans: Iterable, pid: int = 1) -> dict:
    """Chrome Trace Event JSON for causal spans: one ``X`` slice per
    span with ``request_id`` in ``args`` (Perfetto can group/filter by
    it), one tid per lane."""
    tids: dict[str, int] = {}
    events: list[dict] = []
    for sid, parent, rid, segment, lane, t0, t1 in spans:
        tid = tids.setdefault(lane, len(tids) + 1)
        events.append({
            "name": segment, "cat": "causal", "ph": "X",
            "ts": t0 * 1e6, "dur": max(0.0, t1 - t0) * 1e6,
            "pid": pid, "tid": tid,
            "args": {"request_id": rid, "span": sid, "parent": parent},
        })
    for lane, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": lane}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def format_critical(report: dict) -> str:
    """Plain-text attribution table."""
    lines = [
        f"critical path over {report['requests']} request(s)   "
        f"e2e p50 {report['e2e_p50_ms']:.3f} ms   "
        f"p95 {report['e2e_p95_ms']:.3f} ms   "
        f"coverage {report['coverage'] * 100:.1f}%",
        "",
        f"{'SEGMENT':<16} {'P50 MS':>10} {'P95 MS':>10} "
        f"{'TOTAL MS':>10} {'SHARE':>7}",
    ]
    for seg, row in report["segments"].items():
        lines.append(f"{seg:<16} {row['p50_ms']:>10.3f} "
                     f"{row['p95_ms']:>10.3f} {row['total_ms']:>10.3f} "
                     f"{row['share'] * 100:>6.1f}%")
    return "\n".join(lines)


def format_whatif(ranked: list[dict], chosen: Optional[dict] = None) -> str:
    """Plain-text what-if report: the chosen segment first (if any),
    then every segment ranked by predicted win."""
    lines: list[str] = []
    if chosen is not None:
        lines += [
            f"what-if: {chosen['segment']} "
            f"{chosen['speedup'] * 100:.0f}% faster  →  "
            f"p50 {chosen['baseline_p50_ms']:.3f} ms → "
            f"{chosen['predicted_p50_ms']:.3f} ms "
            f"({chosen['improvement_pct']:+.1f}% predicted)",
            "",
        ]
    lines.append(f"top optimization targets "
                 f"(each {ranked[0]['speedup'] * 100:.0f}% faster)"
                 if ranked else "no spans recorded")
    for i, row in enumerate(ranked):
        lines.append(f"{i + 1}. {row['segment']:<16} "
                     f"p50 {row['baseline_p50_ms']:.3f} → "
                     f"{row['predicted_p50_ms']:.3f} ms  "
                     f"(-{row['improvement_p50_ms']:.3f} ms)")
    return "\n".join(lines)


def format_requests(spans: Iterable, limit: int = 8) -> str:
    """Per-request drill-down table (the ``repro top`` extension):
    newest requests with end-to-end latency and their heaviest
    critical-path segment."""
    traces = build_requests(spans)
    newest = sorted(traces.values(),
                    key=lambda t: t.root.t0 if t.root else 0.0,
                    reverse=True)[:limit]
    lines = [f"{'REQ':>5} {'E2E MS':>9} {'SPANS':>6}  TOP SEGMENTS"]
    for trace in newest:
        per_seg: dict[str, float] = {}
        for span, lo, hi in critical_path(trace):
            per_seg[span.segment] = per_seg.get(span.segment, 0.0) \
                + (hi - lo)
        top = sorted(per_seg.items(), key=lambda kv: -kv[1])[:3]
        breakdown = "  ".join(f"{seg} {t * 1e3:.2f}ms" for seg, t in top)
        lines.append(f"{trace.request_id:>5} {trace.e2e * 1e3:>9.3f} "
                     f"{len(trace.spans):>6}  {breakdown}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# traced demo workloads (the CLI's `repro critical` / `repro whatif`)
# ---------------------------------------------------------------------------

def trace_cluster_cell(cell: str = "bridge", requests: int = 10,
                       workers: int = 4, scale: int = 8,
                       tracer: Optional[CausalTracer] = None,
                       timeout: float = 30.0) -> tuple:
    """Run ``requests`` traced requests of a cluster demo cell on a
    single-process loopback node (one clock domain, so cross-"node"
    spans line up) and return ``(tracer, measured)`` where ``measured``
    maps request id → its ``(start, end)`` wall window on the tracer's
    clock (the ``measured`` argument of :func:`critical_report`).

    Cells (actors from :mod:`repro.cluster.demo`): ``bridge`` — the
    colocated :class:`~repro.cluster.demo.BridgeWorld`, one
    request per ``("start", cars, crossings)`` repetition; ``pingpong``
    — one pinger/echo pair, one request per ``("start", rounds)``
    burst.  Cluster imports are lazy so ``repro.obs`` stays importable
    without the cluster layer.
    """
    from ..cluster.demo import BENCH_CONFIG, BridgeWorld, Echo, Pinger
    from ..cluster.message import PickleSerializer, make_path
    from ..cluster.node import ClusterNode, RemoteRef
    from ..cluster.transport import LoopbackHub

    if tracer is None:
        # an analysis run must not truncate: the attribution coverage
        # bar (>= 90% of measured e2e) needs every hop of every
        # request, so the budget is far above anything a cell produces
        tracer = CausalTracer(hop_budget=1_000_000)
    hub = LoopbackHub()
    node = ClusterNode("solo", hub.join("solo"),
                       serializer=PickleSerializer(),
                       config=BENCH_CONFIG, workers=workers,
                       tracer=tracer)
    measured: dict[int, float] = {}
    done = threading.Event()
    #: stamped *inside* the final handler: the request is over when its
    #: last message is handled, not when the driver thread wins the GIL
    #: back after ``done.wait`` — scheduler wakeup latency is not part
    #: of the request and would dilute attribution coverage under load
    end_t = [0.0]
    try:
        if cell == "bridge":
            world = node.spawn(BridgeWorld, node, name="world")
            collector_ref = RemoteRef(node, make_path("solo",
                                                      "collector"))

            from ..actors import Actor

            class _Collector(Actor):
                def receive(self, message, sender):
                    if message == "done":
                        end_t[0] = tracer.now()
                        done.set()

            node.spawn(_Collector, name="collector")
            cars, crossings = max(2, workers), max(4, scale)

            def one_request() -> None:
                world.tell(("start", cars, crossings),
                           sender=collector_ref)
        elif cell == "pingpong":
            node.spawn(Echo, name="echo")
            echo_ref = RemoteRef(node, make_path("solo", "echo"))
            pinger = node.spawn(
                Pinger, echo_ref, 8, done, name="pinger",
                sender_ref=RemoteRef(node, make_path("solo", "pinger")))
            rounds = max(8, scale * 8)

            def one_request() -> None:
                pinger.tell(("start", rounds))
        else:
            raise KeyError(f"unknown traced cell {cell!r}; "
                           "known: bridge, pingpong")

        for _ in range(requests):
            done.clear()
            ctx = tracer.start_request(cell)
            t0 = tracer.now()
            try:
                one_request()
            finally:
                clear_context()
            if not done.wait(timeout):
                raise RuntimeError(f"traced {cell} request timed out "
                                   f"(status: {node.status()})")
            # a stale end stamp (from a previous request) predates t0,
            # so cells without a collector fall back to wall time here
            end = end_t[0] if end_t[0] > t0 else tracer.now()
            measured[ctx.request_id] = (t0, end)
    finally:
        node.close()
    return tracer, measured
