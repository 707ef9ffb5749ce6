"""Causal request tracing: context propagation, critical path, what-if.

Unit half: the tracer's span algebra on a fake clock — chains, the
backward critical-path walk (whose intervals must tile the traced
end-to-end exactly), the what-if DAG reschedule, and the renderers.

Integration half: one request context crossing every runtime the paper
covers — a JThread handoff, a ThreadPool submit, a work-stealing
executor submit, coroutine resumes, an actor chain, and a cluster hop
over the loopback wire — plus the ISSUE-8 acceptance bars: bridge
attribution coverage >= 90% of measured latency and a what-if
prediction within 25% of a measured speedup.
"""

import threading
import time
import tracemalloc

import pytest

from repro.actors import Actor, ActorSystem
from repro.actors.executor import WorkStealingExecutor
from repro.coroutines import CoScheduler
from repro.obs.causal import (
    SEGMENTS,
    CausalTracer,
    RequestContext,
    build_requests,
    chrome_trace_from_causal,
    clear_context,
    critical_path,
    critical_report,
    current_context,
    format_critical,
    format_requests,
    format_whatif,
    parse_speedup,
    rank_targets,
    trace_cluster_cell,
    whatif_report,
)
from repro.threads import JThread, ThreadPool


@pytest.fixture()
def clk():
    """Hand-cranked clock: ``clk[0] = t`` sets the tracer's now."""
    return [0.0]


@pytest.fixture()
def tracer(clk):
    t = CausalTracer(clock=lambda: clk[0])
    yield t
    clear_context()


# ---------------------------------------------------------------------------
# tracer core
# ---------------------------------------------------------------------------

class TestTracerCore:
    def test_context_is_thread_local(self, tracer):
        ctx = tracer.start_request("req")
        assert current_context() is ctx
        seen = []
        t = threading.Thread(target=lambda: seen.append(current_context()))
        t.start()
        t.join()
        assert seen == [None]          # TLS: other threads start clean
        clear_context()
        assert current_context() is None

    def test_start_request_records_zero_length_ingress(self, tracer, clk):
        clk[0] = 5.0
        ctx = tracer.start_request("ingress-name")
        (sid, parent, rid, seg, lane, t0, t1), = tracer.spans()
        assert (sid, parent, rid) == (ctx.span_id, 0, ctx.request_id)
        assert (seg, lane, t0, t1) == ("ingress", "ingress-name", 5.0, 5.0)

    def test_chain_links_and_continues(self, tracer):
        root = tracer.start_request("r", install=False)
        child = tracer.chain(root, "handler", "lane-a", 1.0, 2.0)
        assert isinstance(child, RequestContext)
        assert child.request_id == root.request_id
        assert child.span_id != root.span_id
        spans = tracer.spans()
        assert spans[-1] == (child.span_id, root.span_id,
                             root.request_id, "handler", "lane-a", 1.0, 2.0)

    def test_class_attribute_protocol(self, tracer):
        """Runtimes reach the TLS primitives through the tracer object
        itself — they never import repro.obs."""
        ctx = tracer.context(7, 9)
        tracer.install(ctx)
        assert tracer.current() is ctx
        assert current_context() is ctx
        tracer.uninstall()
        assert tracer.current() is None

    def test_capacity_evicts_oldest(self, clk):
        t = CausalTracer(clock=lambda: clk[0], capacity=3)
        for i in range(5):
            t.record(i, 0, 1, "handler", "x", 0.0, 1.0)
        assert len(t) == 3
        assert [s[0] for s in t.spans()] == [2, 3, 4]

    def test_segment_vocabulary(self):
        for seg in ("ingress", "handler", "mailbox-wait", "executor-queue",
                    "credit-wait", "network", "serialize", "stage-wait",
                    "thread-exec", "pool-exec", "coro-resume"):
            assert seg in SEGMENTS


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------

def _chain_spans(tracer, *steps):
    """Build one request as a linear chain of (segment, t0, t1)."""
    ctx = tracer.start_request("r", install=False)
    for seg, t0, t1 in steps:
        ctx = tracer.chain(ctx, seg, "lane", t0, t1)
    return ctx.request_id


class TestCriticalPath:
    def test_intervals_tile_the_request_exactly(self, tracer, clk):
        clk[0] = 0.0
        rid = _chain_spans(tracer,
                           ("handler", 0.0, 1.0),
                           ("mailbox-wait", 1.5, 2.0),   # 0.5s gap before
                           ("handler", 2.0, 4.0))
        trace = build_requests(tracer.spans())[rid]
        steps = critical_path(trace)
        # contiguous: each hi is the next lo, spanning root.t0..term.t1
        assert steps[0][1] == trace.root.t0
        assert steps[-1][2] == trace.terminal.t1
        for (_, _, hi), (_, lo, _) in zip(steps, steps[1:]):
            assert hi == lo
        total = sum(hi - lo for _, lo, hi in steps)
        assert total == pytest.approx(trace.e2e)
        # the untraced 0.5s gap is charged to the span *before* it:
        # each step's hi is its successor's t0, so the first handler's
        # interval stretches [0.0, 1.5] while mailbox-wait keeps 0.5
        widths = [(s.segment, hi - lo) for s, lo, hi in steps]
        assert widths == [("ingress", 0.0), ("handler", 1.5),
                          ("mailbox-wait", 0.5), ("handler", 2.0)]

    def test_report_shares_and_coverage(self, tracer):
        rid = _chain_spans(tracer,
                           ("serialize", 0.0, 1.0),
                           ("handler", 1.0, 4.0))
        report = critical_report(tracer.spans())
        assert report["requests"] == 1
        assert report["coverage"] == pytest.approx(1.0)
        assert report["e2e_p50_ms"] == pytest.approx(4000.0)
        segs = report["segments"]
        assert segs["handler"]["share"] == pytest.approx(0.75)
        assert segs["serialize"]["share"] == pytest.approx(0.25)
        # sorted by total attributed time, heaviest first (the
        # zero-length ingress span trails with no share)
        assert list(segs) == ["handler", "serialize", "ingress"]
        assert segs["ingress"]["share"] == 0.0
        # measured window wider than traced -> coverage drops below 1
        low = critical_report(tracer.spans(), measured={rid: (0.0, 8.0)})
        assert low["coverage"] == pytest.approx(0.5)
        assert low["e2e_p50_ms"] == pytest.approx(8000.0)

    def test_report_clips_the_walk_to_the_measured_window(self, tracer):
        rid = _chain_spans(tracer,
                           ("serialize", 0.0, 1.0),
                           ("handler", 1.0, 4.0))
        # the walk tiles [0, 4]; the caller measured only [0.5, 3.0]
        report = critical_report(tracer.spans(),
                                 measured={rid: (0.5, 3.0)})
        assert report["coverage"] == pytest.approx(1.0)
        assert report["e2e_p50_ms"] == pytest.approx(2500.0)
        segs = report["segments"]
        assert segs["serialize"]["total_ms"] == pytest.approx(500.0)
        assert segs["handler"]["total_ms"] == pytest.approx(2000.0)
        assert segs["handler"]["share"] == pytest.approx(0.8)

    def test_renderers_smoke(self, tracer):
        _chain_spans(tracer, ("handler", 0.0, 1.0))
        report = critical_report(tracer.spans())
        text = format_critical(report)
        assert "coverage 100.0%" in text and "handler" in text
        drill = format_requests(tracer.spans())
        assert "REQ" in drill and "handler" in drill


# ---------------------------------------------------------------------------
# what-if
# ---------------------------------------------------------------------------

class TestWhatif:
    def test_linear_chain_prediction_is_exact(self, tracer):
        _chain_spans(tracer,
                     ("serialize", 0.0, 1.0),
                     ("handler", 1.0, 5.0))
        report = whatif_report(tracer.spans(), "handler", 0.5)
        # 4s of handler halves: 5s -> 3s end to end
        assert report["baseline_p50_ms"] == pytest.approx(5000.0)
        assert report["predicted_p50_ms"] == pytest.approx(3000.0)
        assert report["improvement_p50_ms"] == pytest.approx(2000.0)
        assert report["improvement_pct"] == pytest.approx(40.0)

    def test_off_critical_path_segment_buys_nothing(self, tracer):
        """A fast segment overlapped by a slow sibling is not a target:
        shrinking it cannot move the terminal."""
        root = tracer.start_request("r", install=False)
        tracer.chain(root, "serialize", "a", 0.0, 1.0)   # overlapped
        tracer.chain(root, "handler", "b", 0.0, 10.0)    # dominates
        report = whatif_report(tracer.spans(), "serialize", 0.9)
        assert report["predicted_p50_ms"] == \
            pytest.approx(report["baseline_p50_ms"])

    def test_rank_targets_orders_by_predicted_win(self, tracer):
        _chain_spans(tracer,
                     ("serialize", 0.0, 1.0),
                     ("handler", 1.0, 9.0))
        ranked = rank_targets(tracer.spans(), speedup=0.5)
        assert [r["segment"] for r in ranked][:2] == \
            ["handler", "serialize"]
        text = format_whatif(ranked, chosen=ranked[0])
        assert "what-if: handler" in text
        assert "top optimization targets" in text

    def test_parse_speedup(self):
        assert parse_speedup("20%") == pytest.approx(0.2)
        assert parse_speedup("0.2") == pytest.approx(0.2)
        assert parse_speedup(" 95% ") == pytest.approx(0.95)
        for bad in ("0", "1.5", "100%", "-10%"):
            with pytest.raises(ValueError):
                parse_speedup(bad)


# ---------------------------------------------------------------------------
# chrome export
# ---------------------------------------------------------------------------

def test_chrome_trace_from_causal_carries_request_id(tracer):
    _chain_spans(tracer, ("handler", 0.0, 1.0))
    payload = chrome_trace_from_causal(tracer.spans())
    slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert slices and all("request_id" in e["args"] for e in slices)
    names = [e for e in payload["traceEvents"] if e["ph"] == "M"]
    assert any(e["args"]["name"] == "lane" for e in names)


# ---------------------------------------------------------------------------
# propagation across runtimes
# ---------------------------------------------------------------------------

class TestRuntimePropagation:
    def test_jthread_handoff(self):
        tracer = CausalTracer()
        root = tracer.start_request("spawn")
        try:
            t = JThread(target=lambda: current_context(), tracer=tracer)
            t.start()
            inner = t.join()
        finally:
            clear_context()
        assert inner is not None
        assert inner.request_id == root.request_id
        exec_spans = [s for s in tracer.spans() if s[3] == "thread-exec"]
        assert len(exec_spans) == 1
        assert exec_spans[0][1] == root.span_id        # chained on starter
        # untraced start: no context leaks into the thread
        bare = JThread(target=lambda: current_context())
        bare.start()
        assert bare.join() is None

    def test_thread_pool_submit(self):
        tracer = CausalTracer()
        with ThreadPool(2, tracer=tracer) as pool:
            root = tracer.start_request("submit")
            try:
                fut = pool.submit(current_context)
                inner = fut.result()
            finally:
                clear_context()
        assert inner.request_id == root.request_id
        pool_spans = [s for s in tracer.spans() if s[3] == "pool-exec"]
        assert len(pool_spans) == 1
        assert pool_spans[0][1] == root.span_id

    def test_workstealing_executor_submit(self):
        tracer = CausalTracer()
        ex = WorkStealingExecutor(workers=2, tracer=tracer)
        got = []
        done = threading.Event()
        try:
            root = tracer.start_request("exec")
            try:
                ex.submit(lambda: (got.append(current_context()),
                                   done.set()))
            finally:
                clear_context()
            assert done.wait(5)
        finally:
            ex.shutdown(wait=True)
        assert got[0] is not None
        assert got[0].request_id == root.request_id
        segs = [s[3] for s in tracer.spans()]
        assert "executor-queue" in segs and "handler" in segs

    def test_coroutine_resumes_extend_the_chain(self):
        tracer = CausalTracer()
        sched = CoScheduler(tracer=tracer)
        seen = []

        def coro():
            seen.append(current_context())
            yield
            seen.append(current_context())

        root = tracer.start_request("spawn-coro")
        try:
            sched.spawn(coro)
        finally:
            clear_context()
        sched.run()
        assert all(c is not None for c in seen)
        assert {c.request_id for c in seen} == {root.request_id}
        resumes = [s for s in tracer.spans() if s[3] == "coro-resume"]
        assert len(resumes) == 2
        # second resume chains on the first, which chains on the root
        assert resumes[0][1] == root.span_id
        assert resumes[1][1] == resumes[0][0]

    def test_actor_chain_grows_one_request(self):
        class Fwd(Actor):
            def __init__(self, nxt=None, done=None):
                super().__init__()
                self.nxt, self.done = nxt, done

            def receive(self, message, sender):
                if self.nxt is not None:
                    self.nxt.tell(message)
                else:
                    self.done.set()

        tracer = CausalTracer()
        done = threading.Event()
        with ActorSystem(workers=2, tracer=tracer) as system:
            last = system.spawn(Fwd, None, done, name="last")
            first = system.spawn(Fwd, last, None, name="first")
            root = tracer.start_request("actor-chain")
            try:
                first.tell("go")
            finally:
                clear_context()
            assert done.wait(10)
            system.drain()
        spans = tracer.spans()
        assert {s[2] for s in spans} == {root.request_id}
        segs = [s[3] for s in spans]
        # two hops: each contributes a wait + queue + handler triple
        assert segs.count("handler") == 2
        assert segs.count("mailbox-wait") == 2
        assert segs.count("executor-queue") == 2
        # the second hop's chain hangs off the first handler span
        trace = build_requests(spans)[root.request_id]
        assert trace.terminal.segment == "handler"
        walked = [s.segment for s, _, _ in critical_path(trace)]
        assert walked == ["ingress", "mailbox-wait", "executor-queue",
                          "handler", "mailbox-wait", "executor-queue",
                          "handler"]

    def test_hop_budget_self_terminates_runaway_chain(self):
        """One request may trace at most ``hop_budget`` execution
        handoffs — a degenerate message storm downstream of a single
        ingress stops paying tracing costs once the budget is spent
        (the production bound behind the bench's tracing-on gate)."""

        class Loop(Actor):
            def __init__(self, done):
                super().__init__()
                self.done = done

            def receive(self, message, sender):
                if message == 0:
                    self.done.set()
                else:
                    self.self_ref.tell(message - 1)

        tracer = CausalTracer(hop_budget=3)
        done = threading.Event()
        with ActorSystem(workers=2, tracer=tracer) as system:
            ref = system.spawn(Loop, done, name="loop")
            tracer.start_request("storm")
            try:
                ref.tell(20)           # 21 handler runs, budget of 3
            finally:
                clear_context()
            assert done.wait(10)
            system.drain()
        segs = [s[3] for s in tracer.spans()]
        assert segs.count("handler") == 3
        assert segs.count("mailbox-wait") == 3
        # ingress + three full wait/queue/handler hop triples, nothing
        # after the budget ran out
        assert len(tracer) == 1 + 3 * 3

    def test_hop_method_returns_none_at_exhaustion(self):
        tracer = CausalTracer(clock=lambda: 0.0, hop_budget=1)
        ctx = tracer.start_request("r", install=False)
        nxt = tracer.hop(ctx, "coro-resume", "t", 0.0, 1.0)
        assert nxt is not None
        # budget spent: nothing recorded, chain terminated
        assert tracer.hop(nxt, "coro-resume", "t", 1.0, 2.0) is None
        assert len(tracer) == 2            # ingress + the one resume

    def test_hop_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            CausalTracer(hop_budget=0)

    def test_tracer_attached_but_no_request_records_nothing(self):
        tracer = CausalTracer()
        done = threading.Event()

        class Sink(Actor):
            def receive(self, message, sender):
                if message == 9:
                    done.set()

        with ActorSystem(workers=2, tracer=tracer) as system:
            ref = system.spawn(Sink, name="sink")
            for i in range(10):
                ref.tell(i)            # no context installed anywhere
            assert done.wait(10)
            system.drain()
        assert len(tracer) == 0


def test_tracing_off_allocates_nothing_from_causal():
    """The ISSUE-8 overhead bar, structurally: with no tracer attached
    the hot path is `is None` tests — nothing from the causal module
    ever allocates.  (The throughput side lives in
    benchmarks/test_bench_obs.py::test_bench_tracer_overhead.)"""
    done = threading.Event()

    class Sink(Actor):
        def receive(self, message, sender):
            if message == 199:
                done.set()

    with ActorSystem(workers=2) as system:       # tracer absent
        ref = system.spawn(Sink, name="sink")
        tracemalloc.start()
        try:
            for i in range(200):
                ref.tell(i)
            assert done.wait(10)
            system.drain()
            snap = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    causal_allocs = snap.filter_traces(
        [tracemalloc.Filter(True, "*causal.py")]).statistics("filename")
    assert sum(s.size for s in causal_allocs) == 0


# ---------------------------------------------------------------------------
# cluster wire
# ---------------------------------------------------------------------------

class TestClusterWire:
    def test_envelope_ctx_roundtrip_and_back_compat(self):
        from repro.cluster.message import (Envelope, JsonSerializer,
                                           PickleSerializer, TELL)
        traced = Envelope(TELL, 3, "a", "b", payload={"m": 1},
                          sender="a/probe", ctx=(7, 42, 1.25))
        bare = Envelope(TELL, 4, "a", "b", payload={"m": 2})
        for ser in (JsonSerializer(), PickleSerializer()):
            back = ser.decode(ser.encode(traced))
            assert back.ctx == (7, 42, 1.25)
            assert back.payload == {"m": 1}
            assert ser.decode(ser.encode(bare)).ctx is None
        # an untraced envelope keeps the pre-tracing 6-tuple wire shape
        assert len(bare.as_tuple()) == 6
        assert len(traced.as_tuple()) == 7
        assert "ctx" not in JsonSerializer().encode(bare).decode()

    def test_loopback_hop_records_network_and_serialize(self):
        from repro.cluster import ClusterNode, LoopbackHub
        from repro.cluster.message import PickleSerializer

        class Sink(Actor):
            def __init__(self, done):
                super().__init__()
                self.done = done

            def receive(self, message, sender):
                self.done.set()

        tracer = CausalTracer()
        hub = LoopbackHub()
        a = ClusterNode("a", hub.join("a"),
                        serializer=PickleSerializer(), tracer=tracer)
        b = ClusterNode("b", hub.join("b"),
                        serializer=PickleSerializer(), tracer=tracer)
        done = threading.Event()
        try:
            a.connect("b")
            b.connect("a")
            b.spawn(Sink, done, name="sink")
            root = tracer.start_request("wire")
            try:
                a.ref("b/sink").tell({"n": 1})
            finally:
                clear_context()
            assert done.wait(10)
        finally:
            a.close()
            b.close()
        spans = tracer.spans()
        segs = {s[3] for s in spans}
        assert {"ingress", "network", "serialize",
                "mailbox-wait", "handler"} <= segs
        assert {s[2] for s in spans} == {root.request_id}
        # clock-skew clamp: no span may run backwards
        assert all(s[6] >= s[5] for s in spans)
        # serialize chains on network, which chains on the sender side
        by_seg = {s[3]: s for s in spans}
        net, ser = by_seg["network"], by_seg["serialize"]
        assert ser[1] == net[0]
        sender_ids = {s[0] for s in spans if s[3] in ("ingress",
                                                      "credit-wait")}
        assert net[1] in sender_ids


# ---------------------------------------------------------------------------
# acceptance bars
# ---------------------------------------------------------------------------

class TestAcceptance:
    def test_bridge_attribution_covers_measured_latency(self):
        """>= 90% of the *measured* end-to-end latency of each bridge
        request must land in attributed segments, and no more than all
        of it: the walk is clipped to the measured window."""
        tracer, measured = trace_cluster_cell(
            cell="bridge", requests=6, workers=4, scale=8)
        assert len(measured) == 6
        report = critical_report(tracer.spans(), measured=measured)
        assert report["requests"] == 6
        assert 0.90 <= report["coverage"] <= 1.0, report
        # the big three bridge segments all show up
        assert {"handler", "mailbox-wait",
                "executor-queue"} <= set(report["segments"])

    def test_whatif_predicts_sleep_removal_within_25pct(self):
        """Inject a known 4ms sleep into every handler of an 6-stage
        actor chain; `whatif(handler, 90%)` must predict the improvement
        that actually materializes when the sleep shrinks 10x."""
        stages, delay, reqs = 6, 0.004, 5

        class Stage(Actor):
            def __init__(self, nxt, delay, done=None):
                super().__init__()
                self.nxt, self.delay, self.done = nxt, delay, done

            def receive(self, message, sender):
                time.sleep(self.delay)
                if self.nxt is not None:
                    self.nxt.tell(message)
                else:
                    self.done.set()

        def run_chain(delay, tracer):
            done = threading.Event()
            lat = []
            with ActorSystem(workers=2, tracer=tracer) as system:
                nxt = system.spawn(Stage, None, delay, done, name="s-last")
                for i in range(stages - 1):
                    nxt = system.spawn(Stage, nxt, delay, name=f"s{i}")
                for _ in range(reqs):
                    done.clear()
                    if tracer is not None:
                        tracer.start_request("chain")
                    t0 = time.perf_counter()
                    try:
                        nxt.tell("go")
                        assert done.wait(30)
                    finally:
                        if tracer is not None:
                            clear_context()
                    lat.append(time.perf_counter() - t0)
                system.drain()
            lat.sort()
            return lat[len(lat) // 2]

        tracer = CausalTracer()
        base_p50 = run_chain(delay, tracer)
        fast_p50 = run_chain(delay * 0.1, None)
        report = whatif_report(tracer.spans(), "handler", 0.9)
        predicted_gain = report["improvement_p50_ms"]
        measured_gain = (base_p50 - fast_p50) * 1e3
        assert measured_gain > 0
        assert abs(predicted_gain - measured_gain) <= \
            0.25 * measured_gain, (predicted_gain, measured_gain)
