"""Telemetry plane units: series math, SLO burns, flight recorder.

Everything here drives the :mod:`repro.obs.telemetry` layer with
hand-built frames and an injected clock — no cluster, no threads, no
wall time — so the windowed math (rates from cumulative counters,
carry-forward decay, mergeable percentile buckets, multi-window burn
conditions) is checked against numbers computed by hand.
"""

import pytest

from repro.cluster.observe import ClusterEvent
from repro.obs.metrics import Histogram
from repro.obs.monitors import Hazard, MonitorBus
from repro.obs.telemetry import (
    SLO,
    Aggregator,
    FlightRecorder,
    SLOEngine,
    TimeSeries,
    default_slos,
    render_top,
)


def frame(seq, ts, counters=None, gauges=None, hists=None):
    return {"v": 1, "seq": seq, "node": "n", "ts": ts,
            "counters": counters or {}, "gauges": gauges or {},
            "hists": hists or {}}


def hist_entry(samples, count=None, total=None):
    return {"count": len(samples) if count is None else count,
            "total": sum(samples) if total is None else total,
            "min": min(samples), "max": max(samples),
            "samples": list(samples)}


# ---------------------------------------------------------------------------
# TimeSeries
# ---------------------------------------------------------------------------

class TestTimeSeries:
    def test_rate_from_cumulative_points(self):
        s = TimeSeries()
        s.add(0.0, 0.0)
        s.add(10.0, 100.0)
        assert s.rate(now=10.0, window=10.0) == pytest.approx(10.0)

    def test_rate_uses_floor_of_window_as_base(self):
        s = TimeSeries()
        s.add(0.0, 0.0)
        s.add(5.0, 50.0)
        s.add(10.0, 50.0)        # flat for the last 5s
        # 10s window: (50-0)/(10-0); 4s window: base is the point at
        # t=5 (latest point <= now-window), so (50-50)/(10-5) = 0
        assert s.rate(now=10.0, window=10.0) == pytest.approx(5.0)
        assert s.rate(now=10.0, window=4.0) == 0.0

    def test_rate_needs_two_points(self):
        s = TimeSeries()
        assert s.rate(now=1.0, window=10.0) == 0.0
        s.add(0.0, 7.0)
        assert s.rate(now=1.0, window=10.0) == 0.0

    def test_retention_trims_old_points(self):
        s = TimeSeries(retention=10.0)
        for t in range(0, 100, 5):
            s.add(float(t), float(t))
        assert len(s) <= 4
        assert s.latest() == 95.0

    def test_window_max_and_delta(self):
        s = TimeSeries()
        s.add(0.0, 3.0)
        s.add(5.0, 9.0)
        s.add(10.0, 4.0)
        assert s.window_max(now=10.0, window=6.0) == 9.0
        assert s.window_max(now=10.0, window=1.0) == 4.0
        assert s.delta(now=10.0, window=10.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Aggregator
# ---------------------------------------------------------------------------

class TestAggregator:
    def test_ingest_and_rate(self):
        agg = Aggregator(clock=lambda: 20.0)
        agg.ingest("n", frame(1, 0.0, counters={"ops": 0}))
        agg.ingest("n", frame(2, 10.0, counters={"ops": 500}))
        assert agg.nodes() == ["n"]
        assert agg.rate("n", "ops", window=10.0, now=10.0) == \
            pytest.approx(50.0)
        assert agg.counter("n", "ops") == 500.0
        assert agg.rate("n", "missing", now=10.0) == 0.0
        assert agg.rate("ghost", "ops", now=10.0) == 0.0

    def test_carry_forward_decays_rate_to_zero(self):
        """Delta frames omit unchanged counters; the aggregator must
        append flat points so a finished burst stops 'rating'."""
        agg = Aggregator(clock=lambda: 40.0)
        agg.ingest("n", frame(1, 0.0, counters={"ops": 0}))
        agg.ingest("n", frame(2, 10.0, counters={"ops": 100}))
        for i, ts in enumerate((20.0, 30.0, 40.0)):
            agg.ingest("n", frame(3 + i, ts))     # ops unchanged: omitted
        assert agg.rate("n", "ops", window=10.0, now=40.0) == 0.0
        assert agg.counter("n", "ops") == 100.0   # cumulative intact

    def test_lost_frame_accounting(self):
        agg = Aggregator()
        agg.ingest("n", frame(1, 0.0))
        agg.ingest("n", frame(5, 1.0))            # 2,3,4 dropped in flight
        agg.ingest("n", frame(6, 2.0))
        snap = agg.snapshot(now=2.0)
        assert snap["nodes"]["n"]["lost"] == 3
        assert snap["nodes"]["n"]["frames"] == 3

    def test_out_of_order_frame_backs_loss_out(self):
        """A gap charges ``lost`` immediately; the straggler arriving
        late must refund it — reordering is not loss."""
        agg = Aggregator()
        agg.ingest("n", frame(1, 0.0))
        agg.ingest("n", frame(3, 1.0))            # 2 looks dropped...
        assert agg.snapshot(now=1.0)["nodes"]["n"]["lost"] == 1
        agg.ingest("n", frame(2, 0.5))            # ...but was reordered
        snap = agg.snapshot(now=1.0)
        assert snap["nodes"]["n"]["lost"] == 0
        assert snap["nodes"]["n"]["frames"] == 3

    def test_duplicated_frame_is_not_a_refund(self):
        """A duplicate of an already-seen seq must not decrement
        ``lost`` (UDP-style transports can duplicate *and* drop)."""
        agg = Aggregator()
        agg.ingest("n", frame(1, 0.0))
        agg.ingest("n", frame(2, 1.0))
        agg.ingest("n", frame(2, 1.1))            # dup of a seen frame
        assert agg.snapshot(now=2.0)["nodes"]["n"]["lost"] == 0
        agg.ingest("n", frame(4, 2.0))            # 3 genuinely lost
        agg.ingest("n", frame(4, 2.1))            # dup again
        assert agg.snapshot(now=3.0)["nodes"]["n"]["lost"] == 1

    def test_duplicated_straggler_refunds_once(self):
        """The late frame refunds its gap exactly once; replaying it
        must not drive ``lost`` negative."""
        agg = Aggregator()
        agg.ingest("n", frame(1, 0.0))
        agg.ingest("n", frame(4, 1.0))            # 2,3 charged as lost
        assert agg.snapshot(now=1.0)["nodes"]["n"]["lost"] == 2
        for _ in range(3):
            agg.ingest("n", frame(2, 0.5))        # refund, then no-ops
        snap = agg.snapshot(now=2.0)
        assert snap["nodes"]["n"]["lost"] == 1    # only 3 still missing
        agg.ingest("n", frame(3, 0.6))
        assert agg.snapshot(now=2.0)["nodes"]["n"]["lost"] == 0
        agg.ingest("n", frame(3, 0.7))            # replay after refund
        assert agg.snapshot(now=2.0)["nodes"]["n"]["lost"] == 0

    def test_window_percentiles_merge_buckets(self):
        agg = Aggregator()
        agg.ingest("n", frame(1, 0.0,
                              hists={"lat": hist_entry([1.0, 2.0])}))
        agg.ingest("n", frame(2, 5.0,
                              hists={"lat": hist_entry([100.0])}))
        h = agg.window_histogram("n", "lat", window=30.0, now=5.0)
        assert h.count == 3
        assert h.max == 100.0
        assert agg.percentile("n", "lat", 99, now=5.0) == 100.0
        # a 3s window only sees the second bucket
        assert agg.percentile("n", "lat", 50, window=3.0, now=5.0) == 100.0

    def test_stall_sums_window_samples(self):
        agg = Aggregator()
        agg.ingest("n", frame(1, 0.0,
                              hists={"wait": hist_entry([500.0, 250.0])}))
        assert agg.stall("n", "wait", now=1.0) == pytest.approx(750.0)

    def test_gauges_latest_and_window_max(self):
        agg = Aggregator()
        agg.ingest("n", frame(1, 0.0, gauges={"depth": 9}))
        agg.ingest("n", frame(2, 5.0, gauges={"depth": 2}))
        assert agg.gauge("n", "depth") == 2.0
        assert agg.gauge("n", "depth", window=10.0, now=5.0) == 9.0

    def test_cluster_rate_sums_nodes(self):
        agg = Aggregator()
        for node in ("a", "b"):
            agg.ingest(node, frame(1, 0.0, counters={"ops": 0}))
            agg.ingest(node, frame(2, 10.0, counters={"ops": 100}))
        assert agg.cluster_rate("ops", window=10.0, now=10.0) == \
            pytest.approx(20.0)

    def test_snapshot_is_json_ready(self):
        import json
        agg = Aggregator()
        agg.ingest("n", frame(1, 0.0, counters={"ops": 1},
                              gauges={"depth": 2},
                              hists={"lat": hist_entry([3.0])}))
        snap = agg.snapshot(now=1.0)
        json.dumps(snap)                          # no exotic types
        node = snap["nodes"]["n"]
        assert node["gauges"] == {"depth": 2.0}
        assert node["hists"]["lat"]["count"] == 1
        assert node["hists"]["lat"]["total"] == pytest.approx(3.0)
        assert node["age"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# SLO measurement + burn-rate engine
# ---------------------------------------------------------------------------

def burning_aggregator(failures):
    """Node 'n' with a steady failure burn against 100 ops/s."""
    agg = Aggregator()
    for i in range(13):
        ts = float(i * 5)
        agg.ingest("n", frame(i + 1, ts, counters={
            "mailbox.processed": i * 500,
            "actor.failures": i * failures}))
    return agg


class TestSLO:
    def test_measure_rate_and_ratio(self):
        agg = burning_aggregator(failures=25)     # 5% of 500/window
        now = 60.0
        rate = SLO("r", "rate:mailbox.processed", 1.0)
        assert rate.measure(agg, "n", 10.0, now) == pytest.approx(100.0)
        ratio = SLO("e", "ratio:actor.failures/mailbox.processed", 0.01)
        assert ratio.measure(agg, "n", 10.0, now) == pytest.approx(0.05)

    def test_measure_ratio_zero_denominator(self):
        agg = Aggregator()
        agg.ingest("n", frame(1, 0.0, counters={"a": 5, "b": 0}))
        agg.ingest("n", frame(2, 1.0, counters={"a": 9}))
        slo = SLO("x", "ratio:a/b", 0.5)
        assert slo.measure(agg, "n", 10.0, now=1.0) == 0.0

    def test_measure_percentile_gauge_stall(self):
        agg = Aggregator()
        agg.ingest("n", frame(1, 0.0, gauges={"depth": 7},
                              hists={"lat": hist_entry([10.0, 90.0])}))
        assert SLO("p", "p95:lat", 1.0).measure(agg, "n", 30.0,
                                                now=1.0) == 90.0
        assert SLO("g", "gauge:depth", 1.0).measure(agg, "n", 30.0,
                                                    now=1.0) == 7.0
        assert SLO("s", "stall:lat", 1.0).measure(agg, "n", 30.0,
                                                  now=1.0) == 100.0

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError):
            SLO("x", "median:lat", 1.0).measure(Aggregator(), "n", 1.0,
                                                now=0.0)

    def test_default_slos_cover_headline_signals(self):
        kinds = {s.metric.partition(":")[0] for s in default_slos()}
        assert {"p95", "ratio", "gauge", "stall"} <= kinds
        assert all(s.threshold > 0 for s in default_slos())


class TestSLOEngine:
    ERROR_RATE = SLO("error-rate",
                     "ratio:actor.failures/mailbox.processed",
                     threshold=0.01, short_window=10.0, long_window=30.0,
                     severity="error")

    def test_fires_only_when_both_windows_burn(self):
        engine = SLOEngine([self.ERROR_RATE])
        # a fresh small burst: over threshold in the short window
        # (20/~1500) but diluted below it by the long window's traffic
        # (20/~3500) — must NOT page
        agg = burning_aggregator(failures=0)
        agg.ingest("n", frame(14, 61.0, counters={"actor.failures": 20,
                                                  "mailbox.processed": 6500}))
        assert engine.evaluate(agg, now=61.0) == []     # long window clean
        # sustained burn: both windows over threshold
        hot = burning_aggregator(failures=25)
        fired = engine.evaluate(hot, now=60.0)
        assert [a.slo.name for a in fired] == ["error-rate"]
        assert fired[0].state == "firing"
        # steady state: still firing, but not *newly* fired
        assert engine.evaluate(hot, now=60.0) == []
        assert [a.node for a in engine.active()] == ["n"]

    def test_resolves_on_short_window_recovery(self):
        engine = SLOEngine([self.ERROR_RATE])
        agg = burning_aggregator(failures=25)
        assert engine.evaluate(agg, now=60.0)
        # failures stop; processed keeps moving
        for i in range(3):
            ts = 65.0 + i * 5
            agg.ingest("n", frame(14 + i, ts,
                                  counters={"mailbox.processed":
                                            6000 + (i + 1) * 500}))
        assert engine.evaluate(agg, now=75.0) == []
        assert engine.active() == []
        assert engine.alerts()[0].state == "resolved"
        assert engine.alerts()[0].resolved_at == 75.0

    def test_fire_publishes_hazard_and_callback(self):
        bus = MonitorBus(detectors=[])
        seen = []
        engine = SLOEngine([self.ERROR_RATE], bus=bus,
                           on_fire=seen.append)
        engine.evaluate(burning_aggregator(failures=25), now=60.0)
        assert len(seen) == 1
        hazards = [h for h in bus.hazards
                   if h.kind == "slo-burn:error-rate"]
        assert len(hazards) == 1
        assert hazards[0].severity == "error"
        assert hazards[0].tasks == ("n",)
        assert "error-rate" in hazards[0].message

    def test_as_dicts_payload(self):
        engine = SLOEngine([self.ERROR_RATE])
        engine.evaluate(burning_aggregator(failures=25), now=60.0)
        (d,) = engine.as_dicts()
        assert d["slo"] == "error-rate" and d["state"] == "firing"
        assert d["short_value"] >= 0.01 and d["long_value"] >= 0.01
        assert d["fired_at"] == 60.0


# ---------------------------------------------------------------------------
# MonitorBus.publish
# ---------------------------------------------------------------------------

def test_monitor_bus_publish_dedups_and_flags():
    bus = MonitorBus(detectors=[])
    h = Hazard(kind="slo-burn:x", severity="error", step=0,
               message="SLO 'x' burning")
    bus.publish(h)
    bus.publish(h)                                # same (kind, message)
    assert len(bus.hazards) == 1
    assert bus.flagged


# ---------------------------------------------------------------------------
# FlightRecorder
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_records_and_dumps_in_order(self):
        fr = FlightRecorder(capacity=8)
        for i in range(3):
            fr.record(ClusterEvent("cluster-send", "a", actor="p",
                                   peer="b", step=i, ts=float(i),
                                   msg_seq=i))
        events = fr.dump()
        assert [e["msg_seq"] for e in events] == [0, 1, 2]
        assert [e["step"] for e in events] == [0, 1, 2]
        assert all(e["node"] == "a" for e in events)
        assert all(e["kind"] == "cluster-send" for e in events)

    def test_ring_wraps_keeping_newest(self):
        fr = FlightRecorder(capacity=4)
        for i in range(10):
            fr.record(ClusterEvent("k", "a", step=i, ts=float(i),
                                   msg_seq=i))
        assert len(fr) == 4
        assert fr.recorded == 10
        assert [e["msg_seq"] for e in fr.dump()] == [6, 7, 8, 9]
        # the dump keeps each event's own node step across the wrap
        assert [e["step"] for e in fr.dump()] == [6, 7, 8, 9]

    def test_dump_is_cluster_event_compatible(self):
        from repro.cluster.observe import merge_chrome_traces
        a = FlightRecorder(capacity=4)
        b = FlightRecorder(capacity=4)
        a.record(ClusterEvent("cluster-send", "a", actor="p", peer="b",
                              ts=1.0, msg_seq=7))
        b.record(ClusterEvent("cluster-recv", "b", actor="e", peer="a",
                              ts=1.001, recv_seq=7))
        ev = ClusterEvent(**a.dump()[0])
        assert ev.node == "a" and ev.msg_seq == 7
        merged = merge_chrome_traces({"a": a.dump(), "b": b.dump()})
        phases = [e["ph"] for e in merged["traceEvents"]]
        assert "s" in phases and "f" in phases


# ---------------------------------------------------------------------------
# render_top
# ---------------------------------------------------------------------------

def top_snapshot(alerts=()):
    agg = Aggregator()
    agg.ingest("n", frame(1, 0.0, counters={"mailbox.processed": 0,
                                            "cluster.delivered": 0}))
    agg.ingest("n", frame(2, 10.0,
                          counters={"mailbox.processed": 1000,
                                    "cluster.delivered": 900},
                          gauges={"mailbox.depth": 4,
                                  "cluster.staged": 1},
                          hists={"mailbox.latency_us":
                                 hist_entry([50.0, 300.0])}))
    snap = agg.snapshot(window=10.0, now=10.0)
    snap["alerts"] = list(alerts)
    return snap


def test_render_top_plain_table():
    text = render_top(top_snapshot(), color=False)
    lines = text.splitlines()
    assert lines[0].startswith("repro top")
    assert "NODE" in lines[1] and "OPS/S" in lines[1]
    row = next(ln for ln in lines if ln.startswith("n "))
    assert "100.0" in row                         # ops/s
    assert "ok" in row
    assert "\x1b[" not in text


def test_render_top_marks_firing_nodes():
    alert = {"slo": "error-rate", "node": "n", "state": "firing",
             "severity": "error"}
    colored = render_top(top_snapshot([alert]), color=True)
    assert "error-rate" in colored
    assert "\x1b[31m" in colored                  # firing row painted red
    plain = render_top(top_snapshot([alert]), color=False)
    assert "error-rate" in plain and "\x1b[" not in plain
