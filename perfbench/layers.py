"""Per-layer metrics of a traced run, derived from its ledger snapshot.

Every ``*_us`` timing is the mean *self* time per call in
microseconds, except the ``*_wait_us`` ones, which are the mean time a
call spent blocked.  Counts are per workload operation unless named
otherwise.  A layer the workload does not touch reads 0.
"""

from __future__ import annotations

from typing import Any

from .ledger import busy_self_s

PROBLEMS = ("bounded_buffer", "bridge", "dining_philosophers",
            "readers_writers", "pingpong", "sum_workers")
RUNTIMES = ("threads", "actors", "coroutines")

#: every per-layer metric and its unit, in BENCHMARK.json order
METRICS: tuple[tuple[str, str], ...] = (
    ("message.encode_us", "us"),
    ("message.decode_us", "us"),
    ("message.frames_per_op", "1/op"),
    ("message.bytes_per_frame", "bytes"),
    ("transport.send_us", "us"),
    ("transport.frames_per_read", "count"),
    ("delivery.outbox_register_us", "us"),
    ("delivery.outbox_ack_us", "us"),
    ("delivery.dedup_fresh_us", "us"),
    ("delivery.credit_acquire_us", "us"),
    ("delivery.credit_wait_us", "us"),
    ("delivery.retransmits", "1/op"),
    ("delivery.duplicates", "1/op"),
    ("delivery.useful_ratio", "ratio"),
    ("node.tell_self_us", "us"),
    ("actors.enqueue_us", "us"),
    ("actors.executor_wait_us", "us"),
    ("actors.executor_run_us", "us"),
    ("actors.msgs_per_run", "count"),
    ("actors.handler_us", "us"),
    ("threads.monitor_acquire_wait_us", "us"),
    ("threads.monitor_waits", "1/op"),
    ("threads.notify_calls", "1/op"),
    ("threads.queue_wait_us", "us"),
    ("coroutines.run_us", "us"),
    ("coroutines.channel_ops", "1/op"),
) + tuple((f"matrix.{p}.{r}.ops_per_s", "1/s")
          for p in PROBLEMS for r in RUNTIMES) + (
    ("core.steps", "1/op"),
    ("core.step_us", "us"),
    ("core.fingerprints", "1/op"),
    ("core.fingerprint_us", "us"),
    ("verify.runs", "count"),
    ("verify.decisions", "count"),
    ("verify.pruned_runs", "count"),
    ("verify.decisions_per_s", "1/s"),
    ("verify.self_us", "us"),
    ("sim.decisions", "count"),
    ("sim.schedules_per_s", "1/s"),
    ("ledger.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(res: dict[str, Any]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, every name in
    :data:`METRICS`."""
    m = res["measured"]
    snap = m["snap"]
    ops = m["ops"]

    def calls(name: str) -> int:
        return snap.get(name, {}).get("calls", 0)

    def units(name: str) -> float:
        return snap.get(name, {}).get("units", 0.0)

    def self_us(name: str) -> float:
        row = snap.get(name)
        return _div(row["self_s"], row["calls"]) * 1e6 if row else 0.0

    def total_us(name: str) -> float:
        row = snap.get(name)
        return _div(row["total_s"], row["calls"]) * 1e6 if row else 0.0

    fresh = units("delivery.dedup_fresh")
    values: dict[str, float] = {
        "message.encode_us": self_us("message.encode"),
        "message.decode_us": self_us("message.decode"),
        "message.frames_per_op": _div(calls("message.encode"), ops),
        "message.bytes_per_frame": _div(units("message.encode"),
                                        calls("message.encode")),
        "transport.send_us": self_us("transport.send"),
        "transport.frames_per_read": _div(units("transport.push"),
                                          calls("transport.push")),
        "delivery.outbox_register_us": self_us("delivery.outbox_register"),
        "delivery.outbox_ack_us": self_us("delivery.outbox_ack"),
        "delivery.dedup_fresh_us": self_us("delivery.dedup_fresh"),
        "delivery.credit_acquire_us": self_us("delivery.credit_acquire"),
        "delivery.credit_wait_us": _div(
            snap.get("delivery.credit_wait", {}).get("total_s", 0.0),
            calls("delivery.credit_acquire")) * 1e6,
        "delivery.retransmits": _div(units("delivery.outbox_due"), ops),
        "delivery.duplicates": _div(calls("delivery.dedup_fresh") - fresh,
                                    ops),
        "delivery.useful_ratio": _div(fresh, calls("message.decode")),
        "node.tell_self_us": self_us("node.tell"),
        "actors.enqueue_us": self_us("actors.enqueue"),
        "actors.executor_wait_us": total_us("actors.executor_wait"),
        "actors.executor_run_us": self_us("actors.executor_run"),
        "actors.msgs_per_run": _div(calls("actors.handler"),
                                    calls("actors.executor_run")),
        "actors.handler_us": self_us("actors.handler"),
        "threads.monitor_acquire_wait_us":
            total_us("threads.monitor_acquire"),
        "threads.monitor_waits": _div(calls("threads.monitor_wait"), ops),
        "threads.notify_calls": _div(calls("threads.notify"), ops),
        "threads.queue_wait_us": total_us("threads.queue"),
        "coroutines.run_us": self_us("coroutines.run"),
        "coroutines.channel_ops": _div(calls("coroutines.channel_op"), ops),
        "core.steps": _div(calls("core.step"), ops),
        "core.step_us": self_us("core.step"),
        "core.fingerprints": _div(calls("core.fingerprint"), ops),
        "core.fingerprint_us": self_us("core.fingerprint"),
        "ledger.coverage": _div(busy_self_s(snap), m["cpu_s"]),
        "trace.overhead": res["trace_overhead"],
    }
    extra = res.get("layer_extra", {})
    out = {}
    for name, unit in METRICS:
        out[name] = (float(extra.get(name, values.get(name, 0.0))), unit)
    return out
