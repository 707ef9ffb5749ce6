"""Trace export — Chrome ``trace_event`` JSON and JSONL event streams.

:func:`chrome_trace` converts a kernel :class:`~repro.core.trace.Trace`
into the Trace Event Format that ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev) load directly:

* one lane (``tid``) per task, named via ``thread_name`` metadata;
* one complete slice (``ph: "X"``) per executed atomic step, with the
  effect as the slice name and chosen/fanout + vector clock in ``args``;
* instant events (``ph: "i"``) for sends, notifies and emits;
* flow arrows (``ph: "s"`` → ``ph: "f"``) pairing every message send
  with its delivery, keyed by the envelope's global sequence number;
* counter lanes (``ph: "C"``) tracking each mailbox's pending depth.

The time axis is *logical*: one scheduler step is ``scale`` microseconds
(the kernel has no wall clock — determinism is the point).  The module
only reads public ``Trace``/``TraceEvent`` attributes, so it stays free
of kernel imports and the kernel free of JSON concerns.
"""

from __future__ import annotations

import json
from typing import Any, Optional

__all__ = ["chrome_trace", "jsonl_events"]

#: microseconds of Chrome-trace time per scheduler step
DEFAULT_SCALE = 10


def _vclock_dict(vclock: Any) -> Optional[dict[str, int]]:
    if vclock is None:
        return None
    return {str(pid): t for pid, t in vclock.components()}


def _lane(event: Any) -> int:
    """Stable per-task lane id: spawn-order index when recorded."""
    return event.task_ltid if event.task_ltid >= 0 else event.task_tid


def chrome_trace(trace: Any, *, pid: int = 1,
                 scale: int = DEFAULT_SCALE) -> dict[str, Any]:
    """Render ``trace`` as a Chrome Trace Event Format object.

    Returns a JSON-ready dict; ``json.dump`` it to a ``.json`` file and
    open that file in ``chrome://tracing`` or Perfetto.
    """
    events: list[dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0, "ts": 0,
        "args": {"name": "repro kernel"},
    }]

    # lanes: first-seen order of tasks, named metadata + sort order
    lanes: dict[int, str] = {}
    for e in trace.events:
        tid = _lane(e)
        if tid not in lanes:
            lanes[tid] = e.task_name
    for sort_index, (tid, name) in enumerate(lanes.items()):
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "ts": 0, "args": {"name": name}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": pid,
                       "tid": tid, "ts": 0,
                       "args": {"sort_index": sort_index}})

    depths: dict[str, int] = {}
    for e in trace.events:
        tid = _lane(e)
        ts = (e.step - 1) * scale
        args: dict[str, Any] = {"kind": e.kind,
                                "chosen": f"{e.chosen_index + 1}/{e.fanout}"}
        if e.payload_repr:
            args["payload"] = e.payload_repr
        vc = _vclock_dict(e.vclock)
        if vc is not None:
            args["vclock"] = vc
        # events minted under a causal request context carry the id —
        # it lands on the slice and on both ends of the flow arrow so
        # Perfetto can pull one request's arrows out of the swarm
        req = getattr(e, "request_id", None)
        if req is not None:
            args["request_id"] = req
        events.append({"ph": "X", "name": e.effect_repr, "cat": e.kind,
                       "pid": pid, "tid": tid, "ts": ts, "dur": scale - 2,
                       "args": args})

        if e.recv_seq is not None:
            rec: dict[str, Any] = {"ph": "f", "bp": "e", "name": "message",
                                   "cat": "message", "id": e.recv_seq,
                                   "pid": pid, "tid": tid, "ts": ts + 1}
            if req is not None:
                rec["args"] = {"request_id": req}
            events.append(rec)
        if e.msg_seq is not None:
            rec = {"ph": "s", "name": "message", "cat": "message",
                   "id": e.msg_seq, "pid": pid, "tid": tid, "ts": ts + 1}
            if req is not None:
                rec["args"] = {"request_id": req}
            events.append(rec)
        if e.msg_seq is not None \
                or e.effect_repr.startswith(("notify", "emit")):
            events.append({"ph": "i", "s": "t", "name": e.effect_repr,
                           "cat": "instant", "pid": pid, "tid": tid,
                           "ts": ts + 1})

        # mailbox pending-depth counter lanes, reconstructed from the
        # send/deliver sequence (one Chrome counter track per mailbox)
        if e.recv_seq is not None and e.recv_mbox is not None:
            depths[e.recv_mbox] = depths.get(e.recv_mbox, 0) - 1
            events.append({"ph": "C", "name": f"mailbox {e.recv_mbox}",
                           "pid": pid, "tid": tid, "ts": ts + 2,
                           "args": {"pending": depths[e.recv_mbox]}})
        if e.msg_seq is not None and e.obj_name is not None:
            depths[e.obj_name] = depths.get(e.obj_name, 0) + 1
            events.append({"ph": "C", "name": f"mailbox {e.obj_name}",
                           "pid": pid, "tid": tid, "ts": ts + 2,
                           "args": {"pending": depths[e.obj_name]}})

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs.export",
            "outcome": trace.outcome,
            "detail": trace.detail,
            "steps": len(trace.events),
            "logical_step_us": scale,
        },
    }


def jsonl_events(trace: Any) -> str:
    """Render ``trace`` as a JSONL structured-event stream.

    One JSON object per executed step, in execution order, followed by a
    single ``summary`` record — greppable, streamable, and diffable
    across replayed runs.
    """
    lines = []
    for e in trace.events:
        record: dict[str, Any] = {
            "type": "step",
            "step": e.step,
            "task": e.task_name,
            "ltid": e.task_ltid,
            "kind": e.kind,
            "effect": e.effect_repr,
            "chosen": e.chosen_index,
            "fanout": e.fanout,
        }
        if e.payload_repr is not None:
            record["payload"] = e.payload_repr
        if e.obj_name is not None:
            record["object"] = e.obj_name
        if e.msg_seq is not None:
            record["msg_seq"] = e.msg_seq
        if e.recv_seq is not None:
            record["recv_seq"] = e.recv_seq
            record["recv_mbox"] = e.recv_mbox
        vc = _vclock_dict(e.vclock)
        if vc is not None:
            record["vclock"] = vc
        if e.access_var is not None:
            record["access"] = {"var": e.access_var,
                                "kind": e.access_kind.value
                                if e.access_kind else None}
        lines.append(json.dumps(record, sort_keys=True))
    lines.append(json.dumps({
        "type": "summary",
        "outcome": trace.outcome,
        "detail": trace.detail,
        "events": len(trace.events),
        "output": [repr(v) for v in trace.output],
    }, sort_keys=True))
    return "\n".join(lines) + "\n"
