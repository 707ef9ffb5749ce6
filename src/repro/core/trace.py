"""Execution traces: what happened, in which order, stamped with clocks.

Every scheduler run produces a :class:`Trace` — the sequence of executed
transitions plus the effects they performed.  Traces serve four callers:

* deadlock/failure reports (human-readable rendering);
* the explorer (the decision indices replay the run);
* the race detector (per-event vector clocks and access annotations);
* fairness properties (per-task step counts and gaps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from .clock import VectorClock
from .effects import AccessKind

__all__ = ["TraceEvent", "Trace"]

#: bypasses the frozen ``__setattr__`` — for ``__init__`` only
_set = object.__setattr__


@dataclass(frozen=True, init=False)
class TraceEvent:
    """One atomic step of one task.

    ``effect_repr`` is a stable string form of the yielded effect (the
    effect objects themselves may hold live references to locks and
    mailboxes; traces must stay inspectable after the run is gone).

    Frozen like any frozen dataclass (equality, hashing, ``fields`` and
    ``replace`` are the generated ones), but ``__init__`` is written
    out: the scheduler builds one event per step, and one ``__dict__``
    store costs a fraction of the generated per-field frozen setattrs.
    """

    step: int
    task_tid: int
    task_name: str
    kind: str                      # transition kind: run/acquire/deliver/choice
    effect_repr: str
    chosen_index: int
    fanout: int                    # how many transitions were enabled
    vclock: Optional[VectorClock] = None
    access_var: Optional[str] = None
    access_kind: Optional[AccessKind] = None
    payload_repr: Optional[str] = None
    #: spawn-order index of the task — stable across replays of the same
    #: prefix, unlike the process-global ``task_tid`` (reduction bookkeeping)
    task_ltid: int = -1
    #: executed step's access footprint (see Effect.footprint); only on
    #: steps at or past the scheduler's ``record_from`` index — ``None``
    #: on every other step, including the replayed prefix of an
    #: explorer run
    footprint: Optional[frozenset] = None
    #: per-transition ``(ltid, kind, key)`` summary of the enabled set
    #: this step chose from; ``None`` below ``record_from``, like
    #: ``footprint``
    enabled: Optional[tuple] = None
    #: name of the sync object the yielded effect involves, if any
    #: (lock/monitor name, send/receive mailbox name)
    obj_name: Optional[str] = None
    #: envelope seq of a message *sent* this step (flow-arrow start);
    #: when set, ``obj_name`` is the destination mailbox
    msg_seq: Optional[int] = None
    #: envelope seq of the message *delivered* by this step (flow-arrow
    #: finish) — distinct from ``msg_seq`` because a deliver step's
    #: resumed segment may itself yield a Send (actor replies)
    recv_seq: Optional[int] = None
    #: mailbox the delivered message came from
    recv_mbox: Optional[str] = None
    #: protocol kind of the message *sent* this step (the Send effect's
    #: ``kind``), set with ``msg_seq``; a delivery's kind is its send's
    msg_kind: Optional[str] = None

    def __init__(self, step: int, task_tid: int, task_name: str, kind: str,
                 effect_repr: str, chosen_index: int, fanout: int,
                 vclock: Optional[VectorClock] = None,
                 access_var: Optional[str] = None,
                 access_kind: Optional[AccessKind] = None,
                 payload_repr: Optional[str] = None,
                 task_ltid: int = -1,
                 footprint: Optional[frozenset] = None,
                 enabled: Optional[tuple] = None,
                 obj_name: Optional[str] = None,
                 msg_seq: Optional[int] = None,
                 recv_seq: Optional[int] = None,
                 recv_mbox: Optional[str] = None,
                 msg_kind: Optional[str] = None) -> None:
        _set(self, "__dict__", {
            "step": step, "task_tid": task_tid, "task_name": task_name,
            "kind": kind, "effect_repr": effect_repr,
            "chosen_index": chosen_index, "fanout": fanout,
            "vclock": vclock, "access_var": access_var,
            "access_kind": access_kind, "payload_repr": payload_repr,
            "task_ltid": task_ltid, "footprint": footprint,
            "enabled": enabled, "obj_name": obj_name, "msg_seq": msg_seq,
            "recv_seq": recv_seq, "recv_mbox": recv_mbox,
            "msg_kind": msg_kind})

    def describe(self, show_clock: bool = False) -> str:
        extra = f" [{self.payload_repr}]" if self.payload_repr else ""
        clock = (f"  {self.vclock!r}"
                 if show_clock and self.vclock is not None else "")
        return (
            f"#{self.step:<4} {self.task_name:<18} {self.kind:<8} "
            f"{self.effect_repr}{extra} ({self.chosen_index + 1}/{self.fanout})"
            f"{clock}"
        )


@dataclass
class Trace:
    """A full run: events, observable output, and outcome."""

    events: list[TraceEvent] = field(default_factory=list)
    #: values yielded via Emit, in order — the run's observable output
    output: list[Any] = field(default_factory=list)
    #: "done" | "deadlock" | "failed" | "budget" | "pruned" (cut short by
    #: an exploration step hook — state already expanded elsewhere)
    outcome: str = "done"
    #: deadlock/blocked detail when outcome != "done"
    detail: str = ""

    # ------------------------------------------------------------------
    def schedule(self) -> list[int]:
        """The decision-index sequence; feed to FixedPolicy to replay."""
        return [e.chosen_index for e in self.events]

    def decisions(self) -> list[tuple[int, int]]:
        """(chosen, fanout) pairs — where the explorer can still branch."""
        return [(e.chosen_index, e.fanout) for e in self.events]

    def steps_by_task(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.events:
            counts[e.task_name] = counts.get(e.task_name, 0) + 1
        return counts

    def events_for(self, task_name: str) -> Iterator[TraceEvent]:
        return (e for e in self.events if e.task_name == task_name)

    def output_str(self) -> str:
        """Observable output joined as text (how pseudocode output prints)."""
        return "".join(str(v) for v in self.output)

    def render(self, last: Optional[int] = None) -> str:
        """Human-readable listing of (the tail of) the trace."""
        evs = self.events if last is None else self.events[-last:]
        lines = [e.describe() for e in evs]
        lines.append(f"outcome: {self.outcome}" + (f" ({self.detail})" if self.detail else ""))
        if self.output:
            lines.append(f"output: {self.output_str()!r}")
        return "\n".join(lines)

    def format(self, limit: Optional[int] = None, *,
               clocks: bool = True) -> str:
        """Full inspectable listing, vector-clock stamps included.

        ``limit=None`` (default) lists *every* event; an integer keeps
        only the last ``limit`` (:meth:`render`'s tail behaviour).  With
        ``clocks`` each line carries the task's vector clock at that
        step, so causal structure is readable straight off the listing.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be None or >= 0, got {limit}")
        if limit is None:
            evs = self.events
        else:
            evs = self.events[-limit:] if limit else []
        lines = [e.describe(show_clock=clocks) for e in evs]
        if limit is not None and len(self.events) > len(evs):
            lines.insert(0, f"... {len(self.events) - len(evs)} earlier "
                            f"events elided (limit={limit})")
        lines.append(f"outcome: {self.outcome}"
                     + (f" ({self.detail})" if self.detail else ""))
        if self.output:
            lines.append(f"output: {self.output_str()!r}")
        return "\n".join(lines)

    # -- export (repro.obs) --------------------------------------------
    def to_chrome_trace(self, **kwargs) -> dict:
        """Chrome ``trace_event`` JSON-ready dict — one lane per task,
        flow arrows pairing message sends with deliveries.  ``json.dump``
        the result and open it in ``chrome://tracing`` or Perfetto (see
        :func:`repro.obs.chrome_trace` for knobs)."""
        from ..obs.export import chrome_trace
        return chrome_trace(self, **kwargs)

    def to_jsonl(self) -> str:
        """JSONL structured-event stream: one JSON object per step plus
        a trailing summary record (:func:`repro.obs.jsonl_events`)."""
        from ..obs.export import jsonl_events
        return jsonl_events(self)

    def __len__(self) -> int:
        return len(self.events)
