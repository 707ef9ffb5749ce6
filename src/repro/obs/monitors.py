"""Online hazard monitors over the kernel event stream.

Torres Lopez et al. (arXiv:1706.07372) argue that concurrency tooling
must detect hazard *patterns* — deadlock, lost wakeups, message-order
violations — while the program runs, not after a post-mortem.  This
module is that watching layer for the simulation kernel: a pluggable
:class:`MonitorBus` the :class:`~repro.core.scheduler.Scheduler` feeds
every :class:`~repro.core.trace.TraceEvent` as it happens
(``Scheduler(monitors=...)``, is-``None``-guarded exactly like
``metrics=``), plus the shipped :class:`Detector` implementations.

The bus never touches live kernel objects: :class:`KernelView`
reconstructs lock ownership, condition queues and mailbox depths purely
from the event stream, so detectors are *non-interfering by
construction* — they cannot perturb scheduling decisions, state
fingerprints or sleep sets, which is what lets the explorer run them on
every interleaving (``explore(monitors=True)``) and still report
identical run/decision counts.

Shipped detectors (``default_detectors()``):

=========================  ==============================================
``DeadlockDetector``       circular-wait cycle reporting over the live
                           wait-for graph (``deadlock``, error) and
                           lock-order inversion over the acquisition
                           graph (``lock-order-inversion``, warning)
``LostWakeupDetector``     a NOTIFY that found no waiter, later slept
                           through by a WAIT (``lost-wakeup``, error)
``StarvationDetector``     task runnable for >= N scheduling decisions
                           without running (``starvation``, warning)
``MessageOrderDetector``   arrival order differs from deposit order
                           (``message-reorder``, info — a witness
                           refuting misconception M5) and mailbox
                           saturation (``mailbox-saturation``, warning)
``RaceDetector``           vector-clock data races with the locks held
                           at each access (``data-race``, error)
``FailureDetector``        task exceptions / illegal effects
                           (``task-failure``, error)
``WitnessDetector``        executions refuting Table-III misconceptions
                           (``witness-*``, info): a sender that ran on
                           before its message arrived refutes M3, a
                           task entering a monitor while a waiter
                           sleeps refutes S6
=========================  ==============================================

Each hazard names the misconceptions the execution *refutes* via
``Hazard.refutes`` (see
:func:`repro.misconceptions.catalog.refuted_by`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..core.trace import Trace, TraceEvent

__all__ = [
    "Hazard", "KernelView", "Detector", "MonitorBus",
    "DeadlockDetector", "LostWakeupDetector", "StarvationDetector",
    "MessageOrderDetector", "RaceDetector", "FailureDetector",
    "WitnessDetector", "default_detectors", "trace_locksets",
]

#: hazard severities, most severe first (exit codes key off error/warning)
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Hazard:
    """One detected hazard pattern.

    Holds only primitives (no TraceEvent/lock references) so hazards
    survive pickling across the explorer's forked workers and stay
    inspectable after the run is gone.
    """

    kind: str                       # "deadlock" | "lost-wakeup" | ...
    severity: str                   # "error" | "warning" | "info"
    message: str
    step: int                       # step at which the hazard fired
    tasks: tuple = ()               # task names involved
    objects: tuple = ()             # sync-object names involved
    #: Table-III misconception ids this execution refutes (e.g. "M5")
    refutes: tuple = ()
    #: stable subject of the hazard (e.g. "proto@party") — hazards
    #: reported from both ends of a cluster link word their messages
    #: differently but share the subject, so dedup keys on it
    subject: str = ""
    #: wire/mailbox sequence of the offending message, when there is one
    seq: Optional[int] = None

    @property
    def key(self) -> tuple:
        """Dedup identity — the same pattern reported once per bus.

        Subject-bearing hazards key on ``(kind, subject, seq)``: the
        same offending wire message observed from both ends of a
        cluster link produces differently-worded messages but one key.
        Everything else keeps the historical ``(kind, message)`` key.
        """
        if self.subject:
            return (self.kind, self.subject, self.seq)
        return (self.kind, self.message)

    def describe(self) -> str:
        tail = f" [refutes {', '.join(self.refutes)}]" if self.refutes else ""
        return f"[{self.severity}] {self.kind} @step {self.step}: " \
               f"{self.message}{tail}"


class _Waiting:
    """A task parked in a monitor's condition queue."""

    __slots__ = ("monitor", "depth", "step", "woken")

    def __init__(self, monitor: str, depth: int, step: int):
        self.monitor = monitor
        self.depth = depth
        self.step = step
        self.woken = False


class KernelView:
    """Kernel state reconstructed purely from the event stream.

    The one genuinely ambiguous event is ``acquire X`` yielded by a
    running task: the kernel grants immediately when the lock is free
    and parks the task otherwise, and the event looks the same either
    way.  The task's *next* event disambiguates exactly: a parked task
    can only reappear through an ``acquire``-kind grant transition,
    while a task granted immediately reappears with any other kind — so
    resolution is deferred until that next event (or run end).
    """

    def __init__(self) -> None:
        #: task key -> display name
        self.names: dict[int, str] = {}
        #: task key -> {lock/monitor name: hold depth}
        self.held: dict[int, dict[str, int]] = {}
        #: lock/monitor name -> task keys currently holding it
        self.owners: dict[str, set] = {}
        #: task key -> lock name of an unresolved ``acquire`` effect
        self.pending_acquire: dict[int, str] = {}
        self.pending_since: dict[int, int] = {}
        #: task key -> condition-queue entry
        self.waiting: dict[int, _Waiting] = {}
        #: monitor name -> un-woken waiter keys, FIFO
        self.wait_queue: dict[str, list] = {}
        #: task key -> mailbox / joined-task name it blocked on
        self.blocked_recv: dict[int, str] = {}
        self.blocked_join: dict[int, str] = {}
        self.finished: set = set()
        #: mailbox name -> current depth (deposits minus deliveries)
        self.mail_depth: dict[str, int] = {}
        #: events executed per task (witness detectors compare progress)
        self.counts: dict[int, int] = {}
        self.last_step = 0
        # per-event annotations, reset by every feed()
        self.evt_grant: Optional[tuple] = None   # (key, name, held_before)
        self.evt_wait: Optional[tuple] = None    # (key, monitor)
        self.evt_notify: Optional[tuple] = None  # (monitor, woken_count)

    @staticmethod
    def task_key(event: "TraceEvent") -> int:
        # spawn-order ltid when recorded (replay-stable), else global tid
        return event.task_ltid if event.task_ltid >= 0 else event.task_tid

    def name_of(self, key: int) -> str:
        return self.names.get(key, f"task-{key}")

    def locks_held(self, key: int) -> frozenset:
        return frozenset(self.held.get(key, ()))

    # ------------------------------------------------------------------
    def feed(self, event: "TraceEvent") -> None:
        key = self.task_key(event)
        self.last_step = event.step
        if event.task_name:
            self.names[key] = event.task_name
        self.counts[key] = self.counts.get(key, 0) + 1
        self.evt_grant = self.evt_wait = self.evt_notify = None

        # -- resolve what this task was doing when last seen -----------
        pend = self.pending_acquire.pop(key, None)
        if pend is not None:
            self.pending_since.pop(key, None)
            self._grant(key, pend, 1)
        waiter = self.waiting.get(key)
        if waiter is not None and event.kind == "acquire":
            # a parked waiter only reappears via the re-acquire grant
            del self.waiting[key]
            self._grant(key, waiter.monitor, waiter.depth)
        self.blocked_recv.pop(key, None)
        self.blocked_join.pop(key, None)

        # -- interpret the new effect ----------------------------------
        er = event.effect_repr
        obj = event.obj_name
        if obj is not None:
            if er.startswith("acquire "):
                if self.held.get(key, {}).get(obj):
                    self.held[key][obj] += 1          # reentrant: immediate
                else:
                    self.pending_acquire[key] = obj
                    self.pending_since[key] = event.step
            elif er.startswith("release "):
                depths = self.held.get(key, {})
                if obj in depths:
                    depths[obj] -= 1
                    if depths[obj] <= 0:
                        del depths[obj]
                        self.owners.get(obj, set()).discard(key)
            elif er.startswith("wait "):
                depth = self.held.get(key, {}).pop(obj, 1)
                self.owners.get(obj, set()).discard(key)
                self.waiting[key] = _Waiting(obj, depth, event.step)
                self.wait_queue.setdefault(obj, []).append(key)
                self.evt_wait = (key, obj)
            elif er.startswith("notify"):
                queue = self.wait_queue.get(obj, [])
                woken = list(queue) if er.startswith("notifyAll") \
                    else queue[:1]
                del queue[:len(woken)]
                for w in woken:
                    self.waiting[w].woken = True
                self.evt_notify = (obj, len(woken))
            elif er.startswith("receive from "):
                self.blocked_recv[key] = obj
        if er == "return" or er.startswith(("raise ", "illegal ")):
            self.finished.add(key)
        elif er.startswith("join "):
            self.blocked_join[key] = er[5:]

        if event.msg_seq is not None and obj is not None:
            self.mail_depth[obj] = self.mail_depth.get(obj, 0) + 1
        if event.recv_seq is not None and event.recv_mbox is not None:
            self.mail_depth[event.recv_mbox] = \
                self.mail_depth.get(event.recv_mbox, 0) - 1

    def _grant(self, key: int, name: str, depth: int) -> None:
        before = tuple(sorted(self.held.get(key, ())))
        held = self.held.setdefault(key, {})
        held[name] = held.get(name, 0) + depth
        self.owners.setdefault(name, set()).add(key)
        self.evt_grant = (key, name, before)

    # ------------------------------------------------------------------
    # end-of-run wait-for structure
    # ------------------------------------------------------------------
    def blocked_tasks(self) -> dict[int, tuple]:
        """Unfinished blocked tasks: key -> ("lock"/"notify"/...,
        object name).  Only meaningful after a deadlocked run, where no
        task is runnable and every unresolved pend really parked."""
        out: dict[int, tuple] = {}
        for key, name in self.pending_acquire.items():
            out[key] = ("lock", name)
        for key, w in self.waiting.items():
            out[key] = ("lock", w.monitor) if w.woken \
                else ("notify", w.monitor)
        for key, name in self.blocked_recv.items():
            out[key] = ("message", name)
        for key, name in self.blocked_join.items():
            out[key] = ("join", name)
        return out

    def waits_for(self) -> dict[int, set]:
        """Task -> tasks it transitively needs (the wait-for graph)."""
        by_name = {n: k for k, n in self.names.items()}
        edges: dict[int, set] = {}
        for key, (why, name) in self.blocked_tasks().items():
            if why == "lock":
                targets = self.owners.get(name, set()) - {key}
            elif why == "join":
                target = by_name.get(name)
                targets = {target} if target is not None \
                    and target not in self.finished else set()
            else:
                targets = set()
            edges[key] = targets
        return edges

    def find_cycle(self) -> Optional[list]:
        """One circular-wait cycle of task keys, or None."""
        edges = self.waits_for()
        for start in edges:
            path: list = []
            on_path: set = set()
            node: Optional[int] = start
            while node is not None and node not in on_path:
                if node not in edges:
                    break
                path.append(node)
                on_path.add(node)
                nxt = edges.get(node) or set()
                node = min(nxt) if nxt else None
            else:
                if node is not None:
                    return path[path.index(node):]
        return None


class Detector:
    """Base class for monitor-bus detectors.

    ``on_event`` is called after the :class:`KernelView` absorbed the
    event; ``ready`` carries the names of tasks that were runnable when
    the step was chosen (online feeds only).  ``on_cluster`` gets a
    cluster node's :class:`~repro.cluster.observe.ClusterEvent`, which
    the view never sees.  ``on_end`` fires once with the run's outcome.
    All three return iterables of :class:`Hazard`.
    """

    name = "detector"

    def on_event(self, view: KernelView, event: "TraceEvent",
                 ready: tuple) -> Iterable[Hazard]:
        return ()

    def on_cluster(self, event) -> Iterable[Hazard]:
        return ()

    def on_end(self, view: KernelView, outcome: str,
               detail: str) -> Iterable[Hazard]:
        return ()


class MonitorBus:
    """Fan one run's event stream out to a set of detectors.

    Single-use, like the Scheduler: the :class:`KernelView` accumulates
    one run's state.  Attach with ``Scheduler(monitors=bus)`` for the
    online feed, or post-hoc with :meth:`scan` on a recorded trace
    (everything except ready-set-dependent detectors behaves
    identically — starvation needs the online feed).
    """

    def __init__(self, detectors: Optional[Iterable[Detector]] = None):
        self.detectors: list[Detector] = (list(detectors)
                                          if detectors is not None
                                          else default_detectors())
        self.view = KernelView()
        self.hazards: list[Hazard] = []
        self._seen: set = set()
        self._finished = False
        self.events_seen = 0
        #: called with each *new* (deduplicated) hazard, for the bus's
        #: owner (a ClusterNode escalates the violations it flags itself,
        #: because one bus may serve several nodes)
        self.on_hazard: Optional[callable] = None

    def feed(self, event: "TraceEvent", ready: tuple = ()) -> None:
        self.events_seen += 1
        self.view.feed(event)
        for det in self.detectors:
            for hz in det.on_event(self.view, event, ready):
                self._add(hz)

    def feed_cluster(self, event) -> None:
        """One cluster-node event: to each detector's ``on_cluster``,
        bypassing the kernel view."""
        self.events_seen += 1
        for det in self.detectors:
            for hz in det.on_cluster(event):
                self._add(hz)

    def finish(self, outcome: str = "done", detail: str = "") -> None:
        if self._finished:
            return
        self._finished = True
        for det in self.detectors:
            for hz in det.on_end(self.view, outcome, detail):
                self._add(hz)

    def scan(self, trace: "Trace") -> list[Hazard]:
        """Offline feed of a recorded trace; returns the hazards."""
        for event in trace.events:
            self.feed(event)
        self.finish(trace.outcome, trace.detail)
        return self.hazards

    def _add(self, hz: Hazard) -> bool:
        if hz.key in self._seen:
            return False
        self._seen.add(hz.key)
        self.hazards.append(hz)
        if self.on_hazard is not None:
            self.on_hazard(hz)
        return True

    def publish(self, hazard: Hazard) -> bool:
        """Report an externally detected hazard on this bus.

        The detectors above watch the event stream; some hazard sources
        watch something else entirely — the telemetry SLO engine fires
        burn-rate alerts computed from cluster-wide time series, not
        from any single event.  ``publish`` gives them the same
        first-class treatment (dedup by ``Hazard.key``, severity
        ranking, ``flagged``/``counts``/``format``) as detector output.
        Returns False when the hazard duplicates one already reported.
        """
        return self._add(hazard)

    # ------------------------------------------------------------------
    @property
    def flagged(self) -> bool:
        """True when any error/warning hazard fired (CLI exit codes)."""
        return any(h.severity in ("error", "warning") for h in self.hazards)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for h in self.hazards:
            out[h.kind] = out.get(h.kind, 0) + 1
        return out

    def format(self) -> str:
        if not self.hazards:
            return "no hazards detected"
        order = {s: i for i, s in enumerate(SEVERITIES)}
        ranked = sorted(self.hazards,
                        key=lambda h: (order.get(h.severity, 9), h.step))
        return "\n".join(h.describe() for h in ranked)


# ===========================================================================
# shipped detectors
# ===========================================================================

class DeadlockDetector(Detector):
    """Circular-wait reporting + lock-order inversion warnings.

    The wait-for graph is materialized from the view when a run ends
    deadlocked; during the run, every grant taken while holding other
    locks adds edges to the lock *acquisition-order* graph, and a cycle
    there is the ABBA pattern even on runs that happened to survive.
    """

    name = "deadlock"

    def __init__(self) -> None:
        #: (held, acquired) -> (task name, step) of first observation
        self.order_edges: dict[tuple, tuple] = {}
        self._warned: set = set()

    def on_event(self, view, event, ready):
        if view.evt_grant is None:
            return
        key, name, before = view.evt_grant
        for held in before:
            if held == name:
                continue
            edge = (held, name)
            if edge not in self.order_edges:
                self.order_edges[edge] = (view.name_of(key), event.step)
                yield from self._check_order(edge, event.step)

    def _check_order(self, new_edge, step):
        # DFS from the edge head back to its tail over recorded edges
        held, acquired = new_edge
        frozen = frozenset((held, acquired))
        if frozen in self._warned:
            return
        stack, seen = [acquired], set()
        while stack:
            node = stack.pop()
            if node == held:
                self._warned.add(frozen)
                t1, s1 = self.order_edges[new_edge]
                yield Hazard(
                    kind="lock-order-inversion", severity="warning",
                    step=step, tasks=(t1,), objects=(held, acquired),
                    message=f"locks {held!r} and {acquired!r} are taken "
                            f"in both orders across tasks ({t1} acquired "
                            f"{acquired!r} while holding {held!r} at step "
                            f"{s1}) — ABBA deadlock possible")
                return
            if node in seen:
                continue
            seen.add(node)
            stack.extend(b for (a, b) in self.order_edges if a == node)

    def on_end(self, view, outcome, detail):
        if outcome != "deadlock":
            return
        cycle = view.find_cycle()
        if cycle:
            blocked = view.blocked_tasks()
            parts = []
            for i, key in enumerate(cycle):
                _, obj = blocked[key]
                holder = cycle[(i + 1) % len(cycle)]
                parts.append(f"{view.name_of(key)} waits for {obj!r} "
                             f"held by {view.name_of(holder)}")
            yield Hazard(
                kind="deadlock", severity="error", step=view.last_step,
                tasks=tuple(view.name_of(k) for k in cycle),
                objects=tuple(blocked[k][1] for k in cycle),
                message="circular wait: " + "; ".join(parts))
        else:
            reasons = "; ".join(
                f"{view.name_of(k)} waits for {why} on {obj!r}"
                for k, (why, obj) in sorted(view.blocked_tasks().items()))
            yield Hazard(
                kind="deadlock", severity="error", step=view.last_step,
                tasks=tuple(sorted(view.name_of(k)
                                   for k in view.blocked_tasks())),
                message=f"no task can run again: {reasons or detail}")


class LostWakeupDetector(Detector):
    """A NOTIFY that woke nobody, slept through by a later WAIT."""

    name = "lost-wakeup"

    def __init__(self) -> None:
        #: monitor name -> step of the latest notify that found no waiter
        self.missed: dict[str, int] = {}

    def on_event(self, view, event, ready):
        if view.evt_notify is not None:
            monitor, woken = view.evt_notify
            if woken == 0:
                self.missed[monitor] = event.step
        return ()

    def on_end(self, view, outcome, detail):
        if outcome != "deadlock":
            return
        for key, w in sorted(view.waiting.items()):
            missed_at = self.missed.get(w.monitor)
            if w.woken or missed_at is None or missed_at >= w.step:
                continue
            name = view.name_of(key)
            yield Hazard(
                kind="lost-wakeup", severity="error", step=w.step,
                tasks=(name,), objects=(w.monitor,),
                message=f"{name} sleeps forever on {w.monitor!r}: the "
                        f"only notify fired at step {missed_at}, before "
                        f"the wait was registered at step {w.step} — "
                        f"an IF-guarded wait missed its wakeup")


class StarvationDetector(Detector):
    """A task runnable for >= ``threshold`` decisions without running.

    Needs the online feed (the ready set is not recorded in traces);
    :meth:`MonitorBus.scan` leaves this detector silent.
    """

    name = "starvation"

    def __init__(self, threshold: int = 50):
        self.threshold = threshold
        self.streak: dict[str, int] = {}
        self._fired: set = set()

    def on_event(self, view, event, ready):
        if not ready:
            return
        runner = event.task_name
        live = set(ready)
        for name in list(self.streak):
            if name not in live:
                del self.streak[name]
        self.streak[runner] = 0
        for name in live:
            if name == runner:
                continue
            self.streak[name] = self.streak.get(name, 0) + 1
            if self.streak[name] >= self.threshold \
                    and name not in self._fired:
                self._fired.add(name)
                yield Hazard(
                    kind="starvation", severity="warning", step=event.step,
                    tasks=(name,),
                    message=f"{name} has been runnable for "
                            f"{self.streak[name]} consecutive decisions "
                            f"without being scheduled")


class MessageOrderDetector(Detector):
    """Arrival order vs deposit order, plus mailbox saturation.

    Envelope sequence numbers are assigned at deposit time, so a
    delivery whose seq is below an earlier delivery's seq from the same
    mailbox overtook it in flight — a concrete refutation of
    misconception M5 ("messages arrive in send order").
    """

    name = "message-order"

    def __init__(self, saturation: int = 8):
        self.saturation = saturation
        self.max_seq: dict[str, int] = {}
        self._saturated: set = set()
        self._reordered: set = set()

    def on_event(self, view, event, ready):
        if event.msg_seq is not None and event.obj_name is not None:
            mbox = event.obj_name
            depth = view.mail_depth.get(mbox, 0)
            if depth >= self.saturation and mbox not in self._saturated:
                self._saturated.add(mbox)
                yield Hazard(
                    kind="mailbox-saturation", severity="warning",
                    step=event.step, objects=(mbox,),
                    message=f"mailbox {mbox!r} reached depth {depth} "
                            f"(>= {self.saturation}): producers outpace "
                            f"the consumer")
        if event.recv_seq is not None and event.recv_mbox is not None:
            mbox = event.recv_mbox
            last = self.max_seq.get(mbox)
            if last is not None and event.recv_seq < last \
                    and mbox not in self._reordered:
                self._reordered.add(mbox)
                yield Hazard(
                    kind="message-reorder", severity="info",
                    step=event.step, tasks=(event.task_name,),
                    objects=(mbox,), refutes=("M5",),
                    message=f"{event.task_name} received message "
                            f"#{event.recv_seq} from {mbox!r} after "
                            f"message #{last}: arrival order differs "
                            f"from deposit order")
            self.max_seq[mbox] = max(last or -1, event.recv_seq)


class RaceDetector(Detector):
    """Online vector-clock race detection with lockset reporting.

    Same happens-before criterion as :func:`repro.verify.race.find_races`
    (different tasks, >= one write, Lamport-concurrent clocks), run
    incrementally per access and annotated with the locks each side
    held — the missing-synchronization half of the report.
    """

    name = "data-race"

    def __init__(self, max_accesses: int = 64):
        self.max_accesses = max_accesses
        #: var -> [(task key, name, kind, step, vclock, lockset)]
        self.accesses: dict[str, list] = {}

    def on_event(self, view, event, ready):
        if event.access_var is None or event.vclock is None:
            return
        var = event.access_var
        key = view.task_key(event)
        locks = view.locks_held(key)
        kind = event.access_kind.value
        history = self.accesses.setdefault(var, [])
        for (okey, oname, okind, ostep, oclock, olocks) in history:
            if okey == key or (okind == "read" and kind == "read"):
                continue
            if not event.vclock.concurrent(oclock):
                continue
            common = locks & olocks
            if common:
                sync = f"despite common lock {sorted(common)}"
            elif locks or olocks:
                sync = (f"no common lock "
                        f"({oname} held {sorted(olocks) or 'none'}, "
                        f"{event.task_name} held {sorted(locks) or 'none'})")
            else:
                sync = "no locks held at either access"
            yield Hazard(
                kind="data-race", severity="error", step=event.step,
                tasks=(oname, event.task_name), objects=(var,),
                message=f"unsynchronized {okind}/{kind} of {var!r}: "
                        f"{oname} @step {ostep} || {event.task_name} "
                        f"@step {event.step} — {sync}")
        if len(history) < self.max_accesses:
            history.append((key, event.task_name, kind, event.step,
                            event.vclock, locks))


class FailureDetector(Detector):
    """Task exceptions and protocol violations become hazards."""

    name = "task-failure"

    def on_event(self, view, event, ready):
        er = event.effect_repr
        if er.startswith("raise ") or er.startswith("illegal "):
            yield Hazard(
                kind="task-failure", severity="error", step=event.step,
                tasks=(event.task_name,),
                message=f"{event.task_name} failed: {er}")

    def on_end(self, view, outcome, detail):
        if outcome == "failed" or outcome == "budget":
            yield Hazard(
                kind="task-failure", severity="error", step=view.last_step,
                message=f"run ended {outcome}"
                        + (f": {detail}" if detail else ""))


class WitnessDetector(Detector):
    """Executions that refute Table-III misconception semantics.

    These are *info* hazards: nothing is wrong with the program — the
    run is evidence against a wrong mental model, the raw material of
    the paper's comprehension questions.
    """

    name = "witness"

    def __init__(self) -> None:
        #: envelope seq -> (sender key, events sender had executed)
        self.sent: dict[int, tuple] = {}
        self._async_seen = False
        self._release_seen = False

    def on_event(self, view, event, ready):
        if event.msg_seq is not None:
            key = view.task_key(event)
            self.sent[event.msg_seq] = (key, view.counts.get(key, 0))
        if event.recv_seq is not None and not self._async_seen:
            origin = self.sent.get(event.recv_seq)
            if origin is not None:
                sender_key, count_at_send = origin
                if view.counts.get(sender_key, 0) > count_at_send:
                    self._async_seen = True
                    yield Hazard(
                        kind="witness-async-send", severity="info",
                        step=event.step,
                        tasks=(view.name_of(sender_key), event.task_name),
                        refutes=("M3",),
                        message=f"{view.name_of(sender_key)} kept "
                                f"executing before its message was "
                                f"delivered to {event.task_name}: send "
                                f"is asynchronous, not a method call")
        if view.evt_grant is not None and not self._release_seen:
            key, name, _ = view.evt_grant
            sleepers = [w for w in view.wait_queue.get(name, ())
                        if w != key]
            if sleepers:
                self._release_seen = True
                waiter = view.name_of(sleepers[0])
                yield Hazard(
                    kind="witness-wait-releases", severity="info",
                    step=event.step,
                    tasks=(view.name_of(key), waiter), objects=(name,),
                    refutes=("S6",),
                    message=f"{view.name_of(key)} entered monitor "
                            f"{name!r} while {waiter} sits in its wait "
                            f"set: WAIT releases the monitor, it does "
                            f"not spin holding it")


def default_detectors() -> list[Detector]:
    """A fresh instance of every shipped detector (per-run state!)."""
    return [DeadlockDetector(), LostWakeupDetector(),
            StarvationDetector(), MessageOrderDetector(),
            RaceDetector(), FailureDetector(), WitnessDetector()]


def trace_locksets(trace: "Trace") -> dict[int, frozenset]:
    """Event index -> lock/monitor names the executing task held there.

    Drives the race reports' missing-synchronization annotations
    (:class:`repro.verify.race.Race`): replays the trace through a
    :class:`KernelView` and snapshots the executing task's lockset at
    every event.
    """
    view = KernelView()
    out: dict[int, frozenset] = {}
    for i, event in enumerate(trace.events):
        view.feed(event)
        out[i] = view.locks_held(view.task_key(event))
    return out
