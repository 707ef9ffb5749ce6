"""The deterministic cooperative scheduler — heart of the kernel.

One :class:`Scheduler` executes one run of a concurrent program.  Tasks
are generators; the scheduler repeatedly

1. computes the set of *enabled transitions* (runnable tasks, grantable
   lock acquisitions, deliverable messages, pending explicit choices),
2. asks its :class:`~repro.core.policy.SchedulingPolicy` to pick one,
3. executes it: resume the task's generator one atomic step, interpret
   the effect it yields, and park/ready the task accordingly.

All nondeterminism flows through step 2, so recording the chosen indices
makes every run exactly replayable — the property the model checker in
:mod:`repro.verify` is built on (CHESS-style systematic testing).

The scheduler also maintains vector clocks along the synchronization
edges (lock release→acquire, message send→deliver, spawn→first step,
finish→join) so the race detector and causal mailbox policy see the true
happens-before relation of the run.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import Metrics
    from ..obs.monitors import MonitorBus

from .clock import VectorClock
from .effects import (EMPTY_FOOTPRINT, Access, AccessKind, Acquire, Choice,
                      Effect, Emit, Join, Notify, Pause, Receive, Release,
                      Send, Sleep, Spawn, Wait)
from .errors import (BudgetExceeded, DeadlockError, IllegalEffectError,
                     SimulationError, TaskFailed)
from .mailbox import Mailbox
from .monitor import SimMonitor
from .policy import (RoundRobinPolicy, SchedulingPolicy, Transition)
from .task import Task, TaskState
from .trace import Trace, TraceEvent

__all__ = ["Scheduler", "run_tasks"]

#: generous default so runaway programs fail loudly instead of hanging
DEFAULT_MAX_STEPS = 200_000

_READY = TaskState.READY
_BLOCKED_ACQUIRE = TaskState.BLOCKED_ACQUIRE
_BLOCKED_RECEIVE = TaskState.BLOCKED_RECEIVE
_SLEEPING = TaskState.SLEEPING
_DONE = TaskState.DONE
_FAILED = TaskState.FAILED


class Scheduler:
    """Execute generator tasks under a scheduling policy.

    Parameters
    ----------
    policy:
        Decides every scheduling choice.  Defaults to fair round-robin.
    raise_on_deadlock:
        If True (default) a deadlock raises :class:`DeadlockError`;
        otherwise the run ends with ``trace.outcome == "deadlock"`` —
        the explorer uses the latter to *count* deadlocking schedules.
    raise_on_failure:
        If True (default) a task exception aborts the run with
        :class:`TaskFailed`; otherwise it is recorded on the task.
    max_steps:
        Hard step budget; exceeding it raises :class:`BudgetExceeded`
        (or records outcome ``"budget"``).
    track_clocks:
        Maintain vector clocks (needed by the race detector and the
        CAUSAL mailbox policy; small constant overhead).
    record_from:
        Step index from which to attach reduction metadata: every step
        from there on records its access footprint and a summary of
        the whole enabled set in its
        :class:`~repro.core.trace.TraceEvent`, and enabled
        :class:`Transition` objects carry their declared footprints.
        ``0`` records every step; ``None`` (default) records nothing.
        Below the index the state later metadata depends on is still
        kept — kernel-fed task inputs, shared-access flags and a
        pending ``Access`` announcement — so from the index on the
        record equals a full recording's.  The explorer starts it where
        a run's replayed prefix ends.
    step_hook:
        Optional callable invoked with the scheduler after every
        executed step during :meth:`run`; returning a falsy value stops
        the run with outcome ``"pruned"`` (the explorer's
        state-fingerprint cut-off).
    metrics:
        Optional :class:`repro.obs.Metrics` sink.  When given, the
        scheduler records counters/gauges/histograms (context switches,
        lock contention and wait ticks, mailbox depth, message latency,
        per-task run/block ticks) as it executes, all in logical ticks:
        it never reads the registry's clock, so the same schedule
        always reports the same numbers.  The scheduler reads it once
        per step; when None (default) the
        only cost is testing that local — instrumentation never changes
        scheduling decisions.
    monitors:
        Optional :class:`repro.obs.MonitorBus`.  When given, every
        executed step's :class:`TraceEvent` is fed to the bus online
        (together with the names of the then-runnable tasks), and the
        run's outcome is delivered via ``bus.finish`` when :meth:`run`
        returns normally.  Read once per step, like ``metrics`` —
        detectors observe the event stream only and can never perturb
        scheduling, fingerprints or sleep sets.

    Per-step bookkeeping is constant beyond the transition's own work:
    live tasks and sleeping tasks are counted where task state changes
    (so ending the run and ticking sleep timers scan nothing while no
    task sleeps), the yielded effect is dispatched on its type once,
    and each instrumentation sink is read once.
    """

    def __init__(self,
                 policy: Optional[SchedulingPolicy] = None,
                 *,
                 raise_on_deadlock: bool = True,
                 raise_on_failure: bool = True,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 track_clocks: bool = True,
                 record_from: Optional[int] = None,
                 step_hook: Optional[Callable[["Scheduler"], bool]] = None,
                 metrics: Optional["Metrics"] = None,
                 monitors: Optional["MonitorBus"] = None):
        self.policy = policy or RoundRobinPolicy()
        self.raise_on_deadlock = raise_on_deadlock
        self.raise_on_failure = raise_on_failure
        self.max_steps = max_steps
        self.track_clocks = track_clocks
        self.record_from = record_from
        #: the step being executed records reduction metadata
        self._recording = record_from == 0
        self.step_hook = step_hook
        self.metrics = metrics
        #: envelope seq -> deposit step of in-flight messages (metrics
        #: only: the message-latency histogram)
        self._sent_at: dict[int, int] = {}
        self.monitors = monitors
        #: optional program-provided callable exposing shared state to
        #: :meth:`fingerprint` (set it inside the program callable)
        self.fingerprint_extra: Optional[Callable[[], Any]] = None

        self.tasks: list[Task] = []
        #: tasks not yet DONE or FAILED — the run is over at zero
        self._live = 0
        #: tasks in SLEEPING — sleep timers tick only while nonzero
        self._sleepers = 0
        self.trace = Trace()
        self._step_no = 0
        self._ran = False
        #: seq of the last envelope deposited (seqs number the run's sends)
        self._msg_seq = 0
        #: id(lock/mailbox/monitor) -> (first-use index, object)
        self._objects: dict[int, tuple[int, Any]] = {}
        #: any Access effect executed — user shared state exists
        self._access_seen = False
        #: tid of the previously executed task (ctx switches)
        self._last_ran_tid: Optional[int] = None
        #: sync-object name / envelope seqs / sent message kind of the
        #: step being executed, published into its TraceEvent
        self._evt_obj_name: Optional[str] = None
        self._evt_msg_seq: Optional[int] = None
        self._evt_recv_seq: Optional[int] = None
        self._evt_recv_mbox: Optional[str] = None
        self._evt_msg_kind: Optional[str] = None

    # ------------------------------------------------------------------
    # task creation
    # ------------------------------------------------------------------
    def spawn(self, fn: Callable[..., Any] | Any, *args: Any,
              name: str = "", daemon: bool = False, **kwargs: Any) -> Task:
        """Register a task.

        ``fn`` may be a generator function (called with ``*args``) or an
        already-created generator.  Returns the :class:`Task` handle.
        Daemon tasks do not prevent quiescent termination.
        """
        if inspect.isgenerator(fn):
            if args or kwargs:
                raise TypeError("pass args only with a generator function")
            gen = fn
        elif callable(fn):
            gen = fn(*args, **kwargs)
        else:
            raise TypeError(f"cannot spawn {fn!r}")
        task = Task(gen, len(self.tasks),
                    name=name or getattr(fn, "__name__", ""))
        task.daemon = daemon
        if self.track_clocks:
            # a fresh clock: only the Spawn effect merges in the parent's
            task.vclock = VectorClock().tick(task.tid)
        self.tasks.append(task)
        self._live += 1
        if self.metrics is not None:
            self.metrics.inc("tasks_spawned")
        return task

    # ------------------------------------------------------------------
    # enabled-transition computation
    # ------------------------------------------------------------------
    def enabled_transitions(self) -> list[Transition]:
        out: list[Transition] = []
        rec = self._recording
        for task in self.tasks:
            state = task.state
            if state is _READY:
                if task.choice_options is not None:
                    for opt in task.choice_options:
                        out.append(Transition(
                            task, "choice", payload=opt,
                            footprint=EMPTY_FOOTPRINT if rec else None))
                else:
                    # what the generator will do next is unknown until it
                    # resumes: footprint stays None (= conflicts with all)
                    out.append(Transition(task, "run"))
            elif state is _BLOCKED_ACQUIRE:
                lock = task.blocked_on
                if lock._can_grant(task):
                    fp = (frozenset({self._stable_token(("lock", id(lock), "w"))})
                          if rec else None)
                    out.append(Transition(task, "acquire", footprint=fp))
            elif state is _BLOCKED_RECEIVE:
                mailbox: Mailbox = task.blocked_on
                fp = (frozenset({self._stable_token(("mbox", id(mailbox), "w"))})
                      if rec else None)
                for idx in mailbox._deliverable(task.receive_matcher):
                    out.append(Transition(task, "deliver",
                                          payload=mailbox.pending[idx].message,
                                          payload_index=idx,
                                          footprint=fp))
        return out

    # ------------------------------------------------------------------
    # single step
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute one transition.  Returns False when the run is over."""
        if not self._live:
            return False
        rf = self.record_from
        rec = self._recording = rf is not None and self._step_no >= rf
        transitions = self.enabled_transitions()
        if not transitions:
            if self._sleepers:
                # nothing else can run: fast-forward simulated time
                self._wake_sleepers()
                return True
            unfinished = [t for t in self.tasks if not t.finished]
            if all(t.daemon for t in unfinished):
                # quiescence: only daemon message loops remain, all idle
                return False
            blocked = [(t.name, t.describe_block()) for t in unfinished]
            self.trace.outcome = "deadlock"
            self.trace.detail = "; ".join(f"{n}: {r}" for n, r in blocked)
            if self.raise_on_deadlock:
                raise DeadlockError(blocked)
            return False
        if self._step_no >= self.max_steps:
            self.trace.outcome = "budget"
            self.trace.detail = f"exceeded {self.max_steps} steps"
            if self.raise_on_failure:
                raise BudgetExceeded(self.trace.detail)
            return False

        enabled_summary: Optional[tuple] = None
        if rec:
            enabled_summary = tuple(
                (tr.task.tid, tr.kind,
                 tr.payload_index if tr.kind == "deliver"
                 else (repr(tr.payload) if tr.kind == "choice" else 0))
                for tr in transitions)

        idx = self.policy.choose(transitions)
        if not 0 <= idx < len(transitions):
            raise SimulationError(f"policy chose {idx} of {len(transitions)}")
        tr = transitions[idx]
        self._execute(tr, idx, len(transitions), enabled_summary)
        if self._sleepers:
            self._tick_sleepers()
        return True

    def run(self) -> Trace:
        """Run to completion (or deadlock/budget); returns the trace."""
        if self._ran:
            raise SimulationError("Scheduler instances are single-use; create a new one")
        self._ran = True
        self.policy.reset()
        try:
            while self.step():
                if self.step_hook is not None and not self.step_hook(self):
                    self.trace.outcome = "pruned"
                    self.trace.detail = "state already expanded elsewhere"
                    break
        finally:
            self._close_leftover_generators()
        if self.trace.outcome == "done" and any(
                t.state is _FAILED for t in self.tasks):
            self.trace.outcome = "failed"
        if self.monitors is not None:
            # end-of-run detectors (deadlock cycles, lost wakeups) fire
            # here; raise_on_* exits skip them — hazard hunting runs
            # with raise_on_deadlock/failure=False, as explore() does
            self.monitors.finish(self.trace.outcome, self.trace.detail)
        return self.trace

    def _close_leftover_generators(self) -> None:
        """Close abandoned generators (deadlocked/blocked tasks).

        Task bodies may hold ``finally: yield Release(...)`` clauses;
        closing such a generator raises RuntimeError ("generator
        ignored GeneratorExit"), which is expected for an abandoned
        task — we swallow it so interpreter shutdown stays quiet.
        """
        for task in self.tasks:
            if not task.finished:
                try:
                    task.gen.close()
                except (RuntimeError, StopIteration):
                    pass

    # ------------------------------------------------------------------
    # transition execution
    # ------------------------------------------------------------------
    def _execute(self, tr: Transition, chosen: int, fanout: int,
                 enabled: Optional[tuple] = None) -> None:
        task = tr.task
        kind = tr.kind
        # each instrumentation sink is read once per step
        m = self.metrics
        bus = self.monitors
        value: Any = None
        payload_repr: Optional[str] = None
        ready_names: tuple = ()
        if bus is not None:
            # runnable tasks at choice time (starvation monitoring)
            ready_names = tuple(t.name for t in self.tasks
                                if t.state is _READY)
        self._evt_obj_name = None
        self._evt_msg_seq = None
        self._evt_recv_seq = None
        self._evt_recv_mbox = None
        self._evt_msg_kind = None

        if m is not None:
            m.inc("steps")
            tid = task.tid
            if self._last_ran_tid is not None and self._last_ran_tid != tid:
                m.inc("context_switches")
            self._last_ran_tid = tid
            m.observe("enabled_fanout", fanout)
            m.task_add(task.name, "steps", 1)

        # reduction bookkeeping: the executed step's access footprint.
        # Kind contributions must be captured *before* dispatch clears
        # ``blocked_on`` (acquire grants and delivers mutate the object).
        tracking = self.record_from is not None
        step_fp: Optional[set] = set() if self._recording else None
        # a task slept when this step was chosen
        asleep = self._sleepers > 0
        if tracking:
            # an Access yielded last step announced what THIS segment
            # does; consumed even below ``record_from`` so the token
            # never lands on a later step of the task
            announced = task._announced_access
            if announced is not None:
                task._announced_access = None
                if step_fp is not None:
                    step_fp.add(announced)
        if step_fp is not None:
            if kind == "acquire":
                step_fp.add(("lock", id(task.blocked_on), "w"))
            elif kind == "deliver":
                step_fp.add(("mbox", id(task.blocked_on), "w"))

        if kind == "run":
            value, task.pending_value = task.pending_value, None
        elif kind == "choice":
            task.choice_options = None
            value = tr.payload
            payload_repr = repr(tr.payload)
        elif kind == "acquire":
            lock = task.blocked_on
            lock._grant(task, task._reacquire_depth or 1)
            task._reacquire_depth = 1
            self._merge_clock(task, lock._vclock)
            payload_repr = getattr(lock, "name", None)
            self._evt_obj_name = payload_repr
            if m is not None:
                blocked_at = task._blocked_at_step
                if blocked_at is not None:
                    m.observe("lock_wait_ticks", self._step_no - blocked_at)
                m.inc("lock_acquires")
                m.inc(f"lock.{payload_repr}.acquires")
            self._unblock(task, m)
        elif kind == "deliver":
            mailbox: Mailbox = task.blocked_on
            env = mailbox._take(tr.payload_index)
            self._merge_clock(task, env.vclock)
            self._evt_recv_mbox = mailbox.name
            self._evt_recv_seq = env.seq
            if m is not None:
                m.inc("messages_delivered")
                m.inc(f"mailbox.{mailbox.name}.delivered")
                sent_at = self._sent_at.pop(env.seq, None)
                if sent_at is not None:
                    m.observe("message_latency_ticks",
                              self._step_no - sent_at)
            self._unblock(task, m)
            task.receive_matcher = None
            value = env.message
            payload_repr = repr(env)
        else:  # pragma: no cover
            raise SimulationError(f"unknown transition kind {kind}")

        if tracking and value is not None:
            # kernel-fed inputs (choice picks, delivered messages, join
            # results) become task-local state invisible to fingerprints
            # unless logged: two tasks at the same step with different
            # inputs are NOT in the same local state
            task._inputs += (
                ("task", value.tid) if isinstance(value, Task)
                else repr(value),)

        self._step_no += 1
        if self.track_clocks and task.vclock is not None:
            task.vclock = task.vclock.tick(task.tid)
        task.steps += 1

        # resume the generator for exactly one atomic segment
        access_var = access_kind = None
        try:
            effect = task.gen.send(value)
        except StopIteration as stop:
            self._finish(task, stop.value, m)
            effect_repr = "return"
        except Exception as exc:  # noqa: BLE001 - user task code may raise anything
            self._fail(task, exc, m)
            effect_repr = f"raise {type(exc).__name__}"
        else:
            try:
                effect_repr = self._apply_effect(task, effect, m)
            except IllegalEffectError as exc:
                # protocol violations are the *task's* bug, not the
                # kernel's: fail the task like any other user exception
                self._fail(task, exc, m)
                effect_repr = f"illegal {type(effect).__name__}"
            else:
                if isinstance(effect, Access):
                    access_var, access_kind = effect.var, effect.kind
                    if tracking:
                        # the declared access happens in the task's NEXT
                        # segment (`yield Access(...)` precedes the code
                        # it describes) — defer the token to that step
                        task._announced_access = next(iter(effect.footprint()))
                elif step_fp is not None:
                    if (isinstance(effect, Acquire)
                            and task.state is _BLOCKED_ACQUIRE):
                        # parking only *observes* the lock; two parks of
                        # different tasks commute (r-r independent),
                        # while a Release ("w") still conflicts
                        step_fp.add(("lock", id(effect.lock), "r"))
                    else:
                        step_fp.update(effect.footprint())

        if step_fp is not None:
            if task.finished:
                # finishing/failing wakes joiners — a write on the task
                step_fp.add(("task", task.tid, "w"))
            if asleep:
                # any step taken while a sleeper exists advances its
                # timer: steps are never reorderable across sleep ticks
                step_fp.add(("time", 0, "w"))

        # positional, in field order (see TraceEvent)
        event = TraceEvent(
            self._step_no, task.tid, task.name, kind, effect_repr,
            chosen, fanout,
            task.vclock if self.track_clocks else None,
            access_var, access_kind, payload_repr,
            frozenset([self._stable_token(t) for t in step_fp])
            if step_fp is not None else None,
            enabled, self._evt_obj_name, self._evt_msg_seq,
            self._evt_recv_seq, self._evt_recv_mbox, self._evt_msg_kind)
        self.trace.events.append(event)
        if bus is not None:
            bus.feed(event, ready_names)

        if task.state is _FAILED and self.raise_on_failure:
            raise TaskFailed(task.name, task.error)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # effect interpretation: one dispatch on the effect's type
    # ------------------------------------------------------------------
    def _apply_effect(self, task: Task, effect: Effect,
                      m: Optional["Metrics"]) -> str:
        handler = _EFFECT_HANDLERS.get(type(effect))
        if handler is None:
            # a subclass of an effect type takes its base's handler
            handler = next((h for cls, h in _EFFECT_HANDLERS.items()
                            if isinstance(effect, cls)), None)
            if handler is None:
                raise IllegalEffectError(
                    f"{task.name} yielded non-effect {effect!r} — task "
                    f"bodies must yield repro.core.effects.Effect instances")
        return handler(self, task, effect, m)

    def _on_pause(self, task: Task, effect: Pause, m) -> str:
        return effect.label or "pause"

    def _on_access(self, task: Task, effect: Access, m) -> str:
        self._access_seen = True
        if effect.kind is AccessKind.READ:
            task._read_access = True
        return effect.label or "access " + effect.var

    def _on_acquire(self, task: Task, effect: Acquire, m) -> str:
        lock = effect.lock
        self._register(lock)
        self._evt_obj_name = getattr(lock, "name", None)
        if lock._can_grant(task):
            lock._grant(task)
            self._merge_clock(task, lock._vclock)
            if m is not None:
                m.inc("lock_acquires")
                m.inc(f"lock.{self._evt_obj_name}.acquires")
                m.observe("lock_wait_ticks", 0)
        else:
            if hasattr(lock, "contention_count"):
                lock.contention_count += 1
            if m is not None:
                m.inc("lock_contended")
                m.inc(f"lock.{self._evt_obj_name}.contended")
            self._block(task, _BLOCKED_ACQUIRE, lock,
                        f"acquire {getattr(lock, 'name', lock)!r}")
        return f"acquire {getattr(lock, 'name', lock)}"

    def _on_release(self, task: Task, effect: Release, m) -> str:
        lock = effect.lock
        self._register(lock)
        self._evt_obj_name = getattr(lock, "name", None)
        fully = lock._release(task)
        if fully and self.track_clocks and task.vclock is not None:
            lock._vclock = lock._vclock.merge(task.vclock)
        if m is not None:
            m.inc("lock_releases")
        return f"release {getattr(lock, 'name', lock)}"

    def _on_wait(self, task: Task, effect: Wait, m) -> str:
        mon = effect.monitor
        self._register(mon)
        if not isinstance(mon, SimMonitor):
            raise IllegalEffectError(f"WAIT on non-monitor {mon!r}")
        self._evt_obj_name = mon.name
        if m is not None:
            m.inc("monitor_waits")
        if self.track_clocks and task.vclock is not None:
            mon._vclock = mon._vclock.merge(task.vclock)
        mon._park_waiter(task)
        self._block(task, TaskState.BLOCKED_WAIT, mon, f"wait on {mon.name}")
        return f"wait {mon.name}"

    def _on_notify(self, task: Task, effect: Notify, m) -> str:
        mon = effect.monitor
        self._register(mon)
        if not isinstance(mon, SimMonitor):
            raise IllegalEffectError(f"NOTIFY on non-monitor {mon!r}")
        if mon._owner is not task:
            raise IllegalEffectError(
                f"{task.name} notified {mon.name} without holding it")
        self._evt_obj_name = mon.name
        if m is not None:
            m.inc("monitor_notifies")
        for waiter, depth in mon._pop_waiters(effect.all):
            waiter._reacquire_depth = depth
            self._block(waiter, _BLOCKED_ACQUIRE, mon,
                        f"re-acquire {mon.name} after notify")
        return f"notify{'All' if effect.all else ''} {mon.name}"

    def _on_send(self, task: Task, effect: Send, m) -> str:
        mailbox = effect.mailbox
        self._register(mailbox)
        self._msg_seq += 1
        env = mailbox._deposit(effect.message, task, self._msg_seq)
        self._evt_obj_name = mailbox.name
        self._evt_msg_seq = env.seq
        self._evt_msg_kind = effect.kind
        if m is not None:
            depth = len(mailbox.pending)
            m.inc("messages_sent")
            m.inc(f"mailbox.{mailbox.name}.sent")
            m.observe("mailbox_depth", depth)
            m.gauge_max("mailbox_depth_max", depth)
            m.gauge_max(f"mailbox.{mailbox.name}.depth_max", depth)
            self._sent_at[env.seq] = self._step_no
        return f"send {env.message!r} to {mailbox.name}"

    def _on_receive(self, task: Task, effect: Receive, m) -> str:
        mailbox = effect.mailbox
        self._register(mailbox)
        self._evt_obj_name = mailbox.name
        task.receive_matcher = effect.matcher
        self._block(task, _BLOCKED_RECEIVE, mailbox,
                    f"receive from {mailbox.name}")
        return f"receive from {mailbox.name}"

    def _on_spawn(self, task: Task, effect: Spawn, m) -> str:
        child = self.spawn(effect.gen, name=effect.name, daemon=effect.daemon)
        if self.track_clocks and task.vclock is not None:
            # the child happens after everything its parent did so far
            child.vclock = child.vclock.merge(task.vclock)
        task.pending_value = child
        return f"spawn {child.name}"

    def _on_join(self, task: Task, effect: Join, m) -> str:
        target: Task = effect.task
        if target.finished:
            # a failed target has no result: the joiner resumes with None
            task.pending_value = target.result
            self._merge_clock(task, target.vclock)
        else:
            target.joiners.append(task)
            self._block(task, TaskState.BLOCKED_JOIN, target,
                        f"join {target.name}")
        return f"join {target.name}"

    def _on_choice(self, task: Task, effect: Choice, m) -> str:
        if not effect.options:
            raise IllegalEffectError(f"{task.name} yielded an empty Choice")
        task.choice_options = tuple(effect.options)
        return f"choice of {len(effect.options)}"

    def _on_emit(self, task: Task, effect: Emit, m) -> str:
        self.trace.output.append(effect.value)
        return f"emit {effect.value!r}"

    def _on_sleep(self, task: Task, effect: Sleep, m) -> str:
        if effect.ticks > 0:
            task.sleep_ticks = effect.ticks
            task.state = _SLEEPING
            task.blocked_reason = f"sleep {effect.ticks}"
            self._sleepers += 1
        return f"sleep {effect.ticks}"

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _block(self, task: Task, state: TaskState, on: Any, reason: str) -> None:
        task.state = state
        task.blocked_on = on
        task.blocked_reason = reason
        # only read when metrics are attached (block and lock-wait ticks)
        task._blocked_at_step = self._step_no

    def _unblock(self, task: Task, m: Optional["Metrics"]) -> None:
        if m is not None:
            blocked_at = task._blocked_at_step
            if blocked_at is not None:
                delta = self._step_no - blocked_at
                m.observe("block_ticks", delta)
                m.task_add(task.name, "block_ticks", delta)
                task._blocked_at_step = None
        task.state = _READY
        task.blocked_on = None
        task.blocked_reason = ""

    def _merge_clock(self, task: Task, other: Optional[VectorClock]) -> None:
        if self.track_clocks and task.vclock is not None and other is not None:
            task.vclock = task.vclock.merge(other)

    def _finish(self, task: Task, result: Any,
                m: Optional["Metrics"]) -> None:
        task.state = _DONE
        task.result = result
        self._live -= 1
        if m is not None:
            m.inc("tasks_finished")
        for joiner in task.joiners:
            joiner.pending_value = result
            self._merge_clock(joiner, task.vclock)
            self._unblock(joiner, m)
        task.joiners.clear()

    def _fail(self, task: Task, exc: BaseException,
              m: Optional["Metrics"]) -> None:
        task.state = _FAILED
        task.error = exc
        self._live -= 1
        if m is not None:
            m.inc("tasks_failed")
        for joiner in task.joiners:
            # the joiner resumes with None, as a Join on an already
            # failed task does; the error stays on ``task.error``, so
            # a PARA whose arm failed carries on after the join
            joiner.pending_value = None
            self._unblock(joiner, m)
        task.joiners.clear()

    def _tick_sleepers(self) -> None:
        """Advance every sleeper's timer by the step just taken."""
        m = self.metrics
        for t in self.tasks:
            if t.state is _SLEEPING:
                t.sleep_ticks -= 1
                if t.sleep_ticks <= 0:
                    self._sleepers -= 1
                    self._unblock(t, m)

    def _wake_sleepers(self) -> None:
        """No enabled transition: fast-forward simulated time."""
        m = self.metrics
        for t in self.tasks:
            if t.state is _SLEEPING:
                self._unblock(t, m)
        self._sleepers = 0

    # ------------------------------------------------------------------
    # reduction support: replay-stable references + state fingerprints
    # ------------------------------------------------------------------
    def _register(self, obj: Any) -> None:
        """Track a sync object in dense first-use order.

        ``id(obj)`` differs between replayed runs; the first-use index
        does not (replay determinism), so fingerprints reference objects
        by that index.
        """
        key = id(obj)
        if key not in self._objects:
            self._objects[key] = (len(self._objects), obj)

    def _stable_token(self, token: tuple) -> tuple:
        """Rewrite a footprint token's key to a replay-stable form.

        Raw lock and mailbox tokens key objects by ``id()``, which
        differs between replayed runs.  The explorer compares footprints
        *across* runs (subtree summaries), so recorded footprints use
        the dense first-use object index instead.  Task tokens carry the
        tid, which is already the spawn-order index.
        """
        dom, key, mode = token
        if dom in ("lock", "mbox"):
            ent = self._objects.get(key)
            if ent is not None:
                return (dom, ent[0], mode)
        return token

    def _state_ref(self, obj: Any) -> Any:
        """Replay-stable reference to whatever a task is blocked on."""
        if obj is None:
            return None
        if isinstance(obj, Task):
            return ("task", obj.tid)
        ent = self._objects.get(id(obj))
        if ent is not None:
            return ("obj", ent[0])
        return repr(obj)

    def fingerprint(self) -> tuple:
        """Hashable digest of all kernel-visible state.

        Two runs of the same program whose schedulers report equal
        fingerprints have *reconverged*: every task sits at the same
        local position in the same task state, every lock / monitor /
        mailbox holds the same contents (keyed by tid), and
        the emitted output so far is identical.  The explorer's
        ``fingerprint`` reduction prunes a run when it reaches a state
        it has already expanded at the same depth.

        Shared *user* state (plain Python variables mutated by tasks) is
        invisible to the kernel; programs relying on it should expose it
        via ``scheduler.fingerprint_extra = lambda: (...)``.  Per-task
        step counts are folded in regardless, so tasks whose control
        flow has diverged on user state never look reconverged unless
        they have taken identical step counts.
        """
        ref = self._state_ref
        tasks_part = tuple([
            (t.tid, t.state._name_, t.steps,
             ref(t.blocked_on),
             ref(t.pending_value)
             if isinstance(t.pending_value, Task) else repr(t.pending_value),
             repr(t.choice_options) if t.choice_options is not None else None,
             t.sleep_ticks,
             # a task may declare its locals fully captured by
             # fingerprint_extra (e.g. a simulation driver whose only
             # state is the world object): its input history then stops
             # blocking reconvergence, which is what lets the
             # fingerprint reduction prune single-driver programs
             t._inputs if t.fingerprint_inputs else ())
            for t in self.tasks])
        # ``_objects`` is filled in first-use order, so its values are
        # already sorted by first-use index
        objects_part = tuple([
            obj.state_key() if hasattr(obj, "state_key") else repr(obj)
            for _, obj in self._objects.values()])
        output_part = tuple([repr(v) for v in self.trace.output])
        extra = (repr(self.fingerprint_extra())
                 if self.fingerprint_extra is not None else None)
        return (tasks_part, objects_part, output_part, extra)

    def fingerprint_opaque(self) -> bool:
        """True when kernel-invisible user state could differ between
        two runs whose :meth:`fingerprint` values are equal — pruning on
        the fingerprint would then be unsound.

        Two situations qualify: shared variables exist (an
        :class:`~repro.core.effects.Access` was executed) but the
        program exposes no ``fingerprint_extra``; or a still-running
        task has *read* a shared variable, so its locals may hold a
        value no fingerprint component tracks.
        """
        if self._access_seen and self.fingerprint_extra is None:
            return True
        return any(t._read_access and not t.finished for t in self.tasks)

    # ------------------------------------------------------------------
    def results(self) -> dict[str, Any]:
        """Map of task name → return value (finished tasks only)."""
        return {t.name: t.result for t in self.tasks if t.state is TaskState.DONE}


#: effect type -> handler; subclasses fall back to the first
#: ``isinstance`` match in this order (see ``_apply_effect``)
_EFFECT_HANDLERS: dict[type, Callable[..., str]] = {
    Access: Scheduler._on_access,
    Pause: Scheduler._on_pause,
    Acquire: Scheduler._on_acquire,
    Release: Scheduler._on_release,
    Wait: Scheduler._on_wait,
    Notify: Scheduler._on_notify,
    Send: Scheduler._on_send,
    Receive: Scheduler._on_receive,
    Spawn: Scheduler._on_spawn,
    Join: Scheduler._on_join,
    Choice: Scheduler._on_choice,
    Emit: Scheduler._on_emit,
    Sleep: Scheduler._on_sleep,
}


def run_tasks(*fns: Callable[[], Any],
              policy: Optional[SchedulingPolicy] = None,
              names: Optional[Iterable[str]] = None,
              **kwargs: Any) -> Trace:
    """Convenience: spawn each generator function and run to completion.

    >>> def hello():
    ...     yield Emit("hello ")
    >>> def world():
    ...     yield Emit("world ")
    >>> run_tasks(hello, world).output_str()
    'hello world '
    """
    sched = Scheduler(policy, **kwargs)
    name_list = list(names) if names else [""] * len(fns)
    for fn, name in zip(fns, name_list):
        sched.spawn(fn, name=name)
    return sched.run()
