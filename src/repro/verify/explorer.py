"""Systematic interleaving exploration (CHESS-style replay DFS).

Python generators cannot be snapshotted, so the explorer re-executes the
program from scratch for every interleaving, steering each run with a
:class:`~repro.core.policy.FixedPolicy` prefix and extending depth-first.
Because *all* kernel nondeterminism flows through policy decisions, the
decision tree is exactly the space of behaviours: enumerate the leaves
and you have enumerated every schedule (up to the budget).

The unit of exploration is a *program*: a callable that receives a fresh
:class:`~repro.core.scheduler.Scheduler`, creates all state (locks,
mailboxes, shared variables — they must be fresh per run!), spawns the
tasks, and optionally returns an *observation function* evaluated after
the run to capture final state.

>>> from repro.core import Emit
>>> def program(sched):
...     def t(c):
...         yield Emit(c)
...     sched.spawn(t, "a")
...     sched.spawn(t, "b")
>>> sorted(explore(program).output_strings())
['ab', 'ba']

Three optional *reductions* cut the tree without changing the answers
(see docs/ARCHITECTURE.md, "Explorer internals", for when each is sound):

* ``reduce={"sleep"}`` — dynamic partial-order reduction: sibling
  branches are explored only when a later step's access footprint
  conflicts with an earlier one, so commuting interleavings are visited
  once;
* ``reduce={"fingerprint"}`` — state deduplication: a run is cut short
  when it reconverges to a kernel state already expanded at the same
  depth;
* ``workers=N`` — the schedule tree is partitioned by first decision
  across ``N`` forked processes and the partial results merged.

``reduce=True`` (or ``"all"``) enables both reductions.  All three are
off by default: the naive enumeration is the ground truth the reductions
are tested against.

The reduced search replays each run's committed prefix at the cost of a
plain run: the scheduler records footprints and enabled summaries only
from the run's branch depth on (``record_from``), the DFS node stack
keeps each on-path step's ``(ltid, footprint)`` from the run that first
executed it, and the conflict scan and subtree-summary fold cover only
the new suffix — prefix pairs were already handled, on identical steps,
by the runs that executed them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Union

from ..core.policy import FixedPolicy, SchedulingPolicy, Transition
from ..core.scheduler import Scheduler
from ..core.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.monitors import MonitorBus

__all__ = ["Program", "ExplorationResult", "ExplorationStats", "REDUCTIONS",
           "explore", "run_schedule"]

#: A program under exploration: sets up a fresh Scheduler, optionally
#: returns a zero-argument observation callable.
Program = Callable[[Scheduler], Optional[Callable[[], Any]]]

#: the reduction names accepted by :func:`explore`'s ``reduce`` argument
REDUCTIONS = ("sleep", "fingerprint")


class _FirstPolicy(SchedulingPolicy):
    """Always pick transition 0 — the DFS tail beyond the fixed prefix."""

    def choose(self, transitions: list[Transition]) -> int:
        return 0


@dataclass
class ExplorationStats:
    """Live/final instrumentation of one :func:`explore` call.

    All fields are cheap counters maintained inline by the exploration
    loops; ``elapsed_seconds``/``decisions_per_sec`` are stamped once by
    :func:`explore` when the search returns.  The same object is handed
    to the ``progress`` callback while the search is still running, so
    callbacks see monotonically growing counters.
    """

    #: complete executions so far (mirrors ``ExplorationResult.runs``)
    runs: int = 0
    #: scheduling decisions executed so far (the work measure)
    decisions: int = 0
    #: sibling branches the sleep-set/DPOR analysis never scheduled —
    #: enabled transitions abandoned as commuting when their node left
    #: the DFS stack
    sleep_prunes: int = 0
    #: runs cut short because a (depth, fingerprint) state had already
    #: been expanded
    fingerprint_hits: int = 0
    #: distinct (depth, fingerprint) states recorded
    fingerprint_states: int = 0
    #: deepest DFS frontier reached (longest executed path, in steps)
    max_frontier_depth: int = 0
    #: wall-clock duration of the whole explore() call
    elapsed_seconds: float = 0.0
    #: decisions / elapsed_seconds (0.0 when too fast to measure)
    decisions_per_sec: float = 0.0
    #: per-worker split when ``workers > 1`` took effect: one dict per
    #: first-decision subtree with its runs/decisions/prune counters
    workers: list = field(default_factory=list)

    def fold(self, other: "ExplorationStats") -> None:
        """Accumulate another (e.g. per-subtree) stats object."""
        self.runs += other.runs
        self.decisions += other.decisions
        self.sleep_prunes += other.sleep_prunes
        self.fingerprint_hits += other.fingerprint_hits
        self.fingerprint_states += other.fingerprint_states
        self.max_frontier_depth = max(self.max_frontier_depth,
                                      other.max_frontier_depth)
        self.workers.extend(other.workers)

    def as_dict(self) -> dict:
        """JSON-ready view (benchmarks embed this in BENCH_explorer.json)."""
        return {
            "runs": self.runs,
            "decisions": self.decisions,
            "sleep_prunes": self.sleep_prunes,
            "fingerprint_hits": self.fingerprint_hits,
            "fingerprint_states": self.fingerprint_states,
            "max_frontier_depth": self.max_frontier_depth,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "decisions_per_sec": round(self.decisions_per_sec, 1),
            "workers": list(self.workers),
        }


@dataclass
class ExplorationResult:
    """Everything learned from exploring a program's schedule space."""

    runs: int = 0
    complete: bool = True
    #: multiset of outcomes: done / deadlock / failed / budget / pruned
    outcomes: Counter = field(default_factory=Counter)
    #: distinct (output-tuple, observation) terminal results
    terminals: dict[tuple, Any] = field(default_factory=dict)
    #: one witness trace per distinct terminal
    witnesses: dict[tuple, Trace] = field(default_factory=dict)
    #: traces that ended in deadlock (bounded sample)
    deadlocks: list[Trace] = field(default_factory=list)
    #: traces that ended in task failure (bounded sample)
    failures: list[Trace] = field(default_factory=list)
    #: total scheduling decisions executed across all runs (work measure)
    decisions: int = 0
    #: runs cut short by the fingerprint reduction (subset of ``runs``)
    pruned_runs: int = 0
    #: search instrumentation (prune counts, frontier depth, throughput)
    stats: ExplorationStats = field(default_factory=ExplorationStats,
                                    compare=False)
    #: deduplicated hazards the monitor bus raised across all runs
    #: (only populated when explore() runs with ``monitors``)
    hazards: list = field(default_factory=list, compare=False)
    _hazard_seen: set = field(default_factory=set, repr=False,
                              compare=False)
    #: output-string → witness index, built lazily on first lookup
    _witness_index: dict = field(default_factory=dict, repr=False, compare=False)
    _indexed: int = field(default=-1, repr=False, compare=False)

    # -- recording --------------------------------------------------------
    def record_run(self, trace: Trace, obs: Any, sample_limit: int = 16) -> None:
        """Fold one executed run into the result."""
        self.runs += 1
        self.decisions += len(trace)
        self.stats.runs = self.runs
        self.stats.decisions = self.decisions
        if len(trace) > self.stats.max_frontier_depth:
            self.stats.max_frontier_depth = len(trace)
        self.outcomes[trace.outcome] += 1
        if trace.outcome == "pruned":
            # cut short by the fingerprint hook: no terminal reached —
            # the reconverged-to state was expanded by an earlier run
            self.pruned_runs += 1
            return
        key = (tuple(trace.output), obs)
        if key not in self.terminals:
            self.terminals[key] = obs
            self.witnesses[key] = trace
        if trace.outcome == "deadlock" and len(self.deadlocks) < sample_limit:
            self.deadlocks.append(trace)
        if trace.outcome == "failed" and len(self.failures) < sample_limit:
            self.failures.append(trace)

    def record_hazards(self, hazards: Iterable) -> None:
        """Fold one run's monitor-bus hazards in (deduped by pattern)."""
        for hz in hazards:
            if hz.key not in self._hazard_seen:
                self._hazard_seen.add(hz.key)
                self.hazards.append(hz)

    def merge(self, other: "ExplorationResult", sample_limit: int = 16) -> None:
        """Fold another (e.g. per-subtree) result into this one."""
        self.runs += other.runs
        self.decisions += other.decisions
        self.pruned_runs += other.pruned_runs
        self.stats.fold(other.stats)
        self.complete = self.complete and other.complete
        self.outcomes.update(other.outcomes)
        for key, obs in other.terminals.items():
            if key not in self.terminals:
                self.terminals[key] = obs
                self.witnesses[key] = other.witnesses[key]
        for t in other.deadlocks[:max(0, sample_limit - len(self.deadlocks))]:
            self.deadlocks.append(t)
        for t in other.failures[:max(0, sample_limit - len(self.failures))]:
            self.failures.append(t)
        self.record_hazards(other.hazards)

    # -- convenience views ------------------------------------------------
    def output_sets(self) -> set[tuple]:
        """Distinct observable-output tuples over all explored schedules."""
        return {key[0] for key in self.terminals}

    def output_strings(self) -> set[str]:
        """Outputs as concatenated strings — the paper's 'possibility' lists."""
        return {"".join(str(v) for v in out) for out in self.output_sets()}

    def observations(self) -> set[Any]:
        """Distinct post-run observation values (hashable observations only)."""
        return {obs for (_, obs) in self.terminals}

    @property
    def deadlock_possible(self) -> bool:
        return self.outcomes["deadlock"] > 0

    def hazard_counts(self) -> dict[str, int]:
        """Hazard kind → how many distinct patterns of it were seen."""
        counts: dict[str, int] = {}
        for hz in self.hazards:
            counts[hz.kind] = counts.get(hz.kind, 0) + 1
        return counts

    def witness_for_output(self, output_str: str) -> Optional[Trace]:
        if self._indexed != len(self.witnesses):
            # (re)build the index; keep the *first* witness per string,
            # matching the former linear scan's iteration order
            self._witness_index = {}
            for key, trace in self.witnesses.items():
                out = "".join(str(v) for v in key[0])
                self._witness_index.setdefault(out, trace)
            self._indexed = len(self.witnesses)
        return self._witness_index.get(output_str)

    def summary(self) -> str:
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.outcomes.items()))
        return (f"{self.runs} runs ({'complete' if self.complete else 'budget hit'}); "
                f"{len(self.terminals)} distinct terminals; outcomes: {kinds}")


def _freeze(value: Any) -> Any:
    """Best-effort hashable form of an observation."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return frozenset(_freeze(v) for v in value)
    return value


def run_schedule(program: Program, schedule: list[int],
                 max_steps: int = 200_000,
                 *,
                 record_from: Optional[int] = None,
                 step_hook: Optional[Callable[[Scheduler], bool]] = None,
                 monitors: Optional["MonitorBus"] = None,
                 ) -> tuple[Trace, Any]:
    """Execute one run steered by ``schedule`` (then first-choice tail).

    Returns the trace and the frozen observation.  This is the replay
    entry point: feeding back ``trace.schedule()`` reproduces a run.
    ``record_from``/``step_hook``/``monitors`` pass through to the
    scheduler (the reductions use the first two; ``monitors`` attaches
    a fresh :class:`repro.obs.MonitorBus` for hazard detection — plain
    replay leaves them all off).
    """
    sched = Scheduler(FixedPolicy(schedule, tail=_FirstPolicy()),
                      raise_on_deadlock=False, raise_on_failure=False,
                      max_steps=max_steps, record_from=record_from,
                      step_hook=step_hook, monitors=monitors)
    observe = program(sched)
    trace = sched.run()
    if trace.outcome == "pruned":
        # the run stopped mid-flight; the observation would see a
        # half-finished state that is not a terminal of the program
        return trace, None
    obs = _freeze(observe()) if observe is not None else None
    return trace, obs


def _normalize_reduce(reduce: Union[bool, str, Iterable[str], None]) -> frozenset:
    """Canonical form of the ``reduce`` argument: a frozenset of names."""
    if not reduce:
        return frozenset()
    if reduce is True:
        return frozenset(REDUCTIONS)
    if isinstance(reduce, str):
        # "sleep+fingerprint" / "sleep,fingerprint" spell a combination
        reduce = [p for p in reduce.replace(",", "+").split("+") if p]
    names = frozenset(reduce)
    unknown = names - set(REDUCTIONS) - {"all"}
    if unknown:
        raise ValueError(
            f"unknown reduction(s) {sorted(unknown)}; "
            f"valid: {REDUCTIONS + ('all',)}")
    if "all" in names:
        names = frozenset(REDUCTIONS)
    return names


def _normalize_monitors(monitors: Any) -> Optional[Callable]:
    """Canonical form of ``explore``'s ``monitors``: a per-run factory.

    ``True`` means a fresh default :class:`repro.obs.MonitorBus` per
    run; a callable is used as-is (call it with no arguments to get the
    bus for one run — buses are single-use, like schedulers).
    """
    if not monitors:
        return None
    if monitors is True:
        from ..obs.monitors import MonitorBus
        return MonitorBus
    if callable(monitors):
        return monitors
    raise TypeError(
        f"monitors must be True or a zero-argument bus factory, "
        f"got {monitors!r}")


def explore(program: Program,
            *,
            max_runs: int = 20_000,
            max_steps: int = 200_000,
            sample_limit: int = 16,
            reduce: Union[bool, str, Iterable[str], None] = (),
            workers: int = 0,
            monitors: Any = None,
            progress: Optional[Callable[[ExplorationStats], None]] = None,
            progress_every: int = 200,
            clock: Optional[Callable[[], float]] = None
            ) -> ExplorationResult:
    """Depth-first enumeration of every schedule of ``program``.

    Parameters
    ----------
    max_runs:
        Budget on the number of complete executions; when exceeded the
        result has ``complete=False`` (an *under*-approximation — every
        reported behaviour is real, but some may be missing).
    max_steps:
        Per-run step budget (guards non-terminating programs).
    sample_limit:
        How many deadlock/failure traces to retain as samples.
    reduce:
        Which reductions to apply: any subset of :data:`REDUCTIONS`
        (``"sleep"`` — partial-order reduction, ``"fingerprint"`` —
        state deduplication), a single name, ``"all"``/``True`` for
        both, a ``"+"``-joined combination (``"sleep+fingerprint"``), or
        empty (default) for the naive full enumeration.  The reductions
        preserve the terminal set, the observation set and the deadlock
        verdict; they change only how much work finding them takes
        (compare ``result.decisions``).
    workers:
        When > 1, partition the schedule tree by first decision over
        that many forked processes and merge the partial results.
        Falls back to sequential exploration where ``fork`` is
        unavailable.  Per-worker run budget is ``max_runs`` divided by
        the number of subtrees (rounded up).
    monitors:
        Hazard monitoring across all explored schedules: ``True``
        attaches a fresh default :class:`repro.obs.MonitorBus` to every
        run, a zero-argument callable supplies a custom bus per run.
        The deduplicated hazards land in ``result.hazards`` (see
        ``result.hazard_counts()``).  Monitoring is observation-only:
        runs/decisions/prune counts are identical with it on or off.
    progress:
        Optional callback invoked with the live :class:`ExplorationStats`
        every ``progress_every`` completed runs (sequential exploration
        only; forked workers cannot call back into the parent).  The
        callback must not mutate the stats object.
    clock:
        Time source for the wall-clock stats (default:
        :data:`repro.obs.profile.wall_clock`).  Tests inject a
        :class:`repro.obs.FakeClock` to make ``elapsed_seconds`` /
        ``decisions_per_sec`` deterministic; everything else about the
        exploration is already clock-free.

    The returned result carries ``result.stats`` — prune counters,
    frontier depth, elapsed wall time and decisions/sec.
    """
    reduce_set = _normalize_reduce(reduce)
    monitor_factory = _normalize_monitors(monitors)
    if clock is None:
        from ..obs.profile import wall_clock
        clock = wall_clock
    t0 = clock()
    result = None
    if workers and workers > 1:
        result = _explore_parallel(program, max_runs=max_runs,
                                   max_steps=max_steps,
                                   sample_limit=sample_limit,
                                   reduce_set=reduce_set, workers=workers,
                                   monitor_factory=monitor_factory)
    if result is None:
        result = _explore_seq(program, max_runs=max_runs, max_steps=max_steps,
                              sample_limit=sample_limit, reduce_set=reduce_set,
                              monitor_factory=monitor_factory,
                              progress=progress, progress_every=progress_every)
    elapsed = clock() - t0
    result.stats.elapsed_seconds = elapsed
    if elapsed > 0:
        result.stats.decisions_per_sec = result.decisions / elapsed
    return result


def _explore_seq(program: Program, *, max_runs: int, max_steps: int,
                 sample_limit: int, reduce_set: frozenset,
                 init_prefix: Iterable[int] = (), base: int = 0,
                 monitor_factory: Optional[Callable] = None,
                 progress: Optional[Callable[[ExplorationStats], None]] = None,
                 progress_every: int = 200,
                 ) -> ExplorationResult:
    """Sequential exploration of the subtree under ``init_prefix``.

    ``base`` is the number of leading decisions that are fixed (the
    parallel partitioner owns them); backtracking never rises above it.
    """
    if not reduce_set:
        return _explore_naive(program, max_runs=max_runs, max_steps=max_steps,
                              sample_limit=sample_limit,
                              init_prefix=init_prefix, base=base,
                              monitor_factory=monitor_factory,
                              progress=progress,
                              progress_every=progress_every)
    return _explore_reduced(program, max_runs=max_runs, max_steps=max_steps,
                            sample_limit=sample_limit,
                            use_sleep="sleep" in reduce_set,
                            use_fingerprint="fingerprint" in reduce_set,
                            init_prefix=init_prefix, base=base,
                            monitor_factory=monitor_factory,
                            progress=progress, progress_every=progress_every)


# ---------------------------------------------------------------------------
# naive full DFS (the ground truth)
# ---------------------------------------------------------------------------
def _explore_naive(program: Program, *, max_runs: int, max_steps: int,
                   sample_limit: int, init_prefix: Iterable[int] = (),
                   base: int = 0,
                   monitor_factory: Optional[Callable] = None,
                   progress: Optional[Callable] = None,
                   progress_every: int = 200) -> ExplorationResult:
    result = ExplorationResult()
    prefix: list[int] = list(init_prefix)

    while True:
        if result.runs >= max_runs:
            result.complete = False
            break
        bus = monitor_factory() if monitor_factory is not None else None
        trace, obs = run_schedule(program, prefix, max_steps=max_steps,
                                  monitors=bus)
        result.record_run(trace, obs, sample_limit)
        if bus is not None:
            result.record_hazards(bus.hazards)
        if progress is not None and result.runs % progress_every == 0:
            progress(result.stats)

        # backtrack: deepest decision with an untried alternative
        decisions = trace.decisions()
        d = len(decisions) - 1
        while d >= base and decisions[d][0] + 1 >= decisions[d][1]:
            d -= 1
        if d < base:
            break
        prefix = [idx for idx, _ in decisions[:d]] + [decisions[d][0] + 1]

    return result


# ---------------------------------------------------------------------------
# reduced DFS: sleep-set/DPOR pruning + state-fingerprint deduplication
# ---------------------------------------------------------------------------
@dataclass
class _Node:
    """One depth of the current DFS path.

    ``enabled`` is the replay-stable ``(ltid, kind, key)`` summary of the
    transitions available here; ``step`` the ``(ltid, footprint)`` of the
    step the current path takes here (replayed runs do not re-record
    it); ``done`` holds indices already executed or scheduled, ``todo``
    the backtrack set still awaiting exploration.
    """

    enabled: tuple
    step: tuple
    done: set = field(default_factory=set)
    todo: list = field(default_factory=list)

    def add_index(self, i: int) -> None:
        if i not in self.done and i not in self.todo:
            self.todo.append(i)

    def add_task(self, ltid: int) -> bool:
        """Schedule every transition of ``ltid`` here; False if it has none.

        Whole-task granularity keeps intra-task nondeterminism (several
        deliverable messages, several choice options) together: those
        variants are never independent of each other.
        """
        hit = False
        for i, summary in enumerate(self.enabled):
            if summary[0] == ltid:
                hit = True
                self.add_index(i)
        return hit

    def add_everyone(self) -> None:
        for i in range(len(self.enabled)):
            self.add_index(i)


def _conflicts(fp_a: Optional[frozenset], fp_b: Optional[frozenset]) -> bool:
    """Do two step footprints touch a common location, one writing?

    ``None`` (unknown footprint) is conservatively treated as
    conflicting with everything.  Footprints hold 1–3 tokens, so the
    nested scan is cheaper than building sets.
    """
    if fp_a is None or fp_b is None:
        return True
    for dom_a, key_a, mode_a in fp_a:
        for dom_b, key_b, mode_b in fp_b:
            if dom_a == dom_b and key_a == key_b \
                    and ("w" == mode_a or "w" == mode_b):
                return True
    return False


def _analyze(stack: list[_Node], base: int, start: int) -> None:
    """Seed backtrack sets from one executed path (DPOR, Flanagan–
    Godefroid style adapted to replay exploration).

    Only steps ``j >= start`` (the run's branch depth and below) are
    scanned: every pair with both steps above ``start`` was scanned, on
    identical steps, by the run that first executed the later one, and
    the backtrack sets only grow, so a rescan would add nothing.

    For each step ``j``, find its *latest* conflicting predecessor
    ``i`` from a different task where task ``j`` can actually be
    scheduled: the two steps might yield different behaviour in the
    other order, so task ``j`` must also be tried at node ``i``.

    Two refinements over the textbook "last conflicting predecessor"
    scan, both needed for soundness (dropping either loses reachable
    behaviours — the regression fixture is the barging bridge in
    tests/test_verify_reductions_equiv.py):

    * a conflicting predecessor from ``j``'s *own* task does not end
      the scan — program order already fixes that pair, but a step
      behind it can still race with ``j`` without conflicting with the
      same-task step, so nothing downstream would ever re-seed it;
    * a conflicting predecessor where task ``j`` has *no* transition
      does not end the scan either.  Such a pair is dependent but not
      co-enabled (e.g. a Release racing a blocked task's acquire
      grant: the grant only exists once the release has happened), so
      the reversal the backtrack point stands for is unrealisable
      there.  Every enabled transition is scheduled at that node (the
      classical fallback) and the scan continues to the co-enabled
      race partner shielded behind it.
    """
    for j in range(max(base + 1, start), len(stack)):
        ltid_j, fp_j = stack[j].step
        for i in range(j - 1, base - 1, -1):
            node = stack[i]
            ltid_i, fp_i = node.step
            if not _conflicts(fp_i, fp_j):
                continue
            if ltid_i == ltid_j:
                continue
            if node.add_task(ltid_j):
                break
            node.add_everyone()


def _analyze_virtual(stack: list[_Node], base: int,
                     future_pairs: Iterable[tuple]) -> None:
    """Conflict analysis for steps that were *not* executed.

    When the fingerprint reduction cuts a run short, the steps its
    subtree would have taken are known from the first visit's subtree
    summary.  Each such ``(ltid, footprint)`` pair is treated as a
    virtual step appended after the path and analysed against the
    executed steps, so the backtrack points the pruned subtree would
    have generated are not lost (the classic DPOR + state-caching
    interaction).
    """
    for ltid_v, fp_v in future_pairs:
        for i in range(len(stack) - 1, base - 1, -1):
            node = stack[i]
            ltid_i, fp_i = node.step
            if not _conflicts(fp_i, fp_v):
                continue
            if ltid_i == ltid_v:
                # program order fixes this pair; earlier steps can
                # still race with the virtual step (see _analyze)
                continue
            if node.add_task(ltid_v):
                break
            node.add_everyone()


def _sleep_prunes(nodes: Iterable[_Node]) -> int:
    """Enabled transitions a batch of retired nodes never scheduled.

    Called when nodes leave the DFS stack with an empty ``todo``: every
    enabled index not in ``done`` is a sibling branch the conflict
    analysis decided commutes with what was explored — a sleep-set prune.
    """
    return sum(max(0, len(n.enabled) - len(n.done)) for n in nodes)


def _explore_reduced(program: Program, *, max_runs: int, max_steps: int,
                     sample_limit: int, use_sleep: bool,
                     use_fingerprint: bool, init_prefix: Iterable[int] = (),
                     base: int = 0,
                     monitor_factory: Optional[Callable] = None,
                     progress: Optional[Callable] = None,
                     progress_every: int = 200) -> ExplorationResult:
    result = ExplorationResult()
    stats = result.stats
    prefix: list[int] = list(init_prefix)
    stack: list[_Node] = []
    #: (depth, Scheduler.fingerprint()) → (ltid, footprint) pairs
    #: executed in the subtree below that state, as insertion-ordered
    #: dict keys: _analyze_virtual seeds backtrack points in their
    #: order, so a hash-ordered set would make the search depend on
    #: PYTHONHASHSEED (with sleep off an empty dict is stored but unused)
    summaries: dict = {}
    #: key of the state after k steps on the current path, index k-1
    path_keys: list = []

    while True:
        if result.runs >= max_runs:
            result.complete = False
            break

        # the prefix's last decision is this run's branch; everything
        # before it replays steps whose metadata the stack already holds
        start = max(0, len(prefix) - 1)
        hook = None
        run_keys: list = []
        if use_fingerprint:
            plen = len(prefix)

            def hook(sched: Scheduler, _plen: int = plen) -> bool:
                depth = len(sched.trace.events)
                if depth < _plen:
                    # still replaying the committed prefix (the prefix's
                    # last decision is the new branch; everything before
                    # it is this path's own history, not a reconvergence)
                    return True
                if sched.fingerprint_opaque():
                    # kernel-invisible user state in play: equal
                    # fingerprints would not imply equal states
                    return True
                key = (depth, sched.fingerprint())
                run_keys.append((depth, key))
                if key in summaries:
                    stats.fingerprint_hits += 1
                    return False
                summaries[key] = {}
                return True

        bus = monitor_factory() if monitor_factory is not None else None
        trace, obs = run_schedule(program, prefix, max_steps=max_steps,
                                  record_from=start, step_hook=hook,
                                  monitors=bus)
        result.record_run(trace, obs, sample_limit)
        if bus is not None:
            result.record_hazards(bus.hazards)
        if progress is not None and result.runs % progress_every == 0:
            stats.fingerprint_states = len(summaries)
            progress(stats)
        events = trace.events
        path = trace.schedule()

        # the branch node keeps its enabled set but takes a new step
        if start < len(stack):
            e = events[start]
            stack[start].step = (e.task_ltid, e.footprint)
        # grow the node stack over this run's newly reached depths
        for d in range(len(stack), len(events)):
            e = events[d]
            node = _Node(enabled=e.enabled or (),
                         step=(e.task_ltid, e.footprint))
            node.done.add(e.chosen_index)
            if use_sleep:
                # branch on intra-task nondeterminism unconditionally;
                # cross-task branches come from conflict analysis below
                if e.enabled:
                    node.add_task(e.enabled[e.chosen_index][0])
            else:
                node.add_everyone()
            stack.append(node)

        if use_fingerprint and use_sleep:
            for depth, key in run_keys:
                idx = depth - 1
                while len(path_keys) <= idx:
                    path_keys.append(None)
                path_keys[idx] = key
            # every executed step belongs to the subtree of every state
            # above it on this path: fold it into their summaries (steps
            # above ``start`` were folded by the run that executed them)
            ancestors = [summaries[k] for k in path_keys[:start]
                         if k is not None]
            for j in range(start, len(stack)):
                pair = stack[j].step
                for s in ancestors:
                    s[pair] = None
                k = path_keys[j] if j < len(path_keys) else None
                if k is not None:
                    ancestors.append(summaries[k])

        if use_sleep:
            _analyze(stack, base, start)
            if trace.outcome == "pruned" and run_keys:
                # replay the pruned subtree's conflicts from its summary
                future = tuple(summaries.get(run_keys[-1][1], ()))
                _analyze_virtual(stack, base, future)
                for i in range(len(events) - 1):
                    k = path_keys[i] if i < len(path_keys) else None
                    if k is not None:
                        summaries[k].update(dict.fromkeys(future))

        # backtrack: deepest node with something left to try
        d = len(stack) - 1
        while d >= base and not stack[d].todo:
            d -= 1
        if d < base:
            # search exhausted: every node retires with an empty todo
            stats.sleep_prunes += _sleep_prunes(stack[base:])
            break
        node = stack[d]
        nxt = node.todo.pop()
        node.done.add(nxt)
        # nodes below d retire now (todo empty): tally their prunes
        stats.sleep_prunes += _sleep_prunes(stack[d + 1:])
        del stack[d + 1:]
        del path_keys[d:]
        prefix = path[:d] + [nxt]

    stats.fingerprint_states = len(summaries)
    return result


# ---------------------------------------------------------------------------
# parallel subtree exploration
# ---------------------------------------------------------------------------
#: fork-inherited work description for pool workers: program callables
#: close over arbitrary state and cannot be pickled, but a forked child
#: sees the parent's module globals as they were at fork time.
_WORKER_STATE: Optional[dict] = None


def _worker_subtree(first: int) -> ExplorationResult:
    st = _WORKER_STATE
    return _explore_seq(st["program"], max_runs=st["max_runs"],
                        max_steps=st["max_steps"],
                        sample_limit=st["sample_limit"],
                        reduce_set=st["reduce_set"],
                        monitor_factory=st["monitor_factory"],
                        init_prefix=[first], base=1)


def _root_fanout(program: Program, max_steps: int) -> int:
    """How many first decisions the schedule tree has (partition count)."""
    sched = Scheduler(FixedPolicy([], tail=_FirstPolicy()),
                      raise_on_deadlock=False, raise_on_failure=False,
                      max_steps=max_steps)
    program(sched)
    return len(sched.enabled_transitions())


def _explore_parallel(program: Program, *, max_runs: int, max_steps: int,
                      sample_limit: int, reduce_set: frozenset,
                      workers: int,
                      monitor_factory: Optional[Callable] = None,
                      ) -> Optional[ExplorationResult]:
    """Partition by first decision across forked workers; None = fall back."""
    global _WORKER_STATE
    import multiprocessing as mp

    try:
        ctx = mp.get_context("fork")
    except ValueError:
        return None
    fanout = _root_fanout(program, max_steps)
    if fanout <= 1:
        return None
    per_budget = -(-max_runs // fanout)  # ceil: subtree share of the budget
    _WORKER_STATE = {"program": program, "max_runs": per_budget,
                     "max_steps": max_steps, "sample_limit": sample_limit,
                     "reduce_set": reduce_set,
                     "monitor_factory": monitor_factory}
    try:
        with ctx.Pool(min(workers, fanout)) as pool:
            parts = pool.map(_worker_subtree, range(fanout))
    except (OSError, ValueError):
        return None  # fork/pipe unavailable in this environment
    finally:
        _WORKER_STATE = None

    result = ExplorationResult()
    for first, part in enumerate(parts):
        result.merge(part, sample_limit=sample_limit)
        result.stats.workers.append({
            "subtree": first,
            "runs": part.runs,
            "decisions": part.decisions,
            "sleep_prunes": part.stats.sleep_prunes,
            "fingerprint_hits": part.stats.fingerprint_hits,
            "complete": part.complete,
        })
    return result
