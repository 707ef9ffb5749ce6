"""Per-layer ledger: self time of the calls into each layer's public functions.

The benchmark measures end-to-end numbers with nothing patched.  A
separate traced pass installs a :class:`Ledger`, which replaces each
function named in :data:`TARGETS` on its class with a timing wrapper
and puts the original back on :meth:`Ledger.uninstall`.  Nothing under
``src/`` knows about it.

Each wrapper records, per thread, the call count, the inclusive
duration and the *self* time of every call: its duration minus the
durations of the timed calls nested inside it, tracked with a
per-thread stack.  A nested call is subtracted with its wrapper's own
bookkeeping, so the ledger's cost lands in no span's self time.
Per-thread tables are merged on :meth:`Ledger.snapshot`, so the hot
path takes no lock.

Spans have a kind.  ``busy`` spans run code; ``wait`` spans mostly
block (a monitor acquire, a parked credit gate, a queue take, an
executor task waiting for a worker).  Only busy self time counts
towards ``ledger.coverage``, the share of process CPU time that the
timed layers explain.
"""

from __future__ import annotations

import importlib
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

__all__ = ["Target", "TARGETS", "Ledger", "merge", "blame"]


class Target:
    """One patched function: ``module:Class.attr`` timed as span ``name``.

    ``units(result, args)`` adds to the span's unit counter (bytes
    encoded, frames decoded, fresh deliveries...).  ``child`` names a
    second span for a function that returns a callable: the callable is
    timed too, which is how the handler an actor cell invokes is reached
    without touching the cell.  ``wrap`` names the :class:`Ledger`
    method that builds the wrapper (``_wrap_timed`` unless the function
    needs spans of its own, as the executor submit and the credit
    acquire do).
    """

    __slots__ = ("module", "owner", "attr", "name", "layer", "kind",
                 "units", "child", "wrap")

    def __init__(self, path: str, name: str, layer: str,
                 kind: str = "busy",
                 units: Optional[Callable[[Any, tuple], float]] = None,
                 child: Optional[str] = None, wrap: str = "_wrap_timed"):
        self.module, qual = path.split(":")
        self.owner, self.attr = qual.rsplit(".", 1)
        self.name = name
        self.layer = layer
        self.kind = kind
        self.units = units
        self.child = child
        self.wrap = wrap


def _truthy(result: Any, args: tuple) -> float:
    return 1.0 if result else 0.0


def _length(result: Any, args: tuple) -> float:
    return float(len(result))


#: every timed function, grouped by layer (the repo's module names)
TARGETS: tuple[Target, ...] = (
    # cluster.message — the serializer the benchmark's nodes use
    Target("repro.cluster.message:PickleSerializer.encode",
           "message.encode", "cluster.message", units=_length),
    Target("repro.cluster.message:PickleSerializer.decode",
           "message.decode", "cluster.message"),
    # cluster.transport
    Target("repro.cluster.transport:SocketTransport.send",
           "transport.send", "cluster.transport"),
    Target("repro.cluster.transport:LoopbackTransport.send",
           "transport.send", "cluster.transport"),
    Target("repro.cluster.transport:FrameDecoder.push",
           "transport.push", "cluster.transport", units=_length),
    # cluster.delivery
    Target("repro.cluster.delivery:Outbox.register",
           "delivery.outbox_register", "cluster.delivery"),
    Target("repro.cluster.delivery:Outbox.on_ack",
           "delivery.outbox_ack", "cluster.delivery"),
    Target("repro.cluster.delivery:Outbox.due",
           "delivery.outbox_due", "cluster.delivery", units=_length),
    Target("repro.cluster.delivery:DedupTable.fresh",
           "delivery.dedup_fresh", "cluster.delivery", units=_truthy),
    Target("repro.cluster.delivery:CreditGate.acquire",
           "delivery.credit_acquire", "cluster.delivery",
           wrap="_wrap_acquire"),
    # cluster.node
    Target("repro.cluster.node:RemoteRef.tell",
           "node.tell", "cluster.node"),
    # actors
    Target("repro.actors.ref:ActorRef.tell", "actors.enqueue", "actors"),
    Target("repro.actors.executor:WorkStealingExecutor.submit",
           "actors.submit", "actors", wrap="_wrap_submit"),
    Target("repro.actors.actor:Actor.current_behaviour",
           "actors.behaviour", "actors", child="actors.handler",
           wrap="_wrap_returns_timed"),
    # threads
    Target("repro.threads.sync:Monitor.__enter__",
           "threads.monitor_acquire", "threads", kind="wait"),
    Target("repro.threads.sync:Monitor.acquire",
           "threads.monitor_acquire_call", "threads"),
    Target("repro.threads.sync:Monitor.wait",
           "threads.monitor_wait", "threads", kind="wait"),
    Target("repro.threads.sync:Monitor.notify",
           "threads.notify", "threads"),
    Target("repro.threads.sync:Monitor.notify_all",
           "threads.notify", "threads"),
    Target("repro.threads.collections:BlockingQueue.put",
           "threads.queue", "threads", kind="wait"),
    Target("repro.threads.collections:BlockingQueue.take",
           "threads.queue", "threads", kind="wait"),
    # coroutines (channel ops are generator functions: counted, and
    # their time lands in the scheduler run that drives them)
    Target("repro.coroutines.scheduler:CoScheduler.run",
           "coroutines.run", "coroutines"),
    Target("repro.coroutines.scheduler:CoChannel.put",
           "coroutines.channel_op", "coroutines"),
    Target("repro.coroutines.scheduler:CoChannel.get",
           "coroutines.channel_op", "coroutines"),
    # core (the kernel)
    Target("repro.core.scheduler:Scheduler.step", "core.step", "core"),
    Target("repro.core.scheduler:Scheduler.fingerprint",
           "core.fingerprint", "core"),
)

#: synthetic spans the wrappers record besides the targets
_SYNTHETIC = {
    "actors.executor_wait": ("actors", "wait"),
    "actors.executor_run": ("actors", "busy"),
    "actors.handler": ("actors", "busy"),
    "delivery.credit_wait": ("cluster.delivery", "wait"),
}


class _Stat:
    __slots__ = ("calls", "total", "self_", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_ = 0.0
        self.units = 0.0


class Ledger:
    """Install/uninstall timing wrappers and collect per-span stats."""

    def __init__(self) -> None:
        self.spans: dict[str, tuple[str, str]] = dict(_SYNTHETIC)
        for t in TARGETS:
            self.spans[t.name] = (t.layer, t.kind)
        self._tls = threading.local()
        self._tables: list[dict[str, _Stat]] = []
        self._tables_lock = threading.Lock()
        self._saved: list[tuple[type, str, Any]] = []

    # -- per-thread state ------------------------------------------------
    def _state(self) -> tuple[list, dict]:
        tls = self._tls
        try:
            return tls.stack, tls.table
        except AttributeError:
            tls.stack = []
            tls.table = {}
            with self._tables_lock:
                self._tables.append(tls.table)
            return tls.stack, tls.table

    def _record(self, table: dict, name: str, dur: float, child: float,
                units: float) -> None:
        st = table.get(name)
        if st is None:
            st = table[name] = _Stat()
        st.calls += 1
        st.total += dur
        st.self_ += dur - child
        st.units += units

    def _timed(self, name: str, fn: Callable, units: Optional[Callable]
               ) -> Callable:
        record = self._record
        state = self._state

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t_in = perf_counter()
            stack, table = state()
            stack.append(0.0)
            t0 = perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                # a call that raised has no result to count units of
                record(table, name, dur, child,
                       units(result, args) if done and units is not None
                       else 0.0)
                if stack:
                    stack[-1] += perf_counter() - t_in
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_timed(self, target: Target, fn: Callable) -> Callable:
        return self._timed(target.name, fn, target.units)

    def _wrap_returns_timed(self, target: Target, fn: Callable) -> Callable:
        """A function that returns a callable: time both."""
        timed = self._timed(target.name, fn, target.units)
        child_name = target.child

        def returns_timed(*args: Any, **kwargs: Any) -> Callable:
            return self._timed(child_name, timed(*args, **kwargs), None)
        returns_timed.__wrapped__ = fn
        return returns_timed

    def _wrap_submit(self, target: Target, fn: Callable) -> Callable:
        """Executor submit: time the call, and re-wrap the task so its
        queueing delay and run time become spans of their own."""
        timed_submit = self._timed(target.name, fn, None)
        record = self._record
        state = self._state

        def submit(executor: Any, task: Callable, *args: Any,
                   **kwargs: Any) -> Any:
            t_submit = perf_counter()

            def run() -> Any:
                t_in = perf_counter()
                stack, table = state()
                record(table, "actors.executor_wait", t_in - t_submit, 0.0,
                       0.0)
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return task()
                finally:
                    dur = perf_counter() - t0
                    child = stack.pop()
                    record(table, "actors.executor_run", dur, child, 0.0)
                    if stack:
                        stack[-1] += perf_counter() - t_in
            return timed_submit(executor, run, *args, **kwargs)
        submit.__wrapped__ = fn
        return submit

    def _wrap_acquire(self, target: Target, fn: Callable) -> Callable:
        """Credit acquire: calls that parked also count as credit wait."""
        timed = self._timed(target.name, fn, None)
        record = self._record
        state = self._state

        def acquire(gate: Any, *args: Any, **kwargs: Any) -> Any:
            parks = gate.total_parks
            t0 = perf_counter()
            try:
                return timed(gate, *args, **kwargs)
            finally:
                if gate.total_parks != parks:
                    record(state()[1], "delivery.credit_wait",
                           perf_counter() - t0, 0.0, 1.0)
        acquire.__wrapped__ = fn
        return acquire

    # -- install / uninstall --------------------------------------------
    def install(self) -> "Ledger":
        if self._saved:
            raise RuntimeError("ledger already installed")
        for t in TARGETS:
            owner = getattr(importlib.import_module(t.module), t.owner)
            original = owner.__dict__[t.attr]
            self._saved.append((owner, t.attr, original))
            setattr(owner, t.attr, getattr(self, t.wrap)(t, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """Time a call the benchmark itself makes into a layer."""
        self.spans.setdefault(name, (layer, "busy"))
        t_in = perf_counter()
        stack, table = self._state()
        stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            dur = perf_counter() - t0
            child = stack.pop()
            self._record(table, name, dur, child, 0.0)
            if stack:
                stack[-1] += perf_counter() - t_in

    def reset(self) -> None:
        with self._tables_lock:
            for table in self._tables:
                table.clear()

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Merged per-span stats: ``name -> {layer, kind, calls,
        total_s, self_s, units}`` (JSON-ready)."""
        out: dict[str, dict[str, Any]] = {}
        with self._tables_lock:
            tables = [dict(t) for t in self._tables]
        for table in tables:
            for name, st in table.items():
                layer, kind = self.spans.get(name, ("?", "busy"))
                row = out.setdefault(name, {
                    "layer": layer, "kind": kind, "calls": 0,
                    "total_s": 0.0, "self_s": 0.0, "units": 0.0})
                row["calls"] += st.calls
                row["total_s"] += st.total
                row["self_s"] += st.self_
                row["units"] += st.units
        return out


def merge(*snaps: dict[str, dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Sum snapshots of several processes span by span."""
    out: dict[str, dict[str, Any]] = {}
    for snap in snaps:
        for name, row in snap.items():
            acc = out.setdefault(name, {
                "layer": row["layer"], "kind": row["kind"], "calls": 0,
                "total_s": 0.0, "self_s": 0.0, "units": 0.0})
            for key in ("calls", "total_s", "self_s", "units"):
                acc[key] += row[key]
    return out


def busy_self_s(snap: dict[str, dict[str, Any]]) -> float:
    """Summed self time of the busy spans (the coverage numerator)."""
    return sum(r["self_s"] for r in snap.values() if r["kind"] == "busy")


#: spans called fewer times than this in either ledger are too noisy
#: to blame
MIN_CALLS = 50


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 \
        else (ordered[mid - 1] + ordered[mid]) / 2


def blame(pairs: list[tuple[dict[str, dict[str, Any]],
                            dict[str, dict[str, Any]]]]
          ) -> tuple[str, str, float]:
    """Name the layer whose span grew most from ``base`` to ``slowed``
    ledgers, given as pairs of runs made one after the other.

    In each pair, a span's growth is its mean self time per call in
    the slowed run over that in the base run, divided by the median
    growth of the other spans, so a host that ran faster or slower
    between the two runs moves every span alike and cancels out.  A
    span's growth is the median over the pairs, so one run in which a
    span alone had a slow spell cannot decide.  Returns ``(layer, span,
    growth)`` for the span that grew most.  This is how a regression is
    traced to one layer.
    """
    growths: dict[str, list[float]] = {}
    for base, slowed in pairs:
        growth: dict[str, float] = {}
        for name, row in slowed.items():
            ref = base.get(name)
            if ref is None or min(ref["calls"], row["calls"]) < MIN_CALLS \
                    or ref["self_s"] <= 0:
                continue
            growth[name] = (row["self_s"] / row["calls"]) / \
                (ref["self_s"] / ref["calls"])
        for name, g in growth.items():
            others = [v for k, v in growth.items() if k != name]
            growths.setdefault(name, []).append(
                g / _median(others) if others else g)
    best = ("", "", 0.0)
    layers = {name: row["layer"] for _, slowed in pairs
              for name, row in slowed.items()}
    for name, values in growths.items():
        g = _median(values)
        if g > best[2]:
            best = (layers[name], name, g)
    return best
