"""Java-flavoured thread class over :mod:`threading`.

The course's Java programs subclass ``Thread`` and override ``run()``;
:class:`JThread` keeps that shape so the three-model implementations of
each classic problem read like their course counterparts.  Adds the two
things tests constantly need and ``threading.Thread`` lacks: a result
value from ``join()`` and exception capture.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

__all__ = ["JThread", "spawn_all", "join_all"]


class JThread:
    """Subclass and override :meth:`run`, or pass a target callable.

    ``join()`` returns the value :meth:`run` returned; if ``run``
    raised, ``join()`` re-raises that exception in the joiner (closer to
    what students expect than Java's silent UncaughtExceptionHandler).
    """

    _counter = 0

    def __init__(self, target: Optional[Callable[..., Any]] = None,
                 args: tuple = (), name: str = "", daemon: bool = False,
                 profiler: Optional[Any] = None,
                 tracer: Optional[Any] = None):
        JThread._counter += 1
        self.name = name or f"jthread-{JThread._counter}"
        self._target = target
        self._args = args
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._bootstrap, name=self.name, daemon=daemon)
        self._started = False
        #: optional :class:`repro.obs.Metrics` — start latency + counts
        self.profiler = profiler
        #: optional :class:`repro.obs.causal.CausalTracer` — the
        #: starter's request context is captured at ``start()`` and
        #: re-installed inside the new thread around :meth:`run`
        self.tracer = tracer
        self._ctx: Any = None
        self._start_t = 0.0

    # -- to be overridden ----------------------------------------------------
    def run(self) -> Any:
        if self._target is not None:
            return self._target(*self._args)
        return None

    # -- lifecycle -----------------------------------------------------------
    def _bootstrap(self) -> None:
        prof = self.profiler
        if prof is not None:
            # OS scheduling delay between start() and the first instruction
            prof.inc("thread.started")
            prof.observe_us("thread.start_latency_us",
                            prof.now() - self._start_t)
        trc = self.tracer
        if trc is not None and self._ctx is not None \
                and trc.admit(self._ctx.request_id):
            # carry the starter's causal position across the handoff:
            # run() executes as a thread-exec span chained on it
            t0 = trc.now()
            sid = trc.next_id()
            trc.install(trc.context(self._ctx.request_id, sid))
            try:
                self._result = self.run()
            except BaseException as exc:  # noqa: BLE001
                self._error = exc
            finally:
                trc.record(sid, self._ctx.span_id, self._ctx.request_id,
                           "thread-exec", self.name, t0, trc.now())
                trc.uninstall()
        else:
            try:
                self._result = self.run()
            except BaseException as exc:  # noqa: BLE001 - captured for joiner
                self._error = exc
        if prof is not None:
            prof.inc("thread.finished")

    def start(self) -> "JThread":
        if self._started:
            raise RuntimeError(f"{self.name} already started")
        self._started = True
        if self.profiler is not None:
            self._start_t = self.profiler.now()
        if self.tracer is not None:
            self._ctx = self.tracer.current()
        self._thread.start()
        return self

    def join(self, timeout: Optional[float] = None) -> Any:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError(f"join on {self.name} timed out")
        if self._error is not None:
            raise self._error
        return self._result

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    def __repr__(self) -> str:
        state = ("unstarted" if not self._started
                 else "alive" if self.is_alive() else "dead")
        return f"<JThread {self.name} {state}>"


def spawn_all(*targets: Callable[[], Any], prefix: str = "worker"
              ) -> list[JThread]:
    """Start one JThread per callable; the PARA idiom for real threads."""
    threads = [JThread(target=t, name=f"{prefix}-{i}")
               for i, t in enumerate(targets)]
    for t in threads:
        t.start()
    return threads


def join_all(threads: list[JThread], timeout: Optional[float] = None
             ) -> list[Any]:
    """Join every thread, returning their results in order."""
    return [t.join(timeout) for t in threads]
