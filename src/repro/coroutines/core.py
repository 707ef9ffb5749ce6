"""First-class coroutines per de Moura & Ierusalimschy ("Revisiting
Coroutines", the paper's reference [5]).

The paper classifies coroutine facilities along three axes:

1. **control transfer** — asymmetric (resume/yield pairs, like Lua) vs
   symmetric (a single ``transfer`` that names its successor);
2. **first-class?** — can coroutines be stored, passed, compared;
3. **stackful?** — can a coroutine suspend from inside nested calls.

Raw Python generators are first-class but asymmetric and *not* stackful
(only the generator frame itself can yield).  :class:`Coroutine` adds
stackfulness with a trampoline: nested calls are made with
``yield Call(subgen)`` and may ``yield Suspend(v)`` at any depth — the
whole stack suspends, which is the property [5] proves sufficient to
express one-shot continuations and therefore concurrency.
:class:`SymmetricCoroutine` + :func:`run_symmetric` provide the
symmetric discipline on top (also per [5]: either kind expresses the
other).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Optional

__all__ = ["CoroutineError", "CoroutineState", "Suspend", "Call",
           "Coroutine", "SymmetricCoroutine", "Transfer", "run_symmetric"]


class CoroutineError(RuntimeError):
    """Protocol violation: resuming a dead/running coroutine, etc."""


class CoroutineState(enum.Enum):
    CREATED = "created"      # never resumed
    SUSPENDED = "suspended"  # yielded, waiting for resume
    RUNNING = "running"      # currently executing
    DEAD = "dead"            # body returned or raised


class Suspend:
    """``yield Suspend(v)`` — suspend the whole coroutine with value v.

    Works at any nesting depth of trampolined calls; a bare
    ``yield v`` at the top frame is shorthand for ``yield Suspend(v)``
    only at depth 0 (nested frames must be explicit, that's the point).
    """

    __slots__ = ("value",)

    def __init__(self, value: Any = None):
        self.value = value


class Call:
    """``result = yield Call(subgen)`` — stackful nested call.

    The trampoline pushes ``subgen``; its ``return`` value becomes the
    result of the yield.  Sub-generators may themselves yield ``Call``
    or ``Suspend``.
    """

    __slots__ = ("gen",)

    def __init__(self, gen: Generator):
        self.gen = gen


class Coroutine:
    """Asymmetric, first-class, stackful coroutine.

    >>> def counter(start):
    ...     n = start
    ...     while True:
    ...         step = yield Suspend(n)
    ...         n += step if step else 1
    >>> co = Coroutine(counter, 10)
    >>> co.resume(), co.resume(5), co.status
    (10, 15, <CoroutineState.SUSPENDED: 'suspended'>)

    The two defining properties from the paper's background section
    hold by construction: locals persist between resumes (generator
    frames), and execution continues exactly where it left off.
    """

    _counter = 0

    def __init__(self, fn: Callable[..., Generator], *args: Any,
                 name: str = "", profiler: Any = None, **kwargs: Any):
        Coroutine._counter += 1
        self.name = name or f"coroutine-{Coroutine._counter}"
        self._stack: list[Generator] = [fn(*args, **kwargs)]
        self.status = CoroutineState.CREATED
        self.result: Any = None          # body's return value once DEAD
        #: value passed to the first resume (Lua would pass it as args)
        self.first_value: Any = None
        #: optional :class:`repro.obs.Metrics` — per-resume wall time
        self.profiler = profiler

    # ------------------------------------------------------------------
    def resume(self, value: Any = None) -> Any:
        """Run until the coroutine suspends or finishes.

        Returns the suspended value, or (when the body returns) the
        return value with ``status`` becoming DEAD.  Resuming a DEAD or
        RUNNING coroutine raises :class:`CoroutineError`.
        """
        prof = self.profiler
        if prof is None:
            return self._resume(value)
        t0 = prof.now()
        try:
            return self._resume(value)
        finally:
            prof.inc("coroutine.resumes")
            prof.observe_us("coroutine.resume_us", prof.now() - t0)

    def _resume(self, value: Any = None) -> Any:
        if self.status is CoroutineState.DEAD:
            raise CoroutineError(f"cannot resume dead coroutine {self.name}")
        if self.status is CoroutineState.RUNNING:
            raise CoroutineError(f"{self.name} is already running")
        send_value = value
        if self.status is CoroutineState.CREATED:
            # Lua semantics: the first resume's arguments go to the body
            # as *function* arguments; with the body already constructed,
            # we stash the value on `first_value` and prime with None.
            self.first_value = value
            send_value = None
        self.status = CoroutineState.RUNNING
        try:
            while True:
                top = self._stack[-1]
                try:
                    yielded = top.send(send_value)
                except StopIteration as stop:
                    self._stack.pop()
                    if not self._stack:
                        self.status = CoroutineState.DEAD
                        self.result = stop.value
                        return stop.value
                    send_value = stop.value       # return to trampoline caller
                    continue
                if isinstance(yielded, Call):
                    self._stack.append(yielded.gen)
                    send_value = None
                    continue
                if isinstance(yielded, Suspend):
                    self.status = CoroutineState.SUSPENDED
                    return yielded.value
                if len(self._stack) == 1:
                    # bare-yield shorthand at the top frame
                    self.status = CoroutineState.SUSPENDED
                    return yielded
                raise CoroutineError(
                    f"{self.name}: nested frame yielded bare value "
                    f"{yielded!r}; nested suspends must use Suspend(...)")
        except BaseException:
            if self.status is CoroutineState.RUNNING:
                self.status = CoroutineState.DEAD
            raise

    def throw(self, exc: BaseException) -> Any:
        """Raise ``exc`` inside the coroutine at its suspension point."""
        if self.status is not CoroutineState.SUSPENDED:
            raise CoroutineError(
                f"can only throw into a suspended coroutine ({self.name} is "
                f"{self.status.value})")
        self.status = CoroutineState.RUNNING
        try:
            yielded = self._stack[-1].throw(exc)
        except StopIteration as stop:
            self._stack.clear()
            self.status = CoroutineState.DEAD
            self.result = stop.value
            return stop.value
        except BaseException:
            self.status = CoroutineState.DEAD
            raise
        self.status = CoroutineState.SUSPENDED
        return yielded.value if isinstance(yielded, Suspend) else yielded

    @property
    def alive(self) -> bool:
        return self.status is not CoroutineState.DEAD

    @property
    def depth(self) -> int:
        """Current nested-call depth (stackfulness made visible)."""
        return len(self._stack)

    def __iter__(self):
        """Drain as an iterator of suspended values (generator view)."""
        while self.alive:
            value = self.resume()
            if self.status is CoroutineState.DEAD:
                return
            yield value

    def __repr__(self) -> str:
        return f"<Coroutine {self.name} {self.status.value}>"


# ---------------------------------------------------------------------------
# symmetric coroutines
# ---------------------------------------------------------------------------

class Transfer:
    """``yield Transfer(other, v)`` — symmetric control transfer.

    Suspends the current coroutine and resumes ``target`` with ``v``;
    control never implicitly returns (only another Transfer back).
    ``Transfer(None, v)`` ends the whole symmetric session with value v.
    """

    __slots__ = ("target", "value")

    def __init__(self, target: Optional["SymmetricCoroutine"],
                 value: Any = None):
        self.target = target
        self.value = value


class SymmetricCoroutine(Coroutine):
    """A coroutine driven by :func:`run_symmetric` that passes control
    with ``Transfer`` instead of returning to a resumer."""


def run_symmetric(first: SymmetricCoroutine, value: Any = None) -> Any:
    """Dispatch loop for symmetric coroutines.

    Starts ``first`` and follows Transfer yields until a coroutine
    finishes (its return value ends the session) or transfers to None.
    """
    current: Optional[SymmetricCoroutine] = first
    while current is not None:
        out = current.resume(value)
        if current.status is CoroutineState.DEAD:
            return out
        if not isinstance(out, Transfer):
            raise CoroutineError(
                f"symmetric coroutine {current.name} yielded {out!r}; "
                f"symmetric coroutines may only yield Transfer(...)")
        current, value = out.target, out.value
    return value
