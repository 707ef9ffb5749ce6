"""One process-wide cache of parked worker threads.

Starting an OS thread is the dear part of a short-lived pool: most of
``Thread.start()`` is its boot handshake, in which the starter waits
until the new thread runs.  Handing a job to a thread that already
exists and sleeps on a lock costs a fraction of that.  So the runtimes'
worker pools — the actor dispatcher
(:class:`~repro.actors.executor.WorkStealingExecutor`) and
:class:`~repro.threads.pool.ThreadPool` — do not start and join threads
of their own: each worker is a job handed to :func:`run_on_thread`,
which runs it on a parked thread, or on a new one if none is parked.
Kotlin's ``Dispatchers.Default`` shares one process-wide pool of
dispatcher threads in the same way.

* **borrow** — pop the most recently parked thread (LIFO, so a warm
  one), put the job in its slot and release its wake lock.  With none
  parked, start a daemon thread that runs the job first;
* **park or exit** — when a job returns, the thread parks again if
  fewer than :data:`MAX_IDLE` threads are parked, otherwise it exits.
  A thread empties its slot when it takes a job, so it is ready to
  receive the next one before it publishes itself as idle.  There is
  no idle timeout: at most :data:`MAX_IDLE` threads ever sleep here;
* **fork** — a forked child has only the forking thread, so it forgets
  the parent's parked threads (``os.register_at_fork``); handing a job
  to one of them would lose it.

During a job the thread carries the borrower's name.  A job that
raises ends its thread, and :mod:`threading` reports the error, as for
any thread target; the pools' worker loops never raise.

:class:`~repro.threads.jthread.JThread` does not borrow: it models
Java's ``Thread``, whose ``start()`` makes a new thread.
``tests/test_threads_cache.py`` explores the borrow, park and exit
protocol as a kernel program.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Optional

__all__ = ["MAX_IDLE", "run_on_thread"]

#: most threads parked at once; a thread that finishes a job while this
#: many are parked exits instead
MAX_IDLE = 4

#: the name a thread carries while it is parked
PARKED_NAME = "parked-worker"


class _Parked:
    """A cached thread's job slot and wake lock, which is held while the
    slot is empty.  A new thread's first job is in the slot already."""

    __slots__ = ("wake", "job")

    def __init__(self, job: tuple[Callable[[], Any], str]) -> None:
        self.wake = threading.Lock()
        self.job: Optional[tuple[Callable[[], Any], str]] = job


_lock = threading.Lock()
_idle: list[_Parked] = []


def run_on_thread(fn: Callable[[], Any], name: str) -> None:
    """Run ``fn()`` on a parked thread named ``name`` for the job, or on
    a new daemon thread if none is parked.  Returns at once."""
    with _lock:
        parked = _idle.pop() if _idle else None
    if parked is None:
        threading.Thread(target=_serve, args=(_Parked((fn, name)),),
                         name=name, daemon=True).start()
    else:
        parked.job = (fn, name)
        parked.wake.release()


def _serve(parked: _Parked) -> None:
    me = threading.current_thread()
    while True:
        parked.wake.acquire()
        (fn, me.name), parked.job = parked.job, None
        fn()
        del fn                  # a parked thread keeps no job alive
        with _lock:
            if len(_idle) >= MAX_IDLE:
                return
            _idle.append(parked)
        me.name = PARKED_NAME


def _forget_parked() -> None:
    # the child of a fork has none of the parent's other threads, and a
    # fork taken while another thread held the lock would leave it held
    global _lock
    _lock = threading.Lock()
    _idle.clear()


os.register_at_fork(after_in_child=_forget_parked)
