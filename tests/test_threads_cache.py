"""The process-wide cache of parked worker threads.

:func:`repro.threads.cache.run_on_thread` hands a job to a parked
thread, or starts one; the actor dispatcher and :class:`ThreadPool`
borrow every worker there.  The first part checks what a borrower may
rely on with real threads: the job runs under the borrower's name, a
reused thread carries no request context over, a pool can be shut down
from one of its own workers, the number of parked threads stays
bounded, and a forked child does not hand work to the parent's parked
threads (which it does not have).  The second part explores the
borrow, park and exit protocol as a kernel program, with one mutation
per property it checks.
"""

import gc
import os
import signal
import sys
import threading
import time
import weakref

import pytest

from repro.actors import Actor, ActorSystem, ask
from repro.actors.executor import WorkStealingExecutor
from repro.core import (Access, AccessKind, Acquire, Release, SimLock,
                        SimSemaphore, Spawn)
from repro.obs import (CausalTracer, DeadlockDetector, LostWakeupDetector,
                       MonitorBus)
from repro.obs.causal import clear_context, current_context
from repro.threads import ThreadPool
from repro.threads import cache
from repro.verify import explore

WRITE = AccessKind.WRITE


def _parked(thread: threading.Thread, timeout: float = 5.0) -> bool:
    """Poll until ``thread`` sleeps in the cache (it takes the parked
    name only after it has published itself as idle)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if thread.name == cache.PARKED_NAME:
            return True
        time.sleep(0.001)
    return False


class Echo(Actor):
    def receive(self, message, sender):
        sender.tell(message.payload)


# ---------------------------------------------------------------------------
# borrowing, with real threads
# ---------------------------------------------------------------------------

class TestBorrowHygiene:
    def test_a_job_runs_under_its_borrowers_worker_name(self):
        with ThreadPool(2, name="hyg") as pool:
            names = {pool.submit(lambda: threading.current_thread().name)
                     .result(timeout=5) for _ in range(8)}
        assert names <= {"hyg-w0", "hyg-w1"}
        got = []
        with ActorSystem(workers=2, name="hygsys") as system:
            class Who(Actor):
                def receive(self, message, sender):
                    got.append(threading.current_thread().name)
            system.spawn(Who).tell("?")
            assert system.drain(timeout=5)
        assert got[0] in {"hygsys.dispatch-w0", "hygsys.dispatch-w1"}

    def test_a_reused_thread_carries_no_request_context(self):
        """A traced pool job installs the request context and removes
        it; the next job on that same thread, for another pool, sees
        none."""
        tracer = CausalTracer()
        with ThreadPool(1, tracer=tracer) as traced:
            root = tracer.start_request("borrow")
            try:
                ctx, thread = traced.submit(
                    lambda: (current_context(), threading.current_thread())
                ).result(timeout=5)
            finally:
                clear_context()
        assert ctx is not None and ctx.request_id == root.request_id
        assert _parked(thread)
        with ThreadPool(1) as plain:
            ctx, again = plain.submit(
                lambda: (current_context(), threading.current_thread())
            ).result(timeout=5)
        assert again is thread            # the parked thread was reused
        assert ctx is None

    def test_a_parked_thread_keeps_nothing_of_its_last_job_alive(self):
        pool = ThreadPool(1)
        threads = [pool.submit(threading.current_thread).result(timeout=5)]
        pool.shutdown()
        ex = WorkStealingExecutor(workers=1)
        ex.submit(lambda: threads.append(threading.current_thread()))
        ex.shutdown()
        assert all(_parked(t) for t in threads)
        refs = [weakref.ref(pool), weakref.ref(ex)]
        del pool, ex
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_parked_threads_stay_within_the_bound(self):
        before = threading.active_count()
        for i in range(10):
            with ActorSystem(workers=4, name=f"bound{i}") as system:
                echo = system.spawn(Echo)
                assert ask(system, echo, i, timeout=5) == i
            assert len(cache._idle) <= cache.MAX_IDLE
        # every borrowed thread parks or exits: none is left running
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and any(
                t.name.startswith("bound") for t in threading.enumerate()):
            time.sleep(0.001)
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("bound")]
        parked = [t for t in threading.enumerate()
                  if t.name == cache.PARKED_NAME]
        assert len(parked) == len(cache._idle) <= cache.MAX_IDLE
        assert threading.active_count() <= before + cache.MAX_IDLE

    def test_concurrent_borrowers_run_every_job_once(self):
        """Six borrowers (more than the cores) hand out jobs one at a
        time under a short switch interval, so borrows race threads
        parking and exiting: every job runs exactly once, on a thread
        named for it, and the idle list never outgrows its bound."""
        runs, lock = {}, threading.Lock()
        problems = []

        def job(key, done):
            with lock:
                runs[key] = runs.get(key, 0) + 1
            if threading.current_thread().name != f"{key[0]}-w":
                problems.append(("misnamed", key))
            done.set()

        def borrower(b):
            for i in range(100):
                done = threading.Event()
                cache.run_on_thread(lambda k=(b, i), d=done: job(k, d),
                                    f"{b}-w")
                if not done.wait(5):
                    problems.append(("lost", (b, i)))
                    return
                if len(cache._idle) > cache.MAX_IDLE:
                    problems.append(("idle", len(cache._idle)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=borrower, args=(b,))
                       for b in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert problems == []
        assert runs == {(b, i): 1 for b in range(6) for i in range(100)}

    def test_an_executor_shut_down_from_its_own_worker_returns(self):
        done = threading.Event()
        ex = WorkStealingExecutor(workers=2)
        ex.submit(lambda: (ex.shutdown(wait=True), done.set()))
        assert done.wait(timeout=5)
        assert ex.submit(lambda: None) is False

    def test_a_pool_shut_down_from_its_own_worker_returns(self):
        pool = ThreadPool(2)
        assert pool.submit(pool.shutdown, True).result(timeout=5) is None
        with pytest.raises(RuntimeError):
            pool.submit(abs, 1)


# ---------------------------------------------------------------------------
# fork
# ---------------------------------------------------------------------------

def _child_work() -> int:
    """Runs in the forked child: one ask through an actor system and one
    task through a pool, each with a timeout, so a lost worker makes the
    child exit 1 instead of hanging."""
    system = ActorSystem(workers=2, name="child")
    echo = system.spawn(Echo)
    if ask(system, echo, "hi", timeout=5) != "hi":
        return 1
    pool = ThreadPool(2, name="child-pool")
    if pool.submit(abs, -3).result(timeout=5) != 3:
        return 1
    pool.shutdown()
    system.shutdown()
    return 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_does_not_borrow_the_parents_parked_threads():
    with ThreadPool(2) as pool:
        thread = pool.submit(threading.current_thread).result(timeout=5)
    assert _parked(thread)
    assert cache._idle                   # the parent has parked threads
    pid = os.fork()
    if pid == 0:                         # the child: never return to pytest
        code = 1
        try:
            code = _child_work()
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        reaped, status = os.waitpid(pid, os.WNOHANG)
        if reaped:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


# ---------------------------------------------------------------------------
# the borrow, park and exit protocol, model-checked
# ---------------------------------------------------------------------------

#: the model's idle bound (``MAX_IDLE``): small, so that a finishing
#: thread meets a full cache and exits
BOUND = 1
JOBS = ("a1", "a2", "b1")


def _cache_program(ready_before_publish: bool = True,
                   bound_full=lambda idle: idle >= BOUND):
    """``run_on_thread`` and ``_serve`` as a kernel program.

    Borrower ``a`` runs job ``a1``, waits for it, then runs ``a2``;
    borrower ``b`` runs ``b1`` meanwhile.  A borrow pops a parked
    thread under the cache lock, writes its job slot and releases its
    wake semaphore, or spawns a thread (a daemon task: a parked thread
    sleeps forever) that runs the job first.  After each job a thread
    takes the lock, exits if the cache is full, else appends itself to
    the idle list; then it sleeps on its wake semaphore and takes the
    job from its slot, emptying it.  Each job records that it ran and
    releases its borrower's ``done`` semaphore, so a lost job leaves
    its borrower blocked forever: a deadlock.

    The mutations: a thread that publishes itself as idle before its
    slot is ready to receive a job (it empties the slot after
    publishing, which can wipe a job handed over in between), and a
    bound check that lets one thread too many park.
    """
    def program(sched):
        lock = SimLock("cache.lock")
        done = {job: SimSemaphore(0, f"done-{job}") for job in JOBS}
        st = {"idle": [], "threads": [], "ran": [], "max_idle": 0}
        sched.fingerprint_extra = lambda: (
            tuple(p["n"] for p in st["idle"]),
            tuple(p["job"] for p in st["threads"]),
            tuple(sorted(st["ran"])), st["max_idle"], len(st["threads"]))

        def run(job):
            st["ran"].append(job)
            yield Release(done[job])

        def thread(job, p):
            slot = f"slot-{p['n']}"
            while True:
                yield from run(job)
                yield Acquire(lock)
                if bound_full(len(st["idle"])):
                    yield Release(lock)
                    return                          # exit
                st["idle"].append(p)
                st["max_idle"] = max(st["max_idle"], len(st["idle"]))
                yield Release(lock)
                if not ready_before_publish:
                    yield Access(slot, WRITE)
                    p["job"] = None                 # too late
                yield Acquire(p["wake"])
                yield Access(slot, WRITE)
                job = p["job"]
                if ready_before_publish:
                    p["job"] = None
                if job is None:                     # fn() raises: the
                    return                          # thread dies

        def borrow(job):
            yield Acquire(lock)
            p = st["idle"].pop() if st["idle"] else None
            yield Release(lock)
            if p is None:
                n = len(st["threads"])
                p = {"n": n, "wake": SimSemaphore(0, f"wake-{n}"),
                     "job": None}
                st["threads"].append(p)
                yield Spawn(thread(job, p), name=f"thread-{n}",
                            daemon=True)
                return
            yield Access(f"slot-{p['n']}", WRITE)
            p["job"] = job
            yield Release(p["wake"])

        def borrower(jobs):
            for job in jobs:
                yield from borrow(job)
                yield Acquire(done[job])

        sched.spawn(borrower, ("a1", "a2"), name="borrower-a")
        sched.spawn(borrower, ("b1",), name="borrower-b")
        return lambda: (tuple(sorted(st["ran"])), st["max_idle"],
                        len(st["threads"]))
    return program


def _explore_armed(program, max_runs=5000):
    return explore(program, reduce="all", max_runs=max_runs,
                   monitors=lambda: MonitorBus([DeadlockDetector(),
                                                LostWakeupDetector()]))


class TestCacheModel:
    def test_every_job_runs_once_and_the_bound_holds(self):
        res = _explore_armed(_cache_program())
        assert res.complete
        assert not res.deadlock_possible
        assert res.hazards == []
        ends = res.observations()
        assert {ran for ran, _, _ in ends} == {JOBS}       # exactly once
        assert {max_idle for _, max_idle, _ in ends} == {BOUND}
        # not vacuous: one schedule runs all three jobs on one reused
        # thread, another starts a thread per job, so two of them meet
        # a full cache and exit
        assert {started for *_, started in ends} == {1, 2, 3}

    # each mutation below shows within the first 200 runs
    def test_publishing_before_the_slot_is_ready_loses_a_job(self):
        res = _explore_armed(_cache_program(ready_before_publish=False),
                             max_runs=1000)
        assert res.deadlock_possible
        assert any(h.kind == "deadlock" for h in res.hazards)
        assert any(ran != JOBS for ran, _, _ in res.observations())

    def test_an_off_by_one_bound_parks_a_thread_too_many(self):
        res = _explore_armed(_cache_program(
            bound_full=lambda idle: idle > BOUND), max_runs=1000)
        assert max(max_idle for _, max_idle, _ in res.observations()) \
            > BOUND
