"""Locks, semaphores, barriers and monitors on the simulation kernel."""

import pytest

from repro.core import (Acquire, DeadlockError, Emit, IllegalEffectError,
                        Notify, Pause, Release, RandomPolicy, Scheduler,
                        SimBarrier, SimLock, SimMonitor, SimSemaphore,
                        TaskFailed, Wait, locked, run_tasks, synchronized,
                        wait_while)
from repro.verify import check_mutual_exclusion, explore


class TestSimLock:
    def test_mutual_exclusion_under_all_schedules(self):
        def program(sched):
            lock = SimLock("L")

            def worker(name):
                yield Acquire(lock)
                yield Emit(("enter", name))
                yield Pause("inside")
                yield Emit(("exit", name))
                yield Release(lock)
            sched.spawn(worker, "a")
            sched.spawn(worker, "b")
        res = explore(program)
        assert res.complete
        for trace in res.witnesses.values():
            assert check_mutual_exclusion(trace) is None

    def test_reentrant_acquire(self):
        lock = SimLock("L")

        def worker():
            yield Acquire(lock)
            yield Acquire(lock)
            yield Release(lock)
            assert lock.held
            yield Release(lock)
            assert not lock.held
        run_tasks(worker)

    def test_non_reentrant_self_deadlock(self):
        lock = SimLock("L", reentrant=False)

        def worker():
            yield Acquire(lock)
            yield Acquire(lock)
        with pytest.raises(DeadlockError):
            run_tasks(worker)

    def test_release_without_ownership_is_error(self):
        lock = SimLock("L")

        def thief():
            yield Release(lock)
        with pytest.raises(TaskFailed) as err:
            run_tasks(thief)
        assert isinstance(err.value.original, IllegalEffectError)

    def test_locked_helper_releases_on_exception(self):
        lock = SimLock("L")

        def body():
            yield Pause()
            raise RuntimeError("inside critical section")

        def worker():
            yield from locked(lock, body())
        s = Scheduler(raise_on_failure=False)
        s.spawn(worker)
        s.run()
        assert not lock.held


class TestSimSemaphore:
    def test_permits_bound_concurrency(self):
        def program(sched):
            sem = SimSemaphore(2, "sem")
            state = {"inside": 0, "max_inside": 0}

            def worker(i):
                yield Acquire(sem)
                state["inside"] += 1
                state["max_inside"] = max(state["max_inside"],
                                          state["inside"])
                yield Pause("in section")
                state["inside"] -= 1
                yield Release(sem)
            for i in range(3):
                sched.spawn(worker, i)
            return lambda: state["max_inside"]
        res = explore(program, max_runs=50_000)
        assert res.complete
        assert max(res.observations()) == 2

    def test_zero_permit_semaphore_blocks_until_release(self):
        sem = SimSemaphore(0, "sem")

        def releaser():
            yield Pause()
            yield Release(sem)

        def taker():
            yield Acquire(sem)
            yield Emit("got it")
        trace = run_tasks(taker, releaser)
        assert trace.output == ["got it"]

    def test_negative_permits_rejected(self):
        with pytest.raises(ValueError):
            SimSemaphore(-1, "sem")


class TestSimBarrier:
    def test_all_parties_cross_together(self):
        barrier = SimBarrier(3, "b")

        def worker(i):
            yield Emit(("before", i))
            yield from barrier.wait_gen()
            yield Emit(("after", i))
        trace = run_tasks(*(lambda i=i: worker(i) for i in range(3)))
        befores = [i for tag, i in trace.output if tag == "before"]
        first_after = next(idx for idx, (tag, _) in enumerate(trace.output)
                           if tag == "after")
        assert len(befores) == 3
        # every "before" precedes every "after"
        assert all(tag == "before" for tag, _ in trace.output[:first_after])

    def test_barrier_is_cyclic(self):
        barrier = SimBarrier(2, "b")

        def worker(i):
            for round_no in range(2):
                yield from barrier.wait_gen()
                yield Emit((i, round_no))
        run_tasks(lambda: worker(0), lambda: worker(1))
        assert barrier.generation == 2

    def test_insufficient_parties_deadlocks(self):
        barrier = SimBarrier(2, "b")

        def lonely():
            yield from barrier.wait_gen()
        with pytest.raises(DeadlockError):
            run_tasks(lonely)


class TestSimMonitor:
    def test_figure4_wait_notify(self):
        """The paper's Figure 4: changeX(-11) must wait for changeX(1)."""
        def program(sched):
            mon = SimMonitor("M")
            state = {"x": 10}

            def change(diff):
                yield Acquire(mon)
                while state["x"] + diff < 0:
                    yield Wait(mon)
                state["x"] += diff
                yield Notify(mon, all=True)
                yield Release(mon)
            sched.spawn(change, -11)
            sched.spawn(change, 1)
            return lambda: state["x"]
        res = explore(program)
        assert res.complete
        assert res.observations() == {0}

    def test_wait_outside_monitor_is_error(self):
        mon = SimMonitor("M")

        def bad():
            yield Wait(mon)
        with pytest.raises(TaskFailed):
            run_tasks(bad)

    def test_notify_without_ownership_is_error(self):
        mon = SimMonitor("M")

        def bad():
            yield Notify(mon)
        with pytest.raises(TaskFailed):
            run_tasks(bad)

    def test_wait_releases_full_reentrancy_depth(self):
        mon = SimMonitor("M")
        state = {"flag": False}

        def waiter():
            yield Acquire(mon)
            yield Acquire(mon)          # depth 2
            while not state["flag"]:
                yield Wait(mon)
            # woken: depth must be restored to 2
            yield Release(mon)
            yield Release(mon)
            yield Emit("done")

        def setter():
            yield Acquire(mon)          # possible only if wait stripped depth
            state["flag"] = True
            yield Notify(mon, all=True)
            yield Release(mon)
        trace = run_tasks(waiter, setter)
        assert trace.output == ["done"]

    def test_notify_one_wakes_fifo(self):
        mon = SimMonitor("M")
        state = {"go": 0}

        def waiter(i):
            yield Acquire(mon)
            while state["go"] <= i:
                yield Wait(mon)
            yield Emit(i)
            yield Release(mon)

        def notifier():
            for _ in range(2):
                yield Acquire(mon)
                state["go"] += 10
                yield Notify(mon, all=False)
                yield Release(mon)
        trace = run_tasks(lambda: waiter(0), lambda: waiter(1), notifier)
        assert sorted(trace.output) == [0, 1]

    def test_synchronized_helper(self):
        mon = SimMonitor("M")

        def body():
            yield Emit("inside")

        def worker():
            yield from synchronized(mon, body())
        assert run_tasks(worker).output == ["inside"]

    def test_wait_while_rechecks_predicate(self):
        """Mesa semantics: barging means the guard must be re-checked."""
        def program(sched):
            mon = SimMonitor("M")
            state = {"tokens": 1}

            def taker(name):
                yield Acquire(mon)
                yield from wait_while(mon, lambda: state["tokens"] == 0)
                state["tokens"] -= 1
                yield Emit(("took", name))
                yield Release(mon)

            def giver():
                yield Acquire(mon)
                state["tokens"] += 1
                yield Notify(mon, all=True)
                yield Release(mon)
            sched.spawn(taker, "a")
            sched.spawn(taker, "b")
            sched.spawn(giver)
            return lambda: state["tokens"]
        res = explore(program)
        assert res.complete
        # two tokens total, two takers: always exactly zero left
        assert res.observations() == {0}
