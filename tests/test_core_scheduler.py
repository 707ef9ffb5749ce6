"""Scheduler semantics: spawning, effects, termination, replay."""

import pytest

from repro.core import (BudgetExceeded, Choice, DeadlockError, Emit,
                        FixedPolicy, IllegalEffectError, Join, Pause,
                        RandomPolicy, RoundRobinPolicy, Scheduler, Sleep,
                        Spawn, Task, TaskFailed, TaskState, run_tasks)


def emit_each(*values):
    for v in values:
        yield Emit(v)


class TestSpawn:
    def test_spawn_generator_function_with_args(self):
        s = Scheduler()
        t = s.spawn(emit_each, "a", "b", name="t")
        assert t.name == "t"
        assert t.state is TaskState.READY

    def test_spawn_pre_made_generator(self):
        s = Scheduler()
        t = s.spawn(emit_each("x"))
        assert isinstance(t, Task)

    def test_spawn_plain_function_rejected(self):
        s = Scheduler()
        with pytest.raises(TypeError):
            s.spawn(lambda: None)

    def test_args_with_generator_object_rejected(self):
        s = Scheduler()
        with pytest.raises(TypeError):
            s.spawn(emit_each("x"), "extra")

    def test_default_names_unique(self):
        s = Scheduler()
        a = s.spawn(emit_each("x"))
        b = s.spawn(emit_each("y"))
        assert a.tid != b.tid


class TestRunBasics:
    def test_single_task_output(self):
        trace = run_tasks(lambda: emit_each(1, 2, 3))
        assert trace.output == [1, 2, 3]
        assert trace.outcome == "done"

    def test_return_value_captured(self):
        def body():
            yield Pause()
            return 42
        s = Scheduler()
        t = s.spawn(body)
        s.run()
        assert t.state is TaskState.DONE
        assert t.result == 42
        assert s.results() == {"body": 42}

    def test_round_robin_interleaves_fairly(self):
        def worker(tag):
            for _ in range(3):
                yield Emit(tag)
        s = Scheduler(RoundRobinPolicy())
        s.spawn(worker, "a", name="a")
        s.spawn(worker, "b", name="b")
        trace = s.run()
        assert trace.output == ["a", "b", "a", "b", "a", "b"]

    def test_scheduler_single_use(self):
        s = Scheduler()
        s.spawn(emit_each, "x")
        s.run()
        with pytest.raises(Exception, match="single-use"):
            s.run()

    def test_empty_scheduler_runs_cleanly(self):
        assert Scheduler().run().outcome == "done"


class TestSpawnJoinEffects:
    def test_spawn_effect_returns_task(self):
        def parent():
            child = yield Spawn(emit_each("c"), name="child")
            result = yield Join(child)
            yield Emit(("joined", result))
        trace = run_tasks(parent)
        assert ("joined", None) in trace.output
        assert "c" in trace.output

    def test_join_returns_child_result(self):
        def child_body():
            yield Pause()
            return "payload"

        def parent():
            child = yield Spawn(child_body(), name="child")
            result = yield Join(child)
            yield Emit(result)
        trace = run_tasks(parent)
        assert trace.output == ["payload"]

    def test_join_already_finished_task(self):
        def quick():
            return "fast"
            yield  # pragma: no cover

        def parent():
            child = yield Spawn(quick(), name="q")
            yield Pause()
            yield Pause()
            result = yield Join(child)
            yield Emit(result)
        trace = run_tasks(parent)
        assert trace.output == ["fast"]


class TestChoice:
    def test_choice_value_delivered(self):
        def chooser():
            got = yield Choice(["only"])
            yield Emit(got)
        assert run_tasks(chooser).output == ["only"]

    def test_empty_choice_is_error(self):
        def chooser():
            yield Choice([])
        with pytest.raises(TaskFailed):
            run_tasks(chooser)

    def test_choice_options_enumerable(self):
        from repro.verify import explore

        def program(sched):
            def chooser():
                got = yield Choice(["a", "b", "c"])
                yield Emit(got)
            sched.spawn(chooser)
        res = explore(program)
        assert res.output_strings() == {"a", "b", "c"}


class TestFailureHandling:
    def test_task_exception_raises_taskfailed(self):
        def bad():
            yield Pause()
            raise ValueError("boom")
        with pytest.raises(TaskFailed) as err:
            run_tasks(bad)
        assert isinstance(err.value.original, ValueError)

    def test_failure_recorded_when_not_raising(self):
        def bad():
            yield Pause()
            raise ValueError("boom")
        s = Scheduler(raise_on_failure=False)
        t = s.spawn(bad)
        trace = s.run()
        assert t.state is TaskState.FAILED
        assert trace.outcome == "failed"

    def test_non_effect_yield_is_illegal(self):
        def bad():
            yield "not an effect"
        with pytest.raises(TaskFailed) as err:
            run_tasks(bad)
        assert isinstance(err.value.original, IllegalEffectError)

    @staticmethod
    def _join_failing(pauses_before_join):
        """A parent joins a child that fails; the failure is not raised
        at the join — the parent resumes with None and carries on."""
        def failing():
            yield Pause()
            raise ValueError("boom")

        def parent():
            child = yield Spawn(failing(), name="failing")
            for _ in range(pauses_before_join):
                yield Pause()
            result = yield Join(child)
            yield Emit(("joined", result))
        s = Scheduler(raise_on_failure=False)
        parent_task = s.spawn(parent)
        trace = s.run()
        reprs = [e.effect_repr for e in trace.events]
        return (trace, parent_task, reprs.index("join failing"),
                reprs.index("raise ValueError"))

    def test_join_task_that_fails_while_joined_resumes_with_none(self):
        trace, parent, join_at, fail_at = self._join_failing(0)
        assert join_at < fail_at          # parent was parked on the join
        assert trace.output == [("joined", None)]
        assert parent.state is TaskState.DONE
        assert trace.outcome == "failed"

    def test_join_already_failed_task_resumes_with_none(self):
        trace, parent, join_at, fail_at = self._join_failing(3)
        assert fail_at < join_at          # child had failed before the join
        assert trace.output == [("joined", None)]
        assert parent.state is TaskState.DONE
        assert trace.outcome == "failed"

    def test_effect_subclass_takes_base_handler(self):
        class Shout(Emit):
            pass

        def body():
            yield Shout("hey")
        trace = run_tasks(body)
        assert trace.output == ["hey"]
        assert trace.events[0].effect_repr == "emit 'hey'"


class TestDeadlockAndBudget:
    def test_deadlock_raises_with_blocked_names(self):
        from repro.core import Acquire, SimLock
        l1, l2 = SimLock("l1"), SimLock("l2")

        def ab():
            yield Acquire(l1)
            yield Pause()
            yield Acquire(l2)

        def ba():
            yield Acquire(l2)
            yield Pause()
            yield Acquire(l1)
        s = Scheduler(RoundRobinPolicy())
        s.spawn(ab, name="ab")
        s.spawn(ba, name="ba")
        with pytest.raises(DeadlockError) as err:
            s.run()
        names = [n for n, _ in err.value.blocked]
        assert set(names) == {"ab", "ba"}

    def test_budget_exceeded(self):
        def spinner():
            while True:
                yield Pause()
        s = Scheduler(max_steps=50)
        s.spawn(spinner)
        with pytest.raises(BudgetExceeded):
            s.run()

    def test_budget_recorded_when_not_raising(self):
        def spinner():
            while True:
                yield Pause()
        s = Scheduler(max_steps=50, raise_on_failure=False)
        s.spawn(spinner)
        assert s.run().outcome == "budget"


class TestDaemons:
    def test_daemon_does_not_block_termination(self):
        from repro.core import Mailbox, Receive
        mb = Mailbox("box")

        def loop():
            while True:
                msg = yield Receive(mb)
                yield Emit(msg)

        def main():
            from repro.core import Send
            yield Send(mb, "one")
            yield Send(mb, "two")
        s = Scheduler()
        s.spawn(loop, name="daemon", daemon=True)
        s.spawn(main, name="main")
        trace = s.run()
        assert trace.outcome == "done"
        assert sorted(trace.output) == ["one", "two"]

    def test_non_daemon_blocked_is_still_deadlock(self):
        from repro.core import Mailbox, Receive
        mb = Mailbox("box")

        def loop():
            yield Receive(mb)
        s = Scheduler()
        s.spawn(loop, name="stuck")
        with pytest.raises(DeadlockError):
            s.run()


class TestSleep:
    def test_sleep_defers_task(self):
        def sleeper():
            yield Sleep(3)
            yield Emit("late")

        def worker():
            yield Emit("early")
        trace = run_tasks(sleeper, worker)
        assert trace.output == ["early", "late"]

    def test_all_sleeping_fast_forwards(self):
        def sleeper():
            yield Sleep(100)
            yield Emit("woke")
        assert run_tasks(sleeper).output == ["woke"]


class TestReplayDeterminism:
    def _program(self, sched):
        def worker(tag):
            for _ in range(3):
                yield Emit(tag)
        sched.spawn(worker, "a")
        sched.spawn(worker, "b")

    def test_same_seed_same_trace(self):
        outs = []
        for _ in range(2):
            s = Scheduler(RandomPolicy(42))
            self._program(s)
            outs.append(s.run().output)
        assert outs[0] == outs[1]

    def test_recorded_schedule_replays_exactly(self):
        s1 = Scheduler(RandomPolicy(7))
        self._program(s1)
        trace1 = s1.run()
        s2 = Scheduler(FixedPolicy(trace1.schedule()))
        self._program(s2)
        trace2 = s2.run()
        assert trace2.output == trace1.output
        assert trace2.schedule() == trace1.schedule()
