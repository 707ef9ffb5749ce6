"""Trace rendering, error types, task bookkeeping, values formatting."""

import dataclasses

import pytest

from repro.core import (Acquire, DeadlockError, Emit, Pause, RandomPolicy,
                        Release, Scheduler, SimLock, Task, TaskState,
                        Transition, TraceEvent)


class TestTrace:
    def _trace(self):
        sched = Scheduler(RandomPolicy(3))

        def worker(tag):
            for i in range(2):
                yield Emit((tag, i))
        sched.spawn(worker, "a", name="a")
        sched.spawn(worker, "b", name="b")
        return sched.run()

    def test_render_contains_tasks_and_outcome(self):
        text = self._trace().render()
        assert "a" in text and "b" in text
        assert "outcome: done" in text
        assert "output:" in text

    def test_render_last_n(self):
        trace = self._trace()
        short = trace.render(last=2)
        assert len(short.splitlines()) <= 4

    def test_steps_by_task(self):
        trace = self._trace()
        counts = trace.steps_by_task()
        assert counts["a"] == counts["b"] == 3   # 2 emits + final resume

    def test_events_for_filters(self):
        trace = self._trace()
        assert all(e.task_name == "a" for e in trace.events_for("a"))

    def test_event_describe(self):
        trace = self._trace()
        line = trace.events[0].describe()
        assert "#" in line and "/" in line

    def test_schedule_and_decisions_align(self):
        trace = self._trace()
        assert len(trace.schedule()) == len(trace.decisions()) == len(trace)


class TestFrozenTraceTypes:
    """The kernel builds its events and transitions with hand-written
    initialisers; they must behave exactly like frozen dataclasses."""

    def _run(self):
        sched = Scheduler(RandomPolicy(1), record_from=0)
        lock = SimLock("L")

        def worker():
            yield Acquire(lock)
            yield Emit("x")
            yield Release(lock)
        sched.spawn(worker, name="w1")
        sched.spawn(worker, name="w2")
        transitions = sched.enabled_transitions()
        return sched, sched.run(), transitions

    def _check_frozen(self, built, by_keyword):
        assert built == by_keyword
        assert hash(built) == hash(by_keyword)
        assert repr(built) == repr(by_keyword)
        name = dataclasses.fields(built)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del built.kind
        assert dataclasses.replace(built) == built
        changed = dataclasses.replace(built, kind="other")
        assert changed.kind == "other" and changed != built
        assert dataclasses.replace(changed, kind=built.kind) == built

    def test_trace_event(self):
        _, trace, _ = self._run()
        for event in trace.events:
            fields = {f.name: getattr(event, f.name)
                      for f in dataclasses.fields(TraceEvent)}
            self._check_frozen(event, TraceEvent(**fields))
        # the recorded fields really are set, not left at defaults
        first = trace.events[0]
        assert first.footprint is not None and first.enabled is not None
        assert first.vclock is not None
        # a task's tid is its spawn-order index in the run
        assert {e.task_name: e.task_tid for e in trace.events} == {
            "w1": 0, "w2": 1}

    def test_trace_event_defaults(self):
        event = TraceEvent(step=1, task_tid=2, task_name="t", kind="run",
                           effect_repr="pause", chosen_index=0, fanout=1)
        assert event.footprint is None and event.enabled is None
        assert event.vclock is None and event.recv_mbox is None

    def test_transition(self):
        sched, _, transitions = self._run()
        assert [t.kind for t in transitions] == ["run", "run"]
        for tr in transitions:
            self._check_frozen(tr, Transition(
                task=tr.task, kind=tr.kind, payload=tr.payload,
                payload_index=tr.payload_index, footprint=tr.footprint))
        assert Transition(transitions[0].task) == transitions[0]


class TestDeadlockError:
    def test_message_lists_blockers(self):
        err = DeadlockError([("t1", "acquire L"), ("t2", "wait M")])
        assert "t1: acquire L" in str(err)
        assert err.blocked == [("t1", "acquire L"), ("t2", "wait M")]


class TestTask:
    def test_rejects_non_generator(self):
        with pytest.raises(TypeError, match="generator"):
            Task(lambda: None, 0)

    def test_describe_block_defaults_to_state(self):
        def g():
            yield Pause()
        task = Task(g(), 0)
        assert task.describe_block() == "ready"

    def test_finished_flags(self):
        def g():
            yield Pause()
        task = Task(g(), 0)
        assert not task.finished and task.runnable
        task.state = TaskState.DONE
        assert task.finished and not task.runnable


class TestLockIntrospection:
    def test_owner_name_and_repr(self):
        from repro.core import Acquire, Release, run_tasks
        lock = SimLock("mine")
        seen = {}

        def worker():
            yield Acquire(lock)
            seen["owner"] = lock.owner_name()
            seen["repr"] = repr(lock)
            yield Release(lock)
        run_tasks(worker)
        assert seen["owner"] == "worker"
        assert "mine" in seen["repr"]
        assert lock.owner_name() is None


class TestPseudocodeValues:
    def test_format_value_booleans(self):
        from repro.pseudocode import format_value
        assert format_value(True) == "True"
        assert format_value(False) == "False"

    def test_format_value_numbers(self):
        from repro.pseudocode import format_value
        assert format_value(3) == "3"
        assert format_value(3.5) == "3.5"

    def test_message_value_repr_and_equality(self):
        from repro.pseudocode import MessageValue
        m1 = MessageValue("h", ("hello",))
        m2 = MessageValue("h", ("hello",))
        assert m1 == m2
        assert repr(m1) == "MESSAGE.h('hello')"

    def test_instance_identity(self):
        from repro.pseudocode import parse
        from repro.pseudocode.values import Instance
        program = parse("CLASS Box\nENDCLASS")
        a = Instance(program.classes["Box"], 1)
        b = Instance(program.classes["Box"], 2)
        assert a != b
        assert a.class_name == "Box"
        assert a.mailbox is not b.mailbox


class TestAnalysisDetails:
    def test_empty_footprint_warning(self):
        from repro.pseudocode import compile_program
        runtime = compile_program("""
DEFINE selfish()
  EXC_ACC
    local = 1
  END_EXC_ACC
ENDDEF
""")
        assert runtime.info.warnings
        assert any("references no" in w for w in runtime.info.warnings)

    def test_transitive_group_merge(self):
        """x~y via block1, y~z via block2 → one group {x,y,z}."""
        from repro.pseudocode import compile_program
        runtime = compile_program("""
x = 0
y = 0
z = 0
DEFINE f()
  EXC_ACC
    x = y
  END_EXC_ACC
ENDDEF
DEFINE g()
  EXC_ACC
    y = z
  END_EXC_ACC
ENDDEF
""")
        assert list(runtime.info.groups.values()) and \
            ("x", "y", "z") in runtime.info.groups.values()

    def test_receive_methods_recorded(self):
        from repro.pseudocode import compile_program
        runtime = compile_program("""
CLASS R
  DEFINE loop()
    ON_RECEIVING
      MESSAGE.m(v)
        PRINT v
  ENDDEF
ENDCLASS
""")
        assert "loop" in runtime.info.receive_methods

    def test_params_excluded_from_footprint(self):
        from repro.pseudocode import compile_program
        runtime = compile_program("""
x = 0
DEFINE f(x)
  EXC_ACC
    x = x + 1
  END_EXC_ACC
ENDDEF
""")
        # the parameter shadows the global: footprint is empty
        block = runtime.info.exc_blocks[0]
        assert "x" not in block.footprint
