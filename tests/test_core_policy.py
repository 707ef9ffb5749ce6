"""Scheduling policies: fairness, determinism, replay, recording."""

import pytest

from repro.core import (Emit, FixedPolicy, Pause, RandomPolicy,
                        RecordingPolicy, ReplayError, RoundRobinPolicy,
                        Scheduler)
from repro.core.policy import Transition
from repro.core.task import Task


def _dummy_transitions(n):
    def gen():
        yield Pause()
    return [Transition(Task(gen(), i, name=f"t{i}")) for i in range(n)]


class TestRoundRobin:
    def test_rotates_over_tasks(self):
        policy = RoundRobinPolicy()
        transitions = _dummy_transitions(3)
        picks = [policy.choose(transitions) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_reset_restores_initial_rotation(self):
        policy = RoundRobinPolicy()
        transitions = _dummy_transitions(2)
        first = [policy.choose(transitions) for _ in range(3)]
        policy.reset()
        second = [policy.choose(transitions) for _ in range(3)]
        assert first == second

    def test_no_starvation_in_long_run(self):
        from repro.verify import fairness_report

        def worker(tag):
            for _ in range(20):
                yield Emit(tag)
        s = Scheduler(RoundRobinPolicy())
        for tag in "abc":
            s.spawn(worker, tag, name=tag)
        trace = s.run()
        report = fairness_report(trace)
        assert all(row["max_gap"] <= 3 for row in report.values())


class TestRandomPolicy:
    def test_deterministic_per_seed(self):
        transitions = _dummy_transitions(4)
        a = RandomPolicy(5)
        b = RandomPolicy(5)
        assert [a.choose(transitions) for _ in range(20)] == \
               [b.choose(transitions) for _ in range(20)]

    def test_different_seeds_differ(self):
        transitions = _dummy_transitions(4)
        a = [RandomPolicy(1).choose(transitions) for _ in range(20)]
        b = [RandomPolicy(2).choose(transitions) for _ in range(20)]
        assert a != b

    def test_reset_rewinds_stream(self):
        transitions = _dummy_transitions(3)
        policy = RandomPolicy(9)
        first = [policy.choose(transitions) for _ in range(10)]
        policy.reset()
        assert [policy.choose(transitions) for _ in range(10)] == first


class TestFixedPolicy:
    def test_follows_schedule_then_tail(self):
        transitions = _dummy_transitions(3)
        policy = FixedPolicy([2, 0, 1])
        assert [policy.choose(transitions) for _ in range(3)] == [2, 0, 1]
        assert policy.exhausted

    def test_out_of_range_index_raises_replay_error(self):
        policy = FixedPolicy([7])
        with pytest.raises(ReplayError):
            policy.choose(_dummy_transitions(2))


class TestRecordingPolicy:
    def test_records_choice_and_fanout(self):
        inner = FixedPolicy([1, 0])
        policy = RecordingPolicy(inner)
        policy.choose(_dummy_transitions(3))
        policy.choose(_dummy_transitions(2))
        assert policy.decisions == [(1, 3), (0, 2)]

    def test_reset_clears_decisions(self):
        policy = RecordingPolicy(RoundRobinPolicy())
        policy.choose(_dummy_transitions(2))
        policy.reset()
        assert policy.decisions == []


class TestTransitionDescribe:
    def test_run_description_names_task(self):
        tr = _dummy_transitions(1)[0]
        assert tr.task.name in tr.describe()
