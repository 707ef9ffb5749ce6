"""SimChannel / SimRendezvous — library constructs over the monitor."""

import pytest

from repro.core import (ChannelClosed, DeadlockError, Emit, Scheduler,
                        SimChannel, SimRendezvous, TaskFailed, run_tasks)
from repro.verify import explore


class TestSimChannel:
    def test_fifo_order_preserved(self):
        chan = SimChannel(capacity=2, name="chan")

        def producer():
            for i in range(5):
                yield from chan.put_gen(i)

        def consumer():
            for _ in range(5):
                value = yield from chan.get_gen()
                yield Emit(value)
        trace = run_tasks(producer, consumer)
        assert trace.output == [0, 1, 2, 3, 4]

    def test_capacity_never_exceeded(self):
        def program(sched):
            chan = SimChannel(capacity=2, name="chan")
            high = {"max": 0}

            def producer():
                for i in range(3):
                    yield from chan.put_gen(i)
                    high["max"] = max(high["max"], len(chan))

            def consumer():
                for _ in range(3):
                    yield from chan.get_gen()
            sched.spawn(producer)
            sched.spawn(consumer)
            return lambda: high["max"]
        res = explore(program, max_runs=50_000)
        assert res.complete
        assert max(res.observations()) <= 2

    def test_get_blocks_until_put(self):
        chan = SimChannel(capacity=1, name="chan")

        def consumer():
            value = yield from chan.get_gen()
            yield Emit(("got", value))

        def producer():
            yield from chan.put_gen("item")
        trace = run_tasks(consumer, producer)
        assert ("got", "item") in trace.output

    def test_close_wakes_blocked_getter(self):
        chan = SimChannel(capacity=1, name="chan")

        def consumer():
            yield from chan.get_gen()

        def closer():
            yield from chan.close_gen()
        s = Scheduler(raise_on_failure=False)
        t = s.spawn(consumer)
        s.spawn(closer)
        s.run()
        assert isinstance(t.error, ChannelClosed)

    def test_put_on_closed_channel_fails(self):
        chan = SimChannel(capacity=1, name="chan")

        def worker():
            yield from chan.close_gen()
            yield from chan.put_gen("x")
        with pytest.raises(TaskFailed) as err:
            run_tasks(worker)
        assert isinstance(err.value.original, ChannelClosed)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            SimChannel(capacity=0, name="chan")

    def test_lonely_getter_deadlocks(self):
        chan = SimChannel(capacity=1, name="chan")

        def consumer():
            yield from chan.get_gen()
        with pytest.raises(DeadlockError):
            run_tasks(consumer)


class TestSimRendezvous:
    def test_value_transferred(self):
        rdv = SimRendezvous("rdv")

        def sender():
            yield from rdv.send_gen("hello")
            yield Emit("sent")

        def receiver():
            value = yield from rdv.recv_gen()
            yield Emit(("received", value))
        trace = run_tasks(sender, receiver)
        assert ("received", "hello") in trace.output
        assert "sent" in trace.output

    def test_sender_blocks_without_receiver(self):
        rdv = SimRendezvous("rdv")

        def sender():
            yield from rdv.send_gen("nobody listens")
        with pytest.raises(DeadlockError):
            run_tasks(sender)

    def test_multiple_exchanges_sequence(self):
        rdv = SimRendezvous("rdv")

        def sender():
            for i in range(3):
                yield from rdv.send_gen(i)

        def receiver():
            for _ in range(3):
                value = yield from rdv.recv_gen()
                yield Emit(value)
        trace = run_tasks(sender, receiver)
        assert trace.output == [0, 1, 2]

    def test_exchange_completes_under_all_schedules(self):
        """Every schedule completes both sides with the right value
        (the rendezvous can neither lose nor duplicate the item)."""
        def program(sched):
            rdv = SimRendezvous("rdv")
            seen = []

            def sender():
                yield from rdv.send_gen("x")

            def receiver():
                value = yield from rdv.recv_gen()
                seen.append(value)
            sched.spawn(sender)
            sched.spawn(receiver)
            return lambda: tuple(seen)
        res = explore(program, max_runs=50_000)
        assert res.complete
        assert res.outcomes == {"done": res.runs}
        assert res.observations() == {("x",)}
