"""Coroutine model: de Moura taxonomy properties, scheduler, bridge."""

import asyncio

import pytest

from repro.coroutines import (Call, ChannelClosed, CoChannel, CoDeadlock,
                              CoEvent, Coroutine, CoroutineError,
                              CoroutineState, CoScheduler, CoSemaphore,
                              Suspend, SymmetricCoroutine, Transfer,
                              gather_generators, pause, run_symmetric)


class TestAsymmetricCoroutine:
    def test_locals_persist_between_resumes(self):
        """Marlin's first defining property (paper's reference [4])."""
        def counter():
            n = 0
            while True:
                n += 1
                yield Suspend(n)
        co = Coroutine(counter)
        assert [co.resume() for _ in range(3)] == [1, 2, 3]

    def test_execution_resumes_where_it_left_off(self):
        """Marlin's second property."""
        def phased():
            yield Suspend("phase-1")
            yield Suspend("phase-2")
            return "done"
        co = Coroutine(phased)
        assert co.resume() == "phase-1"
        assert co.resume() == "phase-2"
        assert co.resume() == "done"
        assert co.status is CoroutineState.DEAD

    def test_resume_value_delivered(self):
        def adder():
            total = 0
            while True:
                got = yield Suspend(total)
                total += got
        co = Coroutine(adder)
        co.resume()
        assert co.resume(5) == 5
        assert co.resume(7) == 12

    def test_bare_yield_shorthand_at_top_level(self):
        def simple():
            yield "raw"
        assert Coroutine(simple).resume() == "raw"

    def test_first_class_storable_and_passable(self):
        """de Moura axis 2: coroutines are plain values."""
        def gen_a():
            yield Suspend("a")

        def gen_b():
            yield Suspend("b")
        table = {name: Coroutine(fn) for name, fn in
                 [("a", gen_a), ("b", gen_b)]}
        assert [table[k].resume() for k in "ab"] == ["a", "b"]

    def test_stackful_nested_suspend(self):
        """de Moura axis 3: suspension from within nested calls."""
        def leaf():
            yield Suspend("from-the-leaf")
            return "leaf-result"

        def middle():
            result = yield Call(leaf())
            return ("middle", result)

        def root():
            result = yield Call(middle())
            yield Suspend(("root-saw", result))
        co = Coroutine(root)
        assert co.resume() == "from-the-leaf"
        assert co.depth == 3            # root + middle + leaf frames live
        assert co.resume() == ("root-saw", ("middle", "leaf-result"))

    def test_nested_bare_yield_rejected(self):
        def leaf():
            yield "bare"

        def root():
            yield Call(leaf())
        with pytest.raises(CoroutineError, match="Suspend"):
            Coroutine(root).resume()

    def test_dead_coroutine_cannot_resume(self):
        def once():
            return "x"
            yield  # pragma: no cover
        co = Coroutine(once)
        co.resume()
        with pytest.raises(CoroutineError, match="dead"):
            co.resume()

    def test_throw_into_coroutine(self):
        def guarded():
            try:
                yield Suspend("waiting")
            except ValueError:
                yield Suspend("caught")
        co = Coroutine(guarded)
        co.resume()
        assert co.throw(ValueError("inject")) == "caught"

    def test_exception_kills_coroutine(self):
        def bad():
            yield Suspend(1)
            raise RuntimeError("inside")
        co = Coroutine(bad)
        co.resume()
        with pytest.raises(RuntimeError):
            co.resume()
        assert co.status is CoroutineState.DEAD

    def test_iterator_view(self):
        def gen():
            for i in range(3):
                yield Suspend(i)
        assert list(Coroutine(gen)) == [0, 1, 2]


class TestSymmetric:
    def test_ping_pong_transfer(self):
        holder = {}

        def ping():
            replies = []
            for i in range(2):
                replies.append((yield Transfer(holder["pong"], f"ping{i}")))
            return replies

        def pong():
            value = None
            while True:
                value = yield Transfer(holder["ping"], f"re:{value}")
        holder["pong"] = SymmetricCoroutine(pong, name="pong")
        holder["ping"] = SymmetricCoroutine(ping, name="ping")
        # Lua semantics: the value of the *first* transfer into a fresh
        # coroutine lands in `first_value` (function-argument position),
        # so pong's loop variable starts at None and then sees ping1
        assert run_symmetric(holder["ping"]) == ["re:None", "re:ping1"]
        assert holder["pong"].first_value == "ping0"

    def test_transfer_to_none_ends_session(self):
        def quitter():
            yield Transfer(None, "bye")
        assert run_symmetric(SymmetricCoroutine(quitter)) == "bye"

    def test_non_transfer_yield_rejected(self):
        def bad():
            yield Suspend("not a transfer")
        with pytest.raises(CoroutineError, match="Transfer"):
            run_symmetric(SymmetricCoroutine(bad))


class TestCoScheduler:
    def test_round_robin_interleaving(self):
        for turn in (pause, lambda: None):   # a bare yield is a pause
            out = []

            def worker(tag):
                for _ in range(2):
                    out.append(tag)
                    yield turn()
            sched = CoScheduler()
            sched.spawn(worker, "a")
            sched.spawn(worker, "b")
            sched.run()
            assert out == ["a", "b", "a", "b"]
            assert sched.steps == 6

    def test_atomicity_between_yields(self):
        """No preemption between yields — the model's core guarantee."""
        state = {"x": 0}
        torn = []

        def writer():
            for _ in range(10):
                state["x"] += 1
                state["x"] += 1       # same atomic block
                yield pause()

        def checker():
            for _ in range(10):
                torn.append(state["x"] % 2)
                yield pause()
        sched = CoScheduler()
        sched.spawn(writer)
        sched.spawn(checker)
        sched.run()
        assert set(torn) == {0}

    def test_join_returns_result(self):
        # a worker that pauses is joined live; one that does not has
        # finished before the join, which then resumes without parking
        for pauses, joiner_steps in ((True, 2), (False, 1)):
            def worker():
                if pauses:
                    yield pause()
                return "worker-done"

            results = []

            def joiner(task):
                results.append((yield from task.join()))
            sched = CoScheduler()
            t = sched.spawn(worker)
            j = sched.spawn(joiner, t)
            sched.run()
            assert results == ["worker-done"]
            assert j.steps == joiner_steps

    def test_join_propagates_error(self):
        def bad():
            yield pause()
            raise ValueError("inner")

        caught = []

        def joiner(task):
            try:
                yield from task.join()
            except ValueError as e:
                caught.append(str(e))
        sched = CoScheduler()
        t = sched.spawn(bad)
        sched.spawn(joiner, t)
        sched.run()
        assert caught == ["inner"]

    def test_deadlock_detected(self):
        chan = CoChannel(name="chan")

        def starved():
            yield from chan.get()
        sched = CoScheduler()
        sched.spawn(starved)
        with pytest.raises(CoDeadlock) as info:
            sched.run()
        assert info.value.__cause__ is None

    def test_deadlock_chains_the_failure_that_caused_it(self):
        chan = CoChannel(name="chan")

        def prod():
            yield pause()
            raise ValueError("boom")

        def cons():
            yield from chan.get()
        sched = CoScheduler()
        sched.spawn(prod, name="prod")
        sched.spawn(cons, name="cons")
        with pytest.raises(CoDeadlock,
                           match="parked forever: cons .*prod failed") as info:
            sched.run()
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == "boom"

    @pytest.mark.parametrize("cleanup_yields", [False, True])
    def test_unknown_marker_closes_the_generator(self, cleanup_yields):
        cleaned = []

        def odd():
            try:
                yield "not-a-marker"
            finally:
                cleaned.append("finally")
                if cleanup_yields:
                    yield pause()   # close() raises RuntimeError here
        sched = CoScheduler()
        t = sched.spawn(odd, name="odd")
        with pytest.raises(TypeError, match="odd yielded unknown marker"):
            sched.run()
        assert cleaned == ["finally"]
        assert t.done and isinstance(t.error, TypeError)

    @pytest.mark.parametrize("drive", ["run", "run_until"])
    def test_max_steps_bounds_the_loop(self, drive):
        def spinner():
            while True:
                yield pause()
        sched = CoScheduler()
        sched.spawn(spinner)
        with pytest.raises(RuntimeError, match="exceeded 10 scheduler steps"):
            if drive == "run":
                sched.run(max_steps=10)
            else:
                sched.run_until(lambda: False, max_steps=10)
        assert sched.steps == 10

    def test_unjoined_error_reraised_at_end(self):
        def bad():
            yield pause()
            raise RuntimeError("unobserved")
        sched = CoScheduler()
        sched.spawn(bad)
        with pytest.raises(RuntimeError, match="unobserved"):
            sched.run()

    def test_run_until_predicate(self):
        # False once the ready queue drains before the predicate holds
        for ticks, reached in ((None, True), (3, False)):
            state = {"n": 0}

            def ticker():
                while ticks is None or state["n"] < ticks:
                    state["n"] += 1
                    yield pause()
            sched = CoScheduler()
            sched.spawn(ticker)
            assert sched.run_until(lambda: state["n"] >= 5) is reached
            assert state["n"] == (5 if reached else 3)

    def test_sinks_do_not_change_scheduling(self):
        from repro.obs import Metrics, MonitorBus
        from repro.obs.causal import CausalTracer

        def run(**sinks):
            sched = CoScheduler(**sinks)
            out = _mixed_program(sched)
            sched.run()
            return out, sched.steps, [(t.name, t.steps, t.result)
                                      for t in sched.tasks]
        plain = run()
        metrics, bus = Metrics(), MonitorBus()
        observed = run(monitors=bus, profiler=metrics,
                       tracer=CausalTracer())
        assert observed == plain
        assert metrics.snapshot()["counters"]["coro.resumes"] == plain[1]
        assert bus.events_seen > plain[1]   # steps plus channel taps


def _mixed_program(sched):
    """Channel put/get/close, a semaphore, an event, joins, bare yields
    and pauses on one scheduler; returns the output log it fills."""
    out = []
    chan = CoChannel(capacity=1, sched=sched, name="jobs")
    sem, go = CoSemaphore(1), CoEvent()

    def producer():
        for i in range(4):
            yield from chan.put(i)
            out.append(("put", i))
        yield from chan.close()
        return "produced"

    def consumer(tag):
        yield from go.wait()
        got = []
        while True:
            try:
                item = yield from chan.get()
            except ChannelClosed:
                return got
            yield from sem.acquire()
            out.append((tag, item))
            yield                      # bare yield holding the semaphore
            yield from sem.release()
            got.append(item)

    def starter():
        yield pause()
        out.append("go")
        yield from go.set()

    def joiner(tasks):
        results = []
        for t in tasks:
            results.append((yield from t.join()))
        out.append(("joined", results))
        return results

    tasks = [sched.spawn(producer, name="prod"),
             sched.spawn(consumer, "c1", name="c1"),
             sched.spawn(consumer, "c2", name="c2")]
    sched.spawn(starter, name="starter")
    sched.spawn(joiner, tasks, name="joiner")
    return out


class TestCoChannelAndFriends:
    def test_bounded_channel_backpressure(self):
        chan = CoChannel(capacity=1, name="chan")
        out = []

        def producer():
            for i in range(4):
                yield from chan.put(i)

        def consumer():
            for _ in range(4):
                out.append((yield from chan.get()))
        sched = CoScheduler()
        sched.spawn(producer)
        sched.spawn(consumer)
        sched.run()
        assert out == [0, 1, 2, 3]
        assert len(chan) == 0

    def test_channel_close_unblocks_getter(self):
        chan = CoChannel(name="chan")
        outcome = []

        def getter():
            try:
                yield from chan.get()
            except ChannelClosed:
                outcome.append("closed")

        def closer():
            yield from chan.close()
        sched = CoScheduler()
        sched.spawn(getter)
        sched.spawn(closer)
        sched.run()
        assert outcome == ["closed"]

    def test_event_broadcast(self):
        event = CoEvent()
        woken = []

        def waiter(i):
            yield from event.wait()
            woken.append(i)

        def setter():
            yield from event.set()
        sched = CoScheduler()
        sched.spawn(waiter, 1)
        sched.spawn(waiter, 2)
        sched.spawn(setter)
        sched.run()
        assert sorted(woken) == [1, 2]
        assert event.is_set

    def test_semaphore_bounds_entry(self):
        sem = CoSemaphore(1)
        inside = {"now": 0, "max": 0}

        def worker():
            yield from sem.acquire()
            inside["now"] += 1
            inside["max"] = max(inside["max"], inside["now"])
            yield pause()
            inside["now"] -= 1
            yield from sem.release()
        sched = CoScheduler()
        for _ in range(3):
            sched.spawn(worker)
        sched.run()
        assert inside["max"] == 1


class TestAsyncioBridge:
    def test_same_tasks_run_on_asyncio(self):
        chan = CoChannel(capacity=2, name="chan")
        out = []

        def producer():
            for i in range(3):
                yield from chan.put(i)

        def consumer():
            for _ in range(3):
                out.append((yield from chan.get()))
        asyncio.run(gather_generators(producer, consumer))
        assert out == [0, 1, 2]

    def test_gather_returns_results(self):
        def fn(n):
            yield pause()
            return n * 10
        results = asyncio.run(gather_generators(lambda: fn(1),
                                                lambda: fn(2)))
        assert results == [10, 20]

    def test_async_channel(self):
        from repro.coroutines import AsyncChannel

        async def main():
            chan = AsyncChannel(capacity=1)
            await chan.put("x")
            return await chan.get()
        assert asyncio.run(main()) == "x"
