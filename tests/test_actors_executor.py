"""Actor dispatcher acceptance suite.

The executor (one shared queue plus a run-next slot per worker) runs
every :class:`ActorSystem` mailbox; these tests pin the semantics the
dispatch must keep — per-actor FIFO with many workers, supervision
across batch boundaries, drain() quiescence with continuous re-tells,
and the stop/shutdown races that used to strand a stale ``scheduled``
flag — plus the executor's own contract (worker-local submits stay on
their worker, fair requeue, shutdown runs what it accepted, rejection
after shutdown, stats counters).
"""

import sys
import threading
import time
import tracemalloc

import pytest

from repro.actors import Actor, ActorSystem, SupervisionDirective, ask
from repro.actors.executor import WorkStealingExecutor
from repro.obs import CausalTracer, Metrics


# ---------------------------------------------------------------------------
# the executor on its own
# ---------------------------------------------------------------------------

class TestWorkStealingExecutor:
    def test_runs_submitted_tasks(self):
        hits = []
        with WorkStealingExecutor(workers=2) as ex:
            for i in range(100):
                ex.submit(lambda i=i: hits.append(i))
            deadline = time.monotonic() + 10
            while len(hits) < 100 and time.monotonic() < deadline:
                time.sleep(0.001)
        assert sorted(hits) == list(range(100))

    def test_worker_local_submit_keeps_chain_on_one_thread(self):
        """A request/reply-style chain (each task submits the next from
        inside a worker) runs overwhelmingly on a single thread via the
        worker's run-next slot — zero handoffs in the common case."""
        hops = []
        done = threading.Event()
        n = 400
        with WorkStealingExecutor(workers=4) as ex:
            def hop(k):
                hops.append(threading.current_thread().name)
                if k > 0:
                    ex.submit(lambda: hop(k - 1))    # worker-local slot
                else:
                    done.set()
            ex.submit(lambda: hop(n))
            assert done.wait(timeout=10)
            stats = ex.stats
        dominant = max(hops.count(name) for name in set(hops))
        assert dominant >= n * 0.9       # at most a few handoffs
        assert stats["local_hits"] >= n * 0.9

    def test_stealing_balances_one_hot_producer(self):
        """Tasks all submitted from one producer thread spread over the
        workers instead of running serially on one of them."""
        seen = set()
        gate = threading.Event()
        n = 32

        def task():
            seen.add(threading.current_thread().name)
            gate.wait(2)        # hold the worker so others must take over

        with WorkStealingExecutor(workers=4) as ex:
            for _ in range(n):
                ex.submit(task)                 # one hot producer
            deadline = time.monotonic() + 5
            while len(seen) < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            gate.set()
            deadline = time.monotonic() + 10
            while ex.stats["executed"] < n and time.monotonic() < deadline:
                time.sleep(0.005)
            stats = ex.stats
        assert len(seen) >= 2           # work left the hot producer
        assert stats["executed"] == n

    def test_submit_after_shutdown_returns_false(self):
        ex = WorkStealingExecutor(workers=1)
        ex.shutdown(wait=True)
        assert ex.submit(lambda: None) is False

    def test_idle_and_stats(self):
        with WorkStealingExecutor(workers=2) as ex:
            release = threading.Event()
            started = threading.Event()

            def block():
                started.set()
                release.wait(5)

            ex.submit(block)
            assert started.wait(timeout=5)
            assert not ex.idle()          # one task mid-flight
            release.set()
            deadline = time.monotonic() + 5
            while not ex.idle() and time.monotonic() < deadline:
                time.sleep(0.001)
            assert ex.idle()
            stats = ex.stats
            assert stats["workers"] == 2
            assert stats["executed"] == 1
            assert stats["queued"] == 0

    def test_worker_survives_raising_task(self):
        hits = []
        with WorkStealingExecutor(workers=1) as ex:
            ex.submit(lambda: 1 / 0)
            ex.submit(lambda: hits.append("alive"))
            deadline = time.monotonic() + 5
            while not hits and time.monotonic() < deadline:
                time.sleep(0.001)
        assert hits == ["alive"]

    def test_submitted_tasks_run_past_a_blocked_worker(self):
        """One worker sits in a blocked task; the other runs everything
        else that was submitted, and nothing is stranded."""
        gate, blocked = threading.Event(), threading.Event()
        ran = []

        def block():
            blocked.set()
            gate.wait(5)

        with WorkStealingExecutor(workers=2) as ex:
            ex.submit(block)
            assert blocked.wait(timeout=5)
            for i in range(15):
                ex.submit(lambda i=i: ran.append(i))
            deadline = time.monotonic() + 5
            while len(ran) < 15 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert sorted(ran) == list(range(15))   # before the release
            gate.set()
            deadline = time.monotonic() + 5
            while ex.stats["executed"] < 16 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            assert ex.stats["executed"] == 16

    def test_shutdown_runs_every_accepted_task_once(self):
        """Shutdown lands while producers still submit from the workers:
        every task whose submit returned True — external ones, worker
        submits that take the run-next slot, worker submits that find
        it full, and fair requeues — runs exactly once; a second
        shutdown returns, and a later submit is refused."""
        runs = {}
        accepted = []
        lock = threading.Lock()
        ten_done = threading.Event()

        def record(key):
            with lock:
                runs[key] = runs.get(key, 0) + 1

        def offer(ex, key, fair=False):
            if ex.submit(lambda: record(key), fair=fair):
                with lock:
                    accepted.append(key)

        def producer(ex, i):
            record(("p", i))
            offer(ex, ("slot", i))                  # takes the slot
            offer(ex, ("full", i))                  # slot is taken
            offer(ex, ("fair", i), fair=True)       # budget requeue
            with lock:
                if sum(k[0] == "fair" for k in accepted) >= 10:
                    ten_done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)       # more preemption in the window
        try:
            ex = WorkStealingExecutor(workers=3)    # more than the cores
            for i in range(200):
                assert ex.submit(lambda i=i: producer(ex, i))
                with lock:
                    accepted.append(("p", i))
            assert ten_done.wait(timeout=10)
            ex.shutdown(wait=True)                  # producers in flight
        finally:
            sys.setswitchinterval(interval)
        assert runs == {key: 1 for key in accepted}
        kinds = [k for k, _ in accepted]
        assert min(kinds.count(k) for k in ("slot", "full", "fair")) >= 10
        assert ex.stats["local_hits"] == kinds.count("slot")
        assert ex.stats["queued"] == 0
        ex.shutdown()                               # returns at once
        assert ex.submit(lambda: None) is False

    def test_a_worker_submit_racing_shutdown_still_runs(self):
        """A worker passes submit's shut check, shutdown queues its
        sentinels, then the worker's put lands behind them: the submit
        returned True, so the task must still run.  The tracer seam
        (``current()`` runs between the check and the put) holds the
        worker in that window until shutdown has begun."""
        in_window, shut_begun = threading.Event(), threading.Event()
        ran, returned = [], []

        class Hold:
            def current(self):
                if threading.current_thread().name.startswith("race-"):
                    in_window.set()
                    assert shut_begun.wait(5)

        ex = WorkStealingExecutor(workers=2, name="race", tracer=Hold())
        ex.submit(lambda: returned.append(
            ex.submit(lambda: ran.append(1), fair=True)))
        assert in_window.wait(timeout=5)
        ex.shutdown(wait=False)               # sentinels are queued
        shut_begun.set()
        ex.shutdown(wait=True)
        assert returned == [True]
        assert ran == [1]


# ---------------------------------------------------------------------------
# dispatch semantics through the ActorSystem
# ---------------------------------------------------------------------------

class Collector(Actor):
    def __init__(self, sink, signal=None, expect=None):
        super().__init__()
        self.sink = sink
        self.signal = signal
        self.expect = expect

    def receive(self, message, sender):
        self.sink.append(message)
        if self.signal and self.expect and len(self.sink) >= self.expect:
            self.signal.set()


class TestOrderingUnderStealing:
    def test_per_actor_fifo_with_many_actors_and_workers(self):
        """N actors × M messages on 4 workers: heavy steal traffic, yet
        every actor sees its own messages in send order."""
        n_actors, m = 16, 200
        sinks = [[] for _ in range(n_actors)]
        with ActorSystem(workers=4, throughput=8) as system:
            refs = [system.spawn(Collector, sinks[i], name=f"c{i}")
                    for i in range(n_actors)]
            for j in range(m):
                for ref in refs:
                    ref.tell(j)
            assert system.drain(timeout=60)
            stats = system.executor_stats()
        for sink in sinks:
            assert sink == list(range(m))
        assert stats["executed"] >= n_actors    # sanity: it did dispatch

    def test_fifo_per_producer_with_concurrent_producers(self):
        """Messages from each producer thread arrive in that producer's
        send order (the per-sender FIFO guarantee)."""
        sink = []
        producers, per = 4, 300
        with ActorSystem(workers=4) as system:
            ref = system.spawn(Collector, sink)

            def produce(tag):
                for j in range(per):
                    ref.tell((tag, j))

            threads = [threading.Thread(target=produce, args=(t,))
                       for t in range(producers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert system.drain(timeout=60)
        assert len(sink) == producers * per
        for tag in range(producers):
            seq = [j for (t, j) in sink if t == tag]
            assert seq == list(range(per))


class TestSupervisionAcrossBatches:
    class Fragile(Actor):
        def __init__(self, sink):
            super().__init__()
            self.sink = sink

        def receive(self, message, sender):
            if message == "boom":
                raise RuntimeError("crash")
            self.sink.append(message)

    def test_restart_mid_batch_keeps_draining(self):
        """Failures inside a drained batch hit _on_failure and the rest
        of the batch (and mailbox) still processes — across workers and
        steals."""
        sink = []
        with ActorSystem(workers=4, throughput=4,
                         directive=SupervisionDirective.RESTART) as system:
            ref = system.spawn(self.Fragile, sink)
            msgs = []
            for i in range(100):
                msgs.append(i)
                ref.tell(i)
                if i % 10 == 5:
                    ref.tell("boom")
            assert system.drain(timeout=30)
            assert len(system.failures()) == 10
        assert sink == msgs

    def test_stop_directive_mid_batch_dead_letters_remainder(self):
        """A STOP directive firing inside a batch must dead-letter the
        batch's tail exactly like queued mail — nothing vanishes."""
        sink = []
        with ActorSystem(workers=1, throughput=64,
                         directive=SupervisionDirective.STOP) as system:
            ref = system.spawn(self.Fragile, sink)
            # one big burst so crash + tail share a single batch
            for msg in ["a", "b", "boom", "c", "d", "e"]:
                ref.tell(msg)
            assert system.drain(timeout=10)
            dead = [dl.message for dl in system.dead_letters]
        assert sink == ["a", "b"]
        assert set(dead) == {"c", "d", "e"}

    def test_resume_style_restart_preserves_state_object(self):
        """RESTART calls pre_restart but keeps the same instance (this
        runtime restarts behaviour, not allocation) — state survives."""
        events = []

        class Counting(Actor):
            def __init__(self):
                super().__init__()
                self.n = 0

            def receive(self, message, sender):
                self.n += 1
                if message == "boom":
                    raise ValueError("nope")
                events.append(self.n)

            def pre_restart(self, error, message):
                events.append(("restart", str(error)))

        with ActorSystem(workers=2) as system:
            ref = system.spawn(Counting)
            ref.tell("ok")
            ref.tell("boom")
            ref.tell("ok")
            assert system.drain(timeout=10)
        assert events == [1, ("restart", "nope"), 3]


class TestStopMidRunKeepsSendOrder:
    """Mail behind a stop is dead-lettered in send order, also when
    some of it arrived while the stopping run was already under way."""

    class Gated(Actor):
        def __init__(self, gates, sink):
            super().__init__()
            self.gates = gates
            self.sink = sink

        def receive(self, message, sender):
            gate = self.gates.get(message)
            if gate is not None:
                entered, release = gate
                entered.set()
                assert release.wait(10)
                if message == "b" and self.gates.get("raise"):
                    raise RuntimeError("b fails")
            self.sink.append(message)

    @pytest.mark.parametrize("sink_kind", ["plain", "profiled", "traced"])
    @pytest.mark.parametrize("stop_kind", ["poison-pill", "stop-directive"])
    def test_mail_behind_a_stop_dead_letters_in_send_order(self, sink_kind,
                                                           stop_kind):
        tracer = CausalTracer() if sink_kind == "traced" else None
        gates = {m: (threading.Event(), threading.Event()) for m in "ab"}
        gates["raise"] = stop_kind == "stop-directive"
        sink = []
        system = ActorSystem(
            workers=1, throughput=64,
            profiler=Metrics() if sink_kind == "profiled" else None,
            tracer=tracer, directive=SupervisionDirective.STOP)
        try:
            if tracer is not None:
                tracer.start_request("stop-order")   # traced 4-tuples
            ref = system.spawn(self.Gated, gates, sink)
            ref.tell("a")
            assert gates["a"][0].wait(10)            # "a" holds the run
            ref.tell("b")
            if stop_kind == "poison-pill":
                system.stop(ref)
            ref.tell("c")
            gates["a"][1].set()
            assert gates["b"][0].wait(10)            # "b" holds the next
            ref.tell("d")                            # lands mid-run
            gates["b"][1].set()
            assert system.drain(timeout=10)
        finally:
            if tracer is not None:
                tracer.uninstall()
            system.shutdown()
        # a STOP directive fires in "b"'s handler, before it is logged
        assert sink == (["a"] if stop_kind == "stop-directive"
                        else ["a", "b"])
        assert [dl.message for dl in system.dead_letters] == ["c", "d"]


class TestFairRequeue:
    def test_a_flooded_actor_yields_within_its_throughput(self):
        """One worker, throughput 4: an actor with 40 queued messages
        runs 4 of them, then requeues behind a second actor's job."""
        log = []
        busy, release = threading.Event(), threading.Event()

        class Logger(Actor):
            def receive(self, message, sender):
                if message == "hold":
                    busy.set()
                    assert release.wait(10)
                log.append(message)

        with ActorSystem(workers=1, throughput=4) as system:
            holder = system.spawn(Logger)
            flooded = system.spawn(Logger)
            other = system.spawn(Logger)
            assert system.drain(timeout=10)          # all three started
            holder.tell("hold")                      # occupy the worker
            assert busy.wait(10)
            for i in range(40):
                flooded.tell(i)
            other.tell("other")
            release.set()
            assert system.drain(timeout=10)
        # "hold", then at most one run of 4 before the requeue yields
        assert log[0] == "hold"
        assert log.index("other") <= 1 + 4, log[:12]
        assert [m for m in log if isinstance(m, int)] == list(range(40))


class TestAskInsideAHandler:
    def test_every_answer_arrives_while_the_asker_blocks_its_worker(self):
        """A handler asks another actor three times.  The reply actor's
        first job lands in the blocked worker's run-next slot; ask moves
        it to the shared queue before blocking, so another worker runs
        it and every answer arrives at once instead of at the timeout."""
        class Echo(Actor):
            def receive(self, message, sender):
                sender.tell(message.payload)

        class Asker(Actor):
            def __init__(self, echo, out, done):
                super().__init__()
                self.echo, self.out, self.done = echo, out, done

            def receive(self, message, sender):
                for i in range(3):
                    t0 = time.monotonic()
                    try:
                        answer = ask(system, self.echo, i, timeout=2.0)
                    except TimeoutError:
                        answer = "timeout"
                    self.out.append((answer, time.monotonic() - t0))
                self.done.set()

        out, done = [], threading.Event()
        with ActorSystem(workers=4) as system:
            echo = system.spawn(Echo, name="echo")
            system.spawn(Asker, echo, out, done, name="asker").tell("go")
            assert done.wait(timeout=10)
        assert [answer for answer, _ in out] == [0, 1, 2]
        assert max(took for _, took in out) < 0.5


class TestQuiescence:
    def test_drain_waits_out_continuous_retells(self):
        """An actor chain that keeps re-telling itself: drain() must not
        report quiet until the chain actually dies out."""
        done = []

        class Countdown(Actor):
            def receive(self, message, sender):
                if message > 0:
                    self.context.self_ref.tell(message - 1)
                else:
                    done.append(True)

        with ActorSystem(workers=4) as system:
            refs = [system.spawn(Countdown) for _ in range(8)]
            for ref in refs:
                ref.tell(500)
            assert system.drain(timeout=60)
            # quiet means *every* chain finished, not just mailbox gaps
            assert len(done) == 8
            assert system.executor_stats()["queued"] == 0

    def test_drain_times_out_while_work_remains(self):
        gate = threading.Event()

        class Blocker(Actor):
            def receive(self, message, sender):
                gate.wait(10)

        with ActorSystem(workers=1) as system:
            ref = system.spawn(Blocker)
            ref.tell("x")
            ref.tell("y")
            assert system.drain(timeout=0.2) is False
            gate.set()
            assert system.drain(timeout=10)


class TestStopAndShutdownRaces:
    def test_tell_racing_stop_is_processed_or_dead_lettered(self):
        """Regression for the stale-scheduled-flag drop: a message told
        concurrently with stop() must end up processed or in dead
        letters — never silently gone."""
        for _ in range(20):                      # the race needs reps
            sink = []
            with ActorSystem(workers=2) as system:
                ref = system.spawn(Collector, sink)
                barrier = threading.Barrier(2)
                sent = 50

                def teller():
                    barrier.wait()
                    for i in range(sent):
                        ref.tell(i)

                def stopper():
                    barrier.wait()
                    system.stop(ref)

                t1 = threading.Thread(target=teller)
                t2 = threading.Thread(target=stopper)
                t1.start(); t2.start()
                t1.join(); t2.join()
                assert system.drain(timeout=10)
                dead = [dl.message for dl in system.dead_letters
                        if dl.message != "stop"]
            accounted = len(sink) + len(dead)
            assert accounted == sent, (sink, dead)

    def test_tell_after_shutdown_dead_letters_instead_of_raising(self):
        """The old ThreadPool raised RuntimeError from tell() once shut
        down, leaving the scheduled flag stale; the executor path must
        dead-letter instead."""
        sink = []
        system = ActorSystem(workers=1)
        ref = system.spawn(Collector, sink)
        ref.tell("delivered")
        system.drain(timeout=10)
        system.shutdown()
        ref.tell("too late")                     # must not raise
        assert sink == ["delivered"]
        assert any(dl.message == "too late" for dl in system.dead_letters)

    def test_shutdown_is_idempotent_and_quiesces(self):
        system = ActorSystem(workers=2)
        sink = []
        ref = system.spawn(Collector, sink)
        for i in range(20):
            ref.tell(i)
        system.shutdown()
        system.shutdown()
        assert sink == list(range(20))


# ---------------------------------------------------------------------------
# profiler integration on the new dispatch path
# ---------------------------------------------------------------------------

class TestDispatchProfiling:
    def test_processed_counts_backlog_enqueued_before_profiler_attach(self):
        """The mailbox.processed fix: messages enqueued while no
        profiler was attached have no latency timestamp but must still
        be counted once one is attached mid-run."""
        gate = threading.Event()
        first = threading.Event()
        sink = []

        class Slow(Actor):
            def receive(self, message, sender):
                first.set()
                gate.wait(10)
                sink.append(message)

        system = ActorSystem(workers=1, throughput=1)
        try:
            ref = system.spawn(Slow)
            ref.tell(0)                          # occupies the worker
            assert first.wait(timeout=5)
            for i in range(1, 6):                # backlog, no profiler
                ref.tell(i)
            prof = Metrics()
            system.profiler = prof               # attach mid-run
            gate.set()
            assert system.drain(timeout=10)
            assert len(sink) == 6
            # all 5 backlog messages counted though they carry no stamp
            assert prof.get("mailbox.processed") >= 5
        finally:
            system.shutdown()

    def test_batch_size_and_latency_observed(self):
        prof = Metrics()
        sink, done = [], threading.Event()

        class Staller(Actor):
            def receive(self, message, sender):
                if not sink:
                    time.sleep(0.02)     # let a backlog build once
                sink.append(message)
                if len(sink) >= 64:
                    done.set()

        with ActorSystem(workers=1, throughput=16,
                         profiler=prof) as system:
            ref = system.spawn(Staller)
            for i in range(64):
                ref.tell(i)
            assert done.wait(timeout=10)
            assert system.drain(timeout=10)
        snap = prof.snapshot()
        assert snap["counters"]["mailbox.enqueued"] >= 64
        assert snap["histograms"]["mailbox.batch_size"]["count"] >= 1
        assert snap["histograms"]["mailbox.batch_size"]["max"] >= 2
        assert snap["histograms"]["mailbox.latency_us"]["count"] >= 64

    def test_disabled_profiling_adds_zero_obs_allocations_on_tell(self):
        """With profiler=None the tell→process hot path touches nothing
        in repro/obs — the opt-in is one ``is None`` test per hop."""
        sink = []
        with ActorSystem(workers=2) as system:
            ref = system.spawn(Collector, sink)
            for i in range(50):                  # warm lazy caches
                ref.tell(i)
            system.drain(timeout=10)
            tracemalloc.start()
            before = tracemalloc.take_snapshot()
            for i in range(500):
                ref.tell(i)
            system.drain(timeout=10)
            after = tracemalloc.take_snapshot()
            tracemalloc.stop()
        grew = [s for s in after.compare_to(before, "filename")
                if s.size_diff > 0 and s.count_diff >= 10
                and "repro/obs" in s.traceback[0].filename]
        assert not grew, [str(s) for s in grew]
