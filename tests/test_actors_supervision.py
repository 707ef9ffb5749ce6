"""Lifecycle, supervision & dead-letter conformance across the runtimes.

The three actor runtimes share one cell core and differ only in who
processes a message, so the same rows must hold on each:

* lifecycle — on all three (threaded, inline, kernel): ``pre_start``
  runs once before the first message, also for an actor that never
  gets mail; ``post_stop`` runs once; become/unbecome switch the
  behaviour.
* supervision and dead letters — on threaded and inline (the kernel
  runtime has no supervision: a raising handler fails its kernel task,
  pinned at the end):

  * RESUME — the crashing message is dropped but the mailbox survives:
    everything behind the poison message is still processed by the SAME
    instance (state intact).
  * RESTART — ``pre_restart`` runs exactly once per failure and the
    instance keeps serving (restart in place).
  * STOP — the actor is torn down; anything still queued and anything
    sent afterwards lands in dead letters, never half-processed.

Plus the bookkeeping around them: the ``failures()`` snapshot
accessor, per-actor directive overrides at ``spawn`` time and via
``set_directive``, and ``drain(timeout=)`` returning False when a
livelocked actor keeps the threaded system permanently busy.
"""

import threading

import pytest

from repro.actors import (Actor, ActorSystem, SimActorSystem,
                          SupervisionDirective)
from repro.core import Scheduler
from repro.core.mailbox import DeliveryPolicy
from repro.obs.monitors import MonitorBus
from repro.sim import InlineActorSystem

STOP = object()        # script marker: send the actor a stop


class Crashy(Actor):
    """Counts messages; raises on the payload ``"boom"``."""

    def __init__(self, log, restarts=None):
        super().__init__()
        self.log = log
        self.restarts = restarts if restarts is not None else []

    def receive(self, msg, sender):
        if msg == "boom":
            raise RuntimeError("boom")
        self.log.append(msg)

    def pre_restart(self, error, message):
        self.restarts.append(message)


class Lifecycle(Actor):
    """Logs its hooks and messages; ``lock``/``unlock`` become/unbecome."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def pre_start(self):
        self.log.append("pre_start")

    def post_stop(self):
        self.log.append("post_stop")

    def receive(self, msg, sender):
        self.log.append(("open", msg))
        if msg == "lock":
            self.become(self.locked)

    def locked(self, msg, sender):
        self.log.append(("locked", msg))
        if msg == "unlock":
            self.unbecome()


class SelfFeeder(Actor):
    """Livelock: every message enqueues the next one."""

    def receive(self, msg, sender):
        self.self_ref.tell(msg + 1)


@pytest.fixture(params=["threaded", "inline", "kernel"])
def run_script(request):
    """``run(actor_class, *args, script=...)`` spawns one actor, sends it
    ``script`` (messages, or ``STOP``) and runs the runtime until it is
    quiet; returns the actor's ref."""
    systems = []

    def run(actor_class, *args, script=()):
        if request.param == "kernel":
            sched = Scheduler()
            system = SimActorSystem(sched,
                                    mailbox_policy=DeliveryPolicy.FIFO)
            refs = []

            def driver():
                ref = system.spawn(actor_class, *args, name="a")
                refs.append(ref)
                for op in script:
                    if op is STOP:
                        yield from system.stop_gen(ref)
                    else:
                        yield from system.tell_gen(ref, op)
            sched.spawn(driver, name="driver")
            assert sched.run().outcome == "done"
            return refs[0]
        system = ActorSystem(workers=2) if request.param == "threaded" \
            else InlineActorSystem()
        systems.append(system)
        ref = system.spawn(actor_class, *args, name="a")
        for op in script:
            if op is STOP:
                system.stop(ref)
            else:
                ref.tell(op)
        assert system.drain(timeout=5)
        return ref
    yield run
    for system in systems:
        system.shutdown()


@pytest.fixture(params=["threaded", "inline"])
def make_system(request):
    """Build a supervised runtime; shut every one down afterwards."""
    systems = []

    def make(directive=SupervisionDirective.RESTART):
        if request.param == "threaded":
            system = ActorSystem(workers=2, directive=directive)
        else:
            system = InlineActorSystem(directive=directive)
        systems.append(system)
        return system
    yield make
    for system in systems:
        system.shutdown()


# ---------------------------------------------------------------------------
# lifecycle: all three runtimes
# ---------------------------------------------------------------------------

def test_pre_start_runs_once_before_first_message(run_script):
    log = []
    run_script(Lifecycle, log, script=["x", "y"])
    assert log == ["pre_start", ("open", "x"), ("open", "y")]


def test_pre_start_runs_without_mail(run_script):
    log = []
    run_script(Lifecycle, log)
    assert log == ["pre_start"]


def test_post_stop_runs_once(run_script):
    log = []
    ref = run_script(Lifecycle, log, script=["x", STOP, STOP])
    assert log == ["pre_start", ("open", "x"), "post_stop"]
    assert ref.is_stopped


def test_become_unbecome(run_script):
    log = []
    run_script(Lifecycle, log,
               script=["x", "lock", "y", "unlock", "z"])
    assert log[1:] == [("open", "x"), ("open", "lock"), ("locked", "y"),
                       ("locked", "unlock"), ("open", "z")]


# ---------------------------------------------------------------------------
# supervision and dead letters: threaded and inline
# ---------------------------------------------------------------------------

def test_resume_keeps_mailbox_and_state(make_system):
    log, restarts = [], []
    sys_ = make_system()
    ref = sys_.spawn(Crashy, log, restarts, name="c",
                     directive=SupervisionDirective.RESUME)
    for m in [1, "boom", 2, "boom", 3]:
        ref.tell(m)
    assert sys_.drain(timeout=5)
    assert log == [1, 2, 3]          # poison dropped, rest delivered
    assert restarts == []            # RESUME never restarts
    assert [n for n, _ in sys_.failures()] == ["c", "c"]


def test_restart_runs_pre_restart_once_per_failure(make_system):
    log, restarts = [], []
    sys_ = make_system(SupervisionDirective.RESTART)
    ref = sys_.spawn(Crashy, log, restarts, name="c")
    for m in [1, "boom", 2, "boom", 3]:
        ref.tell(m)
    assert sys_.drain(timeout=5)
    assert log == [1, 2, 3]
    assert restarts == ["boom", "boom"]


def test_stop_dead_letters_late_sends(make_system):
    log = []
    sys_ = make_system()
    ref = sys_.spawn(Crashy, log, name="c",
                     directive=SupervisionDirective.STOP)
    ref.tell("boom")
    assert sys_.drain(timeout=5)
    assert ref.is_stopped
    ref.tell("late")                  # after the stop: dead letter
    assert sys_.drain(timeout=5)
    assert "late" not in log
    dead = [d.message for d in sys_.dead_letters]
    assert "late" in dead


def test_mail_behind_a_stop_is_dead_lettered(make_system):
    log = []
    sys_ = make_system()
    ref = sys_.spawn(Crashy, log, name="c")
    ref.tell("early")
    sys_.stop(ref)
    ref.tell("late")
    assert sys_.drain(timeout=5)
    assert log == ["early"]
    assert [d.message for d in sys_.dead_letters] == ["late"]


def test_per_actor_directive_overrides_system_default(make_system):
    """One STOP actor among RESTART siblings: only it goes down."""
    stop_log, restart_log = [], []
    sys_ = make_system(SupervisionDirective.RESTART)
    stopper = sys_.spawn(Crashy, stop_log, name="stopper",
                         directive=SupervisionDirective.STOP)
    restarter = sys_.spawn(Crashy, restart_log, name="restarter")
    stopper.tell("boom")
    restarter.tell("boom")
    assert sys_.drain(timeout=5)
    assert stopper.is_stopped
    assert not restarter.is_stopped
    restarter.tell("alive")
    assert sys_.drain(timeout=5)
    assert restart_log == ["alive"]


def test_set_directive_changes_future_failures(make_system):
    log = []
    sys_ = make_system(SupervisionDirective.RESUME)
    ref = sys_.spawn(Crashy, log, name="c")
    ref.tell("boom")
    assert sys_.drain(timeout=5)
    assert not ref.is_stopped
    sys_.set_directive(ref, SupervisionDirective.STOP)
    ref.tell("boom")
    assert sys_.drain(timeout=5)
    assert ref.is_stopped


def test_failures_returns_snapshot_copy():
    with ActorSystem(workers=2,
                     directive=SupervisionDirective.RESUME) as sys_:
        ref = sys_.spawn(Crashy, [], name="c")
        ref.tell("boom")
        assert sys_.drain(timeout=5)
        snap = sys_.failures()
        assert len(snap) == 1
        name, error = snap[0]
        assert name == "c" and isinstance(error, RuntimeError)
        snap.append(("fake", ValueError()))       # copy, not the log
        assert len(sys_.failures()) == 1


def test_drain_times_out_on_livelock():
    sys_ = ActorSystem(workers=2)
    try:
        ref = sys_.spawn(SelfFeeder, name="feeder")
        ref.tell(0)
        assert sys_.drain(timeout=0.3) is False
    finally:
        sys_.stop(ref)                   # stop signal breaks the cycle
        sys_.shutdown()


def test_spawn_rejects_non_actor():
    with ActorSystem(workers=1) as sys_:
        with pytest.raises(TypeError):
            sys_.spawn(threading.Thread)


# ---------------------------------------------------------------------------
# the kernel runtime escalates instead of supervising
# ---------------------------------------------------------------------------

def test_kernel_runtime_takes_no_directive():
    system = SimActorSystem(Scheduler())
    with pytest.raises(ValueError, match="escalates"):
        system.spawn(Crashy, [], directive=SupervisionDirective.STOP)
    ref = system.spawn(Crashy, [])
    with pytest.raises(ValueError, match="escalates"):
        system.set_directive(ref, SupervisionDirective.RESUME)


def test_kernel_runtime_failure_fails_the_task():
    bus = MonitorBus()
    sched = Scheduler(raise_on_failure=False, monitors=bus)
    system = SimActorSystem(sched)

    def driver():
        ref = system.spawn(Crashy, [], name="c")
        yield from system.tell_gen(ref, "boom")
    sched.spawn(driver, name="driver")
    assert sched.run().outcome == "failed"
    assert any(hz.kind == "task-failure" for hz in bus.hazards)
