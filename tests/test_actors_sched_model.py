"""The threaded actor cell's scheduled-flag protocol, model-checked.

:class:`repro.actors.ActorSystem` runs each actor on a lock-free
mailbox plus a *scheduled* flag (a held ``threading.Lock`` whose
``acquire(False)`` is a test-and-set).  A sender appends, rechecks the
stopped flag, then test-and-sets the scheduled flag and, if it won,
submits a processing job.  The job reads the mailbox length once,
processes that many messages (at most ``throughput``), requeues itself
while mail is left, and otherwise releases the flag and rechecks the
mailbox, since a message may have landed between its emptiness check
and the release.

Here that protocol is a kernel program, explored over every schedule
with the deadlock and lost-wakeup detectors armed and an end-state
check: every message processed exactly once, none left queued, the
flag free.  Every mailbox and flag touch is lock-free in the real
code, so each one is announced with ``Access``.  One mutation per step
the protocol depends on shows the check is not vacuous.

A second program covers a stopped cell: each tell appends, sees the
stop and flushes the mailbox to dead letters, and flushes race.
"""

import pytest

from repro.core import (Access, AccessKind, Acquire, Release, SimLock,
                        SimSemaphore)
from repro.obs import DeadlockDetector, LostWakeupDetector, MonitorBus
from repro.verify import explore

READ, WRITE = AccessKind.READ, AccessKind.WRITE
MESSAGES = ("m1", "m2")


def _mailbox_program(recheck: bool = True, append_first: bool = True,
                     atomic_tas: bool = True, throughput: int = 1):
    """``_Cell.enqueue``/``_Cell._process`` as a kernel program.

    Two senders tell one message each; one daemon drainer stands for
    the executor worker: it blocks on ``jobs`` (a ``SimSemaphore(0)``
    that a submit releases) and runs one processing job per permit, so
    a run ends once the senders are done and no job is left.  A
    stranded message is one still queued then, with the flag free.
    ``owners`` counts the jobs queued or running; the flag must keep it
    at one.

    The three flags are the mutations: no recheck after the release,
    test-and-set before the append, and a test-and-set split into a
    read and a write.
    """
    def program(sched):
        jobs = SimSemaphore(0, "jobs")
        state = {"mailbox": [], "flag": False, "done": [], "owners": 0,
                 "max_owners": 0}
        sched.fingerprint_extra = lambda: (
            tuple(state["mailbox"]), state["flag"], tuple(state["done"]),
            state["owners"], state["max_owners"])

        def submit():
            state["owners"] += 1
            state["max_owners"] = max(state["max_owners"], state["owners"])
            yield Release(jobs)

        def try_schedule():
            yield Access("flag", WRITE)
            if state["flag"]:
                return
            if not atomic_tas:
                yield Access("flag", WRITE)
            state["flag"] = True
            yield from submit()

        def append(msg):
            yield Access("mailbox", WRITE)
            state["mailbox"].append(msg)

        def sender(msg):
            if append_first:
                yield from append(msg)
                yield Access("stopped", READ)   # nothing stops here
                yield from try_schedule()
            else:
                yield from try_schedule()
                yield from append(msg)

        def drainer():
            mailbox = state["mailbox"]
            while True:
                yield Acquire(jobs)
                yield Access("mailbox", READ)
                n = min(len(mailbox), throughput)
                for _ in range(n):
                    yield Access("mailbox", WRITE)
                    state["done"].append(mailbox.pop(0))
                yield Access("mailbox", READ)
                state["owners"] -= 1            # this job ends
                if mailbox:
                    yield from submit()         # fair requeue, flag kept
                    continue
                yield Access("flag", WRITE)
                state["flag"] = False
                if recheck:
                    yield Access("mailbox", READ)
                    if mailbox:
                        yield from try_schedule()

        for msg in MESSAGES:
            sched.spawn(sender, msg, name=f"send-{msg}")
        sched.spawn(drainer, name="drainer", daemon=True)
        return lambda: (tuple(sorted(state["done"])),
                        tuple(state["mailbox"]), state["flag"],
                        state["max_owners"])
    return program


#: every message processed exactly once, nothing left queued, the flag
#: free, and never more than one job queued or running
CLEAN_END = (MESSAGES, (), False, 1)


def _explore_armed(program, max_runs=5000):
    return explore(program, reduce="all", max_runs=max_runs,
                   monitors=lambda: MonitorBus([DeadlockDetector(),
                                                LostWakeupDetector()]))


def _stranded(res) -> bool:
    """Some schedule ends with a message queued and the flag free."""
    return any(done != MESSAGES and queued and not flag
               for done, queued, flag, _ in res.observations())


class TestScheduledFlagModel:
    @pytest.mark.parametrize("throughput", [1, 2])
    def test_protocol_is_clean_over_every_schedule(self, throughput):
        res = _explore_armed(_mailbox_program(throughput=throughput))
        assert res.complete
        assert not res.deadlock_possible
        assert res.hazards == []
        assert res.observations() == {CLEAN_END}

    def test_no_recheck_after_release_strands_a_message(self):
        res = _explore_armed(_mailbox_program(recheck=False))
        assert res.complete
        assert _stranded(res)

    # the two mutations below let extra jobs through, which the explorer
    # cannot finish within a test's budget; a counterexample inside the
    # first 1000 runs is what they pin
    def test_test_and_set_before_append_strands_a_message(self):
        res = _explore_armed(_mailbox_program(append_first=False),
                             max_runs=1000)
        assert _stranded(res)

    def test_split_test_and_set_admits_two_drainers(self):
        res = _explore_armed(_mailbox_program(atomic_tas=False),
                             max_runs=1000)
        assert max(owners for *_, owners in res.observations()) == 2


# -- a stopped cell's flush ---------------------------------------------------

def _flush_program(snapshot_then_clear: bool = False):
    """``Cell._take_all`` racing itself on a stopped cell.

    Two senders tell one message each to a cell that is already
    stopped: each appends, rechecks the stopped flag (set) and flushes
    the mailbox into the dead letters.  The flush pops entry by entry;
    the mutation is a snapshot followed by a clear under the cell's
    lock, which a lock-free append between the two slips past.
    """
    def program(sched):
        lock = SimLock("cell.lock")
        state = {"mailbox": [], "dead": []}
        sched.fingerprint_extra = lambda: (tuple(state["mailbox"]),
                                           tuple(state["dead"]))
        mailbox = state["mailbox"]

        def flush():
            if snapshot_then_clear:
                yield Acquire(lock)
                yield Access("mailbox", READ)
                taken = list(mailbox)
                yield Access("mailbox", WRITE)
                mailbox.clear()
                yield Release(lock)
                state["dead"].extend(taken)
                return
            while True:
                yield Access("mailbox", WRITE)
                if not mailbox:
                    return
                state["dead"].append(mailbox.pop(0))

        def sender(msg):
            yield Access("mailbox", WRITE)
            mailbox.append(msg)
            yield Access("stopped", READ)       # set: flush
            yield from flush()

        for msg in MESSAGES:
            sched.spawn(sender, msg, name=f"send-{msg}")
        return lambda: (tuple(sorted(state["dead"])), tuple(mailbox))
    return program


class TestStoppedCellFlushModel:
    def test_every_message_is_dead_lettered_once(self):
        res = _explore_armed(_flush_program())
        assert res.complete
        assert res.hazards == []
        assert res.observations() == {(MESSAGES, ())}

    def test_snapshot_then_clear_drops_a_message(self):
        res = _explore_armed(_flush_program(snapshot_then_clear=True))
        assert res.complete
        assert any(len(dead) < len(MESSAGES) and not queued
                   for dead, queued in res.observations())
