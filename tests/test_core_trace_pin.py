"""Kernel traces are pinned: a fixed program set hashes to fixed digests.

The scheduler's hot path is tuned for speed; none of that tuning may
change a single recorded field.  This module runs a fixed set of
programs and hashes every :class:`~repro.core.trace.TraceEvent` field
of every run, plus its output, outcome and detail, and the state
fingerprint after every step.  A change to any digest means a trace
changed.  The digests hash the 17 fields listed by name; ``msg_kind``,
the sent message's kind, is pinned by a digest of its own over the same
runs.

Task ids and envelope seqs are numbered by the run that creates them,
so the programs run in the test process: the digests are the same
whatever ran earlier in the process, which the second test checks by
exploring another program first.  No field depends on string hashing,
so the digests do not depend on ``PYTHONHASHSEED`` either.
"""

import dataclasses
import hashlib
import json

from repro.core import (Emit, Join, Pause, RandomPolicy, RoundRobinPolicy,
                        Scheduler, Sleep, Spawn, TraceEvent)
from repro.obs import Metrics, MonitorBus
from repro.problems import kernel_program
from repro.problems.bounded_buffer import buffer_program
from repro.problems.bug_gallery import _transfer_buggy
from repro.problems.pingpong import pingpong_program
from repro.problems.single_lane_bridge import bridge_program
from repro.pseudocode import compile_program
from repro.verify import explore

_ACCESS_SOURCE = '''
x = 0
y = 0
DEFINE bump(d)
  t = x + d
  x = t
  EXC_ACC
    y = y + x
  END_EXC_ACC
ENDDEF
PARA
  bump(1)
  bump(2)
ENDPARA
PRINTLN x
'''

FIELDS = ["step", "task_tid", "task_name", "kind", "effect_repr",
          "chosen_index", "fanout", "vclock", "access_var", "access_kind",
          "payload_repr", "footprint", "enabled", "obj_name",
          "msg_seq", "recv_seq", "recv_mbox"]


def _value(v):
    # footprints are sets: hash their members in sorted order so the
    # digest does not depend on set insertion order
    if isinstance(v, frozenset):
        return repr(sorted(repr(x) for x in v))
    return repr(v)


class _Digests:
    """Folds runs into one digest per program plus the msg_kind one."""

    def __init__(self):
        #: the msg_kind column of every run folded
        self.kinds = hashlib.sha256()
        #: the state fingerprint after every step of the runs built by
        #: :meth:`sched`
        self.fingerprints = []

    def fold(self, h, trace):
        for e in trace.events:
            h.update("|".join(_value(getattr(e, f)) for f in FIELDS).encode())
            h.update(b"\n")
            self.kinds.update(repr(e.msg_kind).encode() + b"\n")
        h.update(repr((trace.output, trace.outcome, trace.detail)).encode())
        h.update(repr(self.fingerprints).encode())
        h.update(b"\n")
        self.fingerprints.clear()

    def sched(self, policy, **kw):
        def hook(s):
            self.fingerprints.append(s.fingerprint())
            return True
        return Scheduler(policy, raise_on_deadlock=False,
                         raise_on_failure=False, step_hook=hook, **kw)


def _sleepy(s):
    def napper(n):
        yield Sleep(n)
        yield Emit(("woke", n))
        yield Sleep(2)

    def worker():
        for i in range(3):
            yield Pause()
        yield Emit("worked")

    def failing():
        yield Pause()
        raise ValueError("boom")

    def parent():
        child = yield Spawn(failing(), name="failing")
        res = yield Join(child)
        yield Emit(("joined", res))
        late = yield Spawn(napper(1), name="late")
        yield Join(late)
        yield Sleep(4)

    s.spawn(napper, 3, name="nap3")
    s.spawn(napper, 1, name="nap1")
    s.spawn(worker)
    s.spawn(parent)


def _digests():
    d = _Digests()
    digests = {}

    h = hashlib.sha256()
    for seed in range(3):
        s = d.sched(RandomPolicy(seed))
        buffer_program()(s)
        d.fold(h, s.run())
    digests["buffer"] = h.hexdigest()

    h = hashlib.sha256()
    res = explore(bridge_program(), reduce="all")
    assert len(res.witnesses) == 14, len(res.witnesses)
    for trace in res.witnesses.values():
        d.fold(h, trace)
    digests["bridge"] = h.hexdigest()

    h = hashlib.sha256()
    s = d.sched(RandomPolicy(0), record_from=0)
    compile_program(_ACCESS_SOURCE).make_program()(s)
    d.fold(h, s.run())
    digests["access"] = h.hexdigest()

    h = hashlib.sha256()
    for policy in (RoundRobinPolicy(), RandomPolicy(1)):
        s = d.sched(policy, record_from=0)
        _sleepy(s)
        d.fold(h, s.run())
    digests["sleep"] = h.hexdigest()

    h = hashlib.sha256()
    metrics, bus = Metrics(), MonitorBus()
    s = d.sched(RandomPolicy(4), record_from=3, metrics=metrics,
                monitors=bus)
    _transfer_buggy(s)
    pingpong_program()(s)
    buffer_program(capacity=1, producers=2, consumers=1, items_each=2)(s)
    _sleepy(s)
    d.fold(h, s.run())
    h.update(json.dumps(metrics.snapshot(), sort_keys=True).encode())
    h.update(repr([hz.key for hz in bus.hazards]).encode())
    digests["instrumented"] = h.hexdigest()
    digests["msg_kind"] = d.kinds.hexdigest()
    return digests


PINNED = {
    "access": "9d5af1233c8b5a32c9327251e46eb1f3e25108a62942600c010c24c4ffd4d571",
    "bridge": "a24781c88fc159ba653f7ab2046f8a798a4b0f39928ef295bdf4d88753781645",
    "buffer": "2c8497427c1921bb2460b1e294596d3e86a4ad4d004401af01cb6d531fedf6b5",
    "instrumented":
        "80a5c07ac991a81c0e8b66b52d2314818afa19ee9e8e9a3a77f24f352ef97481",
    "sleep": "cb3b4d44acf687ca54e21782a93f1fc96ea5ad835625025dc54f4a423dc8342e",
    "msg_kind":
        "3989e7d81e35bd289bf59b7c3247c654be5e73ee5ef025c69113ee515b7fdc93",
}


def test_every_field_is_pinned():
    # every field is either hashed with FIELDS or pinned by msg_kind
    assert set(FIELDS) | {"msg_kind"} == {
        f.name for f in dataclasses.fields(TraceEvent)}


def test_kernel_traces_pinned():
    assert _digests() == PINNED


def test_digests_survive_an_earlier_exploration():
    explore(kernel_program("bug:msgorder-init-work"), reduce=True,
            monitors=True)
    explore(kernel_program("pingpong"), reduce=True)
    assert _digests() == PINNED
