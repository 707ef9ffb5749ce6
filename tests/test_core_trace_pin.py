"""Kernel traces are pinned: a fixed program set hashes to fixed digests.

The scheduler's hot path is tuned for speed; none of that tuning may
change a single recorded field.  This module runs a fixed set of
programs in a fresh interpreter (``PYTHONHASHSEED=0``, so the
process-global task ids and envelope seqs start from the same values
every time) and hashes every :class:`~repro.core.trace.TraceEvent`
field of every run, plus its output, outcome and detail, and the state
fingerprint after every step.  The digests
below were recorded before the per-step bookkeeping was made constant
time; a change to any of them means a trace changed.  They hash the
18 fields an event had then, listed by name; ``msg_kind``, the sent
message's kind, added later, is pinned by a digest of its own over
the same runs.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

_SCRIPT = r"""
import dataclasses, hashlib, json
from repro.core import (Emit, Join, Pause, RandomPolicy, RoundRobinPolicy,
                        Scheduler, Sleep, Spawn, TraceEvent)
from repro.obs import Metrics, MonitorBus
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
          "payload_repr", "task_ltid", "footprint", "enabled", "obj_name",
          "msg_seq", "recv_seq", "recv_mbox"]
#: every field is either hashed above or pinned on its own below
assert set(FIELDS) | {"msg_kind"} == {
    f.name for f in dataclasses.fields(TraceEvent)}
#: the msg_kind column of every run folded below
KINDS = hashlib.sha256()


def value(v):
    # footprints are sets: hash their members in sorted order so the
    # digest does not depend on set insertion order
    if isinstance(v, frozenset):
        return repr(sorted(repr(x) for x in v))
    return repr(v)


#: the state fingerprint after every step of the runs built by sched()
FINGERPRINTS = []


def fold(h, trace):
    for e in trace.events:
        h.update("|".join(value(getattr(e, f)) for f in FIELDS).encode())
        h.update(b"\n")
        KINDS.update(repr(e.msg_kind).encode() + b"\n")
    h.update(repr((trace.output, trace.outcome, trace.detail)).encode())
    h.update(repr(FINGERPRINTS).encode())
    h.update(b"\n")
    FINGERPRINTS.clear()


def sched(policy, **kw):
    def hook(s):
        FINGERPRINTS.append(s.fingerprint())
        return True
    return Scheduler(policy, raise_on_deadlock=False,
                     raise_on_failure=False, step_hook=hook, **kw)


def sleepy(s):
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


digests = {}

h = hashlib.sha256()
for seed in range(3):
    s = sched(RandomPolicy(seed))
    buffer_program()(s)
    fold(h, s.run())
digests["buffer"] = h.hexdigest()

h = hashlib.sha256()
res = explore(bridge_program(), reduce="all")
assert len(res.witnesses) == 14, len(res.witnesses)
for trace in res.witnesses.values():
    fold(h, trace)
digests["bridge"] = h.hexdigest()

h = hashlib.sha256()
s = sched(RandomPolicy(0), record_from=0)
compile_program(_ACCESS_SOURCE).make_program()(s)
fold(h, s.run())
digests["access"] = h.hexdigest()

h = hashlib.sha256()
for policy in (RoundRobinPolicy(), RandomPolicy(1)):
    s = sched(policy, record_from=0)
    sleepy(s)
    fold(h, s.run())
digests["sleep"] = h.hexdigest()

h = hashlib.sha256()
metrics, bus = Metrics(), MonitorBus()
s = sched(RandomPolicy(4), record_from=3, metrics=metrics, monitors=bus)
_transfer_buggy(s)
pingpong_program()(s)
buffer_program(capacity=1, producers=2, consumers=1, items_each=2)(s)
sleepy(s)
fold(h, s.run())
h.update(json.dumps(metrics.snapshot(), sort_keys=True).encode())
h.update(repr([hz.key for hz in bus.hazards]).encode())
digests["instrumented"] = h.hexdigest()
digests["msg_kind"] = KINDS.hexdigest()

print(json.dumps(digests, sort_keys=True))
"""

PINNED = {
    "access": "6f24f584b7029ed7001f7acf6f665807a08b30cf83794494d587ba4e66e21e4a",
    "bridge": "d18eb9ba9889ea285ed40ca6fa4a4bf1c37189ef124e5b0d2cc418aa82abe96f",
    "buffer": "e081c8475404847ff15d829c075d2bf4bd402101301c8b7c8ff2b17162722676",
    "instrumented":
        "fcbe7e64a74233bff7ddbd71ff27c76d05da585981c2a4baaea6c09da2f174b1",
    "sleep": "a826ef3742bcbe92032a281be125cbe2435e55b63adf3dc60d000f68e4b106bc",
    "msg_kind":
        "3989e7d81e35bd289bf59b7c3247c654be5e73ee5ef025c69113ee515b7fdc93",
}


def test_kernel_traces_pinned():
    pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": pkg_root + os.pathsep
           + os.environ.get("PYTHONPATH", "")}
    out = json.loads(subprocess.check_output(
        [sys.executable, "-c", _SCRIPT], env=env))
    assert out == PINNED
