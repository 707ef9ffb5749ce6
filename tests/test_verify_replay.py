"""Replay at plain-run cost: exact counts, run order and the recording
boundary.

The reduced explorer re-executes the committed prefix of every run
without re-recording its reduction metadata (``record_from``), starts
its DPOR scans only in the new suffix, and folds a state's subtree
summary into its parent's only when the state retires from the path.
All of these shortcuts must leave the search itself untouched, so this
module pins:

* the exact work counters of the reduced search on every kernel program
  (a 2,000-run budget), on the bridge with the sleep-set reduction
  alone and with two workers, and on two budgeted sim worlds — a scan
  that starts one depth late, stops early, or a branch node whose step
  is left stale, changes them;
* a digest of the ordered run prefixes of the bridge and the buffer,
  so a search that reorders its runs fails even with equal counts;
* that the counters do not depend on ``PYTHONHASHSEED`` (the subtree
  summaries are iterated in insertion order, not hash order);
* that a run recording from step ``k`` records, from ``k`` on, exactly
  the footprints and enabled summaries a fully recording run records —
  including ``Access`` announcements made below ``k``;
* that an exploration's hazard report names tasks and messages by ids
  the run assigns: the same report twice in one process, after an
  unrelated exploration, and with two workers, and a protocol
  violation listed once — with a mutation pin that shares one envelope
  counter across schedulers and must break the repeat.
"""

import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core import Mailbox, RandomPolicy, Scheduler
from repro.obs import protocol_bus
from repro.problems import kernel_program, kernel_program_names
from repro.problems.bounded_buffer import buffer_program
from repro.problems.bug_gallery import gallery
from repro.problems.single_lane_bridge import bridge_program
from repro.pseudocode import compile_program
from repro.sim import explore_world, scenarios
from repro.verify import explore, explorer, run_schedule

COUNTERS = ("runs", "decisions", "pruned_runs", "sleep_prunes",
            "fingerprint_states")


def _counts(res):
    return (res.runs, res.decisions, res.pruned_runs,
            res.stats.sleep_prunes, res.stats.fingerprint_states)


# ---------------------------------------------------------------------------
# exact count pins
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,program,expected", [
    ("bridge-3car", bridge_program, (646, 8875, 626, 509, 1317)),
    ("bridge_2car", lambda: kernel_program("bridge_2car"),
     (18, 145, 16, 17, 71)),
    ("buffer-2p1c", lambda: buffer_program(capacity=2, producers=2,
                                           consumers=1, items_each=1),
     (93, 838, 89, 64, 208)),
])
def test_reduced_counts_pinned(name, program, expected):
    res = explore(program(), reduce="all")
    assert res.complete, name
    assert dict(zip(COUNTERS, _counts(res))) == \
        dict(zip(COUNTERS, expected)), name


#: every kernel program under ``reduce="all"`` with a 2,000-run budget
#: (``bounded_buffer`` and ``sleeping_barber`` hit it)
_ALL_PROGRAMS = {
    "bounded_buffer": (2000, 53458, 1924, 1179, 3894),
    "bridge": (646, 8875, 626, 509, 1317),
    "bridge_2car": (18, 145, 16, 17, 71),
    "bridge_bug": (138, 2492, 126, 94, 501),
    "dining_philosophers": (253, 2314, 243, 318, 491),
    "party_matching": (828, 8706, 804, 808, 1400),
    "pingpong": (9, 56, 8, 3, 20),
    "readers_writers": (563, 6402, 535, 562, 1151),
    "single_lane_bridge": (646, 8875, 626, 509, 1317),
    "sleeping_barber": (2000, 40082, 1915, 1096, 3323),
    "sum_workers": (5, 40, 0, 13, 3),
    "bug:atomicity-check-then-act": (10, 56, 0, 1, 0),
    "bug:order-use-before-init": (4, 24, 0, 2, 1),
    "bug:deadlock-lock-ordering": (12, 94, 9, 19, 48),
    "bug:liveness-lost-wakeup": (7, 57, 0, 12, 1),
    "bug:safety-bridge-barge": (138, 2492, 126, 94, 501),
    "bug:msgorder-init-work": (11, 59, 9, 22, 28),
    "bug:interleave-transaction": (307, 2799, 297, 410, 620),
    "bug:interleave-rmw": (149, 1342, 145, 132, 230),
    "bug:memory-in-message": (7, 42, 0, 2, 3),
    "bug:become-closed-account": (11, 59, 9, 22, 28),
    "bug:pipeline-outstanding": (17, 104, 15, 6, 31),
    "bug:turntaking-pingpong": (63, 450, 57, 101, 154),
}


def test_every_kernel_program_is_pinned():
    assert sorted(_ALL_PROGRAMS) == sorted(kernel_program_names())


@pytest.mark.parametrize("name", sorted(_ALL_PROGRAMS))
def test_kernel_program_counts_pinned(name):
    res = explore(kernel_program(name), reduce="all", max_runs=2000)
    assert _counts(res) == _ALL_PROGRAMS[name], name


def test_bridge_sleep_only_counts_pinned():
    res = explore(bridge_program(), reduce="sleep", max_runs=2000)
    assert _counts(res) == (2000, 49946, 0, 4249, 0)


def test_bridge_parallel_counts_pinned():
    res = explore(bridge_program(), reduce="all", workers=2)
    assert _counts(res) == (646, 8875, 626, 509, 1317)
    assert [(w["runs"], w["decisions"], w["sleep_prunes"],
             w["fingerprint_hits"]) for w in res.stats.workers] == \
        [(159, 1872, 79, 154), (181, 2198, 138, 175),
         (306, 4805, 292, 297)]


@pytest.mark.parametrize("name,program,runs,digest", [
    ("bridge-3car", bridge_program, 646,
     "4edf3dc0f10560fdff6dded1639e896659f95ae442ac16cb2bc88d03f6d294e2"),
    ("buffer-2p1c", lambda: buffer_program(capacity=2, producers=2,
                                           consumers=1, items_each=1), 93,
     "96ebf3cfa044c100dc7c08502fcfbe0ca5d0ff81955d951c0002c90565d92b8f"),
])
def test_run_prefix_order_pinned(monkeypatch, name, program, runs, digest):
    """The prefixes handed to ``run_schedule``, in order: equal counts
    could still hide a reordered search."""
    prefixes = []
    real = explorer.run_schedule

    def spy(prog, schedule, *args, **kwargs):
        prefixes.append(list(schedule))
        return real(prog, schedule, *args, **kwargs)

    monkeypatch.setattr(explorer, "run_schedule", spy)
    explore(program(), reduce="all")
    assert len(prefixes) == runs, name
    assert hashlib.sha256(json.dumps(prefixes).encode()).hexdigest() \
        == digest, name


@pytest.mark.parametrize("seed,expected", [
    (1, (50, 1886, 44)),
    (7, (50, 2280, 30)),
])
def test_sim_world_counts_pinned(seed, expected):
    res = explore_world(scenarios.get("chaos").factory(seed),
                        budget=500, max_runs=50)
    assert (res.runs, res.decisions, res.pruned_runs) == expected


# ---------------------------------------------------------------------------
# hash-seed independence
# ---------------------------------------------------------------------------

_BRIDGE_COUNTS = """
import json
from repro.problems.single_lane_bridge import bridge_program
from repro.verify import explore
r = explore(bridge_program(), reduce="all")
print(json.dumps([r.runs, r.decisions, r.pruned_runs,
                  r.stats.sleep_prunes, r.stats.fingerprint_hits]))
"""


def test_bridge_exploration_independent_of_hash_seed():
    """String hashing differs per interpreter process; the search order
    must not."""
    pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    outs = {}
    for seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": pkg_root + os.pathsep
               + os.environ.get("PYTHONPATH", "")}
        outs[seed] = json.loads(subprocess.check_output(
            [sys.executable, "-c", _BRIDGE_COUNTS], env=env))
    assert outs["0"] == outs["3"], outs


# ---------------------------------------------------------------------------
# the recording boundary
# ---------------------------------------------------------------------------

#: shared variables read and written outside and inside EXC_ACC, so the
#: run mixes Access announcements with lock and monitor steps
_ACCESS_SOURCE = """
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
"""


def _recorded(events):
    return [(e.footprint, e.enabled) for e in events]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recording_from_k_matches_full_recording(seed):
    program = compile_program(_ACCESS_SOURCE).make_program()
    sched = Scheduler(RandomPolicy(seed), raise_on_deadlock=False,
                      raise_on_failure=False, record_from=0)
    program(sched)
    full = sched.run()
    schedule = full.schedule()
    var_steps = [j for j, e in enumerate(full.events)
                 if any(tok[0] == "var" for tok in e.footprint)]
    # the fixture exercises the Access handover: some step performs an
    # access announced by that task's previous step
    assert var_steps and var_steps[0] > 0
    for k in range(len(full.events) + 1):
        trace, _ = run_schedule(program, schedule, record_from=k)
        assert trace.schedule() == schedule
        assert all(e.footprint is None and e.enabled is None
                   for e in trace.events[:k]), k
        assert _recorded(trace.events[k:]) == _recorded(full.events[k:]), k


# ---------------------------------------------------------------------------
# replay-stable identities: hazard reports do not depend on what ran
# earlier in the process, or in which worker
# ---------------------------------------------------------------------------

def _msgorder_hazards(workers=1):
    """The hazards ``repro monitor bug:msgorder-init-work --explore``
    lists: the buggy program under its protocol bus."""
    spec = next(s for s in gallery() if s.bug_id == "msgorder-init-work")
    res = explore(kernel_program("bug:msgorder-init-work"), reduce=True,
                  workers=workers,
                  monitors=lambda: protocol_bus([spec.protocol]))
    assert res.complete
    return res.hazards


def _reorder_messages(hazards):
    return [h.message for h in hazards if h.kind == "message-reorder"]


def test_explored_hazards_repeat_in_one_process():
    first, second = _msgorder_hazards(), _msgorder_hazards()
    assert first == second


def test_explored_hazards_independent_of_workers():
    assert {h.key for h in _msgorder_hazards(workers=2)} == \
        {h.key for h in _msgorder_hazards()}


def test_protocol_violation_listed_once():
    violations = [h for h in _msgorder_hazards()
                  if h.kind == "protocol-violation"]
    assert len(violations) == 1
    # the client's first send: tid 1 in spawn order (booter, client,
    # worker), whichever of the two sends was deposited first
    assert violations[0].seq == (1, 1)


def test_reorder_numbers_survive_an_unrelated_exploration():
    before = _reorder_messages(_msgorder_hazards())
    explore(kernel_program("pingpong"), reduce=True, monitors=True)
    explore(buffer_program(capacity=1, producers=1, consumers=1,
                           items_each=2), reduce=True)
    assert _reorder_messages(_msgorder_hazards()) == before == [
        "worker received message #1 from 'worker' after message #2: "
        "arrival order differs from deposit order"]


def test_process_wide_envelope_seqs_break_determinism(monkeypatch):
    """Mutation pin: envelope seqs drawn from one counter shared by all
    schedulers (the kernel before seqs were numbered per run) make the
    same exploration report different hazards the second time."""
    shared = itertools.count(1)
    deposit = Mailbox._deposit

    def shared_seq(self, message, sender, seq):
        return deposit(self, message, sender, next(shared))

    monkeypatch.setattr(Mailbox, "_deposit", shared_seq)
    first, second = _msgorder_hazards(), _msgorder_hazards()
    assert first != second
    assert _reorder_messages(first) != _reorder_messages(second)
