"""Replay at plain-run cost: exact counts and the recording boundary.

The reduced explorer re-executes the committed prefix of every run
without re-recording its reduction metadata (``record_from``), and its
DPOR scan and summary fold cover only the new suffix.  Both shortcuts
must leave the search itself untouched, so this module pins:

* the exact work counters of the reduced search on the paper's bridge,
  the 2-car bridge, the 2p/1c buffer and two budgeted sim worlds — a
  scan that starts one depth late, or a branch node whose step is left
  stale, changes them;
* that the counters do not depend on ``PYTHONHASHSEED`` (the subtree
  summaries are iterated in insertion order, not hash order);
* that a run recording from step ``k`` records, from ``k`` on, exactly
  the footprints and enabled summaries a fully recording run records —
  including ``Access`` announcements made below ``k``.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core import RandomPolicy, Scheduler
from repro.problems import kernel_program
from repro.problems.bounded_buffer import buffer_program
from repro.problems.single_lane_bridge import bridge_program
from repro.pseudocode import compile_program
from repro.sim import explore_world, scenarios
from repro.verify import explore, run_schedule

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
