"""``repro.cluster.demo.spawn_worker`` keeps its deadline.

The launcher waits for the child's ``PORT <n>`` line.  A child that
never announces must not hold the caller past ``timeout``, and it must
be reaped, not left as a zombie.  No socket is opened here: the child
is a plain sleeping interpreter.
"""

import subprocess
import sys
import time

import pytest

from repro.cluster import demo


def test_spawn_worker_times_out_on_a_silent_child(monkeypatch):
    real_popen = subprocess.Popen
    children = []

    def silent_child(argv, **kwargs):
        child = real_popen(
            [sys.executable, "-c", "import time; time.sleep(30)"],
            **kwargs)
        children.append(child)
        return child

    monkeypatch.setattr(demo.subprocess, "Popen", silent_child)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="never announced"):
        demo.spawn_worker(timeout=0.5)
    elapsed = time.monotonic() - t0
    (child,) = children
    assert elapsed < 1.5, elapsed
    assert child.returncode is not None      # killed and reaped
    assert child.stdout.closed
