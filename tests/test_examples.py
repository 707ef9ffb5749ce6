"""The examples that drive the metrics API run to completion.

Each one runs as a subprocess, the way a reader runs it, so an API
rename that breaks an example fails here instead of silently.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize("script,args", [
    ("runtime_showdown.py", []),
    ("cluster_bridge.py", []),          # loopback transport
    ("trace_viewer.py", ["{tmp}"]),     # writes its traces into {tmp}
])
def test_example_exits_zero(script, args, tmp_path):
    pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": pkg_root + os.pathsep
           + os.environ.get("PYTHONPATH", "")}
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run([sys.executable, str(EXAMPLES / script), *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
