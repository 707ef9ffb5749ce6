"""CLI contract tests — exit codes and ``--json`` payloads.

The CLI is scripting surface: CI jobs and the study pipeline shell out
to it, so its exit-code conventions are load-bearing — 0 success,
1 violation/hazard/regression found, 2 bad arguments — and the
``--json`` payloads must stay parseable.  Everything runs in-process
through ``repro.cli.main(argv)``.
"""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; return (exit code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------

def test_monitor_clean_problem_exits_0(capsys):
    # pingpong emits an info-severity witness hazard (async-send), which
    # must not flag the run — only error/warning severities exit 1
    code, out, _ = run_cli(capsys, "monitor", "pingpong", "--seed", "7")
    assert code == 0
    assert "pingpong: 1 run, outcome done" in out


def test_monitor_hazard_found_exits_1_with_json(capsys):
    # the bug-gallery deadlock variant trips the deadlock detector on
    # exploration
    code, out, _ = run_cli(capsys, "monitor", "bug:deadlock-lock-ordering",
                           "--explore", "--max-runs", "2000", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["flagged"] is True
    assert any(h["severity"] in ("error", "warning")
               for h in payload["hazards"])


def test_monitor_unknown_problem_exits_2(capsys):
    code, _, err = run_cli(capsys, "monitor", "no-such-problem")
    assert code == 2
    assert "unknown problem" in err


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

def test_explain_no_violation_exits_0(capsys):
    code, out, _ = run_cli(capsys, "explain", "pingpong",
                           "--max-runs", "2000")
    assert code == 0
    assert "no violation found" in out


def test_explain_violation_exits_1(capsys):
    code, out, _ = run_cli(capsys, "explain", "bug:deadlock-lock-ordering",
                           "--max-runs", "2000")
    assert code == 1
    assert out     # narrative on stdout


def test_explain_unknown_problem_exits_2(capsys):
    code, _, err = run_cli(capsys, "explain", "no-such-problem")
    assert code == 2
    assert "unknown problem" in err


# ---------------------------------------------------------------------------
# top
# ---------------------------------------------------------------------------

TOP_FAST = ("--demo", "--once", "--interval", "0.4")


def test_top_demo_renders_dashboard(capsys):
    code, out, _ = run_cli(capsys, "top", *TOP_FAST)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("repro top — 2 node(s)")
    assert "NODE" in lines[1] and "OPS/S" in lines[1]
    assert any(ln.startswith("alpha") for ln in lines)
    assert any(ln.startswith("beta") for ln in lines)
    assert "\x1b[" not in out                 # not a tty: plain text


def test_top_demo_json_snapshot(capsys):
    code, out, _ = run_cli(capsys, "top", *TOP_FAST, "--json")
    assert code == 0
    snap = json.loads(out)
    assert set(snap["nodes"]) == {"alpha", "beta"}
    for node in snap["nodes"].values():
        assert {"rates", "gauges", "hists", "frames", "lost"} <= set(node)
    # demo burns nothing: every tracked (slo, node) pair stays quiet
    assert [a for a in snap["alerts"] if a["state"] == "firing"] == []


def test_top_without_target_exits_2(capsys):
    code, _, err = run_cli(capsys, "top", "--once")
    assert code == 2
    assert "--connect" in err and "--demo" in err


def test_top_rejects_bad_address(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["top", "--connect", "nope", "--once"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# postmortem
# ---------------------------------------------------------------------------

def _bundle(kind="actor-failure", node="b"):
    return {"v": 1, "seq": 1, "kind": kind, "node": node, "ts": 12.0,
            "detail": {"actor": "bomb"},
            "alerts": [{"slo": "error-rate", "node": node,
                        "state": "firing"}],
            "telemetry": {"nodes": {}},
            "events": {"a": 3, "b": 5},
            "trace": {"traceEvents": [], "displayTimeUnit": "ms"},
            "narrative": f"POSTMORTEM: {kind}\n  node '{node}': ..."}


def test_postmortem_empty_dir_exits_1(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "postmortem", "--dir", str(tmp_path))
    assert code == 1
    assert "no postmortem bundles" in out


def test_postmortem_lists_bundles(capsys, tmp_path):
    (tmp_path / "pm-001-actor-failure.json").write_text(
        json.dumps(_bundle()))
    (tmp_path / "pm-002-peer-down.json").write_text(
        json.dumps(_bundle(kind="peer-down")))
    code, out, _ = run_cli(capsys, "postmortem", "--dir", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("pm-001-actor-failure.json: actor-failure")
    assert "8 flight event(s) from 2 node(s)" in lines[0]
    assert "1 firing alert(s)" in lines[0]


def test_postmortem_latest_prints_narrative_and_trace(capsys, tmp_path):
    (tmp_path / "pm-001-actor-failure.json").write_text(
        json.dumps(_bundle()))
    (tmp_path / "pm-002-peer-down.json").write_text(
        json.dumps(_bundle(kind="peer-down")))
    trace_out = tmp_path / "merged.json"
    code, out, err = run_cli(
        capsys, "postmortem", "--dir", str(tmp_path), "latest",
        "--trace-out", str(trace_out))
    assert code == 0
    assert out.startswith("POSTMORTEM: peer-down")   # latest = pm-002
    assert "merged.json" in err
    assert json.loads(trace_out.read_text())["displayTimeUnit"] == "ms"


def test_postmortem_json_roundtrip(capsys, tmp_path):
    (tmp_path / "pm-001-actor-failure.json").write_text(
        json.dumps(_bundle()))
    code, out, _ = run_cli(capsys, "postmortem", "--dir", str(tmp_path),
                           "pm-001-actor-failure.json", "--json")
    assert code == 0
    assert json.loads(out)["kind"] == "actor-failure"


def test_postmortem_missing_bundle_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "postmortem", "--dir", str(tmp_path),
                           "pm-042-ghost.json")
    assert code == 1
    assert "cannot read" in err


# ---------------------------------------------------------------------------
# argparse-level bad arguments
# ---------------------------------------------------------------------------

def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["bench"], ["cluster", "bench"]])
def test_no_bench_verbs(capsys, argv):
    # the runtime benchmark is `python3 perfbench/run.py`, not a verb
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
