"""Command-line interface: ``python -m repro <command>``.

Commands:

``run FILE``
    Execute a pseudocode file under a fair scheduler and print its
    output (``--seed N`` runs a seeded random schedule instead).

``outputs FILE``
    Exhaustively enumerate the program's output possibilities —
    the figures' "Output possibility 1/2/..." lists.

``check FILE``
    Static analysis report: globals, exclusion groups, warnings;
    then explore for deadlocks and task failures (``--progress`` streams
    live exploration statistics to stderr).

``trace PROBLEM``
    Run one schedule of a named kernel problem and export the trace —
    Chrome ``trace_event`` JSON (open in chrome://tracing or Perfetto)
    or a JSONL event stream.

``stats PROBLEM``
    Run one schedule of a named kernel problem with kernel metrics
    attached and print the counter/histogram report (``--json`` for the
    machine-readable snapshot, ``--explore`` to add exploration
    statistics).

``monitor PROBLEM``
    Watch a named kernel problem with the online hazard monitors:
    one schedule by default, every schedule with ``--explore``.
    Prints the hazard report; exits non-zero if any error/warning
    hazard fired.

``explain PROBLEM``
    Hunt for a violation (deadlock / task failure) of a named kernel
    problem and explain it: delta-debugged minimal schedule, the
    critical transition pair, causal narrative (``--html`` for a
    self-contained report).

``protocol list`` / ``protocol check TARGET``
    Session-typed conformance: ``list`` prints the bug gallery's
    protocol registry (each specimen's spec in the mini-language);
    ``check`` explores a kernel problem or ``bug:<id>`` with a
    :class:`~repro.obs.protocol.ProtocolMonitor` attached — the
    gallery entry's bundled spec by default, or an ad-hoc one via
    ``--spec '(REQ -> (REPLY | ERR))*' --parties server``.  Exits
    non-zero if any schedule violates the protocol.

``top``
    Live cluster dashboard fed by the telemetry plane: per-node
    throughput, mailbox depth, credit stalls, p95 latency, and firing
    SLO burn-rate alerts.  ``--connect HOST:PORT`` polls a node serving
    with ``cluster serve --telemetry``; ``--demo`` runs a
    self-contained in-process two-node pingpong cluster
    (``--requests`` adds a causally-traced per-request drill-down).

``critical``
    Causal critical-path report: run traced requests of a cluster
    demo cell on a loopback node and print where each request's
    latency went, segment by segment (handler execution, mailbox wait,
    executor queueing, backpressure parks, wire time, decode).
    ``--trace-out`` additionally writes the raw spans as a Chrome
    trace with ``request_id`` args.

``whatif``
    Coz-style what-if profiling over the same traced run: virtually
    speed one segment up (``--segment mailbox-wait --speedup 20%``)
    by rescheduling the recorded span DAG, and rank every segment by
    its predicted end-to-end win — "what should we optimize next".

``postmortem``
    Inspect the flight-recorder postmortem bundles a telemetry agent
    dumps on actor failure / peer DOWN / SLO burn: list bundles, print
    the cross-node narrative, extract the merged Chrome trace.

``trace``/``stats``/``explain`` accept ``--out -`` to stream
the artifact to stdout instead of a file.

``bridge QUESTION``
    Answer a Test-1-style bridge question given as
    ``section:history...=>scenario...`` (see ``--help-bridge``).

``study``
    Run the full §V study and print Tables I-III + surveys.

``figures``
    Regenerate every Figure 1-5 example and verify against the paper.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main"]


def _write_out(dest: str, text: str) -> Path | None:
    """Write ``text`` to a file, or to stdout when ``dest`` is ``-``.

    Returns the path written, or None for stdout (callers print their
    "wrote ..." summary only for real files, on stderr otherwise)."""
    if dest == "-":
        sys.stdout.write(text)
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")
        return None
    path = Path(dest)
    path.write_text(text)
    return path


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    from .core import RandomPolicy
    from .pseudocode import compile_program
    runtime = compile_program(Path(args.file).read_text())
    policy = RandomPolicy(args.seed) if args.seed is not None else None
    bus = None
    if args.monitor:
        from .obs import MonitorBus
        bus = MonitorBus()
    result = runtime.run(policy, raise_on_deadlock=False,
                         raise_on_failure=False, monitors=bus)
    if args.json:
        payload = {
            "outcome": result.outcome,
            "output": result.output_text(),
            "detail": result.trace.detail,
            "events": len(result.trace.events),
            "seed": args.seed,
        }
        if bus is not None:
            payload["hazards"] = [h.describe() for h in bus.hazards]
        print(json.dumps(payload, sort_keys=True))
        return 0 if result.outcome == "done" and not (
            bus is not None and bus.flagged) else 1
    sys.stdout.write(result.output_text())
    if not result.output_text().endswith("\n") and result.output_text():
        sys.stdout.write("\n")
    status = 0
    if result.outcome != "done":
        print(f"[outcome: {result.outcome}] {result.trace.detail}",
              file=sys.stderr)
        status = 1
    if bus is not None and bus.hazards:
        print(bus.format(), file=sys.stderr)
        if bus.flagged:
            status = 1
    return status


def _cmd_outputs(args: argparse.Namespace) -> int:
    import json

    from .pseudocode import possible_outputs
    outputs = possible_outputs(Path(args.file).read_text(),
                               max_runs=args.max_runs)
    if args.json:
        print(json.dumps({"possibilities": sorted(outputs),
                          "count": len(outputs)}, sort_keys=True))
        return 0
    for i, output in enumerate(sorted(outputs), start=1):
        print(f"possibility {i}: {output}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .pseudocode import compile_program
    from .verify import explore
    runtime = compile_program(Path(args.file).read_text())
    info = runtime.info
    print(f"globals          : {sorted(info.globals) or '(none)'}")
    print(f"exclusion groups : "
          f"{ {k: list(v) for k, v in info.groups.items()} or '(none)'}")
    for warning in info.warnings:
        print(f"warning          : {warning}")
    reduce = () if args.reduce == "none" else args.reduce
    progress = None
    if args.progress:
        def progress(stats):
            print(f"  ... {stats.runs} runs, {stats.decisions} decisions, "
                  f"{stats.sleep_prunes} sleep prunes, "
                  f"{stats.fingerprint_hits} fingerprint hits",
                  file=sys.stderr)
    result = explore(runtime.make_program(), max_runs=args.max_runs,
                     reduce=reduce, workers=args.workers,
                     progress=progress, progress_every=args.progress_every)
    print(f"exploration      : {result.summary()}")
    if args.progress:
        s = result.stats
        print(f"stats            : {s.decisions} decisions in "
              f"{s.elapsed_seconds:.3f}s ({s.decisions_per_sec:.0f}/s), "
              f"frontier depth {s.max_frontier_depth}")
    if reduce or args.workers > 1:
        print(f"reductions       : reduce={args.reduce} "
              f"workers={args.workers} "
              f"({result.decisions} decisions, "
              f"{result.pruned_runs} pruned runs)")
    status = 0
    if result.outcomes.get("deadlock"):
        print("DEADLOCK reachable; sample blocked state:")
        print("  " + result.deadlocks[0].detail)
        status = 1
    if result.outcomes.get("failed"):
        print("RUNTIME FAILURE reachable on some schedule")
        status = 1
    from .verify import find_races
    race = None
    for trace in result.witnesses.values():
        races = find_races(trace, max_races=1)
        if races:
            race = races[0]
            break
    if race is not None:
        print(f"DATA RACE        : {race.describe()}")
        status = 1
    if status == 0:
        print("no deadlocks, no failures, no races"
              + ("" if result.complete else " (within budget)"))
    return status


def _run_problem(name: str, seed: int | None):
    """One instrumented run of a named kernel problem."""
    from .core.policy import RandomPolicy
    from .core.scheduler import Scheduler
    from .obs import Metrics
    from .problems import kernel_program
    metrics = Metrics()
    policy = RandomPolicy(seed) if seed is not None else None
    sched = Scheduler(policy, raise_on_deadlock=False,
                      raise_on_failure=False, metrics=metrics)
    kernel_program(name)(sched)
    return sched.run(), metrics


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .problems import kernel_program_names
    try:
        trace, _ = _run_problem(args.problem, args.seed)
    except KeyError:
        print(f"unknown problem {args.problem!r}; known: "
              + ", ".join(kernel_program_names()), file=sys.stderr)
        return 2
    if args.format == "chrome":
        payload = trace.to_chrome_trace(scale=args.scale)
        out = _write_out(args.out, json.dumps(payload, sort_keys=True))
        lanes = sum(1 for e in payload["traceEvents"]
                    if e["ph"] == "M" and e["name"] == "thread_name")
        summary = (f"{len(payload['traceEvents'])} trace events, "
                   f"{lanes} lanes, outcome: {trace.outcome}) — open in "
                   f"chrome://tracing or https://ui.perfetto.dev")
        if out is not None:
            print(f"wrote {out} ({summary}")
    else:
        out = _write_out(args.out, trace.to_jsonl())
        if out is not None:
            print(f"wrote {out} ({len(trace.events)} steps + summary, "
                  f"outcome: {trace.outcome})")
    return 0 if trace.outcome == "done" else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .problems import kernel_program, kernel_program_names
    try:
        trace, metrics = _run_problem(args.problem, args.seed)
    except KeyError:
        print(f"unknown problem {args.problem!r}; known: "
              + ", ".join(kernel_program_names()), file=sys.stderr)
        return 2
    explo = None
    if args.explore:
        from .verify import explore
        explo = explore(kernel_program(args.problem),
                        max_runs=args.max_runs, reduce=True)
    if args.json:
        payload = {"problem": args.problem, "seed": args.seed,
                   "outcome": trace.outcome, "metrics": metrics.snapshot()}
        if explo is not None:
            payload["exploration"] = explo.stats.as_dict()
            payload["exploration"]["complete"] = explo.complete
            payload["exploration"]["terminals"] = len(explo.terminals)
        report = json.dumps(payload, sort_keys=True)
    else:
        lines = [f"problem : {args.problem} (outcome: {trace.outcome}, "
                 f"{len(trace.events)} steps)",
                 metrics.format()]
        if explo is not None:
            s = explo.stats
            lines.append(f"exploration : {explo.summary()}")
            lines.append(
                f"            : {s.decisions} decisions in "
                f"{s.elapsed_seconds:.3f}s ({s.decisions_per_sec:.0f}/s), "
                f"{s.sleep_prunes} sleep prunes, "
                f"{s.fingerprint_hits} fingerprint hits, "
                f"frontier depth {s.max_frontier_depth}")
        report = "\n".join(lines)
    out = _write_out(args.out, report)
    if out is not None:
        print(f"wrote {out}", file=sys.stderr)
    return 0 if trace.outcome == "done" else 1


def _cmd_monitor(args: argparse.Namespace) -> int:
    import json

    from .problems import kernel_program, kernel_program_names
    try:
        program = kernel_program(args.problem)
    except KeyError:
        print(f"unknown problem {args.problem!r}; known: "
              + ", ".join(kernel_program_names()), file=sys.stderr)
        return 2
    # gallery specimens bound to a session type are flagged *by* that
    # protocol — arm it next to the default detectors
    protocols = []
    if args.problem.startswith("bug:"):
        from .problems.bug_gallery import gallery
        spec = next((s for s in gallery()
                     if s.bug_id == args.problem[4:]), None)
        if spec is not None and spec.protocol is not None:
            protocols.append(spec.protocol)
    if args.explore:
        from .obs import protocol_bus
        from .verify import explore
        monitors = (lambda: protocol_bus(protocols)) if protocols \
            else True
        res = explore(program, max_runs=args.max_runs, reduce=True,
                      monitors=monitors)
        hazards = res.hazards
        summary = f"{args.problem}: {res.summary()}"
    else:
        from .core.policy import RandomPolicy
        from .core.scheduler import Scheduler
        from .obs import MonitorBus, protocol_bus
        bus = protocol_bus(protocols) if protocols else MonitorBus()
        policy = RandomPolicy(args.seed) if args.seed is not None else None
        sched = Scheduler(policy, raise_on_deadlock=False,
                          raise_on_failure=False, monitors=bus)
        program(sched)
        trace = sched.run()
        hazards = bus.hazards
        summary = (f"{args.problem}: 1 run, outcome {trace.outcome}, "
                   f"{len(trace.events)} steps")
    flagged = any(h.severity in ("error", "warning") for h in hazards)
    if args.json:
        print(json.dumps({
            "problem": args.problem,
            "explored": bool(args.explore),
            "flagged": flagged,
            "hazards": [{"kind": h.kind, "severity": h.severity,
                         "message": h.message, "step": h.step,
                         "tasks": list(h.tasks),
                         "objects": list(h.objects),
                         "refutes": list(h.refutes)} for h in hazards],
        }, sort_keys=True))
    else:
        print(summary)
        if hazards:
            for h in hazards:
                print(h.describe())
        else:
            print("no hazards detected")
    return 1 if flagged else 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .problems import kernel_program, kernel_program_names
    try:
        program = kernel_program(args.problem)
    except KeyError:
        print(f"unknown problem {args.problem!r}; known: "
              + ", ".join(kernel_program_names()), file=sys.stderr)
        return 2
    from .obs import explain_program, html_report
    explanation = explain_program(program, max_runs=args.max_runs)
    if explanation is None:
        print(f"{args.problem}: no violation found "
              f"(within {args.max_runs} runs)")
        return 0
    text = (html_report(explanation,
                        title=f"{args.problem}: {explanation.kind}")
            if args.html else explanation.narrative())
    out = _write_out(args.out, text)
    if out is not None:
        print(f"wrote {out} ({explanation.kind}; minimized to "
              f"{len(explanation.schedule)} decisions from "
              f"{len(explanation.original_schedule)}; "
              f"{explanation.replays} replays)", file=sys.stderr)
    return 1


def _cmd_protocol_list(args: argparse.Namespace) -> int:
    import json

    from .problems.bug_gallery import gallery
    rows = [spec for spec in gallery() if spec.protocol is not None]
    if args.json:
        print(json.dumps(
            [{"bug": s.bug_id, "category": s.category,
              **s.protocol.describe()} for s in rows],
            sort_keys=True))
        return 0
    for s in rows:
        p = s.protocol
        where = ",".join(p.parties) or "(any)"
        print(f"bug:{s.bug_id:<24} {p.name:<10} {p.text:<24} "
              f"@ {where} [{p.at}]")
    print(f"{len(rows)} protocol-governed specimens — check one with "
          f"`repro protocol check bug:<id>`")
    return 0


def _cmd_protocol_check(args: argparse.Namespace) -> int:
    import json

    from .obs.protocol import Protocol, protocol_bus
    from .problems import kernel_program, kernel_program_names
    proto = None
    variant = None
    if args.target.startswith("bug:"):
        from .problems.bug_gallery import gallery
        spec = next((s for s in gallery()
                     if s.bug_id == args.target[4:]), None)
        if spec is None:
            print(f"unknown gallery bug {args.target!r}; known: "
                  + ", ".join(f"bug:{s.bug_id}" for s in gallery()),
                  file=sys.stderr)
            return 2
        program = spec.fixed if args.fixed else spec.buggy
        variant = "fixed" if args.fixed else "buggy"
        proto = spec.protocol
    else:
        if args.fixed:
            print("repro protocol check: --fixed only applies to "
                  "bug:<id> targets", file=sys.stderr)
            return 2
        try:
            program = kernel_program(args.target)
        except KeyError:
            print(f"unknown problem {args.target!r}; known: "
                  + ", ".join(kernel_program_names()), file=sys.stderr)
            return 2
    if args.spec is not None:
        parties = tuple(p for p in (args.parties or "").split(",") if p)
        try:
            proto = Protocol(args.name, args.spec, parties=parties,
                             at=args.at)
        except ValueError as exc:
            print(f"repro protocol check: {exc}", file=sys.stderr)
            return 2
    if proto is None:
        print(f"{args.target!r} ships no protocol spec; supply one "
              f"with --spec (see `repro protocol list`)",
              file=sys.stderr)
        return 2
    from .verify import explore
    res = explore(program, max_runs=args.max_runs, reduce=True,
                  monitors=lambda: protocol_bus([proto]))
    hazards = [h for h in res.hazards if h.kind.startswith("protocol-")]
    flagged = any(h.severity == "error" for h in hazards)
    if args.json:
        print(json.dumps({
            "target": args.target, "variant": variant,
            "protocol": proto.describe(), "flagged": flagged,
            "explored": res.summary(),
            "hazards": [{"kind": h.kind, "severity": h.severity,
                         "message": h.message, "subject": h.subject}
                        for h in hazards],
        }, sort_keys=True))
    else:
        vtxt = f" ({variant})" if variant else ""
        print(f"{args.target}{vtxt} against protocol "
              f"{proto.name!r}: {proto.text}")
        print(f"exploration: {res.summary()}")
        if hazards:
            shown = hazards if args.limit <= 0 \
                else hazards[:args.limit]
            for h in shown:
                print(h.describe())
            if len(hazards) > len(shown):
                print(f"... and {len(hazards) - len(shown)} more "
                      f"(--limit 0 for all, --json for the full list)")
        else:
            print("conforms: no protocol hazards on any "
                  "explored schedule")
    return 1 if flagged else 0


def _demo_telemetry_cluster(interval: float, tracer=None):
    """Two loopback nodes, telemetry agents, and a pingpong load.

    The self-contained `repro top --demo` topology: alpha pings, beta
    echoes, frames flow both ways, and alpha's aggregator (the one the
    snapshot reads) sees the whole two-node cluster.  With a tracer, a
    probe actor additionally runs one causally-traced cross-node
    request per refresh — the ``--requests`` drill-down rows.  Returns
    ``(snapshot, cleanup, probe)`` closures (``probe`` is None when
    untraced).
    """
    from .actors import Actor
    from .cluster.node import ClusterConfig, ClusterNode
    from .cluster.transport import LoopbackHub
    from .obs import Metrics
    from .obs.telemetry import TelemetryAgent

    class _Echo(Actor):
        def receive(self, message, sender):
            if sender is not None:
                sender.tell(message, sender=self.self_ref)

    class _Pinger(Actor):
        def __init__(self, target):
            super().__init__()
            self.target = target

        def receive(self, message, sender):
            if message == "start":
                for i in range(8):       # pipelined in-flight window
                    self.target.tell(i, sender=self.self_ref)
                return
            self.target.tell(message, sender=self.self_ref)

    hub = LoopbackHub()
    config = ClusterConfig(telemetry_interval=max(0.05, interval / 4))
    alpha = ClusterNode("alpha", hub.join("alpha"), config=config,
                        workers=2, profiler=Metrics(), tracer=tracer)
    beta = ClusterNode("beta", hub.join("beta"), config=config,
                       workers=2, profiler=Metrics(), tracer=tracer)
    agent = TelemetryAgent().attach(alpha)
    TelemetryAgent().attach(beta)
    alpha.connect("beta")
    beta.connect("alpha")
    beta.spawn(_Echo, name="echo")
    pinger = alpha.spawn(_Pinger, alpha.ref("beta/echo"), name="pinger")
    pinger.tell("start")

    probe = None
    if tracer is not None:
        from .obs.causal import clear_context
        probe_target = alpha.ref("beta/echo")

        class _Probe(Actor):
            # one finite round trip per "go": alpha/probe -> beta/echo
            # -> alpha/probe; the echoed reply is not "go", so the
            # chain ends there instead of bouncing forever like the
            # pinger load
            def receive(self, message, sender):
                if message == "go":
                    probe_target.tell("probe-ping", sender=self.self_ref)

        probe_ref = alpha.spawn(_Probe, name="probe")

        def probe() -> None:
            tracer.start_request("top-probe")
            try:
                probe_ref.tell("go")
            finally:
                clear_context()

    def cleanup() -> None:
        alpha.close()
        beta.close()

    return agent.snapshot, cleanup, probe


def _cmd_top(args: argparse.Namespace) -> int:
    import json
    import time

    from .obs.telemetry import render_top
    cleanup = None
    tracer = None
    probe = None
    if args.demo:
        if args.requests:
            from .obs.causal import CausalTracer
            tracer = CausalTracer()
        snapshot, cleanup, probe = _demo_telemetry_cluster(args.interval,
                                                           tracer)
        if probe is not None:
            probe()
        time.sleep(max(0.5, args.interval / 2))   # let frames flow
    elif args.connect:
        if args.requests:
            print("repro top: --requests drill-down needs the in-process "
                  "--demo cluster (remote spans stay on their node)",
                  file=sys.stderr)
            return 2
        import uuid

        from .cluster.message import serializer as _serializer
        from .cluster.node import ClusterNode
        from .cluster.transport import SocketTransport
        address = args.connect
        name = f"top-{uuid.uuid4().hex[:8]}"
        node = ClusterNode(name, SocketTransport(name, listen=False),
                           serializer=_serializer(args.serializer))
        node.connect(args.peer, address)
        cleanup = node.close

        def snapshot():
            reply = node.status_of(args.peer, timeout=args.timeout,
                                   telemetry=True)
            snap = reply.get("telemetry")
            if snap is None:
                raise RuntimeError(
                    f"node {args.peer!r} serves no telemetry — start it "
                    f"with `repro cluster serve --telemetry`")
            return snap
    else:
        print("repro top: need --connect HOST:PORT or --demo",
              file=sys.stderr)
        return 2
    deadline = None if args.duration is None \
        else time.monotonic() + args.duration
    try:
        while True:
            snap = snapshot()
            if args.json:
                if tracer is not None:
                    from .obs.causal import critical_report
                    snap["requests"] = critical_report(tracer.spans())
                print(json.dumps(snap, sort_keys=True, default=str))
            else:
                color = sys.stdout.isatty()
                print(render_top(snap, color=color,
                                 clear=color and not args.once))
                if tracer is not None:
                    from .obs.causal import format_requests
                    print()
                    print(format_requests(tracer.spans()))
            if args.once or (deadline is not None
                             and time.monotonic() >= deadline):
                return 0
            if probe is not None:
                probe()      # one fresh traced request per refresh
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except (RuntimeError, TimeoutError) as exc:
        print(f"repro top: {exc}", file=sys.stderr)
        return 1
    finally:
        if cleanup is not None:
            cleanup()


def _cmd_critical(args: argparse.Namespace) -> int:
    import json

    from .obs.causal import (chrome_trace_from_causal, critical_report,
                             format_critical, trace_cluster_cell)
    try:
        tracer, measured = trace_cluster_cell(
            cell=args.cell, requests=args.requests,
            workers=args.workers, scale=args.scale)
    except KeyError as exc:
        print(f"repro critical: {exc.args[0]}", file=sys.stderr)
        return 2
    spans = tracer.spans()
    report = critical_report(spans, measured=measured)
    if args.trace_out:
        Path(args.trace_out).write_text(
            json.dumps(chrome_trace_from_causal(spans), sort_keys=True))
        print(f"wrote {args.trace_out} ({len(spans)} causal spans — open "
              f"in chrome://tracing or https://ui.perfetto.dev)",
              file=sys.stderr)
    if args.json:
        payload = {"cell": args.cell, "spans": len(spans), **report}
        out = _write_out(args.out, json.dumps(payload, sort_keys=True))
    else:
        out = _write_out(args.out, format_critical(report))
    if out is not None:
        print(f"wrote {out}", file=sys.stderr)
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    import json

    from .obs.causal import (SEGMENTS, format_whatif, parse_speedup,
                             rank_targets, trace_cluster_cell,
                             whatif_report)
    try:
        speedup = parse_speedup(args.speedup)
    except ValueError as exc:
        print(f"repro whatif: {exc}", file=sys.stderr)
        return 2
    if args.segment is not None and args.segment not in SEGMENTS:
        print(f"repro whatif: unknown segment {args.segment!r}; known: "
              + ", ".join(SEGMENTS), file=sys.stderr)
        return 2
    try:
        tracer, _ = trace_cluster_cell(
            cell=args.cell, requests=args.requests,
            workers=args.workers, scale=args.scale)
    except KeyError as exc:
        print(f"repro whatif: {exc.args[0]}", file=sys.stderr)
        return 2
    spans = tracer.spans()
    ranked = rank_targets(spans, speedup)
    chosen = whatif_report(spans, args.segment, speedup) \
        if args.segment is not None else None
    if args.json:
        payload: dict = {"cell": args.cell, "speedup": speedup,
                         "spans": len(spans), "targets": ranked}
        if chosen is not None:
            payload["chosen"] = chosen
        out = _write_out(args.out, json.dumps(payload, sort_keys=True))
    else:
        out = _write_out(args.out, format_whatif(ranked, chosen))
    if out is not None:
        print(f"wrote {out}", file=sys.stderr)
    return 0


def _cmd_postmortem(args: argparse.Namespace) -> int:
    import json
    dirp = Path(args.dir)
    bundles = sorted(dirp.glob("pm-*.json")) if dirp.is_dir() else []
    if not args.bundle:
        if not bundles:
            print(f"no postmortem bundles under {dirp}/")
            return 1
        for path in bundles:
            try:
                b = json.loads(path.read_text())
            except (OSError, ValueError):
                print(f"{path.name}: unreadable")
                continue
            firing = [a for a in b.get("alerts", ())
                      if a.get("state") == "firing"]
            events = b.get("events") or {}
            print(f"{path.name}: {b.get('kind')} on node "
                  f"{b.get('node')!r} — {sum(events.values())} flight "
                  f"event(s) from {len(events)} node(s), "
                  f"{len(firing)} firing alert(s)")
        return 0
    if args.bundle == "latest":
        if not bundles:
            print(f"no postmortem bundles under {dirp}/", file=sys.stderr)
            return 1
        path = bundles[-1]
    else:
        path = Path(args.bundle)
        if not path.exists():
            path = dirp / args.bundle
    try:
        b = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"repro postmortem: cannot read {path}: {exc}",
              file=sys.stderr)
        return 1
    if args.trace_out:
        Path(args.trace_out).write_text(
            json.dumps(b.get("trace") or {}, sort_keys=True))
        print(f"wrote {args.trace_out} (merged Chrome trace — open in "
              f"chrome://tracing or https://ui.perfetto.dev)",
              file=sys.stderr)
    if args.json:
        print(json.dumps(b, sort_keys=True, default=str))
    else:
        print(b.get("narrative") or "(bundle has no narrative)")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from .study import run_full_study
    study = run_full_study(seed=args.seed if args.seed is not None else 2013)
    print(study.render())
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .pseudocode import possible_outputs
    checks = [
        ("Figure 3a", 'PARA\nPRINT "hello "\nPRINT "world "\nENDPARA',
         {"hello world", "world hello"}),
        ("Figure 4a", 'x = 10\nDEFINE changeX(d)\n EXC_ACC\n  x = x + d\n'
         ' END_EXC_ACC\nENDDEF\nPARA\n changeX(1)\n changeX(-2)\nENDPARA\n'
         'PRINTLN x', {"9"}),
    ]
    ok = True
    for name, source, expected in checks:
        computed = possible_outputs(source, max_runs=100_000)
        match = computed == expected
        ok &= match
        print(f"{name}: {'ok' if match else f'MISMATCH {computed}'}")
    print("run `python examples/pseudocode_playground.py` for all figures")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Programming with Concurrency — reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a pseudocode file")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="random schedule seed (default: fair RR)")
    p_run.add_argument("--json", action="store_true",
                       help="machine-readable result on stdout")
    p_run.add_argument("--monitor", action="store_true",
                       help="attach the online hazard monitors; exit "
                            "non-zero if any error/warning hazard fires")
    p_run.set_defaults(fn=_cmd_run)

    p_out = sub.add_parser("outputs",
                           help="enumerate all output possibilities")
    p_out.add_argument("file")
    p_out.add_argument("--max-runs", type=int, default=200_000)
    p_out.add_argument("--json", action="store_true",
                       help="machine-readable possibility list on stdout")
    p_out.set_defaults(fn=_cmd_outputs)

    p_check = sub.add_parser("check", help="analyze + explore a program")
    p_check.add_argument("file")
    p_check.add_argument("--max-runs", type=int, default=50_000)
    p_check.add_argument("--reduce", choices=("none", "sleep", "fingerprint",
                                              "sleep+fingerprint", "all"),
                         default="none",
                         help="exploration reductions (default: naive DFS)")
    p_check.add_argument("--workers", type=int, default=0,
                         help="parallel subtree exploration processes")
    p_check.add_argument("--progress", action="store_true",
                         help="stream live exploration stats to stderr")
    p_check.add_argument("--progress-every", type=int, default=200,
                         help="runs between progress lines (default 200)")
    p_check.set_defaults(fn=_cmd_check)

    p_trace = sub.add_parser(
        "trace", help="export one run of a kernel problem as a trace file")
    p_trace.add_argument("problem",
                         help="problem name (see repro.problems)")
    p_trace.add_argument("--out", required=True,
                         help="output file path ('-' for stdout)")
    p_trace.add_argument("--format", choices=("chrome", "jsonl"),
                         default="chrome",
                         help="chrome trace_event JSON (default) or JSONL")
    p_trace.add_argument("--seed", type=int, default=None,
                         help="random schedule seed (default: fair RR)")
    p_trace.add_argument("--scale", type=int, default=10,
                         help="microseconds per logical step (chrome)")
    p_trace.set_defaults(fn=_cmd_trace)

    p_stats = sub.add_parser(
        "stats", help="run a kernel problem and report kernel metrics")
    p_stats.add_argument("problem",
                         help="problem name (see repro.problems)")
    p_stats.add_argument("--seed", type=int, default=None,
                         help="random schedule seed (default: fair RR)")
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable snapshot on stdout")
    p_stats.add_argument("--explore", action="store_true",
                         help="also explore the schedule space (reduced)")
    p_stats.add_argument("--max-runs", type=int, default=20_000,
                         help="exploration budget for --explore")
    p_stats.add_argument("--out", default="-",
                         help="report destination (default '-': stdout)")
    p_stats.set_defaults(fn=_cmd_stats)

    p_mon = sub.add_parser(
        "monitor", help="watch a kernel problem with the hazard monitors")
    p_mon.add_argument("problem",
                       help="problem name (see repro.problems; "
                            "'bug:<id>' for gallery bugs)")
    p_mon.add_argument("--explore", action="store_true",
                       help="monitor every schedule, not just one run")
    p_mon.add_argument("--seed", type=int, default=None,
                       help="random schedule seed for the single run")
    p_mon.add_argument("--max-runs", type=int, default=20_000,
                       help="exploration budget for --explore")
    p_mon.add_argument("--json", action="store_true",
                       help="machine-readable hazard list on stdout")
    p_mon.set_defaults(fn=_cmd_monitor)

    p_exp = sub.add_parser(
        "explain", help="minimize and explain a violating schedule")
    p_exp.add_argument("problem",
                       help="problem name (see repro.problems; "
                            "'bug:<id>' for gallery bugs)")
    p_exp.add_argument("--out", default="-",
                       help="report destination (default '-': stdout)")
    p_exp.add_argument("--html", action="store_true",
                       help="self-contained HTML report instead of text")
    p_exp.add_argument("--max-runs", type=int, default=20_000,
                       help="exploration budget for the violation hunt")
    p_exp.set_defaults(fn=_cmd_explain)

    p_proto = sub.add_parser(
        "protocol", help="session-typed conformance: list the "
                         "gallery's protocol specs or check a program "
                         "against one online")
    proto_sub = p_proto.add_subparsers(dest="action", required=True)
    p_plist = proto_sub.add_parser(
        "list", help="print the bug gallery's protocol registry")
    p_plist.add_argument("--json", action="store_true",
                         help="machine-readable registry on stdout")
    p_plist.set_defaults(fn=_cmd_protocol_list)
    p_pcheck = proto_sub.add_parser(
        "check", help="explore a program with a conformance monitor "
                      "attached; exit non-zero on violation")
    p_pcheck.add_argument("target",
                          help="problem name (see repro.problems) or "
                               "'bug:<id>' for gallery specimens")
    p_pcheck.add_argument("--spec", default=None,
                          help="protocol mini-language text, e.g. "
                               "'(REQ -> (REPLY | ERR))*' (default: "
                               "the gallery entry's bundled spec)")
    p_pcheck.add_argument("--parties", default=None,
                          help="comma-separated mailbox/channel/actor "
                               "names the spec governs (default: any)")
    p_pcheck.add_argument("--at", choices=("deliver", "send"),
                          default="deliver",
                          help="observation point for --spec "
                               "(default: deliver order)")
    p_pcheck.add_argument("--name", default="cli",
                          help="protocol name used in hazard messages")
    p_pcheck.add_argument("--fixed", action="store_true",
                          help="for bug:<id>: check the corrected twin "
                               "(expected to conform)")
    p_pcheck.add_argument("--max-runs", type=int, default=20_000,
                          help="exploration budget (default 20000)")
    p_pcheck.add_argument("--limit", type=int, default=10,
                          help="hazards to print before eliding "
                               "(default 10; 0 = all)")
    p_pcheck.add_argument("--json", action="store_true",
                          help="machine-readable verdict on stdout")
    p_pcheck.set_defaults(fn=_cmd_protocol_check)

    from .cluster.cli import add_cluster_commands
    add_cluster_commands(sub)

    from .sim.cli import add_sim_commands
    add_sim_commands(sub)

    p_top = sub.add_parser(
        "top", help="live cluster dashboard from the telemetry plane "
                    "(per-node throughput, mailbox depth, stalls, p95 "
                    "latency, firing SLO alerts)")
    from .cluster.cli import _address
    p_top.add_argument("--connect", type=_address, default=None,
                       metavar="HOST:PORT",
                       help="address of a node serving with --telemetry")
    p_top.add_argument("--peer", default="worker",
                       help="node name of the serving node "
                            "(default: worker)")
    p_top.add_argument("--serializer", choices=("json", "pickle"),
                       default="json",
                       help="wire format (must match the server)")
    p_top.add_argument("--timeout", type=float, default=5.0,
                       help="per-poll STATUS timeout (seconds)")
    p_top.add_argument("--demo", action="store_true",
                       help="run against a self-contained in-process "
                            "two-node pingpong cluster instead of "
                            "connecting anywhere")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="refresh period in seconds (default 1.0)")
    p_top.add_argument("--once", action="store_true",
                       help="render a single frame and exit")
    p_top.add_argument("--json", action="store_true",
                       help="emit raw aggregator snapshots as JSON lines "
                            "instead of the ANSI table")
    p_top.add_argument("--for", dest="duration", type=float, default=None,
                       metavar="SECS",
                       help="stop after this many seconds (default: "
                            "until Ctrl-C)")
    p_top.add_argument("--requests", action="store_true",
                       help="with --demo: causally trace one probe "
                            "request per refresh and render a "
                            "per-request critical-path drill-down")
    p_top.set_defaults(fn=_cmd_top)

    p_crit = sub.add_parser(
        "critical", help="causal critical-path report: where each "
                         "traced request's latency went, by segment")
    p_crit.add_argument("--cell", choices=("bridge", "pingpong"),
                        default="bridge",
                        help="traced cluster demo cell (default bridge)")
    p_crit.add_argument("--requests", type=int, default=10,
                        help="traced requests to run (default 10)")
    p_crit.add_argument("--workers", type=int, default=4,
                        help="actor-system workers (default 4)")
    p_crit.add_argument("--scale", type=int, default=8,
                        help="per-request workload scale (default 8)")
    p_crit.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    p_crit.add_argument("--out", default="-",
                        help="report destination (default '-': stdout)")
    p_crit.add_argument("--trace-out", default=None,
                        help="also write the raw causal spans as a "
                             "Chrome trace (request_id in args)")
    p_crit.set_defaults(fn=_cmd_critical)

    p_wi = sub.add_parser(
        "whatif", help="Coz-style what-if: predict the end-to-end win "
                       "of speeding one segment up, and rank all of "
                       "them")
    p_wi.add_argument("--cell", choices=("bridge", "pingpong"),
                      default="bridge",
                      help="traced cluster demo cell (default bridge)")
    p_wi.add_argument("--segment", default=None,
                      help="segment to speed up (e.g. mailbox-wait; "
                           "omit for the ranking alone)")
    p_wi.add_argument("--speedup", default="20%",
                      help="virtual speedup: '20%%' or '0.2' "
                           "(default 20%%)")
    p_wi.add_argument("--requests", type=int, default=10,
                      help="traced requests to run (default 10)")
    p_wi.add_argument("--workers", type=int, default=4,
                      help="actor-system workers (default 4)")
    p_wi.add_argument("--scale", type=int, default=8,
                      help="per-request workload scale (default 8)")
    p_wi.add_argument("--json", action="store_true",
                      help="machine-readable report on stdout")
    p_wi.add_argument("--out", default="-",
                      help="report destination (default '-': stdout)")
    p_wi.set_defaults(fn=_cmd_whatif)

    p_pm = sub.add_parser(
        "postmortem", help="inspect flight-recorder postmortem bundles "
                           "dumped by a telemetry agent")
    p_pm.add_argument("bundle", nargs="?", default=None,
                      help="bundle file name, path, or 'latest' "
                           "(omit to list all bundles in --dir)")
    p_pm.add_argument("--dir", default="postmortems",
                      help="bundle directory (the serve node's "
                           "--postmortem-dir; default: postmortems)")
    p_pm.add_argument("--json", action="store_true",
                      help="dump the full bundle as JSON instead of the "
                           "narrative")
    p_pm.add_argument("--trace-out", default=None,
                      help="also write the bundle's merged cross-node "
                           "Chrome trace to this file")
    p_pm.set_defaults(fn=_cmd_postmortem)

    p_study = sub.add_parser("study", help="run the full §V study")
    p_study.add_argument("--seed", type=int, default=None)
    p_study.set_defaults(fn=_cmd_study)

    p_fig = sub.add_parser("figures", help="verify figure examples")
    p_fig.set_defaults(fn=_cmd_figures)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
