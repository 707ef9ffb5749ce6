"""``repro cluster`` verbs — serve, spawn, tell, status.

The serve verb turns the current process into one long-running cluster
node; every other verb is an *ephemeral client*: a listen-less node
that dials the target, does one thing, and exits.  That asymmetry is
deliberate — the HELLO handshake names connections in both directions,
so a client needs no port of its own.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import uuid
from typing import Any

__all__ = ["add_cluster_commands"]


def _address(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected host:port, got {spec!r}")
    return host, int(port)


def _client(args: argparse.Namespace) -> "Any":
    """An ephemeral (listen-less) node dialed into ``args.connect``.

    Each invocation gets a fresh node name by default: the server keys
    dedup watermarks and retry outboxes by peer name, so a second
    short-lived client reusing yesterday's name would have its frames
    silently deduplicated (acked but never delivered) and could receive
    stale retried replies addressed to its predecessor.
    """
    from .message import serializer
    from .node import ClusterNode
    from .transport import SocketTransport
    name = args.client_name or f"client-{uuid.uuid4().hex[:8]}"
    node = ClusterNode(
        name,
        SocketTransport(name, listen=False),
        serializer=serializer(args.serializer))
    node.connect(args.peer, args.connect)
    return node


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..obs.profile import Profiler
    from . import demo  # noqa: F401 - registers the demo actor types
    from .message import serializer
    from .node import ClusterNode
    from .transport import SocketTransport

    transport = SocketTransport(args.name, host=args.host, port=args.port)
    node = ClusterNode(args.name, transport,
                       serializer=serializer(args.serializer),
                       workers=args.workers, profiler=Profiler(),
                       trace=args.trace)
    if args.telemetry:
        from ..obs.telemetry import TelemetryAgent
        node.attach_telemetry(TelemetryAgent(
            postmortem_dir=args.postmortem_dir))
    if args.announce:
        # parseable one-liner for scripts (spawn_worker reads exactly this)
        print(f"PORT {transport.port}", flush=True)
    print(f"node {args.name!r} serving on {args.host}:{transport.port} "
          f"({args.serializer} wire format)", file=sys.stderr)

    stop = {"flag": False}

    def _stop(signum, frame):  # noqa: ARG001
        stop["flag"] = True

    signal.signal(signal.SIGTERM, _stop)
    try:
        while not stop["flag"]:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        # close() dumps a final "node-stop" postmortem bundle (with
        # --telemetry) before the transport goes away — the graceful
        # counterpart of the crash-triggered dumps
        node.close()
        if node.telemetry is not None and node.telemetry.postmortems:
            last = node.telemetry.postmortems[-1]
            if last.get("kind") == "node-stop":
                where = last.get("path", "(in memory)")
                print(f"node {args.name!r} stopped — final postmortem "
                      f"bundle: {where}", file=sys.stderr)
    return 0


def _cmd_spawn(args: argparse.Namespace) -> int:
    node = _client(args)
    try:
        ref = node.spawn_remote(args.peer, args.type, args.actor_name,
                                timeout=args.timeout)
        print(ref.path)
        return 0
    except (RuntimeError, TimeoutError) as exc:
        print(f"cluster spawn: {exc}", file=sys.stderr)
        return 1
    finally:
        node.close()


def _cmd_tell(args: argparse.Namespace) -> int:
    from .message import split_path
    node = _client(args)
    try:
        split_path(args.path)  # validate early, before any bytes move
        message = json.loads(args.message)
        node.ref(args.path).tell(message)
        # reliable delivery means acked-or-retried: give the ack a beat
        deadline = time.monotonic() + args.timeout
        while time.monotonic() < deadline:
            if not node.status()["unacked"]:
                return 0
            time.sleep(0.02)
        print(f"cluster tell: no ack from {args.peer!r} within "
              f"{args.timeout}s (message may still be retried)",
              file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"cluster tell: {exc}", file=sys.stderr)
        return 1
    finally:
        node.close()


def _cmd_status(args: argparse.Namespace) -> int:
    from .observe import merge_chrome_traces
    node = _client(args)
    try:
        status = node.status_of(args.peer, timeout=args.timeout,
                                profile=args.profile,
                                trace=bool(args.trace_out))
        trace_events = status.pop("trace", None)
        status.pop("re", None)
        print(json.dumps(status, indent=2, sort_keys=True))
        if args.trace_out:
            merged = merge_chrome_traces({args.peer: trace_events or []})
            with open(args.trace_out, "w") as fh:
                json.dump(merged, fh, sort_keys=True)
            print(f"wrote {args.trace_out} "
                  f"({len(trace_events or [])} events)", file=sys.stderr)
        return 0
    except TimeoutError as exc:
        print(f"cluster status: {exc}", file=sys.stderr)
        return 1
    finally:
        node.close()


def add_cluster_commands(sub: Any) -> None:
    """Install the ``cluster`` subcommand tree on the main CLI."""
    p = sub.add_parser(
        "cluster", help="distributed actor runtime: serve a node, spawn "
                        "and message remote actors, fetch its status")
    csub = p.add_subparsers(dest="cluster_command", required=True)

    def client_flags(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("--connect", type=_address, required=True,
                        metavar="HOST:PORT",
                        help="address of a serving node")
        cp.add_argument("--peer", default="worker",
                        help="node name of the serving node "
                             "(default: worker)")
        cp.add_argument("--client-name", default=None,
                        help="this ephemeral client's node name "
                             "(default: a fresh unique name — reusing a "
                             "name would inherit the server's dedup/"
                             "retry state for it)")
        cp.add_argument("--serializer", choices=("json", "pickle"),
                        default="json",
                        help="wire format (must match the server)")
        cp.add_argument("--timeout", type=float, default=5.0)

    p_serve = csub.add_parser("serve", help="run one cluster node until "
                                            "SIGTERM/Ctrl-C")
    p_serve.add_argument("--name", default="worker",
                         help="this node's cluster name")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="listen port (0 = ephemeral)")
    p_serve.add_argument("--serializer", choices=("json", "pickle"),
                         default="json")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="dispatcher threads of the hosted "
                              "ActorSystem")
    p_serve.add_argument("--announce", action="store_true",
                         help="print 'PORT <n>' on stdout once bound")
    p_serve.add_argument("--trace", action="store_true",
                         help="record cluster trace events (served via "
                              "the status verb)")
    p_serve.add_argument("--telemetry", action="store_true",
                         help="attach a TelemetryAgent: stream metric "
                              "frames at heartbeat cadence, evaluate "
                              "SLOs, keep a flight recorder (feeds "
                              "`repro top` and `repro postmortem`)")
    p_serve.add_argument("--postmortem-dir", default=None,
                         help="directory for postmortem bundles dumped "
                              "on actor failure / peer DOWN / SLO burn "
                              "(with --telemetry)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_spawn = csub.add_parser("spawn",
                              help="spawn a registered actor type on a "
                                   "remote node")
    client_flags(p_spawn)
    p_spawn.add_argument("type", help="registered actor type name")
    p_spawn.add_argument("actor_name", help="name for the new actor")
    p_spawn.set_defaults(fn=_cmd_spawn)

    p_tell = csub.add_parser("tell", help="send one JSON message to a "
                                          "remote actor")
    client_flags(p_tell)
    p_tell.add_argument("path", help="target path, e.g. worker/echo-1")
    p_tell.add_argument("message", help="JSON-encoded message payload")
    p_tell.set_defaults(fn=_cmd_tell)

    p_status = csub.add_parser("status", help="fetch a serving node's "
                                              "status (+ profile/trace)")
    client_flags(p_status)
    p_status.add_argument("--profile", action="store_true",
                          help="include the node's profiler snapshot")
    p_status.add_argument("--trace-out", default=None,
                          help="also fetch the node's cluster trace and "
                               "write it as a Chrome trace file")
    p_status.set_defaults(fn=_cmd_status)
