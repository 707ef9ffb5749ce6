"""Worker process of the cluster workloads.

Started by the cluster workloads as ``python3 perfbench/worker.py
[--cpu C]``.  It hosts one :class:`~repro.cluster.node.ClusterNode`
named ``worker``, with :data:`perfbench.cluster.WORKERS` executor
workers like the node that sends the load, on a listening
:class:`~repro.cluster.transport.SocketTransport` with the pickle
serializer, announces ``PORT <n>`` on stdout, and serves until
its stdin closes — which also happens when the driver dies, so a
worker never outlives its driver.  It then closes the node and exits 0.

Remotely spawnable types: ``perfbench-echo`` bounces every message back
to its sender.  The ``probe`` actor answers the driver's control
messages: ``mark`` (process CPU, peak RSS, dead letters and, while
traced, the ledger, optionally reset) and ``trace`` (install or
uninstall the ledger).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench.common import cpu_s, ensure_src, peak_rss_mb  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    ensure_src()

    from repro.actors import Actor
    from repro.cluster import (ClusterNode, PickleSerializer,
                               SocketTransport, register_actor_type)
    from perfbench.cluster import WORKERS
    from perfbench.ledger import Ledger

    class Echo(Actor):
        def receive(self, message, sender):
            sender.tell(message, sender=self.self_ref)

    ledger = Ledger()

    class Probe(Actor):
        def __init__(self, node):
            super().__init__()
            self.node = node

        def receive(self, message, sender):
            op, token = message[0], message[1]
            if op == "mark":
                # usage now; with the ledger on, its stats since the
                # last mark that asked for a reset
                reply = {"cpu_s": cpu_s(), "peak_rss_mb": peak_rss_mb(),
                         "dead_letters": len(self.node.dead_letters()),
                         "ledger": ledger.snapshot() if ledger.installed
                         else None}
                if message[2]:
                    ledger.reset()
            elif op == "trace" and message[2]:
                ledger.reset()
                ledger.install()
                reply = True
            elif op == "trace":
                ledger.uninstall()
                reply = False
            else:
                reply = {"error": f"unknown probe op {op!r}"}
            sender.tell((token, reply), sender=self.self_ref)

    register_actor_type("perfbench-echo", Echo)
    node = ClusterNode("worker", SocketTransport("worker", port=0),
                       serializer=PickleSerializer(), workers=WORKERS)
    try:
        node.spawn(Probe, node, name="probe")
        sys.stdout.write(f"PORT {node.transport.port}\n")
        sys.stdout.flush()
        sys.stdin.read()              # EOF: the driver is done (or gone)
    finally:
        node.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
