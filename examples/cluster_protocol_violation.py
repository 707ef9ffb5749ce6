#!/usr/bin/env python
"""A session-type violation crossing real sockets, caught live.

The client node pins a conversation contract on its wire traffic:

    boot = INIT -> WORK*        (checked at the send point)

and talks to a worker actor hosted in a *real subprocess* over the
socket transport.  The conforming prefix is silent; the moment the
client re-sends ``INIT`` mid-session, its ``tell`` flags a
``protocol-violation`` hazard on the sending thread, the attached
telemetry agent treats it as an incident, and a flight-recorder
postmortem bundle, built on a borrowed thread, lands on disk — the
same artifact ``repro postmortem`` inspects.

    python examples/cluster_protocol_violation.py
    python examples/cluster_protocol_violation.py --out my-artifacts

Exits non-zero if the violation is not caught or the bundle is not
written, so CI can use it as a cross-process smoke test.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.cluster import (
    ClusterConfig,
    ClusterNode,
    PickleSerializer,
    SocketTransport,
    cluster_bus,
)
from repro.cluster.demo import spawn_worker
from repro.obs import Protocol
from repro.obs.telemetry import TelemetryAgent

BOOT = Protocol("boot", "INIT -> WORK*", parties=("worker",), at="send")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="cluster-artifacts",
                    help="directory for the postmortem bundle")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    proc, port = spawn_worker(name="svc")
    bus = cluster_bus(protocols=[BOOT])
    client = ClusterNode("client",
                         SocketTransport("client", listen=False),
                         serializer=PickleSerializer(),
                         config=ClusterConfig(telemetry_interval=0.2),
                         monitors=bus)
    agent = TelemetryAgent(postmortem_dir=str(out)).attach(client)
    try:
        client.connect("svc", ("127.0.0.1", port))
        worker = client.spawn_remote("svc", "cluster-echo", "worker")

        worker.tell(("init", 0))           # the conforming prefix...
        for k in range(5):
            worker.tell(("work", k))
        client.drain()
        if bus.hazards:
            print("unexpected hazards on the conforming prefix:",
                  bus.hazards, file=sys.stderr)
            return 1
        print("conforming prefix: 6 messages over the socket, silent")

        worker.tell(("init", 99))          # ...then INIT mid-session
        client.drain()

        flagged = [h for h in bus.hazards
                   if h.kind == "protocol-violation"]
        if not flagged:
            print("the violation went unflagged", file=sys.stderr)
            return 1
        hz = flagged[0]
        print(f"flagged: [{hz.severity}] {hz.subject}: {hz.message}")

        # the bundle is built on a borrowed thread; its "path" key is
        # set once the file is written and closed
        deadline = time.monotonic() + 5.0
        written = None
        while written is None and time.monotonic() < deadline:
            written = next((b["path"] for b in agent.postmortems
                            if b["kind"] == "protocol-violation"
                            and "path" in b), None)
            time.sleep(0.05)
        if written is None:
            print("no protocol postmortem bundle written",
                  file=sys.stderr)
            return 1
        pm = json.loads(Path(written).read_text())
        bundles = sorted(out.glob("pm-*.json"))
        print(f"postmortem bundle: kind={pm['kind']} "
              f"subject={pm['detail']['subject']} "
              f"({len(bundles)} bundle(s) in {out})")
        return 0
    finally:
        client.close()
        proc.terminate()
        proc.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
