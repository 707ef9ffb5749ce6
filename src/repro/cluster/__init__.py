"""repro.cluster — distributed actor runtime across process boundaries.

One :class:`ClusterNode` per process: a local
:class:`~repro.actors.system.ActorSystem` joined to its peers by a
frame transport (in-process :class:`LoopbackTransport` for
deterministic tests, length-prefixed TCP :class:`SocketTransport` for
real multi-core runs).  On top of the transport the node layers
at-least-once retry delivery with receiver dedup (exactly-once at the
actor), credit-based backpressure with bounded remote mailboxes, a
heartbeat failure detector, and cross-node supervision — see
``docs/ARCHITECTURE.md`` ("Cluster") for the full contract.
"""

from .delivery import CreditGate, DedupTable, Outbox, RetryPolicy
from .message import (ACK, CREDIT, HEARTBEAT, HELLO, RELIABLE_KINDS, REPLY,
                      SIGNAL, SPAWN, STATUS, TELL, WATCH, Envelope,
                      JsonSerializer, PickleSerializer, Serializer,
                      make_path, serializer, split_path)
from .node import (ActorSignal, ClusterConfig, ClusterNode, PeerState,
                   RemoteRef, actor_type, actor_type_names,
                   register_actor_type)
from .observe import (ClusterEvent, ClusterSaturationDetector,
                      SuspectLossDetector, cluster_bus, cluster_detectors,
                      merge_chrome_traces, merge_profiles)
from .transport import (FrameDecoder, LoopbackHub, LoopbackTransport,
                        SocketTransport, encode_frame)

__all__ = [
    # node
    "ClusterNode", "ClusterConfig", "RemoteRef", "ActorSignal", "PeerState",
    "register_actor_type", "actor_type", "actor_type_names",
    # transports
    "LoopbackHub", "LoopbackTransport", "SocketTransport", "FrameDecoder",
    "encode_frame",
    # wire format
    "Envelope", "Serializer", "JsonSerializer", "PickleSerializer",
    "serializer", "make_path", "split_path", "RELIABLE_KINDS",
    "TELL", "ACK", "CREDIT", "HEARTBEAT", "HELLO", "SPAWN", "WATCH",
    "SIGNAL", "STATUS", "REPLY",
    # delivery guarantees
    "Outbox", "DedupTable", "CreditGate", "RetryPolicy",
    # observability
    "ClusterEvent", "ClusterSaturationDetector", "SuspectLossDetector",
    "cluster_detectors", "cluster_bus", "merge_profiles",
    "merge_chrome_traces",
]
