"""Mailboxes — asynchronous message passing with pluggable delivery order.

The paper's message-passing pseudocode (Figure 5) specifies: "A send
statement is asynchronous, which means that the order in which messages
are received may differ from the order in which they were sent."  The
Actor-model section adds "two messages sent concurrently can arrive in
either order."

Which reorderings are possible is exactly a *delivery policy*:

* :data:`DeliveryPolicy.ARBITRARY` — any pending message may be the next
  delivered (the paper's stated semantics, and the ground truth for the
  Test-1 message-passing questions);
* :data:`DeliveryPolicy.PER_SENDER_FIFO` — messages from the same sender
  arrive in send order, different senders interleave freely (Erlang/Akka
  guarantee; also the paper's misconception-M5 "scenario 4" ruled out);
* :data:`DeliveryPolicy.FIFO` — global send-order delivery.  This is the
  faulty semantics of misconception M5 ("conflate message sending order
  with receiving order");
* :data:`DeliveryPolicy.CAUSAL` — delivery respects happens-before: a
  message is deliverable only if every causally-preceding pending
  message to the same mailbox has been delivered.

Tasks never call these methods directly; they yield
:class:`~repro.core.effects.Send` / :class:`~repro.core.effects.Receive`
and the scheduler drives the mailbox.  Each deliverable pending message
becomes one enabled transition, so the explorer enumerates all arrival
orders a policy admits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from .clock import VectorClock
from .errors import MailboxError

if TYPE_CHECKING:  # pragma: no cover
    from .task import Task

__all__ = ["DeliveryPolicy", "Envelope", "Mailbox"]


class DeliveryPolicy(enum.Enum):
    ARBITRARY = "arbitrary"
    PER_SENDER_FIFO = "per-sender-fifo"
    FIFO = "fifo"
    CAUSAL = "causal"


@dataclass(frozen=True)
class Envelope:
    """A message in flight: payload plus provenance and causal stamp."""

    message: Any
    sender_tid: int
    sender_name: str
    seq: int                      # deposit order within the run
    vclock: VectorClock = field(default_factory=VectorClock, compare=False)

    def __repr__(self) -> str:
        return f"<Envelope #{self.seq} {self.message!r} from {self.sender_name}>"


class Mailbox:
    """An unbounded multi-producer mailbox owned by (usually) one receiver."""

    def __init__(self, name: str,
                 policy: DeliveryPolicy = DeliveryPolicy.ARBITRARY):
        self.name = name
        self.policy = policy
        self.pending: list[Envelope] = []
        self.closed = False
        self.delivered_count = 0
        #: deepest the pending queue has ever been (observability)
        self.high_water = 0
        #: per-sender seq of the last *delivered* message (PER_SENDER_FIFO)
        self._last_delivered_per_sender: dict[int, int] = {}

    # -- scheduler protocol ---------------------------------------------------
    def _deposit(self, message: Any, sender: "Task", seq: int) -> Envelope:
        if self.closed:
            raise MailboxError(f"send to closed mailbox {self.name}")
        env = Envelope(
            message=message,
            sender_tid=sender.tid,
            sender_name=sender.name,
            seq=seq,
            vclock=sender.vclock if sender.vclock is not None else VectorClock(),
        )
        self.pending.append(env)
        if len(self.pending) > self.high_water:
            self.high_water = len(self.pending)
        return env

    def _deliverable(self, matcher: Optional[Callable[[Any], bool]]) -> list[int]:
        """Indices into ``pending`` that may be delivered next.

        The matcher (selective receive) filters acceptable payloads; the
        policy then restricts *which* acceptable message may come first.
        """
        acceptable = [i for i, env in enumerate(self.pending)
                      if matcher is None or matcher(env.message)]
        if not acceptable:
            return []
        if self.policy is DeliveryPolicy.ARBITRARY:
            return acceptable
        if self.policy is DeliveryPolicy.FIFO:
            # strictly oldest-acceptable-first (global send order)
            return acceptable[:1]
        if self.policy is DeliveryPolicy.PER_SENDER_FIFO:
            # oldest acceptable message of each sender
            seen: set[int] = set()
            out = []
            for i in acceptable:
                s = self.pending[i].sender_tid
                if s not in seen:
                    seen.add(s)
                    out.append(i)
            return out
        if self.policy is DeliveryPolicy.CAUSAL:
            out = []
            for i in acceptable:
                vi = self.pending[i].vclock
                # deliverable iff no other pending message happened-before it
                if not any(self.pending[j].vclock < vi
                           for j in range(len(self.pending)) if j != i):
                    out.append(i)
            return out
        raise MailboxError(f"unknown policy {self.policy!r}")  # pragma: no cover

    def _take(self, index: int) -> Envelope:
        env = self.pending.pop(index)
        self.delivered_count += 1
        self._last_delivered_per_sender[env.sender_tid] = env.seq
        return env

    # -- inspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.pending)

    def state_key(self) -> tuple:
        """Hashable kernel-visible state for scheduler fingerprints.

        Uses ``(sender tid, repr(message))`` pairs rather than envelope
        seqs: a seq records deposit order, so two schedules that reach
        the same pending set by different orders number it differently.
        """
        return ("mbox",
                tuple((env.sender_tid, repr(env.message))
                      for env in self.pending),
                self.delivered_count, self.closed)

    def peek_messages(self) -> list[Any]:
        return [env.message for env in self.pending]

    def close(self) -> None:
        self.closed = True

    def __repr__(self) -> str:
        return (f"<Mailbox {self.name} policy={self.policy.value} "
                f"pending={len(self.pending)}>")
