"""Channels — CSP-style communication built *on top of* the kernel.

Unlike :class:`~repro.core.mailbox.Mailbox` (a kernel primitive with its
own effects), channels are a library construct assembled from monitors —
deliberately, to demonstrate that the kernel's primitive set is
sufficient and to exercise the monitor under the model checker.

:class:`SimChannel` is a bounded blocking channel (capacity ≥ 1); it is
the bounded-buffer of the course's classic problem set.  Capacity 0
would require rendezvous; :class:`SimRendezvous` provides that
separately with an explicit two-phase handshake.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator

from .effects import Acquire, Effect, Notify, Release, Wait
from .monitor import SimMonitor

__all__ = ["SimChannel", "SimRendezvous", "ChannelClosed"]


class ChannelClosed(Exception):
    """Receive on a closed, drained channel (or send on a closed one)."""


class SimChannel:
    """Bounded blocking FIFO channel for simulated tasks.

    All methods returning generators must be driven with ``yield from``::

        yield from chan.put_gen(item)
        item = yield from chan.get_gen()
    """

    def __init__(self, capacity: int = 1, *, name: str):
        if capacity < 1:
            raise ValueError("capacity must be >= 1 (use SimRendezvous for 0)")
        self.name = name
        self.capacity = capacity
        self.monitor = SimMonitor(f"{self.name}.mon")
        self.buffer: deque[Any] = deque()
        self.closed = False

    # ------------------------------------------------------------------
    def put_gen(self, item: Any) -> Iterator[Effect]:
        """Block while full; deposit; wake everyone (Mesa broadcast)."""
        yield Acquire(self.monitor)
        try:
            while len(self.buffer) >= self.capacity and not self.closed:
                yield Wait(self.monitor)
            if self.closed:
                raise ChannelClosed(f"put on closed {self.name}")
            self.buffer.append(item)
            yield Notify(self.monitor, all=True)
        finally:
            yield Release(self.monitor)

    def get_gen(self) -> Iterator[Effect]:
        """Block while empty; remove; wake everyone.  Returns the item."""
        yield Acquire(self.monitor)
        try:
            while not self.buffer and not self.closed:
                yield Wait(self.monitor)
            if not self.buffer:
                raise ChannelClosed(f"get on closed drained {self.name}")
            item = self.buffer.popleft()
            yield Notify(self.monitor, all=True)
            return item
        finally:
            yield Release(self.monitor)

    def close_gen(self) -> Iterator[Effect]:
        """Close and wake all blocked parties so they can observe it."""
        yield Acquire(self.monitor)
        try:
            self.closed = True
            yield Notify(self.monitor, all=True)
        finally:
            yield Release(self.monitor)

    # -- inspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.buffer)

    def __repr__(self) -> str:
        return (f"<SimChannel {self.name} {len(self.buffer)}/{self.capacity}"
                f"{' closed' if self.closed else ''}>")


class SimRendezvous:
    """Unbuffered synchronous exchange point (CSP ``!``/``?``).

    A sender blocks until a receiver takes its item and vice versa; the
    hand-off is a happens-before edge in both directions (through the
    shared monitor).
    """

    _EMPTY = object()

    def __init__(self, name: str):
        self.name = name
        self.monitor = SimMonitor(f"{self.name}.mon")
        self._slot: Any = self._EMPTY
        self._taken = False

    def send_gen(self, item: Any) -> Iterator[Effect]:
        yield Acquire(self.monitor)
        try:
            # wait for the slot (one pending exchange at a time)
            while self._slot is not self._EMPTY:
                yield Wait(self.monitor)
            self._slot = item
            self._taken = False
            yield Notify(self.monitor, all=True)
            # wait until some receiver took this item
            while not self._taken:
                yield Wait(self.monitor)
            self._slot = self._EMPTY
            self._taken = False
            yield Notify(self.monitor, all=True)
        finally:
            yield Release(self.monitor)

    def recv_gen(self) -> Iterator[Effect]:
        yield Acquire(self.monitor)
        try:
            while self._slot is self._EMPTY or self._taken:
                yield Wait(self.monitor)
            item = self._slot
            self._taken = True
            yield Notify(self.monitor, all=True)
            return item
        finally:
            yield Release(self.monitor)

    def __repr__(self) -> str:
        state = "empty" if self._slot is self._EMPTY else "offering"
        return f"<SimRendezvous {self.name} {state}>"
