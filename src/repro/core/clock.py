"""Logical time: Lamport clocks and vector clocks.

The paper grounds the Actor model in Lamport's "happened before" relation
(its reference [3]).  We implement both classic constructions:

* :class:`LamportClock` — scalar clocks giving a total order consistent
  with happens-before;
* :class:`VectorClock` — exact happens-before: ``a < b`` iff event ``a``
  causally precedes event ``b``.

The kernel stamps every task step; the race detector and the causal
mailbox policy consume the vector clocks.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["LamportClock", "VectorClock"]


class LamportClock:
    """Scalar logical clock (Lamport 1978).

    ``tick()`` for a local event, ``merge(other)`` on message receipt
    (takes max then ticks).
    """

    __slots__ = ("time",)

    def __init__(self, time: int = 0):
        self.time = time

    def tick(self) -> int:
        self.time += 1
        return self.time

    def merge(self, other_time: int) -> int:
        self.time = max(self.time, other_time) + 1
        return self.time

    def __repr__(self) -> str:
        return f"LamportClock({self.time})"


class VectorClock:
    """Immutable vector clock keyed by process/task id.

    Immutability keeps message stamps stable after send: senders attach
    ``self.vclock`` to the message and later ticks cannot retroactively
    alter it.
    """

    __slots__ = ("_v",)

    def __init__(self, entries: Mapping[int, int] | None = None):
        self._v: dict[int, int] = dict(entries or {})

    # -- construction ---------------------------------------------------
    def tick(self, pid: int) -> "VectorClock":
        """Return a new clock with ``pid``'s component incremented."""
        v = self._v.copy()
        v[pid] = v.get(pid, 0) + 1
        return _adopt(v)

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum — the receive rule (without the local tick)."""
        v = self._v.copy()
        for pid, t in other._v.items():
            if t > v.get(pid, 0):
                v[pid] = t
        return _adopt(v)

    # -- comparison (happens-before) -------------------------------------
    def __le__(self, other: "VectorClock") -> bool:
        return all(t <= other._v.get(pid, 0) for pid, t in self._v.items())

    def __lt__(self, other: "VectorClock") -> bool:
        """True iff self happened-before other (strictly)."""
        return self <= other and self._v != other._v

    def concurrent(self, other: "VectorClock") -> bool:
        """Neither happened before the other — Lamport-concurrent events."""
        return not (self <= other) and not (other <= self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        # missing components are implicit zeros
        keys = set(self._v) | set(other._v)
        return all(self._v.get(k, 0) == other._v.get(k, 0) for k in keys)

    def __hash__(self) -> int:
        return hash(frozenset((k, v) for k, v in self._v.items() if v))

    # -- access ----------------------------------------------------------
    def get(self, pid: int) -> int:
        return self._v.get(pid, 0)

    def components(self) -> Iterable[tuple[int, int]]:
        return sorted(self._v.items())

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(self._v.items()))
        return f"VC{{{inner}}}"


def _adopt(v: dict[int, int]) -> VectorClock:
    """Wrap a dict this module just built, without copying it again."""
    vc = object.__new__(VectorClock)
    vc._v = v
    return vc
