"""The simulated clock — one virtual time source for a whole world.

A :class:`SimClock` is a plain callable returning virtual seconds, so
it plugs straight into every clock seam the runtime already has:
``ClusterNode(clock=..., wall=...)``, ``CreditGate(clock=...)`` and
``repro.obs.wall_clock``.  Time only moves when the simulation
driver says so (:meth:`advance_to`), which is what makes retry
backoff, heartbeat cadence and failure-detector thresholds schedulable
decisions instead of wall-time races.
"""

from __future__ import annotations

__all__ = ["SimClock"]


class SimClock:
    """Monotonic virtual clock; starts at ``start`` virtual seconds."""

    __slots__ = ("t",)

    def __init__(self, start: float = 0.0):
        self.t = float(start)

    def __call__(self) -> float:
        return self.t

    def now(self) -> float:
        return self.t

    def advance_to(self, t: float) -> None:
        """Jump forward to virtual time ``t`` (never backward)."""
        if t > self.t:
            self.t = float(t)

    def advance(self, dt: float) -> None:
        if dt > 0:
            self.t += float(dt)

    def __repr__(self) -> str:
        return f"SimClock(t={self.t:.6f})"
