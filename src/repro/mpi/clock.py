"""Per-rank virtual clocks and communication statistics.

Each simulated rank owns a :class:`VirtualClock`.  Compute is charged
explicitly by the application (via :meth:`VirtualClock.advance`); the
point-to-point layer stamps messages with the sender's departure time and
the receiver synchronizes to ``max(own, depart + latency + nbytes * G)``.
Because ranks only interact through message passing, this is a conservative
parallel-discrete-event simulation: virtual times are exact for the modeled
machine regardless of host thread scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ClockStats:
    """Aggregate counters maintained alongside the virtual time."""

    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    idle_seconds: float = 0.0
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def merge(self, other: "ClockStats") -> None:
        self.compute_seconds += other.compute_seconds
        self.comm_seconds += other.comm_seconds
        self.idle_seconds += other.idle_seconds
        self.messages_sent += other.messages_sent
        self.messages_received += other.messages_received
        self.bytes_sent += other.bytes_sent
        self.bytes_received += other.bytes_received


@dataclass
class VirtualClock:
    """Monotonic per-rank virtual time in seconds."""

    now: float = 0.0
    stats: ClockStats = field(default_factory=ClockStats)

    def advance(self, seconds: float, *, kind: str = "compute") -> float:
        """Advance the clock by ``seconds`` and return the new time.

        ``kind`` selects which statistic bucket accumulates the interval:
        ``"compute"``, ``"comm"`` or ``"idle"``.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self.now += seconds
        if kind == "compute":
            self.stats.compute_seconds += seconds
        elif kind == "comm":
            self.stats.comm_seconds += seconds
        elif kind == "idle":
            self.stats.idle_seconds += seconds
        else:  # pragma: no cover - programming error
            raise ValueError(f"unknown clock interval kind {kind!r}")
        return self.now

    def sync_to(self, t: float, *, kind: str = "comm") -> float:
        """Move the clock forward to ``t`` if ``t`` is in the future.

        Used when a receive completes: the receiver may have been idle
        waiting for data that departed later than its own clock.
        """
        if t > self.now:
            self.advance(t - self.now, kind=kind)
        return self.now
