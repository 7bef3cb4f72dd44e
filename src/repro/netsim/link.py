"""Client<->CSP link model.

A link carries per-direction capacities (possibly time-varying) and a
request round-trip time.  Capacity here is the *per-connection
achievable* rate to that CSP — the paper's beta-bar upper bound in
Section 4.3 — while the client-wide uplink/downlink cap lives in the
simulator, since it is shared across links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.tcp import mathis_throughput
from repro.netsim.trace import RateTrace


@dataclass
class Link:
    """A simulated network path between the client and one CSP.

    Attributes:
        link_id: Identifier (normally the CSP id).
        rtt_s: Request round-trip time in seconds, charged once per
            transfer before data flows.
        up: Upload capacity trace (bytes/s).
        down: Download capacity trace (bytes/s).
    """

    link_id: str
    rtt_s: float
    up: RateTrace
    down: RateTrace = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.rtt_s < 0:
            raise ValueError(f"RTT must be non-negative, got {self.rtt_s}")
        if self.down is None:
            self.down = self.up

    @classmethod
    def symmetric(cls, link_id: str, rate: float, rtt_s: float = 0.0) -> "Link":
        """A constant-rate link with equal up and down capacity."""
        return cls(link_id, rtt_s, RateTrace.constant(rate))

    @classmethod
    def from_rtt(
        cls,
        link_id: str,
        rtt_ms: float,
        loss: float = 0.001,
        window: int = 65535,
    ) -> "Link":
        """Derive both capacities from RTT via the Table 2 TCP model."""
        rate = mathis_throughput(rtt_ms / 1000.0, loss=loss, window=window)
        return cls(link_id, rtt_ms / 1000.0, RateTrace.constant(rate))

    def capacity_at(self, t: float, direction: str) -> float:
        """Capacity (bytes/s) in the given direction at time ``t``."""
        return self._trace(direction).rate_at(t)

    def next_change_after(self, t: float, direction: str) -> float:
        """Next capacity breakpoint strictly after ``t`` (inf if none)."""
        return self._trace(direction).next_change_after(t)

    def _trace(self, direction: str) -> RateTrace:
        if direction == "up":
            return self.up
        if direction == "down":
            return self.down
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
