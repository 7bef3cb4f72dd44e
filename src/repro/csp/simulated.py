"""Simulated commercial CSP.

Combines an in-memory object store with the behaviours that matter to
CYRUS: a network link (consumed by the transfer engine), an account
quota, token-based authentication, and an outage schedule.  All failure
behaviour is surfaced through the same exceptions a real connector would
raise, so the client code above cannot tell the difference.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Sequence

from repro.csp.account import AuthToken, Credentials, issue_token
from repro.csp.base import BytesLike, CloudProvider, ObjectInfo
from repro.csp.memory import InMemoryCSP
from repro.errors import CSPAuthError, CSPQuotaExceededError, CSPUnavailableError
from repro.netsim.link import Link
from repro.util.clock import Clock, SimClock


class AvailabilitySchedule:
    """Outage intervals for one provider.

    ``intervals`` are non-overlapping ``(start, end)`` pairs during which
    the provider is down.  :meth:`from_annual_downtime` draws outage
    windows matching a given hours-per-year downtime figure — the model
    behind the paper's Figure 13, which uses real monitoring data showing
    1.37 to 18.53 hours of downtime per year [CloudSquare].
    """

    def __init__(self, intervals: Sequence[tuple[float, float]] = ()):
        cleaned = sorted((float(a), float(b)) for a, b in intervals)
        for (a1, b1), (a2, _) in zip(cleaned, cleaned[1:]):
            if a2 < b1:
                raise ValueError("outage intervals must not overlap")
        for a, b in cleaned:
            if b <= a:
                raise ValueError(f"empty outage interval ({a}, {b})")
        self._starts = [a for a, _ in cleaned]
        self._ends = [b for _, b in cleaned]

    @classmethod
    def always_up(cls) -> "AvailabilitySchedule":
        return cls(())

    @classmethod
    def from_annual_downtime(
        cls,
        hours_per_year: float,
        horizon_s: float,
        mean_outage_s: float = 3600.0,
        seed: int = 0,
    ) -> "AvailabilitySchedule":
        """Random outage windows totalling the right fraction of time.

        Outage count over the horizon is scaled from the annual figure;
        each outage has an exponential duration with the given mean.
        """
        if hours_per_year < 0:
            raise ValueError("downtime must be non-negative")
        year_s = 365.0 * 24 * 3600
        target_down = hours_per_year * 3600.0 * (horizon_s / year_s)
        rng = random.Random(seed)
        intervals: list[tuple[float, float]] = []
        total = 0.0
        guard = 0
        while total < target_down and guard < 10000:
            guard += 1
            duration = rng.expovariate(1.0 / mean_outage_s)
            duration = min(duration, target_down - total) or target_down - total
            start = rng.uniform(0, max(horizon_s - duration, 1.0))
            candidate = (start, start + duration)
            if any(a < candidate[1] and candidate[0] < b
                   for a, b in intervals):
                continue  # overlap; redraw
            intervals.append(candidate)
            total += duration
        return cls(intervals)

    def is_up(self, t: float) -> bool:
        """Whether the provider is reachable at time ``t``."""
        i = bisect.bisect_right(self._starts, t) - 1
        return not (i >= 0 and t < self._ends[i])

    def downtime(self, t0: float, t1: float) -> float:
        """Total seconds of outage inside [t0, t1]."""
        total = 0.0
        for a, b in zip(self._starts, self._ends):
            total += max(0.0, min(b, t1) - max(a, t0))
        return total

    def next_up(self, t: float) -> float:
        """Earliest time >= t at which the provider is reachable."""
        i = bisect.bisect_right(self._starts, t) - 1
        if i >= 0 and t < self._ends[i]:
            return self._ends[i]
        return t


class SimulatedCSP(CloudProvider):
    """A provider with link, quota, auth, outages, and vendor quirks.

    Args:
        csp_id: Provider identifier.
        link: Network path from the client (consumed by the transfer
            engine; the provider itself only exposes it).
        clock: Source of "now" for availability and token expiry; a
            fresh :class:`SimClock` by default.
        quota_bytes: Account capacity; uploads that would exceed it
            raise :class:`CSPQuotaExceededError`.
        availability: Outage schedule (always up by default).
        overwrite: Vendor file-handling style (see
            :class:`repro.csp.memory.InMemoryCSP`).
        require_auth: When True, every data operation demands a valid
            token from :meth:`authenticate` first.
        token_ttl: Token lifetime in seconds.
    """

    def __init__(
        self,
        csp_id: str,
        link: Link,
        clock: Clock | None = None,
        quota_bytes: float = math.inf,
        availability: AvailabilitySchedule | None = None,
        overwrite: bool = True,
        require_auth: bool = False,
        token_ttl: float = math.inf,
    ):
        super().__init__(csp_id)
        self.link = link
        self.clock = clock if clock is not None else SimClock()
        self.quota_bytes = quota_bytes
        self.availability = availability or AvailabilitySchedule.always_up()
        self.require_auth = require_auth
        self.token_ttl = token_ttl
        self._store = InMemoryCSP(csp_id, overwrite=overwrite)
        self._session: AuthToken | None = None

    # -- bookkeeping ----------------------------------------------------

    @property
    def stored_bytes(self) -> int:
        """Bytes currently stored (counts against the quota)."""
        return self._store.stored_bytes

    @property
    def object_count(self) -> int:
        return self._store.object_count

    def is_up(self, t: float | None = None) -> bool:
        """Reachability at time ``t`` (defaults to the provider clock)."""
        return self.availability.is_up(self.clock.now() if t is None else t)

    # -- guards ----------------------------------------------------------

    def _check_up(self) -> None:
        now = self.clock.now()
        if not self.availability.is_up(now):
            raise CSPUnavailableError(
                f"{self.csp_id} is down at t={now:.1f}", csp_id=self.csp_id
            )

    def _check_auth(self) -> None:
        if not self.require_auth:
            return
        now = self.clock.now()
        if self._session is None or not self._session.valid_at(now):
            raise CSPAuthError(
                f"no valid session with {self.csp_id}", csp_id=self.csp_id
            )

    # -- the five primitives ---------------------------------------------

    def authenticate(self, credentials: Credentials) -> AuthToken:
        self._check_up()
        token = issue_token(
            credentials,
            provider_secret=self.csp_id,
            now=self.clock.now(),
            ttl=self.token_ttl,
        )
        self._session = token
        return token

    def list(self, *, prefix: str = "") -> list[ObjectInfo]:
        """List stored objects whose names start with ``prefix``."""
        self._check_up()
        self._check_auth()
        return self._store.list(prefix=prefix)

    def upload(self, name: str, data: BytesLike) -> None:
        """Store ``data`` (any bytes-like object) under ``name``.

        The backing store's retention copy is the single
        materialisation; quota accounting uses the buffer length.
        """
        self._check_up()
        self._check_auth()
        replaced = 0
        if self._store.overwrite:
            replaced = self._store.object_size(name) or 0
        total = self._store.stored_bytes - replaced + len(data)
        if total > self.quota_bytes:
            raise CSPQuotaExceededError(
                f"{self.csp_id} quota exceeded "
                f"({total} > {self.quota_bytes})",
                csp_id=self.csp_id,
            )
        self._store.upload(name, data)

    def download(self, name: str) -> bytes:
        self._check_up()
        self._check_auth()
        return self._store.download(name)

    def delete(self, name: str) -> None:
        self._check_up()
        self._check_auth()
        self._store.delete(name)
