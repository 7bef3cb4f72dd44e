"""DepSky's write-lock protocol.

Paper Section 7.3: DepSky's upload "require[s] two round-trip
communications with CSPs to set lock files, preventing simultaneous
updates, and a random backoff time after setting the lock."  We model
the protocol's cost and its contention behaviour: a writer PUTs a lock
object at every CSP (round trip 1), LISTs lock objects to detect
competing writers (round trip 2), backs off a random interval, and
rechecks; on contention it releases and retries.  Any foreign lock
object is contention, as in DepSky's protocol.
"""

from __future__ import annotations

import random

from repro.core.transfer import OpKind, OpResult, TransferEngine, TransferOp
from repro.errors import ConflictError

#: Lock objects hold the writer id, padded to a fixed size.
_LOCK_SIZE = 64


class LockProtocol:
    """Acquire/release write locks across all CSPs.

    Args:
        engine: Transfer engine (timed or direct).
        csp_ids: Every CSP in the cloud-of-clouds.
        backoff_range: (lo, hi) seconds of random post-lock backoff.
        max_attempts: Contention retries before giving up.
        seed: Deterministic backoff draws for reproducible benches.
    """

    def __init__(
        self,
        engine: TransferEngine,
        csp_ids: list[str],
        backoff_range: tuple[float, float] = (0.5, 1.0),
        max_attempts: int = 5,
        seed: int = 0,
    ):
        self.engine = engine
        self.csp_ids = list(csp_ids)
        self.backoff_range = backoff_range
        self.max_attempts = max_attempts
        self._rng = random.Random(seed)

    def _lock_name(self, object_key: str, writer_id: str) -> str:
        return f"ds-lock-{object_key}-{writer_id}"

    def acquire(self, object_key: str, writer_id: str) -> list[OpResult]:
        """Two round trips + backoff; raises ConflictError on contention."""
        results: list[OpResult] = []
        for _attempt in range(self.max_attempts):
            # round trip 1: place our lock at every CSP
            put_ops = [
                TransferOp(
                    kind=OpKind.PUT,
                    csp_id=csp,
                    name=self._lock_name(object_key, writer_id),
                    data=writer_id.encode("utf-8").ljust(_LOCK_SIZE, b"\0"),
                )
                for csp in self.csp_ids
            ]
            results.extend(self.engine.execute(put_ops))
            # random backoff after setting the lock
            backoff = self._rng.uniform(*self.backoff_range)
            self._advance(backoff)
            # round trip 2: list locks to detect competing writers
            prefix = f"ds-lock-{object_key}-"
            contended = False
            for csp in self.csp_ids:
                try:
                    infos = self.engine.provider(csp).list(prefix=prefix)
                except Exception:  # provider down: can't see contention there
                    continue
                if any(info.name[len(prefix):] != writer_id for info in infos):
                    contended = True
            # the listing itself costs one RTT per CSP (zero-byte GETs)
            probe_ops = [
                TransferOp(kind=OpKind.GET, csp_id=csp,
                           name=self._lock_name(object_key, writer_id), size=_LOCK_SIZE)
                for csp in self.csp_ids
            ]
            results.extend(self.engine.execute(probe_ops))
            if not contended:
                return results
            self.release(object_key, writer_id)
            self._advance(self._rng.uniform(*self.backoff_range))
        raise ConflictError(
            f"DepSky lock on {object_key!r} contended after "
            f"{self.max_attempts} attempts"
        )

    def release(self, object_key: str, writer_id: str) -> None:
        """Remove our lock objects (best effort)."""
        ops = [
            TransferOp(
                kind=OpKind.DELETE,
                csp_id=csp,
                name=self._lock_name(object_key, writer_id),
            )
            for csp in self.csp_ids
        ]
        self.engine.execute(ops)

    def _advance(self, seconds: float) -> None:
        clock = self.engine.clock
        advance = getattr(clock, "advance", None)
        if callable(advance):
            advance(seconds)
        # wall clocks simply wait zero time in tests; the backoff cost is
        # what the simulation measures
