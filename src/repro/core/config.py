"""Client configuration: the user's privacy/reliability/latency dials.

Paper Section 4.2: the user picks the privacy threshold ``t`` directly
(t = 2 already denies any single CSP access to the data) and either a
share count ``n`` or a failure bound ``epsilon`` from which the minimum
``n`` is planned via Equation (1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.chunking.cdc import size_error
from repro.errors import ConfigurationError
from repro.reliability.planner import minimum_shares


@dataclass(frozen=True)
class CyrusConfig:
    """All user-tunable parameters.

    Attributes:
        key: The user's key string; drives both the dispersal matrix
            (decoding shares requires it, Section 7.1) and nothing else
            — losing it means losing the data, like any encryption key.
        t: Privacy threshold — shares (and hence CSPs) needed to
            reconstruct any chunk.  Must be >= 2 for privacy.
        n: Shares per chunk; None means "plan from epsilon".
        epsilon: Acceptable chunk-loss probability; used when n is None.
        csp_failure_prob: Per-CSP failure probability fed to Eq. (1)
            (conservatively the worst observed value, footnote 6).
        meta_t: Threshold for the (t, m) metadata sharing.
        chunk_min/chunk_avg/chunk_max: Content-defined chunking sizes
            (paper's testbed averages 4 MB chunks, following Dropbox;
            the defaults here are scaled to the simulated workloads).
        respect_clusters: Place at most one share of a chunk per
            platform cluster (Section 4.1).
        parallelism: Worker threads for scatter/gather transfer; 1 (the
            default) runs every batch serially on the calling thread.
        max_inflight_per_csp: Concurrent in-flight operations allowed
            per provider when parallel; None means no per-CSP bound.
        max_inflight_total: Concurrent in-flight operations allowed
            across all providers; None means "equal to parallelism".
    """

    key: str
    t: int = 2
    n: int | None = 3
    epsilon: float | None = None
    csp_failure_prob: float = 1e-3
    meta_t: int = 2
    chunk_min: int = 64 * 1024
    chunk_avg: int = 256 * 1024
    chunk_max: int = 2 * 1024 * 1024
    respect_clusters: bool = True
    parallelism: int = 1
    max_inflight_per_csp: int | None = None
    max_inflight_total: int | None = None

    def __post_init__(self) -> None:
        if not self.key:
            raise ConfigurationError("key string must be non-empty")
        if self.t < 1:
            raise ConfigurationError(f"t must be >= 1, got {self.t}")
        if self.n is None and self.epsilon is None:
            raise ConfigurationError("must set n or epsilon")
        if self.n is not None and self.n < self.t:
            raise ConfigurationError(
                f"need n >= t, got (t, n) = ({self.t}, {self.n})"
            )
        if self.epsilon is not None and not 0 < self.epsilon < 1:
            raise ConfigurationError(f"epsilon must be in (0,1), got {self.epsilon}")
        problem = size_error(self.chunk_min, self.chunk_avg, self.chunk_max)
        if problem:
            raise ConfigurationError(
                f"chunk sizes (chunk_min, chunk_avg, chunk_max): {problem}"
            )
        if self.meta_t < 1:
            raise ConfigurationError(f"meta_t must be >= 1, got {self.meta_t}")
        if self.parallelism < 1:
            raise ConfigurationError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if self.max_inflight_per_csp is not None and self.max_inflight_per_csp < 1:
            raise ConfigurationError(
                f"max_inflight_per_csp must be >= 1, "
                f"got {self.max_inflight_per_csp}"
            )
        if self.max_inflight_total is not None and self.max_inflight_total < 1:
            raise ConfigurationError(
                f"max_inflight_total must be >= 1, "
                f"got {self.max_inflight_total}"
            )

    def plan_n(self, available_csps: int) -> int:
        """The share count to use given how many CSPs (or clusters) exist.

        A fixed ``n`` is capped at the CSP count; an epsilon-driven
        config runs the Eq. (1) search.
        """
        if available_csps < self.t:
            raise ConfigurationError(
                f"only {available_csps} CSPs available, need t={self.t}"
            )
        if self.n is not None:
            return min(self.n, available_csps)
        return minimum_shares(
            self.t, self.csp_failure_prob, self.epsilon, available_csps
        )

    def with_params(self, **changes) -> "CyrusConfig":
        """A copy with some fields replaced (configs are immutable)."""
        return replace(self, **changes)
