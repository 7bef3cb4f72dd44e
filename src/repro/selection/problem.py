"""The download-selection problem and plan containers.

Paper Section 4.3, equations (5)-(7): choose indicator variables
``d_{r,c}`` (download chunk r's share from CSP c) and per-CSP bandwidths
``beta_c`` to minimise the bottleneck completion time

    y = max_c ( sum_r b_r d_{r,c} / beta_c )

subject to exactly ``t`` selections per chunk, availability
(``d <= u``), per-CSP bandwidth caps, and the shared client cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Mapping, Sequence

from repro.errors import SelectionError
from repro.selection.bandwidth import optimal_bandwidth_allocation


@dataclass(frozen=True)
class ChunkDownload:
    """One chunk to fetch: its share size b_r and where shares live."""

    chunk_id: str
    share_size: int
    available: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.share_size < 0:
            raise ValueError("share_size must be non-negative")
        if len(set(self.available)) != len(self.available):
            raise ValueError(f"duplicate CSPs in availability for {self.chunk_id}")


@dataclass(frozen=True)
class DownloadProblem:
    """A batch of chunks to download with t shares each.

    Attributes:
        chunks: Chunks in download order.
        t: Shares required per chunk.
        link_caps: Per-CSP achievable bandwidth (beta-bar, bytes/s).
        client_cap: Client-wide download bandwidth (beta, bytes/s).
    """

    chunks: tuple[ChunkDownload, ...]
    t: int
    link_caps: Mapping[str, float]
    client_cap: float

    def __post_init__(self) -> None:
        if self.t < 1:
            raise SelectionError(f"t must be >= 1, got {self.t}")
        if self.client_cap <= 0:
            raise SelectionError("client_cap must be positive")
        for chunk in self.chunks:
            usable = [
                c
                for c in chunk.available
                if self.link_caps.get(c, 0.0) > 0
            ]
            if len(usable) < self.t:
                raise SelectionError(
                    f"chunk {chunk.chunk_id}: only {len(usable)} usable CSPs "
                    f"({usable}), need t={self.t}"
                )

    @cached_property
    def csps(self) -> list[str]:
        """All CSPs referenced by any chunk (sorted; computed once)."""
        seen: set[str] = set()
        for chunk in self.chunks:
            seen.update(chunk.available)
        return sorted(seen)


@dataclass
class SelectionPlan:
    """A concrete choice of t CSPs per chunk, plus bandwidth split.

    ``bottleneck_time`` is the model's predicted completion time (the
    objective y); the flow simulator reports the realised time.
    """

    assignments: dict[str, tuple[str, ...]]
    bandwidths: dict[str, float] = field(default_factory=dict)
    bottleneck_time: float = 0.0

    def loads(self, problem: DownloadProblem) -> dict[str, float]:
        """Per-CSP bytes downloaded under this plan."""
        out: dict[str, float] = {c: 0.0 for c in problem.csps}
        for chunk in problem.chunks:
            for csp in self.assignments[chunk.chunk_id]:
                out[csp] += chunk.share_size
        return out


def validate_plan(problem: DownloadProblem, plan: SelectionPlan) -> None:
    """Raise :class:`SelectionError` unless the plan is feasible."""
    for chunk in problem.chunks:
        chosen = plan.assignments.get(chunk.chunk_id)
        if chosen is None:
            raise SelectionError(f"plan misses chunk {chunk.chunk_id}")
        if len(chosen) != problem.t or len(set(chosen)) != problem.t:
            raise SelectionError(
                f"chunk {chunk.chunk_id}: need {problem.t} distinct CSPs, "
                f"got {chosen}"
            )
        bad = set(chosen) - set(chunk.available)
        if bad:
            raise SelectionError(
                f"chunk {chunk.chunk_id}: CSPs {sorted(bad)} hold no share"
            )


def evaluate_plan(
    problem: DownloadProblem, plan: SelectionPlan
) -> tuple[float, dict[str, float]]:
    """Objective value of a plan with *optimal* bandwidth allocation.

    Returns ``(y, bandwidths)`` — the bottleneck time achieved when the
    client splits its capacity optimally for the plan's loads, and that
    split.  Also stores both on the plan.
    """
    validate_plan(problem, plan)
    loads = plan.loads(problem)
    y, betas = optimal_bandwidth_allocation(
        loads, dict(problem.link_caps), problem.client_cap
    )
    plan.bottleneck_time = y
    plan.bandwidths = betas
    return y, betas


def restrict_to_live(
    problem: DownloadProblem, live: Collection[str]
) -> DownloadProblem:
    """Health-aware candidate filtering (Section 5.5 failure handling).

    Returns a copy of the problem with every CSP outside ``live``
    removed from chunk availability and from the link caps — breaker-
    open providers must not be selected even if the metadata still
    lists shares there.  Raises :class:`SelectionError` (via the
    problem's own validation) when filtering leaves some chunk with
    fewer than ``t`` candidates.
    """
    live = set(live)
    if set(problem.csps) <= live:
        return problem
    chunks = tuple(
        ChunkDownload(
            chunk_id=chunk.chunk_id,
            share_size=chunk.share_size,
            available=tuple(c for c in chunk.available if c in live),
        )
        for chunk in problem.chunks
    )
    caps = {c: cap for c, cap in problem.link_caps.items() if c in live}
    return DownloadProblem(
        chunks=chunks, t=problem.t, link_caps=caps,
        client_cap=problem.client_cap,
    )
