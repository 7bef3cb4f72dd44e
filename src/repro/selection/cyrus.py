"""CYRUS's download selector — the paper's Algorithm 1.

For each chunk in order (the *online* property: chunk 1's CSPs are
decided — and its downloads can start — before later chunks are even
considered):

1. solve the fractional relaxation with earlier chunks' selections
   fixed (paper line 2);
2. fix the bandwidths from that solution (line 3; here the closed-form
   optimal allocation);
3. choose an integral t-subset for the current chunk minimising the
   predicted bottleneck given fixed loads plus the fractional remainder
   (lines 4-5: the single-chunk integer program — C variables — solved
   exactly by enumeration, or greedily for very wide problems);
4. fix the selection (line 6) and continue.

Re-solving the relaxation for *every* chunk is the paper's letter and
the default (``resolve_every=1``); a larger ``resolve_every`` lets big
batches amortise it with negligible loss (the ablation benchmark
quantifies this; the downloader passes 4).  The last unfixed chunk has
no fractional remainder beside it, so it is rounded against the fixed
loads alone and a one-chunk download solves nothing.
"""

from __future__ import annotations

import itertools
import math

from repro.errors import SelectionError
from repro.selection.bandwidth import optimal_bandwidth_allocation
from repro.selection.problem import (
    ChunkDownload,
    DownloadProblem,
    SelectionPlan,
    evaluate_plan,
)
from repro.selection.relaxation import (
    FractionalSolution,
    solve_fractional_alternating,
    solve_fractional_convexified,
)


class CyrusSelector:
    """Algorithm 1: online convexify-relax-round CSP selection.

    Args:
        resolve_every: Re-solve the fractional relaxation after this
            many chunk fixings (1 = the paper's exact schedule).
        enumeration_limit: Max t-subsets to enumerate exactly per chunk;
            wider choices fall back to greedy marginal-cost picking.
        relaxation: ``"alternating"`` (default) or ``"convexified"``
            (the paper's D-hat construction via SLSQP).
        order: ``"given"`` keeps the caller's chunk order (the paper's
            r = 1..R); ``"largest-first"`` fixes big chunks first, which
            slightly helps very heterogeneous batches.
    """

    name = "cyrus"

    def __init__(
        self,
        resolve_every: int = 1,
        enumeration_limit: int = 512,
        relaxation: str = "alternating",
        order: str = "given",
    ):
        if resolve_every < 1:
            raise ValueError("resolve_every must be >= 1")
        if relaxation not in ("alternating", "convexified"):
            raise ValueError(f"unknown relaxation {relaxation!r}")
        if order not in ("given", "largest-first"):
            raise ValueError(f"unknown order {order!r}")
        self.resolve_every = resolve_every
        self.enumeration_limit = enumeration_limit
        self.relaxation = relaxation
        self.order = order

    # ------------------------------------------------------------------

    def _solve_fractional(
        self,
        problem: DownloadProblem,
        fixed_loads: dict[str, float],
        fixed_chunks: set[str],
    ) -> FractionalSolution:
        if self.relaxation == "convexified":
            return solve_fractional_convexified(
                problem, fixed_loads=fixed_loads, fixed_chunks=fixed_chunks
            )
        return solve_fractional_alternating(
            problem, fixed_loads=fixed_loads, fixed_chunks=fixed_chunks
        )

    def _pick_integral(
        self,
        chunk: ChunkDownload,
        t: int,
        base_loads: dict[str, float],
        link_caps: dict[str, float],
        client_cap: float,
    ) -> tuple[str, ...]:
        """Best t-subset for one chunk against background loads."""
        usable = [c for c in chunk.available if link_caps.get(c, 0.0) > 0]
        if len(usable) < t:
            raise SelectionError(
                f"chunk {chunk.chunk_id}: {len(usable)} usable CSPs < t={t}"
            )
        n_combos = math.comb(len(usable), t)
        if n_combos <= self.enumeration_limit:
            best_y = math.inf
            best: tuple[str, ...] | None = None
            for combo in itertools.combinations(sorted(usable), t):
                trial = dict(base_loads)
                for c in combo:
                    trial[c] = trial.get(c, 0.0) + chunk.share_size
                y, _ = optimal_bandwidth_allocation(trial, link_caps, client_cap)
                if y < best_y - 1e-12:
                    best_y = y
                    best = combo
            assert best is not None
            return best
        # greedy: repeatedly add the CSP with least marginal bottleneck
        chosen: list[str] = []
        trial = dict(base_loads)
        remaining = sorted(usable)
        for _ in range(t):
            best_y = math.inf
            best_c = remaining[0]
            for c in remaining:
                probe = dict(trial)
                probe[c] = probe.get(c, 0.0) + chunk.share_size
                y, _ = optimal_bandwidth_allocation(probe, link_caps, client_cap)
                if y < best_y - 1e-12:
                    best_y = y
                    best_c = c
            chosen.append(best_c)
            remaining.remove(best_c)
            trial[best_c] = trial.get(best_c, 0.0) + chunk.share_size
        return tuple(chosen)

    # ------------------------------------------------------------------

    def select(self, problem: DownloadProblem) -> SelectionPlan:
        """Assign t CSPs to every chunk; returns an evaluated plan."""
        link_caps = dict(problem.link_caps)
        chunk_order = list(problem.chunks)
        if self.order == "largest-first":
            chunk_order.sort(key=lambda ch: -ch.share_size)
        assignments: dict[str, tuple[str, ...]] = {}
        fixed_loads: dict[str, float] = {c: 0.0 for c in problem.csps}
        fixed_chunks: set[str] = set()
        since_resolve = self.resolve_every  # force solve on first chunk
        for position, chunk in enumerate(chunk_order):
            if position == len(chunk_order) - 1:
                # the only unfixed chunk: its background is exactly the
                # fixed loads, so there is nothing to solve
                d, loads = {}, dict(fixed_loads)
            elif since_resolve >= self.resolve_every:
                fractional = self._solve_fractional(
                    problem, fixed_loads, fixed_chunks
                )
                d, loads = fractional.d, fractional.loads
                since_resolve = 0
            # background: fixed loads + fractional loads of *other* chunks
            # (clamped: round-off can leave ~1e-9 negative residues)
            for csp, frac in d.pop(chunk.chunk_id, {}).items():
                loads[csp] = max(0.0, loads[csp] - chunk.share_size * frac)
            chosen = self._pick_integral(
                chunk, problem.t, loads, link_caps, problem.client_cap
            )
            assignments[chunk.chunk_id] = chosen
            fixed_chunks.add(chunk.chunk_id)
            # fold the decision into the working loads so later chunks
            # (before the next re-solve) see it
            for c in chosen:
                fixed_loads[c] += chunk.share_size
                loads[c] += chunk.share_size
            since_resolve += 1
        plan = SelectionPlan(assignments=assignments)
        evaluate_plan(problem, plan)
        return plan
