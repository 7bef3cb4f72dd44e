"""The shared share-transfer retry loop.

:class:`ShareRetryLoop` is the one place a share transfer is retried;
the round structure :class:`Uploader` and :class:`Downloader` share:

* execute the current round as one parallel batch;
* classify each failure — transient errors retry the *same* provider
  until the policy's per-provider budget runs out, permanent errors
  (and exhausted providers) fail over to a caller-chosen alternate;
* back off between rounds per the :class:`RetryPolicy` (advancing a
  SimClock exactly, sleeping a wall clock for real);
* record every try as an :class:`repro.errors.Attempt` so exhaustion
  errors can carry the full per-CSP history.

The callers keep what is genuinely theirs: how to build an op, what a
success means, and where alternate shares may live.  The loop judges
transport outcomes only: a payload that arrives is a success, and
checking what it holds is the caller's business (the downloader checks
each decoded chunk by id).
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, Sequence

from repro.core.transfer import OpKind, OpResult, TransferEngine, TransferOp
from repro.csp.resilient import HealthRegistry, RetryPolicy
from repro.errors import Attempt

# An item is one share transfer to drive to completion: (key, csp_id).
# The key identifies the share to the caller (e.g. (chunk_id, index)).
Item = tuple[Hashable, str]

#: Safety valve; the loop's budgets terminate it far earlier.
_MAX_ROUNDS = 1000


class ShareRetryLoop:
    """Round-based batch retry driver shared by upload and download.

    Args:
        engine: Executes each round's batch.
        policy: Backoff and per-provider attempt budget.
        health: Optional shared registry; the loop reports it to
            ``pick_alternate`` callers via :meth:`alternate_is_live` and
            leaves outcome recording to the engine (which sees every
            dispatch, including non-loop ones).
    """

    def __init__(
        self,
        engine: TransferEngine,
        policy: RetryPolicy | None = None,
        health: HealthRegistry | None = None,
    ):
        self.engine = engine
        self.policy = policy if policy is not None else RetryPolicy()
        self.health = health

    def alternate_is_live(self, csp_id: str) -> bool:
        """Health gate for alternate choice (True without a registry)."""
        return self.health is None or self.health.is_live(csp_id)

    def run(
        self,
        items: Sequence[Item],
        build_op: Callable[[Hashable, str], TransferOp],
        on_success: Callable[[Hashable, str, OpResult], None],
        on_giveup: Callable[[Hashable, str, OpResult], None],
        pick_alternate: Callable[[Hashable, str, set[str]], str | None],
    ) -> tuple[list[OpResult], dict[Hashable, list[Attempt]]]:
        """Drive every item to success or exhaustion.

        Args:
            items: Initial (key, csp) assignments.
            build_op: Materialise the op for one assignment.
            on_success: Called once per item that lands.
            on_giveup: Called when an item abandons a provider (after
                transient retries ran out or a permanent error) — the
                place to mark cloud state; an alternate may still be
                tried afterwards.
            pick_alternate: ``(key, failed_csp, tried) -> csp | None``;
                None drops the item (the caller's threshold check
                decides whether that is fatal).

        Each round is one engine batch, and every completion goes through
        one decision (``settle``).  A transient failure retries the same
        provider next round, after the policy's backoff.  A give-up fails
        over to the alternate: next round on a serial engine; at once on
        a parallel one, as a follow-up op inside the running batch, so a
        permanent error re-dispatches without waiting for stragglers.
        On a parallel engine ``settle`` runs on pool workers; one lock
        makes the caller's callbacks mutually exclusive, so pipeline
        state never needs its own cross-share coordination.

        Returns:
            ``(all op results, per-key attempt history)``.
        """
        stream = self.engine.parallel_enabled
        all_results: list[OpResult] = []
        attempts: dict[Hashable, list[Attempt]] = {key: [] for key, _ in items}
        tried: dict[Hashable, set[str]] = {key: {csp} for key, csp in items}
        per_csp_tries: dict[Item, int] = {}
        lock = threading.Lock()
        pending: list[Item] = list(items)
        for round_no in range(_MAX_ROUNDS):
            if not pending:
                break
            if round_no > 0:
                # all pending items are retries/failovers: back off once
                # per round (batched, like the dispatch itself)
                self.engine.sleep(self.policy.delay(round_no))
            deferred: list[Item] = []
            assign: dict[int, Item] = {}
            ops: list[TransferOp] = []
            for key, csp in pending:
                op = build_op(key, csp)
                assign[id(op)] = (key, csp)
                ops.append(op)

            def settle(result: OpResult, _assign=assign, _deferred=deferred,
                       _round=round_no) -> list[TransferOp] | None:
                with lock:
                    key, csp = _assign.pop(id(result.op))
                    attempts.setdefault(key, []).append(Attempt(
                        csp_id=csp, round_no=_round, ok=result.ok,
                        error=result.error, error_type=result.error_type,
                    ))
                    if result.ok:
                        on_success(key, csp, result)
                        return None
                    tries = per_csp_tries[(key, csp)] = (
                        per_csp_tries.get((key, csp), 0) + 1
                    )
                    obs = self.engine.obs
                    if (result.retryable and not result.cancelled
                            and tries < self.policy.max_attempts
                            and self.alternate_is_live(csp)):
                        if obs is not None:
                            obs.metrics.inc(
                                "cyrus_meta_retries_total"
                                if result.op.kind is OpKind.PUT_META
                                else "cyrus_share_retries_total", csp=csp)
                        _deferred.append((key, csp))
                        return None
                    on_giveup(key, csp, result)
                    alternate = pick_alternate(key, csp, tried[key])
                    if alternate is None:
                        return None
                    if obs is not None:
                        obs.metrics.inc("cyrus_share_failovers_total",
                                        from_csp=csp, to_csp=alternate)
                    tried[key].add(alternate)
                    if not stream:
                        _deferred.append((key, alternate))
                        return None
                    new_op = build_op(key, alternate)
                    _assign[id(new_op)] = (key, alternate)
                    return [new_op]

            if stream:
                results = self.engine.execute(ops, on_result=settle)
            else:
                results = self.engine.execute(ops)
                for result in results:
                    settle(result)
            all_results.extend(results)
            pending = deferred
        return all_results, attempts
