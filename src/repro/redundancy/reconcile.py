"""One reconcile path for every share that should exist.

A chunk should hold ``n`` shares on usable CSPs; a metadata node one
share in each of its fixed slots.  Four callers find objects that fall
short, and each only picks ids, suspects and a budget: the scrub
(:mod:`repro.recovery.scrub`, from a census), debt repair
(:mod:`repro.redundancy.repair`, from the ledger), lazy migration
(``Downloader._migrate``, paper Section 5.5 / Figure 9, from a read
that holds the plaintext) and the metadata back-fill of ``add_csp`` /
``remove_csp`` (:func:`backfill_metadata`).

:func:`assess_chunk` / :func:`assess_node` are pure: they judge which
shares count under one rule (:func:`usable`).  :func:`reconcile_chunk`
/ :func:`reconcile_node` fetch what regeneration needs, regenerate,
journal one intent (``migrate`` / ``meta-repair``) and upload, so a
crash mid-repair is recovered like any other intent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.naming import chunk_share_object_name
from repro.core.sync import fetch_nodes, meta_listing
from repro.core.transfer import OpKind, TransferOp
from repro.core.uploader import get_sharer
from repro.erasure import Share
from repro.errors import CyrusError
from repro.metadata.chunktable import ChunkLocation
from repro.metadata.codec import encode_node, metadata_share_name
from repro.util.hashing import sha1_hex

#: Outcomes of one reconcile.
WHOLE = "whole"  # nothing was owed
REPAIRED = "repaired"  # every owed share landed
PARTIAL = "partial"  # an owed share had no target, or did not land
SHORT = "short"  # fewer than t shares count: nothing to regenerate from
UNRECOVERABLE = "unrecoverable"  # no fetched t-subset verifies
OVER_BUDGET = "budget"  # not started: the budget cannot cover it


class Budget:
    """Share transfers (downloads + uploads) a caller may still spend.

    ``None`` is unbounded.  A reconcile starts only when the budget
    covers its planned cost and then finishes, so a share found corrupt
    on the way is rewritten even if that overdraws the budget.  With
    ``at_least_one`` the first reconcile is always affordable, so a
    budget below one object's cost still advances one object.
    """

    def __init__(self, shares: int | None, at_least_one: bool = False):
        self.left = shares
        self._free = at_least_one

    def affords(self, cost: int) -> bool:
        return self.left is None or cost <= self.left or self._free

    def spend(self, cost: int) -> int:
        if cost:
            self._free = False
        if self.left is not None:
            self.left -= cost
        return cost

    @property
    def exhausted(self) -> bool:
        return self.left is not None and self.left <= 0


@dataclass(frozen=True)
class ShareMigration:
    """One regenerated share: which index moved where."""

    chunk_id: str
    index: int
    old_csp: str
    new_csp: str


@dataclass
class Outcome:
    """What one reconcile did."""

    status: str = WHOLE
    verified: int = 0  # fetched shares checked against regenerated truth
    missing: int = 0  # fetches that returned nothing
    corrupt: int = 0  # fetched shares unlike their truth (attributed)
    owed: int = 0  # shares that needed a (re)write
    written: int = 0  # ... and landed
    transfers: int = 0
    moved: list[ShareMigration] = field(default_factory=list)


def usable(client, csp_id: str, suspects=frozenset(), listing=None) -> bool:
    """Whether a share here counts: the CSP is up
    (:meth:`repro.csp.resilient.HealthRegistry.up`), not a suspect, and
    a census (when given) listed it."""
    if csp_id in suspects or (listing is not None and csp_id not in listing):
        return False
    return client.health.up(csp_id, client.cloud)


# -- chunks ------------------------------------------------------------------


@dataclass
class ChunkState:
    """One chunk's shares as judged without I/O (:func:`assess_chunk`)."""

    client: object = field(repr=False)
    location: ChunkLocation
    suspects: frozenset[str]
    listing: dict[str, set[str]] | None = field(repr=False)
    present: list[tuple[int, str]]  # every (index, csp) that counts
    healthy: dict[int, str]  # index -> the first CSP that counts for it
    regenerate: list[int]  # indices no counting CSP holds
    recorded: dict[int, str]  # index -> the first CSP recorded for it
    absent: int = 0  # census: counting CSPs listed without the object

    @property
    def chunk_id(self) -> str:
        return self.location.chunk_id


def assess_chunk(client, chunk_id: str, suspects=(), listing=None
                 ) -> ChunkState:
    """Judge one known chunk's placements; no I/O.

    ``listing`` is a census (csp -> object names, unreachable CSPs left
    out): with one, a share counts only if its object was listed, and
    :func:`reconcile_chunk` verifies every share that counts.
    """
    location = client.tree.chunk_table.get(chunk_id)
    suspects = frozenset(suspects)
    recorded: dict[int, str] = {}
    present: list[tuple[int, str]] = []
    absent = 0
    for index, csp_id in location.placements:
        recorded.setdefault(index, csp_id)
        if not usable(client, csp_id, suspects, listing):
            continue
        if (listing is None
                or chunk_share_object_name(index, chunk_id) in listing[csp_id]):
            present.append((index, csp_id))
        else:
            absent += 1
    healthy: dict[int, str] = {}
    for index, csp_id in present:
        healthy.setdefault(index, csp_id)
    return ChunkState(
        client=client, location=location, suspects=suspects,
        listing=listing, present=present, healthy=healthy,
        regenerate=[i for i in range(location.n) if i not in healthy],
        recorded=recorded, absent=absent,
    )


def reconcile_chunk(state: ChunkState, journal, budget: Budget,
                    plaintext: bytes | None = None,
                    repair: bool = True) -> Outcome:
    """Bring one chunk back to ``n`` shares on usable CSPs.

    Without ``plaintext`` it fetches ``t`` shares that count (every one
    under a census) and, when no t-subset of them verifies against the
    chunk id, the rest.  Each fetched share is checked against its
    regenerated bytes; a corrupt one is attributed to its CSP and owed
    again.  An owed index is written in place when its recorded CSP is
    usable, else onto the ring's next writable CSP holding nothing of
    the chunk, avoiding suspects and then only dead CSPs.  The writes
    are journaled as one ``migrate`` intent and adopted into the chunk
    table.  ``repair=False`` checks and reports but writes nothing.
    """
    client, location = state.client, state.location
    out = Outcome()
    census = state.listing is not None
    if not census and not state.regenerate:
        return out
    if plaintext is None and len(state.healthy) < location.t:
        out.status = SHORT
        return out
    planned = (_targets(state, state.regenerate, set(state.healthy.values()))
               if repair else [])
    if not census and repair and not planned:
        out.status, out.owed = PARTIAL, len(state.regenerate)
        return out  # nowhere to write: fetch nothing
    first = [] if plaintext is not None else (
        state.present if census else sorted(state.healthy.items())[:location.t])
    if not budget.affords(len(first) + len(planned)):
        out.status = OVER_BUDGET
        return out
    sharer = get_sharer(client.config.key, location.t, location.n)
    good = dict(state.healthy)
    avoid: set[str] = set()
    if plaintext is None:
        fetched: dict[tuple[int, str], bytes | None] = {}
        plaintext = _gather(state, sharer, first, fetched, budget, out)
        rest = [pair for pair in state.present if pair not in fetched]
        if plaintext is None and rest:
            plaintext = _gather(state, sharer, rest, fetched, budget, out)
        if plaintext is None:
            out.status = UNRECOVERABLE
            return out
        avoid = _classify(state, sharer, plaintext, fetched, good, out)
    owed = [i for i in range(location.n) if i not in good]
    out.owed = len(owed)
    if owed and repair:
        _upload(state, journal, budget, sharer, plaintext,
                _targets(state, owed, set(good.values()), avoid), out)
    if owed:
        out.status = REPAIRED if out.written == len(owed) else PARTIAL
    return out


def _gather(state: ChunkState, sharer, pairs, fetched, budget: Budget,
            out: Outcome) -> bytes | None:
    """GET each (index, csp) share into ``fetched`` (None where the GET
    failed); the chunk from the first t-subset of everything fetched
    that verifies against its id, or None."""
    location = state.location
    if pairs:
        out.transfers += budget.spend(len(pairs))
        results = state.client.engine.execute([
            TransferOp(kind=OpKind.GET, csp_id=csp_id,
                       name=chunk_share_object_name(index, location.chunk_id),
                       size=max(1, -(-location.size // location.t)),
                       chunk_id=location.chunk_id)
            for index, csp_id in pairs
        ])
        fetched.update((pair, result.data if result.ok else None)
                       for pair, result in zip(pairs, results))
    shares = [
        Share(index=index, data=blob, t=location.t, n=location.n,
              chunk_size=location.size)
        for (index, _csp), blob in sorted(fetched.items()) if blob is not None
    ]
    try:
        return sharer.join_verified(
            shares, verify=lambda pt: sha1_hex(pt) == location.chunk_id)
    except CyrusError:
        return None


def _classify(state: ChunkState, sharer, plaintext: bytes, fetched,
              good: dict[int, str], out: Outcome) -> set[str]:
    """Judge each fetched share against its regenerated bytes.

    Leaves in ``good`` only the indices a verified (or unfetched)
    share still backs; returns the CSPs caught serving corrupt bytes.
    """
    indices = sorted({index for index, _csp in fetched})
    truth = dict(zip(indices, (s.data for s in
                               sharer.split_indices(plaintext, indices))))
    corrupt: set[str] = set()
    for index in indices:
        good.pop(index, None)
    for (index, csp_id), blob in sorted(fetched.items()):
        if blob is None:
            out.missing += 1
            continue
        out.verified += 1
        if blob == truth[index]:
            good.setdefault(index, csp_id)
            continue
        out.corrupt += 1
        corrupt.add(csp_id)
        # the attribution path of a decode-time verification failure: a
        # corrupt_share event, quarantine for repeat offenders
        state.client.health.record_corruption(
            csp_id, detail=f"chunk {state.chunk_id[:8]} share {index} corrupt")
    return corrupt


def _targets(state: ChunkState, indices, holding: set[str], avoid=()
             ) -> list[tuple[int, str]]:
    """(index, target csp) for each owed index that has a target."""
    client, chunk_id = state.client, state.chunk_id
    dead = {c for c in client.cloud.writable_csps()
            if not usable(client, c, listing=state.listing)}
    shunned = dead | state.suspects | set(avoid)
    moves: list[tuple[int, str]] = []
    for index in indices:
        target = state.recorded.get(index)
        if target is None or not usable(client, target, state.suspects,
                                        state.listing):
            # a suspect may take freshly regenerated bytes when no other
            # CSP is free: the distrust covers bytes it holds, not bytes
            # about to be written (else a (t, n = #CSPs) deployment could
            # never heal a write its one spare CSP failed)
            target = (client.cloud.replacement_csp(
                chunk_id, holding=holding, exclude=shunned)
                or client.cloud.replacement_csp(
                chunk_id, holding=holding, exclude=dead))
        if target is not None:
            moves.append((index, target))
            holding.add(target)
    return moves


def _upload(state: ChunkState, journal, budget: Budget, sharer,
            plaintext: bytes, moves, out: Outcome) -> None:
    """Journal one ``migrate`` intent, PUT the regenerated shares and
    adopt each one that landed."""
    if not moves:
        return
    chunk_id = state.chunk_id
    out.transfers += budget.spend(len(moves))
    names = [chunk_share_object_name(index, chunk_id) for index, _c in moves]
    intent_id = None
    if journal is not None:
        intent_id = journal.begin("migrate", chunk=chunk_id, moves=[
            [index, csp_id, name] for (index, csp_id), name in zip(moves, names)
        ])
    blobs = sharer.split_indices(plaintext, [index for index, _c in moves])
    for index, csp_id in _put(state.client, journal, intent_id, [
        ((index, csp_id),
         TransferOp(kind=OpKind.PUT, csp_id=csp_id, name=name,
                    data=blob.data, chunk_id=chunk_id))
        for (index, csp_id), name, blob in zip(moves, names, blobs)
    ]):
        if (index, csp_id) not in state.location.placements:
            state.client.tree.chunk_table.add_placement(
                chunk_id, index, csp_id)
        out.moved.append(ShareMigration(
            chunk_id=chunk_id, index=index,
            old_csp=state.recorded.get(index, "(missing)"), new_csp=csp_id,
        ))
    out.written = len(out.moved)


def _put(client, journal, intent_id, puts) -> list:
    """Run each (key, PUT) PUT and commit the intent; returns the keys
    of the PUTs that landed (a replay lists the objects itself)."""
    results = client.engine.execute([op for _key, op in puts])
    if intent_id is not None:
        journal.commit(intent_id)
    return [key for (key, _op), result in zip(puts, results) if result.ok]


# -- metadata nodes ----------------------------------------------------------


@dataclass
class NodeState:
    """One metadata node's slots as judged without I/O (:func:`assess_node`)."""

    client: object = field(repr=False)
    node_id: str
    node: object  # the tree's MetadataNode, or None when it lacks it
    slots: dict[int, tuple[object, str]]  # index -> (provider, object name)
    present: list[int]  # listed holding the object
    dark: list[int]  # not listed: unreachable this pass
    rewrite: list[int]  # reachable and missing, stale or on a suspect

    def listed(self) -> list[tuple[int, None, str, str]]:
        """The present slots as :func:`repro.core.sync.fetch_nodes`
        wants them: (index, size, csp, object name)."""
        return [(index, None, self.slots[index][0].csp_id,
                 self.slots[index][1]) for index in self.present]


def slot_listing(engine, cloud, store) -> dict[str, set[str]]:
    """csp -> the metadata objects it holds, from one ``LIST`` per
    member metadata slot not dark (:func:`repro.core.sync.meta_listing`).
    Slots that are dark, removed or do not answer are left out."""
    return {csp_id: {info.name for info in infos}
            for csp_id, infos in meta_listing(engine, cloud, store).items()}


def assess_node(client, node_id: str, listing, suspects=(), stale=()
                ) -> NodeState:
    """Judge one node's fixed slots against a per-slot ``listing``
    (:func:`slot_listing` or a census); no I/O.  A reachable slot is
    rewritten when its object is missing, was found ``stale`` (or
    corrupt) earlier, or sits on a suspect.  An unlisted slot is dark,
    unless its CSP was removed: nothing could ever fill that slot, so
    it is owed nothing."""
    try:
        node = client.tree.get(node_id)
    except CyrusError:
        node = None
    group = (client.store.slots_for(node.name) if node is not None
             else client.store.slots_of(node_id, listing))
    slots = {index: (provider, metadata_share_name(node_id, index))
             for index, provider in enumerate(group)}
    state = NodeState(client=client, node_id=node_id, node=node, slots=slots,
                      present=[], dark=[], rewrite=[])
    for index, (provider, name) in slots.items():
        names = listing.get(provider.csp_id)
        if names is None:
            if client.cloud.keeps(provider.csp_id):
                state.dark.append(index)
            continue
        if name in names:
            state.present.append(index)
        if (name not in names or index in stale
                or provider.csp_id in suspects):
            state.rewrite.append(index)
    return state


def reconcile_node(state: NodeState, journal, budget: Budget) -> Outcome:
    """Rewrite the node's owed slots with fresh authenticated frames.

    Slot i lives at provider i of the node's group forever, so healing
    overwrites a fixed object name: idempotent under any kill point,
    never a duplicate.  A node the tree lacks is first read from its
    present slots through :func:`repro.core.sync.fetch_nodes`.
    """
    out = Outcome(owed=len(state.rewrite))
    node = state.node
    fetch_cost = 0 if node is not None else len(state.present)
    if node is None and not state.present and not state.dark:
        return out  # gone from every slot and unknown: pruned
    if not budget.affords(fetch_cost + len(state.rewrite)):
        out.status = OVER_BUDGET
        return out
    if node is None:
        out.transfers += budget.spend(fetch_cost)
        _results, assemblers = fetch_nodes(
            state.client.engine, state.client.store,
            {state.node_id: state.listed()})
        node = assemblers[state.node_id].finish()
        if node is None:
            out.status = UNRECOVERABLE
            return out
    if state.rewrite:
        out.transfers += budget.spend(len(state.rewrite))
        frames = {index: (provider.csp_id, name, blob) for provider, name,
                  blob, index in state.client.store.frames_for(node)}
        intent_id = None
        if journal is not None:
            intent_id = journal.begin("meta-repair", node_id=state.node_id,
                                      node=encode_node(node).hex(),
                                      slots=[[i, *frames[i][:2]]
                                             for i in state.rewrite])
        out.written = len(_put(state.client, journal, intent_id, [
            (index, TransferOp(kind=OpKind.PUT_META, csp_id=csp_id,
                               name=name, data=blob))
            for index in state.rewrite
            for csp_id, name, blob in [frames[index]]
        ]))
    if out.written < out.owed or state.dark:
        out.status = PARTIAL
    elif out.owed:
        out.status = REPAIRED
    return out


def backfill_metadata(client) -> int:
    """Write every known node's share to each reachable slot lacking it.

    Metadata is small, so a membership change re-disperses it eagerly
    (Section 5.5) rather than lazily.  One listing per slot serves every
    node.  Returns the number of shares written.
    """
    listing = slot_listing(client.engine, client.cloud, client.store)
    journal = getattr(client, "journal", None)
    budget = Budget(None)
    return sum(
        reconcile_node(assess_node(client, node_id, listing), journal,
                       budget).written
        for node_id in sorted(client.tree.node_ids())
    )
