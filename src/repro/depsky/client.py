"""DepSky-style cloud-of-clouds client on the CYRUS substrate.

Files are not chunked (DepSky stores whole objects).  Uploads lock,
back off, start a share transfer to *every* CSP and cancel the rest
once ``n`` complete; metadata is fully replicated at every CSP.
Downloads fetch metadata from the fastest CSP and then greedily fetch
``t`` shares from the fastest CSPs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.transfer import OpKind, OpResult, TransferEngine, TransferOp
from repro.core.uploader import get_sharer
from repro.depsky.locks import LockProtocol
from repro.erasure import Share
from repro.errors import InsufficientSharesError, ObjectNotFoundError, TransferError
from repro.util.hashing import sha1_hex
from repro.util.serialization import canonical_dumps, canonical_loads


@dataclass
class DepSkyReport:
    """Timing and placement outcome of one DepSky operation."""

    started: float
    finished: float
    bytes_moved: int
    shares_per_csp: dict[str, int] = field(default_factory=dict)
    data: bytes | None = None
    download_csps: tuple[str, ...] = ()

    @property
    def duration(self) -> float:
        return self.finished - self.started


class DepSkyClient:
    """The comparison baseline of paper Section 7.3.

    Args:
        engine: Transfer engine over the same providers CYRUS uses.
        csp_ids: The cloud-of-clouds membership.
        key: Coding key (DepSky's secret-sharing secret).
        t, n: Reconstruction threshold and target share count.
        writer_id: This client's identity for lock objects.
        backoff_range: Post-lock random backoff bounds (seconds).
        seed: Deterministic backoff.
    """

    def __init__(
        self,
        engine: TransferEngine,
        csp_ids: list[str],
        key: str,
        t: int = 2,
        n: int = 3,
        writer_id: str = "writer-1",
        backoff_range: tuple[float, float] = (0.5, 1.0),
        seed: int = 0,
    ):
        if n > len(csp_ids):
            raise TransferError(
                f"DepSky needs n <= #CSPs, got n={n} with {len(csp_ids)} CSPs"
            )
        self.engine = engine
        self.csp_ids = list(csp_ids)
        self.key = key
        self.t = t
        self.n = n
        self.writer_id = writer_id
        self.locks = LockProtocol(
            engine, self.csp_ids, backoff_range=backoff_range, seed=seed,
        )
        # cumulative per-CSP stored-share counter (Figure 18)
        self.shares_stored: dict[str, int] = {c: 0 for c in self.csp_ids}

    # ------------------------------------------------------------------

    def _share_name(self, name: str, index: int) -> str:
        return f"ds-share-{sha1_hex(name.encode())}-{index:03d}"

    def _meta_name(self, name: str) -> str:
        return f"ds-meta-{sha1_hex(name.encode())}"

    def upload(self, name: str, data: bytes) -> DepSkyReport:
        """DepSky write: lock (2 RTT) -> backoff -> scatter-all -> metadata."""
        started = self.engine.clock.now()
        lock_results = self.locks.acquire(name, self.writer_id)
        # encode one share per CSP; the first n to finish are kept
        sharer = get_sharer(self.key, self.t, len(self.csp_ids))
        shares = sharer.split(data)
        group = f"dsu-{name}-{started}"
        ops = [
            TransferOp(
                kind=OpKind.PUT,
                csp_id=csp,
                name=self._share_name(name, share.index),
                data=share.data,
                group=group,
            )
            for csp, share in zip(self.csp_ids, shares)
        ]
        results = self.engine.execute(ops, group_quota={group: self.n})
        landed: dict[int, str] = {}
        for op, result in zip(ops, results):
            if result.ok:
                index = int(op.name.rsplit("-", 1)[-1])
                landed[index] = op.csp_id
                self.shares_stored[op.csp_id] += 1
        if len(landed) < self.t:
            self.locks.release(name, self.writer_id)
            raise TransferError(
                f"DepSky stored only {len(landed)} shares of {name!r}"
            )
        # metadata replicated in full at every CSP
        meta = canonical_dumps(
            {
                "name": name,
                "size": len(data),
                "t": self.t,
                "m": len(self.csp_ids),
                "shares": {str(i): c for i, c in sorted(landed.items())},
                "digest": sha1_hex(data),
            }
        )
        meta_ops = [
            TransferOp(kind=OpKind.PUT_META, csp_id=csp,
                       name=self._meta_name(name), data=meta)
            for csp in self.csp_ids
        ]
        meta_results = self.engine.execute(meta_ops)
        self.locks.release(name, self.writer_id)
        finished = self.engine.clock.now()
        moved = sum(r.op.payload_size() for r in results if r.ok)
        moved += sum(r.op.payload_size() for r in meta_results if r.ok)
        return DepSkyReport(
            started=started,
            finished=finished,
            bytes_moved=moved,
            shares_per_csp={c: sum(1 for x in landed.values() if x == c)
                            for c in self.csp_ids},
        )

    # ------------------------------------------------------------------

    def download(self, name: str) -> DepSkyReport:
        """DepSky read: metadata from fastest CSP, then greedy share GETs."""
        started = self.engine.clock.now()
        caps = self.engine.link_caps("down")
        by_speed = sorted(self.csp_ids, key=lambda c: (-caps.get(c, 0.0), c))
        meta_blob = None
        meta_size = 256
        for csp in by_speed:
            results = self.engine.execute(
                [TransferOp(kind=OpKind.GET_META, csp_id=csp,
                            name=self._meta_name(name), size=meta_size)]
            )
            if results[0].ok:
                meta_blob = results[0].data
                break
        if meta_blob is None:
            raise ObjectNotFoundError(f"no DepSky metadata for {name!r}")
        meta = canonical_loads(meta_blob)
        share_map = {int(i): c for i, c in meta["shares"].items()}
        share_size = max(1, -(-meta["size"] // meta["t"]))
        # greedy: the t fastest CSPs that hold a share
        holders = sorted(share_map.items(), key=lambda kv: (-caps.get(kv[1], 0.0), kv[0]))
        chosen = holders[: meta["t"]]
        ops = [
            TransferOp(kind=OpKind.GET, csp_id=csp,
                       name=self._share_name(name, index), size=share_size)
            for index, csp in chosen
        ]
        results = self.engine.execute(ops)
        got: list[Share] = []
        served: list[str] = []
        for (index, csp), result in zip(chosen, results):
            if result.ok:
                served.append(csp)
                got.append(
                    Share(index=index, data=result.data, t=meta["t"],
                          n=meta["m"], chunk_size=meta["size"])
                )
        # fall back through slower CSPs on failures
        if len(got) < meta["t"]:
            have = {s.index for s in got}
            for index, csp in holders[meta["t"]:]:
                if len(got) >= meta["t"]:
                    break
                if index in have:
                    continue
                res = self.engine.execute(
                    [TransferOp(kind=OpKind.GET, csp_id=csp,
                                name=self._share_name(name, index),
                                size=share_size)]
                )[0]
                if res.ok:
                    served.append(csp)
                    got.append(
                        Share(index=index, data=res.data, t=meta["t"],
                              n=meta["m"], chunk_size=meta["size"])
                    )
        if len(got) < meta["t"]:
            raise InsufficientSharesError(
                f"DepSky fetched {len(got)} shares of {name!r}, "
                f"need {meta['t']}"
            )
        sharer = get_sharer(self.key, meta["t"], meta["m"])
        data = sharer.join(got)
        if sha1_hex(data) != meta["digest"]:
            raise TransferError(f"DepSky digest mismatch for {name!r}")
        finished = self.engine.clock.now()
        return DepSkyReport(
            started=started,
            finished=finished,
            bytes_moved=sum(r.op.payload_size() for r in results if r.ok),
            data=data,
            download_csps=tuple(served),
        )
