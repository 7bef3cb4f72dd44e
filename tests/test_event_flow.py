"""Integration: the Section 5.3 event model during real transfers.

The paper's receiver sees GET / PUT / GET_META / PUT_META events and
derives ShareComplete / ChunkComplete / FileComplete.  These tests run
actual uploads/downloads through a simulated environment with a
registered receiver and check the event stream itself.
"""

from repro.bench import build_paper_testbed
from repro.core.config import CyrusConfig
from repro.core.transfer import OpKind
from tests.conftest import SMALL_CHUNKS, deterministic_bytes


def make_env_client():
    env = build_paper_testbed()
    config = CyrusConfig(key="k", t=2, n=3, **SMALL_CHUNKS)
    return env, env.new_client(config, client_id="events")


class TestUploadEvents:
    def test_put_then_put_meta_ordering(self):
        env, client = make_env_client()
        client.put("f.bin", deterministic_bytes(3000, 1), sync_first=False)
        kinds = [r.op.kind for r in env.receiver.events]
        assert OpKind.PUT in kinds and OpKind.PUT_META in kinds
        # every share PUT completes before the first metadata PUT — the
        # Algorithm 2 barrier that keeps half-uploaded files invisible
        last_share = max(
            i for i, k in enumerate(kinds) if k is OpKind.PUT
        )
        first_meta = min(
            i for i, k in enumerate(kinds) if k is OpKind.PUT_META
        )
        assert last_share < first_meta

    def test_share_events_carry_chunk_ids(self):
        env, client = make_env_client()
        node = client.put("f.bin", deterministic_bytes(3000, 2),
                          sync_first=False).node
        chunk_ids = {c.chunk_id for c in node.chunks}
        put_chunks = {
            r.op.chunk_id
            for r in env.receiver.events
            if r.op.kind is OpKind.PUT and r.op.chunk_id
        }
        assert put_chunks == chunk_ids

    def test_n_put_events_per_chunk(self):
        env, client = make_env_client()
        node = client.put("f.bin", deterministic_bytes(2000, 3),
                          sync_first=False).node
        for record in node.chunks:
            events = [
                r for r in env.receiver.events
                if r.op.kind is OpKind.PUT and r.op.chunk_id == record.chunk_id
            ]
            assert len(events) == 3  # n = 3


class TestDownloadEvents:
    def test_t_get_events_per_chunk(self):
        env, client = make_env_client()
        node = client.put("f.bin", deterministic_bytes(4000, 4),
                          sync_first=False).node
        env.receiver.events.clear()
        client.get("f.bin", sync_first=False)
        for record in node.chunks:
            gets = [
                r for r in env.receiver.events
                if r.op.kind is OpKind.GET and r.op.chunk_id == record.chunk_id
            ]
            assert len(gets) == 2  # t = 2

    def test_chunk_completion_tracking(self):
        env, client = make_env_client()
        node = client.put("f.bin", deterministic_bytes(2000, 5),
                          sync_first=False).node
        receiver = env.receiver
        cid = node.chunks[0].chunk_id
        receiver.expect_chunk(cid, shares_needed=2, file_key="f.bin")
        receiver.events.clear()
        client.get("f.bin", sync_first=False)
        assert receiver.chunk_complete(cid)

    def test_file_completion_tracking(self):
        env, client = make_env_client()
        node = client.put("multi.bin", deterministic_bytes(6000, 6),
                          sync_first=False).node
        receiver = env.receiver
        unique = {c.chunk_id for c in node.chunks}
        for cid in unique:
            receiver.expect_chunk(cid, shares_needed=2, file_key="multi.bin")
        client.get("multi.bin", sync_first=False)
        assert receiver.file_complete("multi.bin")

    def test_failed_ops_do_not_count_toward_completion(self):
        env, client = make_env_client()
        node = client.put("f.bin", deterministic_bytes(2000, 7),
                          sync_first=False).node
        cid = node.chunks[0].chunk_id
        receiver = env.receiver
        receiver.expect_chunk(cid, shares_needed=2)
        # wipe the shares everywhere: GETs fail, completion never fires
        for csp in env.csps.values():
            for info in list(csp._store.list()):
                if not info.name.startswith("md-"):
                    csp._store.delete(info.name)
        try:
            client.get("f.bin", sync_first=False)
        except Exception:
            pass
        assert not receiver.chunk_complete(cid)


class TestSpanTraces:
    """The tracing view of the same transfers: every put/get yields a
    well-formed span tree whose byte totals agree with storage stats."""

    def test_trace_well_formed_after_puts_and_gets(self):
        env, client = make_env_client()
        client.put("a.bin", deterministic_bytes(5000, 21), sync_first=False)
        client.put("b.bin", deterministic_bytes(3000, 22), sync_first=False)
        client.get("a.bin", sync_first=False)
        client.get("b.bin", sync_first=False)
        assert env.obs.tracer.check_well_formed() == []

    def test_upload_span_has_pipeline_children(self):
        env, client = make_env_client()
        client.put("a.bin", deterministic_bytes(4000, 23), sync_first=False)
        uploads = env.obs.tracer.find("upload")
        assert len(uploads) == 1
        (up,) = uploads
        names = [c.name for c in up.children]
        assert names.count("chunk") == 1
        assert names.count("scatter") == 1
        assert names.count("publish_meta") == 1
        scatter = next(c for c in up.children if c.name == "scatter")
        put_ops = [s for s in scatter.children if s.name == "op"]
        assert put_ops
        assert all(s.attrs["op_kind"] == "PUT" for s in put_ops)
        publish = next(c for c in up.children if c.name == "publish_meta")
        meta_ops = [s for s in publish.children if s.name == "op"]
        assert meta_ops
        assert all(s.attrs["op_kind"] == "PUT_META" for s in meta_ops)

    def test_download_span_has_pipeline_children(self):
        env, client = make_env_client()
        client.put("a.bin", deterministic_bytes(4000, 24), sync_first=False)
        client.get("a.bin", sync_first=False)
        client.get_range("a.bin", 1000, 500, sync_first=False)
        downloads = env.obs.tracer.find("download")
        assert len(downloads) == 2  # the full read, then the ranged one
        assert downloads[1].attrs["offset"] == 1000
        for down in downloads:
            names = [c.name for c in down.children]
            for stage in ("select", "gather", "decode"):
                assert stage in names
            gather = next(c for c in down.children if c.name == "gather")
            get_ops = [s for s in gather.children if s.name == "op"]
            assert get_ops
            assert all(s.attrs["op_kind"] == "GET" for s in get_ops)

    def test_no_orphans_and_children_nest_within_parents(self):
        env, client = make_env_client()
        client.put("a.bin", deterministic_bytes(6000, 25), sync_first=False)
        client.get("a.bin", sync_first=False)
        tracer = env.obs.tracer
        # every op span recorded during a transfer hangs off that
        # transfer's tree, not the root list
        root_names = {r.name for r in tracer.roots}
        assert "op" not in root_names
        for root in tracer.roots:
            for span in root.walk():
                assert span.finished
                for child in span.children:
                    assert span.start <= child.start
                    assert child.end <= span.end

    def test_per_csp_put_bytes_match_storage_stats(self):
        env, client = make_env_client()
        for i, name in enumerate(["a.bin", "b.bin", "c.bin"]):
            client.put(name, deterministic_bytes(2500 + 700 * i, 26 + i),
                       sync_first=False)
        timeline = env.obs.timeline()
        assert (timeline.per_csp_bytes(kind="PUT")
                == client.storage_stats()["per_csp_bytes"])

    def test_engine_byte_counters_match_stored_ground_truth(self):
        env, client = make_env_client()
        client.put("a.bin", deterministic_bytes(4096, 30), sync_first=False)
        client.get("a.bin", sync_first=False)
        snap = env.obs.snapshot()
        for csp_id, csp in env.csps.items():
            stored = sum(info.size for info in csp._store.list())
            uploaded = snap.counter_total(
                "cyrus_transfer_bytes_total", csp=csp_id, direction="up"
            )
            assert uploaded == stored
