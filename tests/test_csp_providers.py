"""Unit tests for the provider implementations (memory, localfs)."""

import pytest

from repro.csp import Credentials, InMemoryCSP, LocalDirectoryCSP
from repro.errors import CSPError, ObjectNotFoundError


class TestInMemory:
    def test_upload_download(self):
        csp = InMemoryCSP("m")
        csp.upload("obj", b"data")
        assert csp.download("obj") == b"data"

    def test_missing_object(self):
        with pytest.raises(ObjectNotFoundError):
            InMemoryCSP("m").download("ghost")

    def test_delete(self):
        csp = InMemoryCSP("m")
        csp.upload("obj", b"x")
        csp.delete("obj")
        with pytest.raises(ObjectNotFoundError):
            csp.download("obj")

    def test_delete_missing(self):
        with pytest.raises(ObjectNotFoundError):
            InMemoryCSP("m").delete("ghost")

    def test_list_prefix(self):
        csp = InMemoryCSP("m")
        csp.upload("md-1", b"a")
        csp.upload("md-2", b"bb")
        csp.upload("sh-1", b"c")
        names = [o.name for o in csp.list(prefix="md-")]
        assert names == ["md-1", "md-2"]

    def test_list_sizes(self):
        csp = InMemoryCSP("m")
        csp.upload("o", b"12345")
        assert csp.list()[0].size == 5

    def test_overwrite_semantics_dropbox_style(self):
        csp = InMemoryCSP("m", overwrite=True)
        csp.upload("o", b"v1")
        csp.upload("o", b"v2")
        assert csp.download("o") == b"v2"
        assert csp.revision_count("o") == 1
        assert csp.stored_bytes == 2

    def test_revision_semantics_gdrive_style(self):
        csp = InMemoryCSP("m", overwrite=False)
        csp.upload("o", b"v1")
        csp.upload("o", b"v2!")
        assert csp.download("o") == b"v2!"  # latest wins on download
        assert csp.revision_count("o") == 2
        assert csp.stored_bytes == 5  # both revisions consume quota

    def test_cyrus_naming_makes_semantics_equivalent(self):
        # CYRUS share names are content-derived: same name => same bytes,
        # so both vendor styles behave identically for CYRUS
        payload = b"identical share bytes"
        for overwrite in (True, False):
            csp = InMemoryCSP("m", overwrite=overwrite)
            csp.upload("deadbeef", payload)
            csp.upload("deadbeef", payload)
            assert csp.download("deadbeef") == payload

    def test_object_size(self):
        csp = InMemoryCSP("m")
        assert csp.object_size("nope") is None
        csp.upload("o", b"123")
        assert csp.object_size("o") == 3

    def test_authenticate_deterministic(self):
        csp = InMemoryCSP("m")
        t1 = csp.authenticate(Credentials("u", "p"))
        t2 = csp.authenticate(Credentials("u", "p"))
        assert t1.token == t2.token

    def test_tokens_differ_per_provider(self):
        cred = Credentials("u", "p")
        assert (
            InMemoryCSP("a").authenticate(cred).token
            != InMemoryCSP("b").authenticate(cred).token
        )


class TestLocalDirectory:
    def test_roundtrip(self, tmp_path):
        csp = LocalDirectoryCSP("disk", tmp_path / "store")
        csp.upload("abc123", b"share bytes")
        assert csp.download("abc123") == b"share bytes"

    def test_persistence_across_instances(self, tmp_path):
        root = tmp_path / "store"
        LocalDirectoryCSP("disk", root).upload("obj", b"persists")
        fresh = LocalDirectoryCSP("disk", root)
        assert fresh.download("obj") == b"persists"

    def test_list(self, tmp_path):
        csp = LocalDirectoryCSP("disk", tmp_path)
        csp.upload("md-aa", b"1")
        csp.upload("md-bb", b"22")
        csp.upload("zz", b"3")
        infos = csp.list(prefix="md-")
        assert [o.name for o in infos] == ["md-aa", "md-bb"]
        assert [o.size for o in infos] == [1, 2]

    def test_delete(self, tmp_path):
        csp = LocalDirectoryCSP("disk", tmp_path)
        csp.upload("obj", b"x")
        csp.delete("obj")
        with pytest.raises(ObjectNotFoundError):
            csp.download("obj")

    def test_missing(self, tmp_path):
        csp = LocalDirectoryCSP("disk", tmp_path)
        with pytest.raises(ObjectNotFoundError):
            csp.download("ghost")
        with pytest.raises(ObjectNotFoundError):
            csp.delete("ghost")

    def test_unsafe_names_rejected(self, tmp_path):
        csp = LocalDirectoryCSP("disk", tmp_path)
        for bad in ("../escape", "a/b", "", "a b"):
            with pytest.raises(CSPError):
                csp.upload(bad, b"x")

    def test_atomic_upload_leaves_no_partials(self, tmp_path):
        csp = LocalDirectoryCSP("disk", tmp_path)
        csp.upload("obj", b"final")
        assert [p.name for p in tmp_path.iterdir()] == ["obj"]

    def test_list_stats_only_what_matches(self, tmp_path, monkeypatch):
        """A prefixed listing stats each matching object once and no
        other entry, and returns what a sorted full scan that filters
        afterwards returns, in the same order."""
        import os

        csp = LocalDirectoryCSP("disk", tmp_path)
        for i in range(5):
            csp.upload(f"md-{i:040x}-{i % 3:03d}", b"m" * i)
        for i in range(30):
            csp.upload(f"{i * 7919:040x}", b"share")
        (tmp_path / "md-torn.part").write_bytes(b"half")
        (tmp_path / "md-subdir").mkdir()

        def reference(prefix):
            return [
                (path.name, path.stat().st_size, path.stat().st_mtime)
                for path in sorted(tmp_path.iterdir())
                if path.is_file() and path.name.startswith(prefix)
                and not path.name.endswith(".part")
            ]

        expected = {prefix: reference(prefix) for prefix in ("md-", "", "0")}
        stats = []
        real_scandir, real_stat = os.scandir, os.stat

        class CountingEntry:
            def __init__(self, entry):
                self._entry, self.name = entry, entry.name

            def is_file(self):
                return self._entry.is_file()

            def stat(self):
                stats.append(self.name)
                return self._entry.stat()

        class CountingScan:
            def __init__(self, path):
                self._scan = real_scandir(path)

            def __enter__(self):
                return (CountingEntry(e) for e in self._scan)

            def __exit__(self, *exc):
                self._scan.close()

        def counting_stat(path, *args, **kwargs):
            stats.append(os.fspath(path))
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "scandir", CountingScan)
        monkeypatch.setattr(os, "stat", counting_stat)
        listed = csp.list(prefix="md-")
        assert len(stats) == 5
        assert [(o.name, o.size, o.modified) for o in listed] == expected["md-"]
        for prefix in ("", "0"):
            assert [(o.name, o.size, o.modified)
                    for o in csp.list(prefix=prefix)] == expected[prefix]
