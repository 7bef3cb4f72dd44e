"""A durable append-only line log with group commit.

The file primitive under the intent journal, the client's one local
log of intents and debts.  ``append`` is one ``os.write`` to a
descriptor kept open between records (``O_APPEND``, opened on the
first append), so a record is in the kernel when the call returns and
a *process* crash loses nothing.
Only a **barrier** append also fsyncs, which makes it and every earlier
record durable: an OS crash or power loss drops at most what was
written since the last barrier, and may tear the final line.  When the
descriptor opens, a file a crash left ending mid-line gets a newline
before the first new record, so that record never glues onto the
wreck.  ``rewrite`` (compaction) is a temp file, ``os.replace`` and a
directory fsync, after which the next append opens the new file.

A successor generation may append to a path its crashed predecessor
still holds open; only one live instance per path may rewrite it.
Callers serialise access (the journal holds its lock).
"""

from __future__ import annotations

import json
import os
import weakref
from collections.abc import Iterable
from pathlib import Path

_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def json_line(doc: dict) -> bytes:
    """``doc`` as one compact, key-sorted, newline-terminated JSON line."""
    return (_JSON.encode(doc) + "\n").encode("utf-8")


class AppendLog:
    """One line log file; ``fsync=False`` keeps every write, no fsync."""

    def __init__(self, path: str | Path, fsync: bool = True):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._fd: int | None = None
        self._closer: weakref.finalize | None = None
        self._torn = False

    def _open(self) -> int:
        # O_RDWR: the torn-tail probe preads through this same descriptor
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        size = os.fstat(fd).st_size
        self._torn = size > 0 and os.pread(fd, 1, size - 1) != b"\n"
        self._fd = fd
        self._closer = weakref.finalize(self, os.close, fd)
        return fd

    def append(self, line: bytes, barrier: bool) -> None:
        """Write one newline-terminated record; fsync it if ``barrier``."""
        fd = self._fd if self._fd is not None else self._open()
        if self._torn:
            line = b"\n" + line
        self._torn = os.write(fd, line) != len(line)  # short: tail is torn
        if self._torn:
            raise OSError(f"short write to {self.path}")
        if barrier and self.fsync:
            os.fsync(fd)

    def lines(self) -> list[bytes]:
        """Non-blank lines in file order, a torn tail included."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        return [line for line in data.split(b"\n") if line.strip()]

    def rewrite(self, lines: Iterable[bytes]) -> None:
        """Atomically replace the file's contents with ``lines``."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.writelines(lines)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        if self.fsync:
            # the rename itself is durable only once the directory is
            dir_fd = os.open(self.path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        self._release()

    def close(self) -> None:
        """Make every appended record durable and release the descriptor."""
        if self._fd is not None and self.fsync:
            os.fsync(self._fd)
        self._release()

    def _release(self) -> None:
        if self._closer is not None:
            self._closer()  # closes the descriptor exactly once
        self._fd = self._closer = None
