"""Directory-backed provider.

A real, persistent provider: objects are files under a root directory.
This is the implementation a user would point at a private storage
server mount (the paper's testbed uses "seven private cloud servers as
our CSPs").  Object names are hex share/metadata names, so they are
always safe path components, but we verify anyway.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from repro.csp.account import AuthToken, Credentials, issue_token
from repro.csp.base import BytesLike, CloudProvider, ObjectInfo
from repro.errors import CSPError, ObjectNotFoundError

_SAFE_NAME = re.compile(r"^[A-Za-z0-9._-]+$")


class LocalDirectoryCSP(CloudProvider):
    """Objects as files in a directory."""

    def __init__(self, csp_id: str, root: str | os.PathLike):
        super().__init__(csp_id)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_torn_uploads()

    def _sweep_torn_uploads(self) -> None:
        """Remove ``.part`` temp files left by a crash mid-upload.

        An upload that died between ``write_bytes`` and ``replace``
        leaves a ``.part`` file holding a torn object; it is garbage —
        the upload never completed, so nothing references it.
        """
        for stale in self.root.glob("*.part"):
            if stale.is_file():
                try:
                    stale.unlink()
                except OSError:  # pragma: no cover - racing sweeper
                    pass

    def _path(self, name: str) -> Path:
        if not _SAFE_NAME.match(name):
            raise CSPError(f"unsafe object name {name!r}", csp_id=self.csp_id)
        return self.root / name

    def authenticate(self, credentials: Credentials) -> AuthToken:
        return issue_token(credentials, provider_secret=self.csp_id)

    def list(self, *, prefix: str = "") -> list[ObjectInfo]:
        """List stored objects whose names start with ``prefix``, by name.

        One directory scan: names are filtered before anything is
        stat-ed, so a ``md-`` listing costs one ``stat`` per metadata
        object however many shares sit beside them.
        """
        with os.scandir(self.root) as entries:
            matching = [
                entry for entry in entries
                if entry.name.startswith(prefix)
                # in-flight (or torn) upload temp, not an object
                and not entry.name.endswith(".part")
            ]
        out = []
        for entry in sorted(matching, key=lambda e: e.name):
            if not entry.is_file():
                continue
            stat = entry.stat()
            out.append(ObjectInfo(name=entry.name, size=stat.st_size,
                                  modified=stat.st_mtime))
        return out

    def upload(self, name: str, data: BytesLike) -> None:
        """Store ``data`` (any bytes-like object) under ``name``.

        Zero-copy: ``write_bytes`` accepts any buffer directly.
        """
        # write-then-rename so a crashed upload never leaves a torn object
        target = self._path(name)
        tmp = target.with_name(target.name + ".part")
        tmp.write_bytes(data)
        tmp.replace(target)

    def download(self, name: str) -> bytes:
        path = self._path(name)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise ObjectNotFoundError(
                f"no object {name!r} at {self.csp_id}", csp_id=self.csp_id
            ) from None

    def delete(self, name: str) -> None:
        path = self._path(name)
        try:
            path.unlink()
        except FileNotFoundError:
            raise ObjectNotFoundError(
                f"no object {name!r} at {self.csp_id}", csp_id=self.csp_id
            ) from None
