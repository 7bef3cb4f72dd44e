"""Dict-backed provider: the store of every test, simulated environment
and fleet run (faults come from :class:`repro.faults.FaultyProvider`)."""

from __future__ import annotations

import sys
import threading
from bisect import bisect_left

from repro.csp.account import AuthToken, Credentials, issue_token
from repro.csp.base import BytesLike, CloudProvider, ObjectInfo
from repro.errors import ObjectNotFoundError


def _prefix_end(prefix: str) -> str | None:
    """The least string above every string that starts with ``prefix``
    (None when there is none: the empty prefix, or all top code points)."""
    stem = prefix.rstrip(chr(sys.maxunicode))
    return stem[:-1] + chr(ord(stem[-1]) + 1) if stem else None


class InMemoryCSP(CloudProvider):
    """A provider holding objects in a dict, listed from a sorted index.

    Upload semantics are configurable to emulate the vendor differences
    the paper calls out (Section 3.1): with ``overwrite=True`` (Dropbox
    style) an upload to an existing name replaces the object; with
    ``overwrite=False`` (Google Drive style) it appends a new revision
    and ``download`` returns the most recent one.  CYRUS's content-
    derived share names make the two indistinguishable, which is exactly
    the property the tests pin down.

    Beside the revisions dict the store keeps the object names sorted,
    each with the listing entry built when it was last uploaded, and a
    running byte total: ``list(prefix)`` is two bisections and a slice,
    ``stored_bytes`` a field read.  ``upload`` and ``delete`` are the
    only writers of all three, under one lock (a parallel engine calls
    one provider from several pool threads), so nothing falls out of
    step.
    """

    def __init__(self, csp_id: str, overwrite: bool = True):
        super().__init__(csp_id)
        self.overwrite = overwrite
        self._objects: dict[str, list[tuple[float, bytes]]] = {}
        self._names: list[str] = []  # sorted
        self._infos: list[ObjectInfo] = []  # parallel to _names
        self._stored_bytes = 0
        self._op_count = 0
        self._lock = threading.Lock()

    # -- bookkeeping ----------------------------------------------------

    @property
    def stored_bytes(self) -> int:
        """Total bytes across all revisions (what the account pays for)."""
        return self._stored_bytes

    @property
    def object_count(self) -> int:
        """Number of distinct object names."""
        return len(self._objects)

    def revision_count(self, name: str) -> int:
        """Number of stored revisions for one name (0 if absent)."""
        return len(self._objects.get(name, []))

    def object_size(self, name: str) -> int | None:
        """Size of the latest revision, or None when absent."""
        revs = self._objects.get(name)
        return len(revs[-1][1]) if revs else None

    def _tick(self) -> float:
        self._op_count += 1
        return float(self._op_count)

    # -- the five primitives ---------------------------------------------

    def authenticate(self, credentials: Credentials) -> AuthToken:
        return issue_token(credentials, provider_secret=self.csp_id)

    def list(self, *, prefix: str = "") -> list[ObjectInfo]:
        """List stored objects whose names start with ``prefix``."""
        end = _prefix_end(prefix)
        with self._lock:
            names = self._names
            return self._infos[
                bisect_left(names, prefix):
                len(names) if end is None else bisect_left(names, end)
            ]

    def upload(self, name: str, data: BytesLike) -> None:
        """Store ``data`` (any bytes-like object) under ``name``.

        The single ``bytes(data)`` is the retention copy the store
        needs anyway (the caller may reuse its buffer); a payload that
        is already ``bytes`` is not copied again.
        """
        blob = bytes(data)
        with self._lock:
            stamp = self._tick()
            info = ObjectInfo(name=name, size=len(blob), modified=stamp)
            revs = self._objects.get(name)
            at = bisect_left(self._names, name)
            if revs is None:
                self._objects[name] = [(stamp, blob)]
                self._names.insert(at, name)
                self._infos.insert(at, info)
            else:
                if self.overwrite:
                    self._stored_bytes -= sum(len(old) for _, old in revs)
                    revs.clear()
                revs.append((stamp, blob))
                self._infos[at] = info
            self._stored_bytes += len(blob)

    def download(self, name: str) -> bytes:
        revs = self._objects.get(name)
        if not revs:
            raise ObjectNotFoundError(
                f"no object {name!r} at {self.csp_id}", csp_id=self.csp_id
            )
        return revs[-1][1]

    def delete(self, name: str) -> None:
        with self._lock:
            revs = self._objects.pop(name, None)
            if revs is None:
                raise ObjectNotFoundError(
                    f"no object {name!r} at {self.csp_id}", csp_id=self.csp_id
                )
            at = bisect_left(self._names, name)
            del self._names[at], self._infos[at]
            self._stored_bytes -= sum(len(old) for _, old in revs)
