"""The five-primitive cloud provider interface.

Paper Section 3.1: "CYRUS accommodates such differences by only using
basic cloud API calls: authenticate, list, upload, download, and delete,
which are available even on FTP servers."  Everything above this layer
is provider-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.csp.account import AuthToken, Credentials

#: Payload type accepted by ``upload``: anything exposing the buffer
#: protocol.  The zero-copy encode path hands providers ``memoryview``
#: slices of the encoded share arrays; an implementation may only
#: materialise (``bytes(data)``) when it must retain the payload beyond
#: the call.
BytesLike = bytes | bytearray | memoryview


@dataclass(frozen=True, slots=True)
class ObjectInfo:
    """Listing entry for one stored object (slotted: a sync reads the
    ``name`` of every listed entry, at a fixed offset, no ``__dict__``)."""

    name: str
    size: int
    modified: float  # provider timestamp, seconds


class CloudProvider(ABC):
    """Abstract CSP exposing only the five basic operations.

    Implementations may raise:

    * :class:`repro.errors.CSPAuthError` — bad or expired token;
    * :class:`repro.errors.CSPUnavailableError` — provider outage;
    * :class:`repro.errors.CSPQuotaExceededError` — account full;
    * :class:`repro.errors.ObjectNotFoundError` — missing object.
    """

    def __init__(self, csp_id: str):
        self.csp_id = csp_id

    @abstractmethod
    def authenticate(self, credentials: Credentials) -> AuthToken:
        """Exchange credentials for a session token."""

    @abstractmethod
    def list(self, *, prefix: str = "") -> list[ObjectInfo]:
        """List stored objects whose names start with ``prefix``."""

    @abstractmethod
    def upload(self, name: str, data: BytesLike) -> None:
        """Store ``data`` (any bytes-like object) under ``name``."""

    @abstractmethod
    def download(self, name: str) -> bytes:
        """Retrieve the object stored under ``name``."""

    @abstractmethod
    def delete(self, name: str) -> None:
        """Remove the object stored under ``name``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.csp_id!r}>"
