"""Benchmark-side providers: a delayed in-memory CSP and provider counting.

Both are built only on the public five-primitive ``CloudProvider``
surface, so they survive any refactor of the transfer stack.
"""

from __future__ import annotations

import threading
import time

from repro.csp.base import BytesLike, ObjectInfo
from repro.csp.memory import InMemoryCSP

#: The WAN link ``DelayedCSP`` models: round trip and bytes per second.
RTT_S = 0.010
RATE = 40e6


class DelayedCSP(InMemoryCSP):
    """``InMemoryCSP`` whose transfers cost wall time, like a WAN link.

    Every upload, download and list sleeps ``RTT_S + bytes / RATE``
    (list moves no payload, so it pays the round trip only).  The sleep
    releases the interpreter lock, so a parallel transfer engine can
    overlap these waits with each other and with encoding.
    """

    def _wait(self, nbytes: int) -> None:
        time.sleep(RTT_S + nbytes / RATE)

    def list(self, *, prefix: str = "") -> list[ObjectInfo]:
        self._wait(0)
        return super().list(prefix=prefix)

    def upload(self, name: str, data: BytesLike) -> None:
        self._wait(len(data))
        super().upload(name, data)

    def download(self, name: str) -> bytes:
        data = super().download(name)
        self._wait(len(data))
        return data


class CspCounters:
    """Calls, bytes and seconds per provider primitive.

    Counting is O(1) per call and does not depend on timing, so it stays
    on in the untraced pass: the ``csp.*`` counts and the three
    ``bytes_*_per_user_byte`` ratios come from here in both passes.
    """

    PRIMITIVES = ("upload", "download", "list", "delete")

    def __init__(self) -> None:
        # pool workers of a parallel engine call one provider concurrently
        self._lock = threading.Lock()
        self.calls = dict.fromkeys(self.PRIMITIVES, 0)
        self.seconds = dict.fromkeys(self.PRIMITIVES, 0.0)
        self.bytes_up = 0
        self.bytes_down = 0
        self.list_entries = 0
        self._base = self.totals()

    def record(self, primitive: str, started: float, up: int = 0,
               down: int = 0, entries: int = 0) -> None:
        elapsed = time.perf_counter() - started
        with self._lock:
            self.calls[primitive] += 1
            self.seconds[primitive] += elapsed
            self.bytes_up += up
            self.bytes_down += down
            self.list_entries += entries

    def totals(self) -> dict[str, float]:
        out = {"bytes_up": self.bytes_up, "bytes_down": self.bytes_down,
               "list_entries": self.list_entries}
        for primitive in self.PRIMITIVES:
            out[f"{primitive}_calls"] = self.calls[primitive]
            out[f"{primitive}_s"] = self.seconds[primitive]
        return out

    def mark(self) -> None:
        """Start of the timed section: set-up traffic is not charged to it."""
        self._base = self.totals()

    def since_mark(self) -> dict[str, float]:
        return {k: v - self._base[k] for k, v in self.totals().items()}


def count_provider_class(cls: type) -> CspCounters:
    """Count every call made through instances of one provider class.

    Patching the class also reaches providers the benchmark does not
    construct itself: the fleet harness wraps its shared accounts in one
    ``NamespacedCSP`` per tenant, and tenant traffic (not the harness's
    own audit reads of the raw accounts) is what passes through that
    class.  Every pass is a process of its own, so nothing is unpatched.
    """
    counters = CspCounters()
    plain_list, plain_upload = cls.list, cls.upload
    plain_download, plain_delete = cls.download, cls.delete

    def list(self, *, prefix: str = ""):
        started = time.perf_counter()
        infos = plain_list(self, prefix=prefix)
        counters.record("list", started, entries=len(infos))
        return infos

    def upload(self, name, data):
        started = time.perf_counter()
        plain_upload(self, name, data)
        counters.record("upload", started, up=len(data))

    def download(self, name):
        started = time.perf_counter()
        data = plain_download(self, name)
        counters.record("download", started, down=len(data))
        return data

    def delete(self, name):
        started = time.perf_counter()
        plain_delete(self, name)
        counters.record("delete", started)

    cls.list, cls.upload = list, upload
    cls.download, cls.delete = download, delete
    return counters


def resident_bytes(providers) -> int:
    """Bytes the providers hold now, from their own listings."""
    return sum(info.size for p in providers for info in p.list())
