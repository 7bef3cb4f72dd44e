"""Unit tests for a simulated provider's failures: quota, auth, outages.

A simulated provider is an :class:`InMemoryCSP`; every failure it shows
is a :class:`FaultSpec` applied by a :class:`FaultyProvider` on a shared
:class:`SimClock`.
"""

import pytest

from repro.csp import Credentials, InMemoryCSP
from repro.errors import (
    CSPAuthError,
    CSPQuotaExceededError,
    CSPUnavailableError,
    ObjectNotFoundError,
)
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.util.clock import SimClock

FOREVER = float("inf")


def make_csp(*specs, overwrite=True):
    clock = SimClock()
    store = InMemoryCSP("sim", overwrite=overwrite)
    return FaultyProvider(store, FaultPlan(specs), clock=clock), clock


class TestQuota:
    def test_enforced(self):
        # the account fills up after its first upload
        csp, _ = make_csp(FaultSpec(FaultKind.QUOTA, window_ops=(1, None)))
        csp.upload("a", b"12345")
        with pytest.raises(CSPQuotaExceededError):
            csp.upload("b", b"123456")
        assert csp.download("a") == b"12345"  # reads are unaffected

    def test_replacement_frees_space(self):
        csp, _ = make_csp()
        csp.upload("a", b"1234567890")
        csp.upload("a", b"abcdefghij")  # same name: replaces
        assert csp.download("a") == b"abcdefghij"
        assert csp.inner.stored_bytes == 10

    def test_revisions_all_count_against_the_quota(self):
        csp, _ = make_csp(overwrite=False)
        csp.upload("a", b"123456")
        csp.upload("a", b"12345")  # a new revision replaces nothing
        assert csp.inner.stored_bytes == 11

    def test_delete_frees_space(self):
        csp, _ = make_csp()
        csp.upload("a", b"1234567890")
        csp.delete("a")
        assert csp.inner.stored_bytes == 0

    def test_stored_bytes(self):
        csp, _ = make_csp()
        csp.upload("a", b"123")
        csp.upload("b", b"4567")
        assert csp.inner.stored_bytes == 7
        assert csp.inner.object_count == 2


class TestOutages:
    def test_down_interval(self):
        csp, clock = make_csp(
            FaultSpec(FaultKind.OUTAGE, window_time=(5.0, 10.0)))
        csp.upload("o", b"x")
        clock.advance(6)
        with pytest.raises(CSPUnavailableError):
            csp.download("o")
        clock.advance(5)
        assert csp.download("o") == b"x"

    def test_all_operations_blocked_when_down(self):
        csp, _ = make_csp(
            FaultSpec(FaultKind.OUTAGE, window_time=(0.0, 10.0)))
        for op in (
            lambda: csp.upload("o", b"x"),
            lambda: csp.download("o"),
            lambda: csp.list(),
            lambda: csp.delete("o"),
            lambda: csp.authenticate(Credentials("u")),
        ):
            with pytest.raises(CSPUnavailableError):
                op()
        assert csp.calls_reaching_inner == 0

    def test_is_up(self):
        # reachability is what a call sees; the window is half-open
        csp, clock = make_csp(
            FaultSpec(FaultKind.OUTAGE, window_time=(5.0, 10.0)))
        assert csp.list() == []
        clock.advance_to(7)
        with pytest.raises(CSPUnavailableError):
            csp.list()
        clock.advance_to(10)
        assert csp.list() == []


class TestAuth:
    def test_required(self):
        csp, _ = make_csp(FaultSpec(FaultKind.AUTH))
        with pytest.raises(CSPAuthError):
            csp.list()

    def test_token_grants_access(self):
        csp, _ = make_csp()
        token = csp.authenticate(Credentials("user", "pw"))
        assert token.account_id == "user"
        csp.upload("o", b"x")
        assert csp.download("o") == b"x"

    def test_token_expiry(self):
        csp, clock = make_csp(
            FaultSpec(FaultKind.AUTH, window_time=(100.0, FOREVER)))
        csp.authenticate(Credentials("user", "pw"))
        csp.upload("o", b"x")
        clock.advance(101)
        with pytest.raises(CSPAuthError):
            csp.download("o")

    def test_reauth_after_expiry(self):
        csp, clock = make_csp(
            FaultSpec(FaultKind.AUTH, window_time=(100.0, 200.0)))
        csp.authenticate(Credentials("user", "pw"))
        clock.advance(150)
        with pytest.raises(CSPAuthError):
            csp.authenticate(Credentials("user", "pw"))
        clock.advance(50)
        csp.authenticate(Credentials("user", "pw"))
        csp.list()


class TestAvailabilitySchedule:
    """What an outage schedule said, as fault-spec time windows."""

    def test_always_up(self):
        csp, clock = make_csp()
        csp.list()
        clock.advance_to(1e12)
        csp.list()

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.OUTAGE, window_time=(5.0, 5.0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.OUTAGE, window_time=(10.0, 5.0))


class TestMissingObjects:
    def test_not_found_when_up(self):
        csp, _ = make_csp()
        with pytest.raises(ObjectNotFoundError):
            csp.download("ghost")
