"""Unit tests for the simulated CSP: quota, auth, outages."""

import pytest

from repro.csp import AvailabilitySchedule, Credentials, SimulatedCSP
from repro.errors import (
    CSPAuthError,
    CSPQuotaExceededError,
    CSPUnavailableError,
    ObjectNotFoundError,
)
from repro.netsim import Link
from repro.util.clock import SimClock


def make_csp(**kwargs):
    clock = kwargs.pop("clock", SimClock())
    return SimulatedCSP(
        "sim", Link.symmetric("sim", 1e6), clock=clock, **kwargs
    ), clock


class TestQuota:
    def test_enforced(self):
        csp, _ = make_csp(quota_bytes=10)
        csp.upload("a", b"12345")
        with pytest.raises(CSPQuotaExceededError):
            csp.upload("b", b"123456")

    def test_replacement_frees_space(self):
        csp, _ = make_csp(quota_bytes=10)
        csp.upload("a", b"1234567890")
        csp.upload("a", b"abcdefghij")  # same name: replaces, fits
        assert csp.download("a") == b"abcdefghij"

    def test_overwrite_at_the_limit_and_the_figures_it_reports(self):
        csp, _ = make_csp(quota_bytes=10)
        csp.upload("a", b"123456")
        csp.upload("b", b"12")
        csp.upload("a", b"12345678")  # 8 - 6 + 8 = 10: exactly fits
        assert csp.stored_bytes == 10
        with pytest.raises(CSPQuotaExceededError) as caught:
            csp.upload("a", b"123456789")  # 10 - 8 + 9 = 11: one over
        # the message names the total that was compared, not 10 + 9
        assert "(11 > 10)" in str(caught.value)
        assert csp.download("a") == b"12345678"

    def test_revisions_all_count_against_the_quota(self):
        csp, _ = make_csp(quota_bytes=10, overwrite=False)
        csp.upload("a", b"123456")
        with pytest.raises(CSPQuotaExceededError) as caught:
            csp.upload("a", b"12345")  # a new revision replaces nothing
        assert "(11 > 10)" in str(caught.value)

    def test_delete_frees_space(self):
        csp, _ = make_csp(quota_bytes=10)
        csp.upload("a", b"1234567890")
        csp.delete("a")
        csp.upload("b", b"0987654321")

    def test_stored_bytes(self):
        csp, _ = make_csp()
        csp.upload("a", b"123")
        csp.upload("b", b"4567")
        assert csp.stored_bytes == 7
        assert csp.object_count == 2


class TestOutages:
    def test_down_interval(self):
        sched = AvailabilitySchedule([(5.0, 10.0)])
        csp, clock = make_csp(availability=sched)
        csp.upload("o", b"x")
        clock.advance(6)
        with pytest.raises(CSPUnavailableError):
            csp.download("o")
        clock.advance(5)
        assert csp.download("o") == b"x"

    def test_all_operations_blocked_when_down(self):
        sched = AvailabilitySchedule([(0.0, 10.0)])
        csp, _ = make_csp(availability=sched)
        for op in (
            lambda: csp.upload("o", b"x"),
            lambda: csp.download("o"),
            lambda: csp.list(),
            lambda: csp.delete("o"),
            lambda: csp.authenticate(Credentials("u")),
        ):
            with pytest.raises(CSPUnavailableError):
                op()

    def test_is_up(self):
        sched = AvailabilitySchedule([(5.0, 10.0)])
        csp, _ = make_csp(availability=sched)
        assert csp.is_up(0)
        assert not csp.is_up(7)
        assert csp.is_up(10)


class TestAuth:
    def test_required(self):
        csp, _ = make_csp(require_auth=True)
        with pytest.raises(CSPAuthError):
            csp.list()

    def test_token_grants_access(self):
        csp, _ = make_csp(require_auth=True)
        csp.authenticate(Credentials("user", "pw"))
        csp.upload("o", b"x")
        assert csp.download("o") == b"x"

    def test_token_expiry(self):
        csp, clock = make_csp(require_auth=True, token_ttl=100.0)
        csp.authenticate(Credentials("user", "pw"))
        csp.upload("o", b"x")
        clock.advance(101)
        with pytest.raises(CSPAuthError):
            csp.download("o")

    def test_reauth_after_expiry(self):
        csp, clock = make_csp(require_auth=True, token_ttl=100.0)
        csp.authenticate(Credentials("user", "pw"))
        clock.advance(200)
        csp.authenticate(Credentials("user", "pw"))
        csp.list()


class TestAvailabilitySchedule:
    def test_always_up(self):
        sched = AvailabilitySchedule.always_up()
        assert sched.is_up(0) and sched.is_up(1e12)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            AvailabilitySchedule([(0, 10), (5, 15)])

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            AvailabilitySchedule([(5, 5)])

    def test_downtime_accounting(self):
        sched = AvailabilitySchedule([(10, 20), (30, 35)])
        assert sched.downtime(0, 100) == 15
        assert sched.downtime(15, 32) == 7

    def test_next_up(self):
        sched = AvailabilitySchedule([(10, 20)])
        assert sched.next_up(5) == 5
        assert sched.next_up(15) == 20

    def test_from_annual_downtime_total(self):
        year = 365 * 24 * 3600.0
        sched = AvailabilitySchedule.from_annual_downtime(
            10.0, horizon_s=year, seed=7
        )
        assert sched.downtime(0, year) / 3600 == pytest.approx(10.0, rel=0.2)

    def test_zero_downtime(self):
        sched = AvailabilitySchedule.from_annual_downtime(0.0, horizon_s=1000)
        assert sched.is_up(500)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            AvailabilitySchedule.from_annual_downtime(-1, horizon_s=100)


class TestMissingObjects:
    def test_not_found_when_up(self):
        csp, _ = make_csp()
        with pytest.raises(ObjectNotFoundError):
            csp.download("ghost")
