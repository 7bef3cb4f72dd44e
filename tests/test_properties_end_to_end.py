"""Property-based tests over the whole client stack (hypothesis)."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.csp import InMemoryCSP

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fresh_client(t=2, n=3, key="prop-key"):
    csps = [InMemoryCSP(f"p{i}") for i in range(max(4, n + 1))]
    cfg = CyrusConfig(key=key, t=t, n=n, chunk_min=64, chunk_avg=256,
                      chunk_max=2048)
    return CyrusClient.create(csps, cfg, client_id="prop"), csps, cfg


@given(data=st.binary(min_size=0, max_size=20_000))
@SETTINGS
def test_put_get_roundtrip(data):
    client, _, _ = fresh_client()
    client.put("file.bin", data)
    assert client.get("file.bin").data == data


@given(
    versions=st.lists(st.binary(min_size=1, max_size=4_000), min_size=2,
                      max_size=5, unique=True),
)
@SETTINGS
def test_every_version_recoverable(versions):
    client, _, _ = fresh_client()
    for v in versions:
        client.put("f.bin", v)
    for back, expected in enumerate(reversed(versions)):
        assert client.get("f.bin", version=back).data == expected


@given(data=st.binary(min_size=1, max_size=10_000), t=st.integers(2, 3))
@SETTINGS
def test_roundtrip_across_configs(data, t):
    client, _, _ = fresh_client(t=t, n=t + 1)
    client.put("f.bin", data)
    assert client.get("f.bin").data == data


@given(data=st.binary(min_size=1, max_size=8_000))
@SETTINGS
def test_fresh_device_recovers_everything(data):
    client, csps, cfg = fresh_client()
    client.put("f.bin", data)
    other = CyrusClient.create(csps, cfg, client_id="other-device")
    other.recover()
    assert other.get("f.bin", sync_first=False).data == data


@given(
    data=st.binary(min_size=2_000, max_size=12_000),
    victim=st.integers(0, 3),
)
@SETTINGS
def test_any_single_csp_loss_harmless(data, victim):
    client, csps, _ = fresh_client()
    client.put("f.bin", data)
    client.health.trip(csps[victim].csp_id)
    assert client.get("f.bin").data == data


@given(
    first=st.binary(min_size=500, max_size=5_000),
    second=st.binary(min_size=500, max_size=5_000),
)
@SETTINGS
def test_dedup_never_corrupts(first, second):
    client, _, _ = fresh_client()
    client.put("a.bin", first)
    client.put("b.bin", second)
    client.put("c.bin", first + second)
    assert client.get("a.bin").data == first
    assert client.get("b.bin").data == second
    assert client.get("c.bin").data == first + second
