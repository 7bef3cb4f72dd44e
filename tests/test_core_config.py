"""Unit tests for CyrusConfig."""

import pytest

from repro.core.config import CyrusConfig
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults_valid(self):
        cfg = CyrusConfig(key="k")
        assert cfg.t == 2 and cfg.n == 3

    def test_empty_key(self):
        with pytest.raises(ConfigurationError):
            CyrusConfig(key="")

    def test_n_below_t(self):
        with pytest.raises(ConfigurationError):
            CyrusConfig(key="k", t=3, n=2)

    def test_needs_n_or_epsilon(self):
        with pytest.raises(ConfigurationError):
            CyrusConfig(key="k", n=None, epsilon=None)

    def test_bad_epsilon(self):
        with pytest.raises(ConfigurationError):
            CyrusConfig(key="k", n=None, epsilon=1.5)

    def test_bad_t(self):
        with pytest.raises(ConfigurationError):
            CyrusConfig(key="k", t=0)

    @pytest.mark.parametrize("sizes", [
        dict(chunk_avg=300_000),  # not a power of two
        dict(chunk_min=1, chunk_avg=1 << 25, chunk_max=1 << 26),  # above 2^24
        dict(chunk_min=4_000_000),  # min > avg
        dict(chunk_max=1024),  # max < avg
        dict(chunk_min=0),
    ])
    def test_bad_chunk_sizes(self, sizes):
        """The chunker's rules are checked here, before any client (or
        stored config) is built from them."""
        with pytest.raises(ConfigurationError, match="chunk sizes"):
            CyrusConfig(key="k", **sizes)
        with pytest.raises(ConfigurationError):
            CyrusConfig(key="k").with_params(**sizes)


class TestPlanN:
    def test_fixed_n(self):
        assert CyrusConfig(key="k", t=2, n=3).plan_n(10) == 3

    def test_fixed_n_capped_by_csps(self):
        assert CyrusConfig(key="k", t=2, n=5).plan_n(4) == 4

    def test_epsilon_driven(self):
        cfg = CyrusConfig(key="k", t=2, n=None, epsilon=1e-6,
                          csp_failure_prob=0.01)
        n = cfg.plan_n(20)
        from repro.reliability import chunk_failure_probability

        assert chunk_failure_probability(2, n, 0.01) <= 1e-6

    def test_too_few_csps(self):
        with pytest.raises(ConfigurationError):
            CyrusConfig(key="k", t=3, n=4).plan_n(2)

    def test_with_params(self):
        cfg = CyrusConfig(key="k", t=2, n=3)
        changed = cfg.with_params(n=4)
        assert changed.n == 4 and cfg.n == 3
