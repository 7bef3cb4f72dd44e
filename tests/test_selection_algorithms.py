"""Unit tests for the CYRUS selector, its relaxations, and baselines."""

import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SelectionError
from repro.selection import (
    BruteForceSelector,
    ChunkDownload,
    CyrusSelector,
    DownloadProblem,
    GreedySelector,
    RandomSelector,
    RoundRobinSelector,
)
from repro.selection import relaxation
from repro.selection.relaxation import (
    lp_given_bandwidth,
    solve_fractional_alternating,
    solve_fractional_convexified,
)

TESTBED_CAPS = {f"fast{i}": 15e6 for i in range(4)} | {
    f"slow{i}": 2e6 for i in range(3)
}


def make_problem(chunks=6, t=2, n=4, seed=0, caps=None, client=40e6):
    caps = caps or TESTBED_CAPS
    rng = random.Random(seed)
    ids = sorted(caps)
    out = []
    for i in range(chunks):
        avail = tuple(rng.sample(ids, n))
        out.append(
            ChunkDownload(f"c{i}", rng.randint(1, 4) * 500_000, avail)
        )
    return DownloadProblem(
        chunks=tuple(out), t=t, link_caps=caps, client_cap=client
    )


class TestRelaxations:
    def test_alternating_feasible(self):
        p = make_problem(chunks=5, seed=1)
        sol = solve_fractional_alternating(p)
        for chunk in p.chunks:
            fracs = sol.chunk_fractions(chunk.chunk_id)
            assert sum(fracs.values()) == pytest.approx(p.t, abs=1e-6)
            assert all(-1e-9 <= v <= 1 + 1e-9 for v in fracs.values())

    def test_alternating_lower_bounds_integral(self):
        p = make_problem(chunks=4, seed=2)
        frac = solve_fractional_alternating(p)
        integral = BruteForceSelector().select(p)
        assert frac.y <= integral.bottleneck_time + 1e-6

    def test_convexified_feasible(self):
        p = make_problem(chunks=3, seed=3)
        sol = solve_fractional_convexified(p)
        for chunk in p.chunks:
            fracs = sol.chunk_fractions(chunk.chunk_id)
            assert sum(fracs.values()) == pytest.approx(p.t, abs=1e-3)

    def test_engines_agree_roughly(self):
        p = make_problem(chunks=3, seed=4)
        alt = solve_fractional_alternating(p)
        cvx = solve_fractional_convexified(p)
        assert cvx.y == pytest.approx(alt.y, rel=0.25) or cvx.y >= alt.y

    def test_fixed_chunks_respected(self):
        p = make_problem(chunks=4, seed=5)
        first = p.chunks[0]
        fixed_loads = {c: 0.0 for c in p.csps}
        for c in first.available[: p.t]:
            fixed_loads[c] += first.share_size
        sol = solve_fractional_alternating(
            p, fixed_loads=fixed_loads, fixed_chunks={first.chunk_id}
        )
        assert first.chunk_id not in sol.d


def highs_reference(problem, bandwidths, fixed_loads, fixed_chunks):
    """``min y`` of the fractional program by scipy's HiGHS (the oracle).

    Sizes and bandwidths are scaled to O(1) so the solver's tolerances
    are relative to the problem; the returned ``y`` is unscaled.
    """
    from scipy import optimize

    chunks = [c for c in problem.chunks if c.chunk_id not in fixed_chunks]
    usable = [c for c in problem.csps if bandwidths.get(c, 0.0) > 0]
    col = {
        (ch.chunk_id, c): i
        for i, (ch, c) in enumerate(
            (ch, c) for ch in chunks for c in ch.available if c in usable
        )
    }
    n_d = len(col)
    size_unit = max([ch.share_size for ch in chunks] + [1])
    beta_unit = max(bandwidths[c] for c in usable)
    a_ub = np.zeros((len(usable), n_d + 1))
    b_ub = np.zeros(len(usable))
    for row, c in enumerate(usable):
        for ch in chunks:
            if (ch.chunk_id, c) in col:
                a_ub[row, col[(ch.chunk_id, c)]] = ch.share_size / size_unit
        a_ub[row, n_d] = -bandwidths[c] / beta_unit
        b_ub[row] = -fixed_loads.get(c, 0.0) / size_unit
    a_eq = np.zeros((len(chunks), n_d + 1))
    for row, ch in enumerate(chunks):
        for c in ch.available:
            if (ch.chunk_id, c) in col:
                a_eq[row, col[(ch.chunk_id, c)]] = 1.0
    cost = np.zeros(n_d + 1)
    cost[n_d] = 1.0
    res = optimize.linprog(
        cost, A_ub=a_ub, b_ub=b_ub,
        A_eq=a_eq if chunks else None,
        b_eq=np.full(len(chunks), float(problem.t)) if chunks else None,
        bounds=[(0.0, 1.0)] * n_d + [(0.0, None)], method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success, res.message
    return res.x[n_d] * size_unit / beta_unit


@st.composite
def fractional_cases(draw):
    """(problem, fixed_loads, fixed_chunks) over the shapes the LP sees."""
    n_csps = draw(st.integers(3, 12))
    n = draw(st.integers(2, n_csps))
    t = draw(st.integers(1, n - 1))
    ids = [f"p{i:02d}" for i in range(n_csps)]
    if draw(st.booleans()):
        caps = {c: 1.0 for c in ids}
    else:
        caps = {c: draw(st.floats(1e5, 2e7)) for c in ids}
    # at most n - t dead CSPs, so any n-subset keeps t usable ones
    for c in draw(st.sets(st.sampled_from(ids), max_size=n - t)):
        caps[c] = 0.0
    chunks = tuple(
        ChunkDownload(
            f"c{i}",
            draw(st.integers(0, 4_000_000)),
            tuple(draw(st.lists(st.sampled_from(ids), min_size=n,
                                max_size=n, unique=True))),
        )
        for i in range(draw(st.integers(1, 40)))
    )
    problem = DownloadProblem(chunks, t, caps, client_cap=40e6)
    fixed_loads = {c: 0.0 for c in problem.csps}
    fixed_chunks = set()
    for chunk in draw(st.lists(st.sampled_from(chunks), max_size=5,
                               unique=True)):
        fixed_chunks.add(chunk.chunk_id)
        for c in [c for c in chunk.available if caps[c] > 0][:t]:
            fixed_loads[c] += chunk.share_size
    for c in draw(st.sets(st.sampled_from(problem.csps), max_size=3)):
        if caps[c] > 0:
            fixed_loads[c] += draw(st.floats(0.0, 5e6))
    return problem, fixed_loads, fixed_chunks


class TestDirectSolver:
    """`lp_given_bandwidth` solves the fractional program itself."""

    @settings(max_examples=150, deadline=None)
    @given(fractional_cases())
    def test_matches_highs_oracle(self, case):
        problem, fixed_loads, fixed_chunks = case
        beta = dict(problem.link_caps)
        sol = lp_given_bandwidth(problem, beta, fixed_loads, fixed_chunks)
        y = max(sol.loads[c] / beta[c] for c in problem.csps if beta[c] > 0)
        ref = highs_reference(problem, beta, fixed_loads, fixed_chunks)
        assert y == pytest.approx(ref, rel=1e-9, abs=1e-12)
        for chunk in problem.chunks:
            fracs = sol.chunk_fractions(chunk.chunk_id)
            if chunk.chunk_id in fixed_chunks:
                assert fracs == {}
                continue
            assert sum(fracs.values()) == pytest.approx(problem.t, abs=1e-9)
            assert all(0.0 <= v <= 1.0 for v in fracs.values())
            assert set(fracs) <= set(chunk.available)
            assert all(fracs.get(c, 0.0) == 0.0
                       for c in chunk.available if beta[c] == 0)

    def test_one_chunk_download_solves_nothing(self, monkeypatch):
        calls = self._count_solves(monkeypatch)
        plan = CyrusSelector(resolve_every=4).select(make_problem(chunks=1))
        assert len(plan.assignments) == 1
        assert calls == []

    @pytest.mark.parametrize("chunks,every", [(16, 4), (17, 4), (5, 1), (9, 3)])
    def test_at_most_one_solve_per_resolve(self, monkeypatch, chunks, every):
        calls = self._count_solves(monkeypatch)
        CyrusSelector(resolve_every=every).select(make_problem(chunks=chunks))
        assert 1 <= len(calls) <= math.ceil(chunks / every)

    @staticmethod
    def _count_solves(monkeypatch):
        calls = []
        real = relaxation.lp_given_bandwidth

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(relaxation, "lp_given_bandwidth", counted)
        return calls

    def test_wide_problem_same_path_under_50ms(self, monkeypatch):
        rng = random.Random(24)
        caps = {f"w{i:02d}": rng.uniform(1e6, 2e7) for i in range(24)}
        problem = DownloadProblem(
            chunks=tuple(
                ChunkDownload(f"c{i}", rng.randint(60_000, 4_000_000),
                              tuple(rng.sample(sorted(caps), 6)))
                for i in range(160)
            ),
            t=3, link_caps=caps, client_cap=1e9,
        )
        widths = []
        real = relaxation._balance_groups

        def spy(avail, *args):
            widths.append(len(avail))
            return real(avail, *args)

        monkeypatch.setattr(relaxation, "_balance_groups", spy)
        best = math.inf
        for _ in range(3):
            started = time.perf_counter()
            sol = lp_given_bandwidth(problem, caps)
            best = min(best, time.perf_counter() - started)
        assert best < 0.050
        lp_given_bandwidth(make_problem(chunks=5), TESTBED_CAPS)
        assert widths[0] == 160 and 1 <= widths[-1] <= 5  # one solver, any width
        y = max(sol.loads[c] / caps[c] for c in caps)
        assert y == pytest.approx(highs_reference(problem, caps, {}, set()),
                                  rel=1e-9)

    def test_select_is_deterministic(self):
        p = make_problem(chunks=12, seed=13)
        selector = CyrusSelector(resolve_every=4)
        assert selector.select(p).assignments == selector.select(p).assignments


class TestScipyOffTheGetPath:
    """Only the convexified ablation may import scipy."""

    @staticmethod
    def _run(code):
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120,
        )

    CHECK = ("import sys; "
             "assert not any(m.startswith('scipy') for m in sys.modules)")

    def test_import_repro_does_not_import_scipy(self):
        done = self._run("import repro; " + self.CHECK)
        assert done.returncode == 0, done.stderr

    def test_put_and_get_do_not_import_scipy(self):
        done = self._run(
            "import random\n"
            "from repro.core.client import CyrusClient\n"
            "from repro.core.config import CyrusConfig\n"
            "from repro.csp.memory import InMemoryCSP\n"
            "client = CyrusClient.create(\n"
            "    [InMemoryCSP(f'csp{i}') for i in range(4)],\n"
            "    CyrusConfig(key='k', t=2, n=3, chunk_min=128,\n"
            "                chunk_avg=512, chunk_max=4096))\n"
            "data = random.Random(1).randbytes(20_000)\n"
            "client.put('f.bin', data)\n"
            "assert client.get('f.bin').data == data\n" + self.CHECK
        )
        assert done.returncode == 0, done.stderr


class TestCyrusSelector:
    def test_matches_brute_force_small(self):
        for seed in range(5):
            p = make_problem(chunks=4, t=2, n=3, seed=seed)
            cyrus = CyrusSelector().select(p)
            brute = BruteForceSelector().select(p)
            assert cyrus.bottleneck_time <= brute.bottleneck_time * 1.15

    def test_beats_or_ties_baselines(self):
        for seed in range(4):
            p = make_problem(chunks=10, seed=seed + 10)
            y_cyrus = CyrusSelector().select(p).bottleneck_time
            for baseline in (
                RandomSelector(seed=seed),
                RoundRobinSelector(),
                GreedySelector(),
            ):
                assert y_cyrus <= baseline.select(p).bottleneck_time + 1e-9

    def test_resolve_every_tradeoff(self):
        p = make_problem(chunks=20, seed=42)
        exact = CyrusSelector(resolve_every=1).select(p)
        amortized = CyrusSelector(resolve_every=8).select(p)
        assert amortized.bottleneck_time <= exact.bottleneck_time * 1.5

    def test_greedy_fallback_for_wide_problems(self):
        p = make_problem(chunks=3, t=2, n=6, seed=7)
        plan = CyrusSelector(enumeration_limit=1).select(p)
        assert plan.bottleneck_time > 0  # feasible despite greedy path

    def test_largest_first_order(self):
        p = make_problem(chunks=8, seed=8)
        plan = CyrusSelector(order="largest-first").select(p)
        assert set(plan.assignments) == {c.chunk_id for c in p.chunks}

    def test_convexified_relaxation_engine(self):
        p = make_problem(chunks=3, seed=9)
        plan = CyrusSelector(relaxation="convexified").select(p)
        brute = BruteForceSelector().select(p)
        assert plan.bottleneck_time <= brute.bottleneck_time * 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            CyrusSelector(resolve_every=0)
        with pytest.raises(ValueError):
            CyrusSelector(relaxation="magic")
        with pytest.raises(ValueError):
            CyrusSelector(order="backwards")

    def test_avoids_slow_csp_when_possible(self):
        caps = {"fast1": 10e6, "fast2": 10e6, "crawl": 0.1e6}
        p = DownloadProblem(
            chunks=tuple(
                ChunkDownload(f"c{i}", 1_000_000, ("fast1", "fast2", "crawl"))
                for i in range(4)
            ),
            t=2, link_caps=caps, client_cap=50e6,
        )
        plan = CyrusSelector().select(p)
        for chosen in plan.assignments.values():
            assert "crawl" not in chosen


class TestBaselines:
    def test_random_deterministic_per_seed(self):
        p = make_problem(chunks=6, seed=1)
        a = RandomSelector(seed=5).select(p).assignments
        b = RandomSelector(seed=5).select(p).assignments
        assert a == b

    def test_random_varies_with_seed(self):
        p = make_problem(chunks=10, seed=1)
        a = RandomSelector(seed=1).select(p).assignments
        b = RandomSelector(seed=2).select(p).assignments
        assert a != b

    def test_round_robin_spreads(self):
        caps = {c: 1e6 for c in "abcd"}
        p = DownloadProblem(
            chunks=tuple(
                ChunkDownload(f"c{i}", 100, ("a", "b", "c", "d"))
                for i in range(4)
            ),
            t=2, link_caps=caps, client_cap=10e6,
        )
        plan = RoundRobinSelector().select(p)
        counts = {}
        for chosen in plan.assignments.values():
            for c in chosen:
                counts[c] = counts.get(c, 0) + 1
        assert max(counts.values()) == min(counts.values())

    def test_greedy_picks_fastest(self):
        p = make_problem(chunks=1, t=2, n=4, seed=3)
        plan = GreedySelector().select(p)
        chunk = p.chunks[0]
        chosen = plan.assignments[chunk.chunk_id]
        speeds = sorted(
            (TESTBED_CAPS[c] for c in chunk.available), reverse=True
        )
        assert sorted(
            (TESTBED_CAPS[c] for c in chosen), reverse=True
        ) == speeds[:2]

    def test_brute_force_guard(self):
        p = make_problem(chunks=30, t=2, n=4, seed=4)
        with pytest.raises(SelectionError):
            BruteForceSelector(combo_limit=100).select(p)

    def test_all_selectors_produce_valid_plans(self):
        from repro.selection.problem import validate_plan

        p = make_problem(chunks=7, seed=11)
        for selector in (
            CyrusSelector(), RandomSelector(), RoundRobinSelector(),
            GreedySelector(),
        ):
            validate_plan(p, selector.select(p))
