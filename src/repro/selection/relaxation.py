"""Fractional relaxations of the download-selection problem.

Two engines produce a fractional assignment ``d_{r,c}``:

* ``alternating`` — the two exactly-solvable sub-problems, each solved
  once: the fractional assignment for bandwidths at the link caps
  (:func:`lp_given_bandwidth`, a direct solver on availability groups)
  and the closed-form bandwidth allocation for the resulting loads
  (:mod:`repro.selection.bandwidth`).  Together they are the joint
  optimum (see :func:`solve_fractional_alternating`).

* ``convexified`` — the paper's construction: substitute
  ``D_{r,c} = d_{r,c}^(1/2)``, over-estimate it with the closest linear
  function ``D-hat = 3^(1/4) d / 2 + 3^(-1/4) / 2`` and solve the
  resulting jointly convex program in ``(d, beta, y)`` with SLSQP
  (scipy, imported only there).
  Because D-hat is an over-estimator, any feasible point of the
  convexified program is feasible for the true problem.

Both yield near-identical fractional solutions; the ablation benchmark
compares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import SelectionError
from repro.selection.bandwidth import optimal_bandwidth_allocation
from repro.selection.problem import ChunkDownload, DownloadProblem

#: Linear over-estimator coefficients for sqrt(d) on [0, 1] (paper §4.3).
DHAT_SLOPE = 3.0 ** 0.25 / 2.0
DHAT_INTERCEPT = 3.0 ** -0.25 / 2.0


@dataclass
class FractionalSolution:
    """A fractional assignment with its loads and bandwidth split."""

    d: dict[str, dict[str, float]]  # chunk_id -> {csp: fraction in [0, 1]}
    loads: dict[str, float]
    bandwidths: dict[str, float]
    y: float

    def chunk_fractions(self, chunk_id: str) -> dict[str, float]:
        """CSP -> fraction for one chunk."""
        return self.d.get(chunk_id, {})


def _index_problem(problem: DownloadProblem, skip: set[str]):
    """Variable indexing for the unfixed chunks."""
    chunks = [c for c in problem.chunks if c.chunk_id not in skip]
    csps = problem.csps
    csp_index = {c: i for i, c in enumerate(csps)}
    var_index: dict[tuple[str, str], int] = {}
    for chunk in chunks:
        for csp in chunk.available:
            if problem.link_caps.get(csp, 0.0) > 0:
                var_index[(chunk.chunk_id, csp)] = len(var_index)
    return chunks, csps, csp_index, var_index


def lp_given_bandwidth(
    problem: DownloadProblem,
    bandwidths: Mapping[str, float],
    fixed_loads: dict[str, float] | None = None,
    fixed_chunks: set[str] | None = None,
) -> FractionalSolution:
    """Exact ``min y`` over ``d`` with bandwidths held constant.

    Solves ``min y  s.t.  F_c + sum_r b_r d_rc <= y beta_c,
    sum_c d_rc = t,  0 <= d <= 1`` directly.  ``fixed_loads`` (``F``)
    are byte loads from already-integrally-assigned chunks (Algorithm
    1's ``r < eta``); those chunks are listed in ``fixed_chunks`` and
    excluded from the variables.  CSPs without capacity or bandwidth
    get no fraction.

    Chunks with the same usable availability set are interchangeable in
    the relaxation (give each the group's mean fractions: same loads,
    still feasible), so the unknowns are one fraction per (group, CSP)
    edge — at most ``C(C, n)`` groups however many chunks there are.
    """
    fixed_loads = fixed_loads or {}
    fixed_chunks = fixed_chunks or set()
    csps = [
        c for c in problem.csps
        if problem.link_caps.get(c, 0.0) > 0 and bandwidths.get(c, 0.0) > 0
    ]
    index = {c: i for i, c in enumerate(csps)}
    groups: dict[tuple[int, ...], list[ChunkDownload]] = {}
    for chunk in problem.chunks:
        if chunk.chunk_id in fixed_chunks:
            continue
        key = tuple(sorted(index[c] for c in chunk.available if c in index))
        if len(key) < problem.t:
            raise SelectionError(
                f"chunk {chunk.chunk_id}: {len(key)} CSPs with bandwidth, "
                f"need t={problem.t}"
            )
        groups.setdefault(key, []).append(chunk)
    avail = list(groups)
    sizes = [float(sum(ch.share_size for ch in g)) for g in groups.values()]
    fractions = _balance_groups(
        avail, sizes, problem.t,
        [bandwidths[c] for c in csps],
        [fixed_loads.get(c, 0.0) for c in csps],
    )
    d: dict[str, dict[str, float]] = {}
    loads = {c: fixed_loads.get(c, 0.0) for c in problem.csps}
    for key, size, x, members in zip(avail, sizes, fractions, groups.values()):
        fracs = {csps[c]: min(1.0, max(0.0, v)) for c, v in zip(key, x)}
        for csp, v in fracs.items():
            loads[csp] += size * v
        for chunk in members:
            d[chunk.chunk_id] = dict(fracs)
    y, betas = optimal_bandwidth_allocation(
        loads, problem.link_caps, problem.client_cap
    )
    return FractionalSolution(d=d, loads=loads, bandwidths=betas, y=y)


def _balance_groups(
    avail: list[tuple[int, ...]],
    sizes: list[float],
    t: int,
    beta: list[float],
    fixed: list[float],
) -> list[list[float]]:
    """Fractions ``x[g][k]`` of group g on CSP ``avail[g][k]`` minimising
    ``max_c (fixed_c + sum_g sizes_g x_gc) / beta_c``.

    Every group starts spread evenly (always feasible: ``t`` per group,
    each edge in [0, 1]) and ``y`` at the all-CSP mean, a lower bound.
    Then, as in max-flow, CSPs above ``y beta_c`` shed bytes to CSPs
    below it along shortest alternating paths (a -> b through a group
    holding a fraction on a and room on b).  When the overloaded CSPs
    reach no underloaded one, the reached set S is closed: its members
    are full and every group using S already fills its CSPs outside S,
    so what S carries is forced on it by any assignment and
    ``load(S) / beta(S)`` is a lower bound above ``y`` (the min-cut step
    of discrete Newton); raise ``y`` to it and go on inside S.  Each
    raise shrinks S, each path saturates an edge or an endpoint, so the
    work is polynomial in groups and CSPs; it ends with no CSP above a
    ``y`` that is a lower bound, i.e. at the optimum.
    """
    eps = 1e-12
    x = [[t / len(a)] * len(a) for a in avail]
    total = list(fixed)
    member: list[list[tuple[int, int]]] = [[] for _ in beta]
    for g, a in enumerate(avail):
        if sizes[g] > 0:
            for k, c in enumerate(a):
                member[c].append((g, k))
                total[c] += sizes[g] * x[g][k]
    used = [c for c, m in enumerate(member) if m]
    if not used:
        return x
    y = sum(total[c] for c in used) / sum(beta[c] for c in used)
    while True:
        room = {c: y * beta[c] - total[c] for c in used}
        parent: dict[int, tuple[int, int, int, int] | None] = {
            c: None for c in used if room[c] < -eps * y * beta[c]
        }
        if not parent:
            return x
        reached = list(parent)
        opened: set[int] = set()  # a group's exits do not depend on the entry
        for a in reached:  # breadth-first; grows as it is walked
            for g, ka in member[a]:
                if g not in opened and x[g][ka] > eps:
                    opened.add(g)
                    for kb, b in enumerate(avail[g]):
                        if b not in parent and x[g][kb] < 1 - eps:
                            parent[b] = (a, g, ka, kb)
                            reached.append(b)
        pushed = False
        for b in reached:
            if room[b] <= eps * y * beta[b]:
                continue
            path = []
            root = b
            while parent[root] is not None:
                path.append(parent[root])
                root = parent[root][0]
            delta = min(
                room[b], -room[root],
                *(sizes[g] * min(x[g][ka], 1 - x[g][kb]) for _, g, ka, kb in path),
            )
            if delta <= 0:
                continue
            for _, g, ka, kb in path:
                x[g][ka] -= delta / sizes[g]
                x[g][kb] += delta / sizes[g]
            total[root] -= delta
            total[b] += delta
            room[root] += delta
            room[b] -= delta
            pushed = True
        if not pushed:
            bound = sum(total[c] for c in reached) / sum(beta[c] for c in reached)
            if bound <= y:  # excesses are all within float tolerance
                return x
            y = bound


def solve_fractional_alternating(
    problem: DownloadProblem,
    fixed_loads: dict[str, float] | None = None,
    fixed_chunks: set[str] | None = None,
) -> FractionalSolution:
    """The joint optimum over ``(d, beta)``: one solve at the link caps.

    For fixed loads the bandwidth step has the closed form
    ``y = max(max_c L_c / cap_c, sum_c L_c / client_cap)``
    (:mod:`repro.selection.bandwidth`), and ``sum_c L_c = sum_c F_c +
    t sum_r b_r`` is the same for every ``d``.  So the ``d`` minimising
    ``max_c L_c / cap_c`` — the fractional solve with ``beta`` at the
    caps — minimises ``y`` jointly, and the bandwidth step that
    :func:`lp_given_bandwidth` ends with completes it.  Alternating
    further can never lower ``y``: the name records the two steps, there
    is nothing left to iterate.
    """
    return lp_given_bandwidth(
        problem, problem.link_caps, fixed_loads, fixed_chunks
    )


def solve_fractional_convexified(
    problem: DownloadProblem,
    fixed_loads: dict[str, float] | None = None,
    fixed_chunks: set[str] | None = None,
) -> FractionalSolution:
    """The paper's convexified program, solved with SLSQP.

    Variables are ``d`` (per usable chunk/CSP pair), ``beta`` (per CSP)
    and ``y``; constraints use the linear over-estimator
    ``D-hat(d) = 3^(1/4) d / 2 + 3^(-1/4) / 2`` so that
    ``sum_r b_r D-hat^2 <= y beta_c`` implies the true constraint.
    """
    from scipy import optimize  # the only scipy user: keep it off `import repro`

    fixed_loads = fixed_loads or {}
    fixed_chunks = fixed_chunks or set()
    chunks, csps, csp_index, var_index = _index_problem(problem, fixed_chunks)
    if not chunks:
        return lp_given_bandwidth(problem, problem.link_caps,
                                  fixed_loads, fixed_chunks)
    n_d = len(var_index)
    n_c = len(csps)
    n_vars = n_d + n_c + 1
    y_col = n_d + n_c
    sizes = {ch.chunk_id: ch.share_size for ch in chunks}

    def beta_col(csp: str) -> int:
        return n_d + csp_index[csp]

    def objective(x: np.ndarray) -> float:
        return x[y_col]

    def objective_grad(x: np.ndarray) -> np.ndarray:
        g = np.zeros(n_vars)
        g[y_col] = 1.0
        return g

    constraints = []
    # per-CSP: y * beta_c - sum_r b_r Dhat(d_rc)^2 - F_c >= 0
    for csp in csps:
        members = [
            (i, sizes[chunk_id])
            for (chunk_id, c2), i in var_index.items()
            if c2 == csp
        ]
        f_c = fixed_loads.get(csp, 0.0)
        if not members and f_c == 0.0:
            continue
        bc = beta_col(csp)

        def make(members=members, bc=bc, f_c=f_c):
            def fun(x: np.ndarray) -> float:
                acc = x[y_col] * x[bc] - f_c
                for i, size in members:
                    dhat = DHAT_SLOPE * x[i] + DHAT_INTERCEPT
                    acc -= size * dhat * dhat
                return acc

            return fun

        constraints.append({"type": "ineq", "fun": make()})
    # client cap: beta - sum beta_c >= 0
    constraints.append(
        {
            "type": "ineq",
            "fun": lambda x: problem.client_cap - x[n_d : n_d + n_c].sum(),
        }
    )
    # per-chunk: sum_c d_rc == t
    for chunk in chunks:
        idxs = [
            var_index[(chunk.chunk_id, c)]
            for c in chunk.available
            if (chunk.chunk_id, c) in var_index
        ]

        def make_eq(idxs=idxs):
            return lambda x: x[idxs].sum() - problem.t

        constraints.append({"type": "eq", "fun": make_eq()})

    bounds = (
        [(0.0, 1.0)] * n_d
        + [(0.0, problem.link_caps.get(c, 0.0)) for c in csps]
        + [(0.0, None)]
    )
    x0 = np.zeros(n_vars)
    for chunk in chunks:
        usable = [
            c for c in chunk.available if (chunk.chunk_id, c) in var_index
        ]
        for c in usable:
            x0[var_index[(chunk.chunk_id, c)]] = problem.t / len(usable)
    total_cap = sum(problem.link_caps.get(c, 0.0) for c in csps)
    scale = min(1.0, problem.client_cap / total_cap) if total_cap else 1.0
    for c in csps:
        x0[beta_col(c)] = problem.link_caps.get(c, 0.0) * scale
    x0[y_col] = 1.0
    res = optimize.minimize(
        objective,
        x0,
        jac=objective_grad,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-9},
    )
    # 9: iteration limit, 8: line search stalled; accept the best iterate
    if not res.success and res.status not in (8, 9):
        raise SelectionError(f"convexified solve failed: {res.message}")
    x = res.x
    d: dict[str, dict[str, float]] = {}
    loads = {c: fixed_loads.get(c, 0.0) for c in csps}
    for (chunk_id, csp), i in var_index.items():
        frac = float(np.clip(x[i], 0.0, 1.0))
        d.setdefault(chunk_id, {})[csp] = frac
        loads[csp] += sizes[chunk_id] * frac
    y, betas = optimal_bandwidth_allocation(
        loads, dict(problem.link_caps), problem.client_cap
    )
    return FractionalSolution(d=d, loads=loads, bandwidths=betas, y=y)
