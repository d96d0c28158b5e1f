"""Covering a set of paths by edge removals.

Two approximation subroutines over the same data model: competing paths
are the universe elements, edges are the sets (an edge covers every path
it lies on), and protected-path edges take part in nothing.

``greedy_path_cover`` repeatedly takes the most cost-effective edge
(live-path count per unit cost). ``lp_path_cover`` solves the relaxed LP
and rounds it randomly, retrying until the result both covers everything
and stays within ``4*ln(4|P|)`` times the fractional cost.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .errors import InputError, RoundingFailureError
from .graphs import EdgeKey, Graph, Path
from .lp import LPSolution, RelaxedCutLP, build_cover_lp, solve_relaxed

#: Rounding attempts before giving up; success probability per attempt
#: exceeds 1/2, so hitting this cap indicates a bug, not bad luck.
DEFAULT_RETRY_CAP = 64


def _cost_effectiveness(count: int, cost) -> float:
    # Zero-cost edges are infinitely cost-effective: removing a free edge
    # that cuts at least one path can never hurt.
    return math.inf if cost == 0 else count / cost


def greedy_path_cover(g: Graph, p_star: Path, paths: Sequence[Path]) -> frozenset:
    """Edge set intersecting every path in ``paths``, built greedily.

    Tables are initialized lazily (only edges that occur on some path get
    entries); the heap uses stale-entry skipping instead of decrease-key.
    Ties on cost-effectiveness go to the smallest canonical edge key.
    """
    costs = g.costs
    protected = frozenset(p_star.edges)
    paths_on_edge: dict[EdgeKey, set[int]] = {}
    edges_of_path: dict[int, set[EdgeKey]] = {}
    live_count: dict[EdgeKey, int] = {}
    for pid, p in enumerate(paths):
        cuttable = set()
        for e in p.edges:
            if e in protected:
                continue
            if e not in costs:
                raise InputError(f"constraint path uses unknown edge {e}")
            cuttable.add(e)
            paths_on_edge.setdefault(e, set()).add(pid)
            live_count[e] = live_count.get(e, 0) + 1
        if not cuttable:
            raise InputError(f"uncuttable constraint: {p!r} has only protected edges")
        edges_of_path[pid] = cuttable

    heap = [(-_cost_effectiveness(live_count[e], costs[e]), e) for e in live_count]
    heapq.heapify(heap)
    chosen: list[EdgeKey] = []
    remaining = len(edges_of_path)
    while remaining > 0:
        neg_ratio, e = heapq.heappop(heap)
        count = live_count[e]
        if count == 0:
            continue
        current = -_cost_effectiveness(count, costs[e])
        if current != neg_ratio:
            heapq.heappush(heap, (current, e))
            continue
        chosen.append(e)
        for pid in list(paths_on_edge[e]):
            for e1 in edges_of_path[pid]:
                live_count[e1] -= 1
                paths_on_edge[e1].discard(pid)
            edges_of_path[pid] = set()
            remaining -= 1
    return frozenset(chosen)


@dataclass(frozen=True)
class LPCoverResult:
    """Rounded cover plus the fractional solution it came from.

    ``retries`` counts re-draw rounds after the first attempt.
    """

    edges: frozenset
    retries: int
    lp: RelaxedCutLP
    solution: LPSolution
    cost: float
    cost_bound: float


def lp_path_cover(
    g: Graph,
    p_star: Path,
    paths: Sequence[Path],
    rng,
    retry_cap: int = DEFAULT_RETRY_CAP,
    solver=solve_relaxed,
) -> LPCoverResult:
    """Randomized-rounding cover of ``paths``.

    Solves the relaxed LP once, then repeatedly draws ``ceil(ln 4|P|)``
    Bernoulli rounds per edge with probability equal to its fractional
    value, keeping the union. A draw is accepted when it covers every path
    and costs at most ``4*ln(4|P|)`` times the fractional optimum. The LP
    is never re-solved between retries.

    ``rng`` is an integer seed or a ``numpy.random.Generator``. ``solver``
    is the seam for substituting an external LP engine: any callable
    taking a :class:`~pathcut.lp.RelaxedCutLP` and returning an optimal
    :class:`~pathcut.lp.LPSolution`, or raising
    :class:`~pathcut.errors.InfeasibleError` when the LP is infeasible.
    """
    if not paths:
        raise InputError("lp_path_cover needs at least one constraint path")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    lp = build_cover_lp(g, p_star, paths)
    sol = solver(lp)
    n_draws = math.ceil(math.log(4 * len(paths)))
    bound = 4.0 * math.log(4 * len(paths)) * sol.objective_value
    probs = np.asarray(sol.values)
    cvec = np.asarray(lp.costs, dtype=float)
    attempts = 0
    while attempts < retry_cap:
        attempts += 1
        mask = (rng.random((n_draws, len(probs))) < probs).any(axis=0)
        kept = mask.tolist()
        if not all(any(map(kept.__getitem__, row)) for row in lp.rows):
            continue
        cost = float(cvec[mask].sum())
        if cost <= bound + 1e-9:
            return LPCoverResult(
                edges=frozenset(compress(lp.edge_order, kept)),
                retries=attempts - 1,
                lp=lp,
                solution=sol,
                cost=cost,
                cost_bound=bound,
            )
    raise RoundingFailureError(
        f"randomized rounding failed {retry_cap} times", solution=sol
    )
