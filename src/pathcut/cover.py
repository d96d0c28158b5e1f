"""Covering a set of paths by edge removals.

One weighted set-cover instance, solved two ways: competing paths are
the universe, edges are the sets (an edge covers every path it lies on)
and protected-path edges take part in nothing. Both covers read it as the
cut LP's :class:`~pathcut.lp.RelaxedCutLP`, rows for paths, columns for edges.

``greedy_path_cover`` repeatedly takes the most cost-effective column
(live-row count per unit cost). ``lp_path_cover`` solves the relaxed LP
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
from .graphs import Graph, Path
from .lp import LPSolution, RelaxedCutLP, _cover_lp, build_cover_lp, solve_relaxed

#: Rounding attempts before giving up; success probability per attempt
#: exceeds 1/2, so hitting this cap indicates a bug, not bad luck.
DEFAULT_RETRY_CAP = 64


def _cost_effectiveness(count: int, cost) -> float:
    # Zero-cost edges are infinitely cost-effective: removing a free edge
    # that cuts at least one path can never hurt.
    return math.inf if cost == 0 else count / cost


def greedy_path_cover(g: Graph, p_star: Path, paths: Sequence[Path]) -> frozenset:
    """Edge set intersecting every path in ``paths``, built greedily.

    Runs on the instance and input checks of :func:`~pathcut.lp.build_cover_lp`;
    the heap skips stale entries instead of decreasing keys. Ties on
    cost-effectiveness go to the smallest column index = the smallest edge
    key, since columns are the cuttable edges in sorted edge-key order.
    """
    lp = _cover_lp(g, p_star, paths)
    costs, rows = lp.costs, lp.rows
    rows_on: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            rows_on.setdefault(j, []).append(i)
    live = {j: len(ids) for j, ids in rows_on.items()}
    covered = [False] * len(rows)

    heap = [(-_cost_effectiveness(count, costs[j]), j) for j, count in live.items()]
    heapq.heapify(heap)
    chosen: list[int] = []
    remaining = len(rows)
    while remaining > 0:
        neg_ratio, j = heapq.heappop(heap)
        count = live[j]
        if count == 0:
            continue
        current = -_cost_effectiveness(count, costs[j])
        if current != neg_ratio:
            heapq.heappush(heap, (current, j))
            continue
        chosen.append(j)
        for i in rows_on[j]:
            if not covered[i]:
                covered[i] = True
                remaining -= 1
                for j1 in rows[i]:
                    live[j1] -= 1
    return frozenset(map(lp.edge_order.__getitem__, chosen))


@dataclass(frozen=True)
class LPCoverResult:
    """Rounded cover plus the fractional solution it came from.

    ``retries`` counts re-draw rounds after the first attempt.
    """

    edges: frozenset
    retries: int
    lp: RelaxedCutLP
    solution: LPSolution


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
            )
    raise RoundingFailureError(
        f"randomized rounding failed {retry_cap} times", solution=sol
    )
