"""Covering a set of paths by edge removals.

One weighted set-cover instance, solved two ways: competing paths are
the universe, edges are the sets (an edge covers every path it lies on)
and protected-path edges take part in nothing. Both covers read the
instance from a :class:`~pathcut.lp.CutRows`, which a PATHATTACK run grows
by one row per constraint: ``greedy_path_cover`` reads its edge-keyed
rows, ``lp_path_cover`` the cut LP that
:func:`~pathcut.lp.build_cover_lp` makes of them, rows for paths,
columns for edges. Each added row joins the blocks of rows it shares an
edge with, in the run's one row partition, which ``CutRows.add`` keeps;
both covers keep their work per block and redo only the block a new row
joined.

``greedy_path_cover`` repeatedly takes the most cost-effective edge
(live-row count per unit cost). ``lp_path_cover`` solves the relaxed LP
and rounds it randomly, retrying until the result both covers everything
and stays within ``4*ln(4|P|)`` times the fractional cost.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, RoundingFailureError
from .lp import CutRows, LPSolution, build_cover_lp, solve_relaxed

#: Rounding attempts before giving up; success probability per attempt
#: exceeds 1/2, so hitting this cap indicates a bug, not bad luck.
DEFAULT_RETRY_CAP = 64


def greedy_path_cover(cut: CutRows) -> frozenset:
    """Edge set intersecting every row of ``cut``, built greedily.

    Works on edge keys: costs come from the graph, and ``cut.rows_on``
    gives each edge's rows. The cold greedy repeatedly picks the live edge
    (one on an uncovered row) of the largest ratio of uncovered rows to
    cost, ties to the smallest edge key: the minimum of ``(-ratio, edge
    key)``. Zero-cost edges have ratio ``inf``: removing a free edge that
    cuts at least one path can never hurt.

    Each block of ``cut``'s rows (:meth:`~pathcut.lp.CutRows.add`) keeps
    its picks until a new row joins it, so a call picks only on blocks
    that have none, in a PATHATTACK run the new row's, and returns every
    block's picks. That is the cold greedy's set. Its pick, the minimum of
    ``(-ratio, edge key)`` over the live edges, lies in one block and is
    also that block's own minimum; a pick covers rows of its own block
    only, so it moves the counts of that block's edges only. So the cold
    greedy's picks in one block are the greedy's picks on that block
    alone, in the same order, and both stop when the block is covered.
    """
    chosen = []
    for block in cut.blocks:
        if block.picks is None:
            block.picks = _block_cover(cut, block)
        chosen += block.picks
    return frozenset(chosen)


def _block_cover(cut: CutRows, block) -> tuple:
    """The greedy picks on ``block``'s rows of ``cut`` alone. The heap
    skips stale entries instead of decreasing keys: counts only fall, so a
    stale key is below the current one, and an entry that pops with its
    current key is the minimum."""
    costs, rows, rows_on = cut.g._costs, cut.rows, cut.rows_on
    live = {e: len(rows_on[e]) for e in block.edges}
    heap = [(-(math.inf if (c := costs[e]) == 0 else count / c), e) for e, count in live.items()]
    heapq.heapify(heap)
    covered = [False] * len(rows)
    picks = []
    remaining = len(block.rows)
    while remaining > 0:
        neg_ratio, e = heapq.heappop(heap)
        count = live[e]
        if count == 0:
            continue
        c = costs[e]
        current = -(math.inf if c == 0 else count / c)
        if current != neg_ratio:
            heapq.heappush(heap, (current, e))
            continue
        picks.append(e)
        for i in rows_on[e]:
            if not covered[i]:
                covered[i] = True
                remaining -= 1
                for e1 in rows[i]:
                    live[e1] -= 1
    return tuple(picks)


@dataclass(frozen=True)
class LPCoverResult:
    """Rounded cover plus the fractional solution it came from.

    ``retries`` counts re-draw rounds after the first attempt.
    """

    edges: frozenset
    retries: int
    solution: LPSolution


def lp_path_cover(cut: CutRows, rng, solver=solve_relaxed) -> LPCoverResult:
    """Randomized-rounding cover of ``cut``'s rows, the paths ``P``.

    Solves the relaxed LP once, then repeatedly draws ``ceil(ln 4|P|)``
    Bernoulli rounds per edge with probability equal to its fractional
    value, keeping the union. A draw is accepted when it covers every path
    and costs at most ``4*ln(4|P|)`` times the fractional optimum. The LP
    is never re-solved between retries.

    Each attempt draws one uniform per round and column, so the stream
    of ``rng`` does not depend on which values are zero, but compares only
    the columns of nonzero value: a draw in ``[0, 1)`` is never below a
    value ``<= 0``. An attempt then reads the costs and edges of the kept
    columns only, in increasing index order, and tests each row against
    their set.

    ``rng`` is an integer seed or a ``numpy.random.Generator``. ``solver``
    is the seam for substituting an external LP engine: any callable
    taking a :class:`~pathcut.lp.RelaxedCutLP` and returning an optimal
    :class:`~pathcut.lp.LPSolution`, or raising
    :class:`~pathcut.errors.InfeasibleError` when the LP is infeasible.
    Its ``values`` may be any float sequence with one entry per column;
    a column outside every row is kept with its probability like any
    other.
    """
    if not cut.rows:
        raise InputError("lp_path_cover needs at least one constraint path")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    lp = build_cover_lp(cut)
    sol = solver(lp)
    n_draws = math.ceil(math.log(4 * len(lp.rows)))
    bound = 4.0 * math.log(4 * len(lp.rows)) * sol.objective_value
    probs = np.asarray(sol.values)
    cols = np.flatnonzero(probs)
    live = probs[cols]
    for retries in range(DEFAULT_RETRY_CAP):
        draw = rng.random((n_draws, len(probs)))
        kept = cols[(draw[:, cols] < live).any(axis=0)].tolist()
        kept_set = set(kept)
        if any(kept_set.isdisjoint(row) for row in lp.rows):
            continue
        cost = float(np.fromiter(map(lp.costs.__getitem__, kept), dtype=float).sum())
        if cost <= bound + 1e-9:
            return LPCoverResult(edges=frozenset(map(lp.edge_order.__getitem__, kept)),
                                 retries=retries, solution=sol)
    raise RoundingFailureError(f"randomized rounding failed {DEFAULT_RETRY_CAP} times", solution=sol)
