"""Exact solution of the relaxed cut linear program.

The program minimizes the removal cost of fractional cut indicators
``x_e in [0, 1]`` over the cuttable edges (the protected path's edges get
no variable), subject to one covering row per generated path: the sum of
the path's cuttable-edge variables must be at least 1.

The solver is a self-contained bounded-variable primal simplex with
Bland's rule, so it terminates, is deterministic, and returns a vertex
(basic) solution -- which is what makes integrality of the optimum
detectable by inspection. It pivots sparse tableau rows of Python floats,
or a numpy array once the rows fill in, and, unless large tied costs
make rounding reach the pivot choice, returns bit for bit what a dense
numpy tableau loop returns (see the exactness rule of
``_bounded_simplex``). Bland's rule keeps the enterable columns in a
bitmask that each step updates only where it moves a reduced cost or a
bound, so no step rescans the columns; :class:`LPSolution` carries the
pivot and bound-flip counts. The LP is solved one block of rows joined by
shared columns at a time, and a PATHATTACK run keeps each block's solve
until a new row joins the block (see :func:`solve_relaxed`). The blocks
are the run's row partition, which :meth:`CutRows.add` keeps by edge key
and both covers read. No phase-1
is needed: with every row nonempty, starting all edge variables at their
upper bound 1 is feasible. An empty row makes the program infeasible;
:func:`solve_relaxed` raises :class:`~pathcut.errors.InfeasibleError`
for it.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, filterfalse
from typing import Optional, Sequence

import numpy as np

from .errors import InfeasibleError, InputError, PathCutError
from .graphs import EdgeKey, Graph, Path

#: Row-feasibility tolerance of the solver.
FEAS_TOL = 1e-9
#: Tolerance for classifying a solution as integral.
INTEGRALITY_TOL = 1e-6
#: Entry updates above which a pivot costs more on dict rows than on a
#: numpy array (measured on captured cover LPs); the simplex then switches.
_DENSE_WORK = 100


@dataclass(frozen=True)
class RelaxedCutLP:
    """Relaxed cut LP over the cuttable edges of one instance.

    ``edge_order[j]`` is the edge of variable ``j``; ``costs[j]`` its
    objective coefficient; each row is a sorted tuple of variable indices
    whose sum must be >= 1.
    """

    edge_order: tuple[EdgeKey, ...]
    costs: tuple[float, ...]
    rows: tuple[tuple[int, ...], ...]
    #: The :class:`CutRows` that built the LP, or None for a hand-built
    #: one (see :func:`solve_relaxed`).
    _run: Optional[CutRows] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LPSolution:
    """Optimal basic solution of a RelaxedCutLP; ``values`` is a read-only
    float64 array over all columns. ``pivots`` and ``flips`` count the
    simplex's basis changes and bound flips over the whole LP, those of
    blocks solved before included, so they equal a cold solve's (see
    :func:`solve_relaxed`); a solver that does not count them leaves them
    0."""

    values: np.ndarray
    objective_value: float
    pivots: int = 0
    flips: int = 0


class CutRows:
    """The cover rows of one PATHATTACK run: the constraint paths found so
    far against the protected path ``p_star`` of ``g``.

    ``rows[i]`` is the sorted tuple of the cuttable edge keys of the
    ``i``-th path added, and ``rows_on[e]`` lists, in row order, the rows
    that hold edge ``e``. Both only grow. ``blocks`` is the run's row
    partition, the one both covers read: its keys are the live
    :class:`_Block` objects, in the order they formed, and
    ``_row_block[i]`` is row ``i``'s block, so an edge's block is that of
    its first row. ``_lp`` is the ``(edge_order, costs, rows)`` of the LP
    of the rows ranked so far and ``_costs`` its float64 cost array, which
    :func:`build_cover_lp` keeps, or None; ``_cost_sum`` sums that array.
    The LPs it returns refer to the run (see :func:`solve_relaxed`) and the
    run holds none of them, so the two make no reference cycle that
    outlives the attack. An attack owns its rows, so no method reads work
    another method did on the same graph.
    """

    def __init__(self, g: Graph, p_star: Path, paths: Sequence[Path] = ()):
        self.g = g
        self.protected = frozenset(p_star.edges)
        self.rows: list[tuple[EdgeKey, ...]] = []
        self.rows_on: dict[EdgeKey, list[int]] = {}
        self.blocks: dict[_Block, None] = {}
        self._row_block: list[_Block] = []
        self._lp = self._costs = None
        self._cost_sum = 0.0
        for p in paths:
            self.add(p)

    def add(self, path: Path) -> None:
        """Append ``path``'s row. A path with an edge not in the graph, or
        with no cuttable edge, raises :class:`InputError` and adds nothing.
        Protected edges are skipped before any lookup.

        The row then joins, as one block, every block it shares an edge
        with. Of two blocks that merge, the one with more rows takes in the
        other's rows and edges, so the join costs the row and the smaller
        blocks only. The block the row joins drops its picks and its solve:
        both covers recompute it."""
        cuttable = [e for e in path.edges if e not in self.protected]
        if (unknown := next(filterfalse(self.g._weights.__contains__, cuttable), None)) is not None:
            raise InputError(f"constraint path uses unknown edge {unknown}")
        if not cuttable:
            raise InputError(f"uncuttable constraint: {path!r} has only protected edges")
        row = tuple(sorted(cuttable))  # a simple path repeats no edge
        i, rows_on, row_block = len(self.rows), self.rows_on, self._row_block
        block = None
        new = []
        for e in row:
            ids = rows_on.get(e)
            if ids is None:
                new.append(e)
                continue
            b = row_block[ids[0]]
            ids.append(i)
            if b is not block:
                if block is None:
                    block = b
                    continue
                if len(b.rows) > len(block.rows):
                    block, b = b, block
                del self.blocks[b]
                block.rows += b.rows
                block.edges += b.edges
                for r in b.rows:
                    row_block[r] = block
        if block is None:
            block = _Block()
            self.blocks[block] = None
        else:
            block.picks = block.solve = None
        block.rows.append(i)
        row_block.append(block)
        block.edges += new
        for e in new:
            rows_on[e] = [i]
        self.rows.append(row)


class _Block:
    """A block of one run's rows: two rows are in one block when a chain of
    rows, each sharing an edge with the next, joins them.

    ``rows`` lists the block's row indices and ``edges`` its edge keys,
    each in no particular order. ``picks`` is the greedy cover of the
    block's rows and ``solve`` the ``(columns, values, pivots, flips)`` of
    its simplex solve (see :func:`solve_relaxed`), each None until its
    cover computes it and again once a new row joins the block.
    """

    __slots__ = ("rows", "edges", "picks", "solve")

    def __init__(self, rows: Sequence[int] = ()):
        self.rows = list(rows)
        self.edges: list[EdgeKey] = []
        self.picks: Optional[tuple[EdgeKey, ...]] = None
        self.solve: Optional[tuple] = None


def build_cover_lp(cut: CutRows) -> RelaxedCutLP:
    """The relaxed cut LP of ``cut``'s rows; the one-shot form is
    ``build_cover_lp(CutRows(g, p_star, paths))``.

    Variables are all edges of the graph except the protected path's
    edges; objective coefficients are the graph's removal costs. The first
    call for ``cut`` cuts the protected edges' positions out of the
    graph's key and cost lists, and each row is ranked once: its columns
    are its keys' ``bisect`` ranks in ``edge_order``. Both are exact, as
    the maps iterate in sorted key order: the cut lists are the filtered
    maps, a key's rank is its column, and a row of sorted keys gives
    sorted columns. The LP returned holds every row and refers back to
    ``cut``: columns are ranks of edge keys in the same order, so the
    run's blocks (:meth:`CutRows.add`), joined by shared edges, are the
    LP's blocks joined by shared columns (see :func:`solve_relaxed`).
    ``cut._costs`` holds the cost of each column in a row, and 0
    elsewhere. Once these costs sum beyond the largest float, so that the
    objective could overflow, it raises :class:`InputError`.
    """
    if cut._lp is None:
        edge_order, cvec = cut.g.edges(), list(cut.g._costs.values())
        for e in cut.g._weights.keys() & cut.protected:
            i = bisect_left(edge_order, e)
            del edge_order[i], cvec[i]
        cut._lp, cut._costs = (tuple(edge_order), tuple(cvec), ()), np.zeros(len(cvec))
    order, costs, rows = cut._lp
    new = tuple([tuple([bisect_left(order, e) for e in row]) for row in cut.rows[len(rows):]])
    written, total = cut._costs, cut._cost_sum
    for row in new:
        for j in row:
            if not written[j]:  # a new column; a zero cost adds nothing
                written[j] = c = costs[j]
                total += c
    cut._lp, cut._cost_sum = (order, costs, rows + new), total
    if total > sys.float_info.max:
        raise InputError("the cut LP's costs sum beyond the float range")
    return RelaxedCutLP(*cut._lp, _run=cut)


def _bits(flags: np.ndarray) -> int:
    """The int whose bit ``k`` is ``flags[k]``."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _step_cap(m: int, n: int) -> int:
    """Steps, pivots plus flips, allowed on an LP of ``m`` rows over ``n``
    active columns before the simplex gives up."""
    return 200 * (m + n + 1)


def _bounded_simplex(rows: Sequence[tuple[int, ...]], costs: np.ndarray,
                     cap: Optional[int] = None) -> tuple[np.ndarray, int, int]:
    """Minimize ``costs @ x`` s.t. per-row sums >= 1 and ``0 <= x <= 1``.

    Bounded-variable tableau simplex, Bland's rule for entering and
    leaving, upper-bound flips handled separately (a flip always moves a
    full unit, so it strictly improves the objective and cannot cycle).
    ``rows`` must hold sorted, distinct, in-range indices (the starting
    surplus ``len(row) - 1`` counts them). Tableau rows start as maps
    ``{column: value}`` of their entries. A pivot divides the pivot row, then
    updates the objective row (the reduced costs) and each row with an
    entry in the entering column, over the pivot row's entries only. Once
    rows fill in, so that a pivot would update more than ``_DENSE_WORK``
    entries, the tableau moves to a numpy array for the rest of the solve
    and pivots update whole rows, still only those with an entry in the
    entering column. Returns the values of the ``len(costs)`` structural
    columns, each basic value clipped to ``[0, 1]`` as ``np.clip`` does,
    with the counts of pivots and of bound flips. It raises
    :class:`PathCutError` if the solve does not end within ``cap`` steps,
    by default ``_step_cap(len(rows), len(costs))``. :func:`solve_relaxed`
    runs it on one block of an LP at a time, as the block argument there
    allows.

    Bland's rule reads its eligible columns from a bitmask: bit ``k`` is
    set iff ``rc[k] > FEAS_TOL`` at the upper bound or ``rc[k] < -FEAS_TOL``
    at the lower bound, and the lowest set bit enters, the column a scan
    from column 0 would find. A basic column's reduced cost is exactly 0
    (zeroed as it enters, and a pivot row holds no column basic in another
    row), so no basis test is needed. A bit can change only where a step
    moves a reduced cost or a bound. A flip moves the bound of the entering
    column ``j`` only, so it clears bit ``j`` and no other: the columns
    below ``j`` stay ineligible. A pivot moves the reduced costs of its
    pivot row's columns only, and these hold both columns whose bound
    moves, ``j`` and the leaving variable, so a sparse pivot recomputes
    just their bits and a dense pivot recomputes every bit.

    Exactness rule: the pivot sequence and every bit of the result are
    those of the dense numpy loop. Per element the tableau and the basic
    values take the same IEEE-754 operations: ``v / pivot`` on the pivot
    row, ``t - f * r`` on the others, ``x + step * d`` on the basic values,
    in either form of the tableau, so the switch moves no bit. An update
    that one loop makes and another skips has a zero factor, entry or
    step, so it could only flip the sign of a zero, which never reaches a
    comparison or the basic values (they start nonnegative and no sum they
    get is ``-0.0``).
    The reduced costs differ from the dense loop's ``c - c[basis] @ T`` by
    rounding only and are read only in comparisons with ``FEAS_TOL``, so a
    pivot could differ only if a reduced cost sat within rounding of the
    tolerance. That rounding grows with the costs. The tests find the bytes
    equal for costs up to 5, from 1e-6 to 1e6 and from 1e6 to 1e12. With
    tied costs from about 1e6 on, a reduced cost that is exactly 0 rounds
    to about ``FEAS_TOL`` in either loop, and the two can stop at different
    optimal vertices (there the dense loop's choice depends on the BLAS
    kernel as well).
    """
    m = len(rows)
    n = len(costs)
    total = n + m  # structural (bound 1) + surplus (unbounded)
    tol = FEAS_TOL

    # Start: every structural variable nonbasic at its upper bound 1;
    # surplus basic with value (row size - 1) >= 0, so B = -I and T = -A.
    basis = list(range(n, total))
    T = []
    xB = []
    for i, row in enumerate(rows):
        t = dict.fromkeys(row, -1.0)
        t[n + i] = 1.0
        T.append(t)
        xB.append(len(row) - 1.0)
    rc = costs.tolist() + [0.0] * m  # c - c[basis] @ T with c[basis] = 0
    dense = False
    at_upper = [True] * n + [False] * m
    mask = _bits(costs > tol)  # Bland's eligible columns

    pivots = flips = 0
    for _ in range(_step_cap(m, n) if cap is None else cap):
        if not mask:
            break
        j = (mask & -mask).bit_length() - 1
        increase = not at_upper[j]
        # Ratio test over the entering column's entries in row order, which
        # the tie rule needs: largest step keeping every basic variable in
        # bounds, Bland's rule (smallest leaving variable) among tied rows.
        if dense:
            on = np.flatnonzero(T[:, j])
            col = list(zip(on.tolist(), (-T[on, j] if increase else T[on, j]).tolist()))
        elif increase:
            col = [(i, -t[j]) for i, t in enumerate(T) if j in t]
        else:
            col = [(i, t[j]) for i, t in enumerate(T) if j in t]
        best = math.inf
        leave = -1
        for i, di in col:
            if di < -tol:
                cand = xB[i] / -di
            elif di > tol and basis[i] < n:
                cand = (1.0 - xB[i]) / di
            else:
                continue
            if 0.0 > cand:  # max(cand, 0.0)
                cand = 0.0
            if cand < best - tol:
                best = cand
                leave = i
                dleave = di
            elif cand < best + tol and leave >= 0 and basis[i] < basis[leave]:
                leave = i
                dleave = di
        if j < n and 1.0 <= best + tol:
            # The entering variable reaches its other bound first: flip it.
            # A flip moves a full unit, strictly improving the objective,
            # so flips cannot cycle.
            for i, d in col:
                xB[i] += d
            at_upper[j] = not at_upper[j]
            mask &= mask - 1  # j is no longer eligible
            flips += 1
            continue
        if leave < 0:
            raise PathCutError("cover LP is unbounded; this cannot happen")
        pivots += 1
        theta = 0.0 if 0.0 > best else best  # max(best, 0.0)
        for i, d in col:
            xB[i] += theta * d
        leaving = basis[leave]
        # Leaving variable rests at whichever of its bounds was hit.
        at_upper[leaving] = dleave > tol and leaving < n
        at_upper[j] = False
        basis[leave] = j
        xB[leave] = theta if increase else (1.0 - theta)
        if not dense and len(col) * len(T[leave]) > _DENSE_WORK:
            sparse_rows, T = T, np.zeros((m, total))
            for i, t in enumerate(sparse_rows):
                T[i, list(t)] = list(t.values())
            rc, dense = np.array(rc), True
        if dense:
            prow = T[leave] = T[leave] / T[leave, j]
            others = [i for i, _ in col if i != leave]
            T[others] -= T[others, j][:, None] * prow
            rc -= rc[j] * prow
            # bytes() of the bool list reads as a bool array far faster
            # than np.array() builds one.
            up = np.frombuffer(bytes(at_upper), dtype=bool)
            mask = _bits(np.where(up, rc > tol, rc < -tol))
        else:
            pivot = T[leave][j]
            prow = T[leave] = {k: v / pivot for k, v in T[leave].items()}
            for i, _ in col:
                if i != leave:
                    t = T[i]
                    f = t[j]
                    for k, r in prow.items():
                        t[k] = t.get(k, 0.0) - f * r
                    del t[j]  # f - f * 1.0 == 0.0 exactly
            f = rc[j]
            for k, r in prow.items():
                r = rc[k] = rc[k] - f * r
                if (r > tol) if at_upper[k] else (r < -tol):
                    mask |= 1 << k
                else:
                    mask &= ~(1 << k)
    else:
        raise PathCutError("simplex failed to terminate within the pivot cap")

    # Only structural variables (bound 1) ever rest at their upper bound;
    # basic values are clipped to [0, 1] as np.clip does, -0.0 kept.
    x = [1.0 if u else 0.0 for u in at_upper[:n]]
    for b, v in zip(basis, xB):
        if b < n:
            x[b] = 0.0 if v < 0.0 else 1.0 if v > 1.0 else v
    return np.array(x), pivots, flips


def _one_block(lp: RelaxedCutLP) -> tuple:
    """Check an LP that is not its run's current one; return its cost
    array, its blocks and its active column count: all of its rows, as one
    block that no run keeps."""
    n = len(lp.edge_order)
    if len(lp.costs) != n:
        raise InputError(f"{len(lp.costs)} costs for {n} variables")
    cols = set()
    for i, row in enumerate(lp.rows):
        if not row:
            raise InfeasibleError(f"row {i} is empty")
        for j in row:
            if type(j) is bool or not isinstance(j, (int, np.integer)):
                raise InputError(f"row {i} holds {j!r}, not a variable index")
        cols.update(row)
    if cols and (min(cols) < 0 or max(cols) >= n):
        raise InputError(f"row index out of range for {n} variables")
    active = sorted(cols)
    costs = [lp.costs[j] for j in active]
    for j, c in zip(active, costs):
        # Comparisons: NaN fails them, and so does an int too large for a float.
        if (type(c) is bool or not isinstance(c, (int, float, np.integer, np.floating))
                or not 0 <= c <= sys.float_info.max):
            raise InputError(f"variable {j} has cost {c!r}; costs must be finite nonnegative numbers")
    if sum(map(float, costs)) > sys.float_info.max:
        raise InputError("the cut LP's costs sum beyond the float range")
    cost_array = np.zeros(n)
    cost_array[active] = costs
    return cost_array, (_Block(range(len(lp.rows))),) if cols else (), len(cols)


def solve_relaxed(lp: RelaxedCutLP) -> LPSolution:
    """Optimal basic solution of the relaxed LP.

    Every row must be a nonempty sorted tuple of distinct variable indices
    in ``range(len(lp.edge_order))``, as :func:`build_cover_lp` produces.
    A hand-built LP is checked: an empty row raises
    :class:`InfeasibleError` naming the first one; an index that is not an
    int, or is out of range, a cost list of another length than
    ``edge_order``, a row's variable whose cost is not a finite
    nonnegative int or float, and row variables whose costs sum beyond the
    largest float raise :class:`InputError`. Variables absent from every
    row are fixed at 0 (their cost is nonnegative, so this is optimal and
    keeps the solution a vertex); the simplex runs on the active variables
    only, and only their costs are read. Row feasibility is re-checked on the
    simplex's reduced array and rows, which hold the same floats in the
    same order as the full ones; when the check fails because a row
    repeats an index, :class:`InputError` names that row.

    **Blocks.** Two rows are in one block when a chain of rows, each
    sharing a column with the next, joins them. The LP is solved one block
    at a time, and this is exact: Bland's rule enters the lowest eligible
    column of the whole LP, which is also the lowest eligible column of its
    own block; a step's ratio test, pivot and flips read and write only that
    block's rows, columns and surplus variables, whose relative order the
    block keeps. So each block takes exactly the steps it would take alone,
    and the whole LP's steps are theirs, interleaved (by the exactness rule
    of :func:`_bounded_simplex`, whether the tableau turns dense moves no
    bit). A hand-built LP is one block. An LP from :func:`build_cover_lp`
    that holds every row of its run is solved on the run's live blocks
    (:meth:`CutRows.add`): a block keeps its solve until a new row joins
    it, so the simplex runs only on blocks that no earlier solve of the
    run has solved as they stand. An older LP of the run, built before
    more rows were added, is solved cold, as one block like a hand-built
    LP, and keeps nothing. ``pivots`` and ``flips`` sum every block's, so
    they are the cold solve's. The step cap, ``_step_cap`` of the whole
    LP's rows and active columns, counts every block's steps too: a solve
    raises exactly when a cold solve of the LP would.

    ``values`` is the block solves' arrays scattered over all columns,
    made read-only. The objective dots it with the cost array, zeroed off
    the columns of the rows. Off these columns the values are ``+0.0``,
    and ``0.0 * 0.0`` and ``0.0 * c`` (``c >= 0`` finite) are both
    ``+0.0``: under any BLAS kernel the objective has the full dot's bits.
    A dot over the active columns alone would regroup the sum and move
    them.
    """
    run = lp._run
    if run is not None and len(lp.rows) == len(run.rows):
        costs, blocks, width = run._costs, run.blocks, len(run.rows_on)
    else:
        costs, blocks, width = _one_block(lp)
    values = np.zeros(len(lp.edge_order))
    todo = []
    pivots = flips = 0
    for block in blocks:
        if block.solve is None:
            todo.append(block)
            continue
        active, x, p, f = block.solve
        values[active] = x
        pivots += p
        flips += f
    cap = _step_cap(len(lp.rows), width) - pivots - flips
    if blocks and cap <= 0:
        raise PathCutError("simplex failed to terminate within the pivot cap")
    for block in todo:
        key = sorted(block.rows)
        active = sorted(set(chain.from_iterable([lp.rows[i] for i in key])))
        remap = {j: k for k, j in enumerate(active)}
        rows = [tuple(map(remap.__getitem__, lp.rows[i])) for i in key]
        active = np.array(active)  # scatters faster than a list, when reused
        x, p, f = _bounded_simplex(rows, costs[active], cap)
        xs = x.tolist()
        for row in rows:
            if sum(map(xs.__getitem__, row)) < 1.0 - FEAS_TOL:
                # The simplex counts a row's entries as distinct variables,
                # so a row that repeats an index can end here; name it.
                for i in key:
                    if len(set(lp.rows[i])) < len(lp.rows[i]):
                        raise InputError(f"row {i} repeats a variable index: {lp.rows[i]}")
                raise PathCutError("solver returned an infeasible point")
        block.solve = (active, x, p, f)
        values[active] = x
        cap -= p + f
        pivots += p
        flips += f
    values.flags.writeable = False
    return LPSolution(values=values, objective_value=float(np.dot(values, costs)),
                      pivots=pivots, flips=flips)


def is_integral(sol: LPSolution) -> bool:
    """True iff every variable is within ``INTEGRALITY_TOL`` of 0 or 1."""
    v = np.asarray(sol.values)
    return bool(((v <= INTEGRALITY_TOL) | (v >= 1.0 - INTEGRALITY_TOL)).all())
