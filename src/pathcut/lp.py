"""Exact solution of the relaxed cut linear program.

The program minimizes the removal cost of fractional cut indicators
``x_e in [0, 1]`` over the cuttable edges (the protected path's edges get
no variable), subject to one covering row per generated path: the sum of
the path's cuttable-edge variables must be at least 1.

The solver is a self-contained bounded-variable primal simplex with
Bland's rule, so it terminates, is deterministic, and returns a vertex
(basic) solution -- which is what makes integrality of the optimum
detectable by inspection. No phase-1 is needed: with every row nonempty,
starting all edge variables at their upper bound 1 is feasible. An empty
row makes the program infeasible; :func:`solve_relaxed` raises
:class:`~pathcut.errors.InfeasibleError` for it.

Text interchange format (``write_lp_text``/``parse_lp_text``), one ASCII
line each, for cross-checking against external solvers::

    coverlp 1
    vars <n>
    var <index> <u> <v> <cost>      # one per variable, index order
    row <i1> <i2> ...               # one per constraint; sum of the listed
                                    # variables >= 1, coefficients all 1
    end

Variables are bounded to [0, 1]; the objective is min sum(cost * var).
``parse_lp_text`` raises :class:`~pathcut.errors.InputError` naming the
line for a malformed document: a missing or bad ``vars`` line, or one
declaring more variables than the document has lines for; a ``var``
line without exactly 5 tokens, with an index out of range or repeated,
with ``u == v``, or with a cost outside ``0 <= c < inf`` (NaN included,
the rule :class:`~pathcut.graphs.Graph` applies); a ``row`` index out of
range; a row that is not strictly increasing (the solver counts a row's
entries as distinct variables). An empty ``row`` line parses; solving
the result raises :class:`~pathcut.errors.InfeasibleError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import filterfalse
from typing import Optional, Sequence

import numpy as np

from .errors import InfeasibleError, InputError, PathCutError
from .graphs import EdgeKey, Graph, Path

#: Row-feasibility tolerance of the solver.
FEAS_TOL = 1e-9
#: Default tolerance for classifying a solution as integral.
INTEGRALITY_TOL = 1e-6


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


@dataclass(frozen=True)
class LPSolution:
    """Optimal basic solution of a RelaxedCutLP."""

    values: tuple[float, ...]
    objective_value: float


def build_cover_lp(g: Graph, p_star: Path, paths: Sequence[Path]) -> RelaxedCutLP:
    """Assemble the relaxed cut LP for constraint paths ``paths``.

    Variables are all edges of ``g`` except the protected path's edges;
    objective coefficients are the graph's removal costs. A constraint
    path with no cuttable edge is rejected.

    The columns -- ``edge_order``, the edge -> variable index map and
    ``costs`` -- depend only on ``g`` and the protected edge set, so they
    are cached on ``g`` for the last protected set: constraint generation
    calls this once per iteration with one more path, and only the rows
    are built again. The cache is written whole by one assignment, like
    the distance bound of :func:`~pathcut.graphs.shortest_path`.
    """
    return _cover_lp(g, p_star, paths)


# greedy_path_cover calls this, not build_cover_lp, which bench/tracing.py counts as LP builds.
def _cover_lp(g: Graph, p_star: Path, paths: Sequence[Path]) -> RelaxedCutLP:
    protected = frozenset(p_star.edges)
    cached = g._columns
    if cached is not None and cached[0] == protected:
        _, edge_order, index, cvec = cached
    else:
        edge_order = tuple(filterfalse(protected.__contains__, g.edges()))
        index = dict(zip(edge_order, range(len(edge_order))))
        cvec = tuple(map(g.costs.__getitem__, edge_order))
        g._columns = (protected, edge_order, index, cvec)
    rows = []
    for p in paths:
        cuttable = filterfalse(protected.__contains__, p.edges)
        try:
            row = sorted(set(map(index.__getitem__, cuttable)))
        except KeyError as exc:
            raise InputError(f"constraint path uses unknown edge {exc.args[0]}") from None
        if not row:
            raise InputError(f"uncuttable constraint: {p!r} has only protected edges")
        rows.append(tuple(row))
    return RelaxedCutLP(edge_order=edge_order, costs=cvec, rows=tuple(rows))


def _bounded_simplex(rows: Sequence[tuple[int, ...]], costs: np.ndarray) -> np.ndarray:
    """Minimize ``costs @ x`` s.t. per-row sums >= 1 and ``0 <= x <= 1``.

    Full-tableau bounded-variable simplex, Bland's rule for entering and
    leaving, upper-bound flips handled separately (a flip always moves a
    full unit, so it strictly improves the objective and cannot cycle).
    ``rows`` must hold sorted, distinct, in-range indices (the starting
    surplus ``len(row) - 1`` counts them).

    Exactness rule: the pivot sequence and every bit of the result are
    those of a plain numpy loop over the same tableau. The two expressions
    whose summation order reaches the output stay numpy, as written: the
    pricing ``c - c[basis] @ T`` and the pivot update (divide the pivot
    row, then subtract ``factors[:, None] * T[leave]``, the elementwise
    product ``np.outer`` forms). The per-step bookkeeping -- the Bland
    scan over the reduced costs, the ratio test over the entering column
    and the update of the basic values -- runs on Python floats; per
    element these are the same IEEE-754 multiplies, adds and divides
    numpy performs (no fused multiply-add), so nothing changes but the
    interpreter overhead. Prices are computed afresh only after a pivot: a
    flip changes neither the basis nor the tableau, so the reduced costs
    stay the same, and it leaves the flipped variable ineligible, so
    Bland's scan resumes just past it.
    """
    m = len(rows)
    n = len(costs)
    total = n + m  # structural + surplus
    A = np.zeros((m, total))
    for i, row in enumerate(rows):
        A[i, list(row)] = 1.0
        A[i, n + i] = -1.0
    c = np.concatenate([costs, np.zeros(m)])
    inf = math.inf
    ub = [1.0] * n + [inf] * m

    # Start: every structural variable nonbasic at its upper bound 1;
    # surplus basic with value (row size - 1) >= 0, so B = -I.
    basis = list(range(n, total))
    T = -A
    xB = [len(r) - 1.0 for r in rows]
    at_upper = [True] * n + [False] * m
    nonbasic = [True] * n + [False] * m

    tol = FEAS_TOL
    max_pivots = 200 * (m + n + 1)
    start = 0  # Bland's scan resumes here; 0 means "re-price first"
    for _ in range(max_pivots):
        if start == 0:
            rc = (c - c[basis] @ T).tolist()
        j = -1
        for k in range(start, total):
            if nonbasic[k]:
                r = rc[k]
                if (r > tol) if at_upper[k] else (r < -tol):
                    j = k
                    break
        if j < 0:
            break
        increase = not at_upper[j]
        col = T[:, j].tolist()
        delta = [-d for d in col] if increase else col
        # Ratio test: largest step keeping every basic variable in bounds,
        # Bland's rule (smallest leaving variable) among tied rows.
        best = inf
        leave = -1
        for i, di in enumerate(delta):
            if di < -tol:
                cand = xB[i] / -di
            elif di > tol and ub[basis[i]] < inf:
                cand = (ub[basis[i]] - xB[i]) / di
            else:
                continue
            if 0.0 > cand:  # max(cand, 0.0)
                cand = 0.0
            if cand < best - tol:
                best = cand
                leave = i
            elif cand < best + tol and leave >= 0 and basis[i] < basis[leave]:
                leave = i
        if ub[j] <= best + tol:
            # The entering variable reaches its other bound first: flip it.
            # A flip moves a full unit, strictly improving the objective,
            # so flips cannot cycle.
            if ub[j] == inf:
                raise PathCutError("cover LP is unbounded; this cannot happen")
            step = ub[j]
            xB = [x + step * d for x, d in zip(xB, delta)]
            at_upper[j] = not at_upper[j]
            start = j + 1
            continue
        if leave < 0:
            raise PathCutError("cover LP is unbounded; this cannot happen")
        theta = 0.0 if 0.0 > best else best  # max(best, 0.0)
        xB = [x + theta * d for x, d in zip(xB, delta)]
        entering_value = theta if increase else (ub[j] - theta)
        leaving = basis[leave]
        # Leaving variable rests at whichever of its bounds was hit.
        at_upper[leaving] = delta[leave] > tol and ub[leaving] < inf
        nonbasic[leaving] = True
        nonbasic[j] = False
        at_upper[j] = False
        basis[leave] = j
        T[leave] = T[leave] / T[leave, j]
        factors = T[:, j].copy()
        factors[leave] = 0.0
        T -= factors[:, None] * T[leave]
        xB[leave] = entering_value
        start = 0
    else:
        raise PathCutError("simplex failed to terminate within the pivot cap")

    # Only structural variables (bound 1) ever rest at their upper bound.
    x = np.array(at_upper, dtype=float)
    x[basis] = xB
    return np.clip(x[:n], 0.0, 1.0)


def solve_relaxed(lp: RelaxedCutLP) -> LPSolution:
    """Optimal basic solution of the relaxed LP.

    Every row must be a nonempty sorted tuple of distinct variable indices
    in ``range(len(lp.edge_order))``, as :func:`build_cover_lp` produces
    (:func:`parse_lp_text` may also yield empty rows). An empty row
    raises :class:`InfeasibleError` naming the first one; an index out of
    range raises :class:`InputError`. Variables absent from
    every row are fixed at 0 (their cost is nonnegative, so this is
    optimal and keeps the solution a vertex); the simplex runs on the
    active variables only. Row feasibility of the result is re-checked;
    when the check fails because a row repeats an index,
    :class:`InputError` names that row.
    """
    n = len(lp.edge_order)
    for i, row in enumerate(lp.rows):
        if not row:
            raise InfeasibleError(f"row {i} is empty")
    values = np.zeros(n)
    if lp.rows:
        active = sorted({j for row in lp.rows for j in row})
        if active[0] < 0 or active[-1] >= n:
            raise InputError(f"row index out of range for {n} variables")
        remap = {j: i for i, j in enumerate(active)}
        reduced_rows = [tuple(map(remap.__getitem__, row)) for row in lp.rows]
        reduced_costs = np.asarray([lp.costs[j] for j in active], dtype=float)
        values[active] = _bounded_simplex(reduced_rows, reduced_costs)
    vals = values.tolist()
    for row in lp.rows:
        if sum(map(vals.__getitem__, row)) < 1.0 - FEAS_TOL:
            # The simplex counts a row's entries as distinct variables, so
            # a row that repeats an index can end here; name it.
            for i, r in enumerate(lp.rows):
                if len(set(r)) < len(r):
                    raise InputError(f"row {i} repeats a variable index: {r}")
            raise PathCutError("solver returned an infeasible point")
    objective = float(np.dot(values, np.asarray(lp.costs, dtype=float)))
    return LPSolution(values=tuple(vals), objective_value=objective)


def is_integral(sol: LPSolution, tol: float = INTEGRALITY_TOL) -> bool:
    """True iff every variable is within ``tol`` of 0 or 1."""
    return all(v <= tol or v >= 1.0 - tol for v in sol.values)


def write_lp_text(lp: RelaxedCutLP) -> str:
    """Serialize to the line-based interchange format (see module docs)."""
    lines = ["coverlp 1", f"vars {len(lp.edge_order)}"]
    for j, (u, v) in enumerate(lp.edge_order):
        lines.append(f"var {j} {u} {v} {lp.costs[j]!r}")
    for row in lp.rows:
        lines.append("row " + " ".join(map(str, row)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_lp_text(text: str) -> RelaxedCutLP:
    """Inverse of :func:`write_lp_text`; rejects malformed documents.

    Raises :class:`InputError` naming the offending line (numbered from 1
    in ``text``) for every check listed in the module docstring.
    """
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1].split() != ["coverlp", "1"]:
        raise InputError("not a coverlp-1 document")
    if lines[-1][1] != "end":
        raise InputError("missing 'end' line")

    def bad(no: int, ln: str, why: str) -> InputError:
        return InputError(f"line {no}: {why}: {ln!r}")

    no, ln = lines[1]
    parts = ln.split()
    try:
        nvars = int(parts[1]) if len(parts) == 2 and parts[0] == "vars" else -1
    except ValueError:
        nvars = -1
    if nvars < 0:
        raise bad(no, ln, "bad vars line")
    if nvars > len(lines) - 3:  # each variable needs its own var line
        raise bad(no, ln, f"more variables than the {len(lines) - 3} lines that follow")
    edge_order: list[Optional[EdgeKey]] = [None] * nvars
    costs: list[float] = [0.0] * nvars
    rows: list[tuple[int, ...]] = []
    for no, ln in lines[2:-1]:
        parts = ln.split()
        if parts[0] == "var":
            if len(parts) != 5:
                raise bad(no, ln, "a var line has exactly 5 tokens")
            try:
                j, u, v = int(parts[1]), int(parts[2]), int(parts[3])
                cost = float(parts[4])
            except ValueError:
                raise bad(no, ln, "malformed var line") from None
            if not 0 <= j < nvars:
                raise bad(no, ln, f"var index {j} out of range for {nvars} variables")
            if edge_order[j] is not None:
                raise bad(no, ln, f"var index {j} repeated")
            if u == v:
                raise bad(no, ln, "an edge needs two distinct endpoints")
            if not 0 <= cost < math.inf:
                raise bad(no, ln, "cost must be finite and nonnegative")
            edge_order[j] = (u, v) if u < v else (v, u)
            costs[j] = int(cost) if cost.is_integer() else cost
        elif parts[0] == "row":
            try:
                row = tuple(int(p) for p in parts[1:])
            except ValueError:
                raise bad(no, ln, "malformed row line") from None
            if any(a >= b for a, b in zip(row, row[1:])):
                raise bad(no, ln, "row indices must be strictly increasing")
            if row and (row[0] < 0 or row[-1] >= nvars):
                raise bad(no, ln, f"row index out of range for {nvars} variables")
            rows.append(row)
        else:
            raise bad(no, ln, "unknown line")
    if any(e is None for e in edge_order):
        raise InputError("var lines do not cover every index")
    return RelaxedCutLP(edge_order=tuple(edge_order), costs=tuple(costs), rows=tuple(rows))
