"""Exact solution of the relaxed cut linear program.

The program minimizes the removal cost of fractional cut indicators
``x_e in [0, 1]`` over the cuttable edges (the protected path's edges get
no variable), subject to one covering row per generated path: the sum of
the path's cuttable-edge variables must be at least 1.

The solver is a self-contained bounded-variable primal simplex with
Bland's rule, so it terminates, is deterministic, and returns a vertex
(basic) solution -- which is what makes integrality of the optimum
detectable by inspection. No phase-1 is needed: with every row nonempty,
starting all edge variables at their upper bound 1 is feasible.

Text interchange format (``write_lp_text``/``parse_lp_text``), one ASCII
line each, for cross-checking against external solvers::

    coverlp 1
    vars <n>
    var <index> <u> <v> <cost>      # one per variable, index order
    row <i1> <i2> ...               # one per constraint; sum of the listed
                                    # variables >= 1, coefficients all 1
    end

Variables are bounded to [0, 1]; the objective is min sum(cost * var).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, PathCutError
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

    def var_index(self) -> dict[EdgeKey, int]:
        return {e: j for j, e in enumerate(self.edge_order)}


@dataclass(frozen=True)
class LPSolution:
    """Optimal basic solution (or infeasibility report) of a RelaxedCutLP."""

    values: tuple[float, ...]
    objective_value: float
    status: str  # "optimal" | "infeasible"


def build_cover_lp(g: Graph, p_star: Path, paths: Sequence[Path]) -> RelaxedCutLP:
    """Assemble the relaxed cut LP for constraint paths ``paths``.

    Variables are all edges of ``g`` except the protected path's edges;
    objective coefficients are the graph's removal costs. A constraint
    path with no cuttable edge is rejected.
    """
    protected = frozenset(p_star.edges)
    edge_order = tuple(e for e in g.edges() if e not in protected)
    index = {e: j for j, e in enumerate(edge_order)}
    costs = g.costs
    cvec = tuple(costs[e] for e in edge_order)
    rows = []
    for p in paths:
        row = sorted({index[e] for e in p.edges if e not in protected and e in index})
        for e in p.edges:
            if e not in protected and e not in index:
                raise InputError(f"constraint path uses unknown edge {e}")
        if not row:
            raise InputError(f"uncuttable constraint: {p!r} has only protected edges")
        rows.append(tuple(row))
    return RelaxedCutLP(edge_order=edge_order, costs=cvec, rows=tuple(rows))


def _bounded_simplex(rows: Sequence[tuple[int, ...]], costs: np.ndarray) -> np.ndarray:
    """Minimize ``costs @ x`` s.t. per-row sums >= 1 and ``0 <= x <= 1``.

    Full-tableau bounded-variable simplex, Bland's rule for entering and
    leaving, upper-bound flips handled separately (a flip always moves a
    full unit, so it strictly improves the objective and cannot cycle).
    """
    m = len(rows)
    n = len(costs)
    total = n + m  # structural + surplus
    A = np.zeros((m, total))
    for i, row in enumerate(rows):
        A[i, list(row)] = 1.0
        A[i, n + i] = -1.0
    c = np.concatenate([costs, np.zeros(m)])
    ub = np.concatenate([np.ones(n), np.full(m, np.inf)])

    # Start: every structural variable nonbasic at its upper bound 1;
    # surplus basic with value (row size - 1) >= 0, so B = -I.
    basis = np.arange(n, total)
    T = -A
    xB = np.array([len(r) - 1.0 for r in rows])
    at_upper = np.zeros(total, dtype=bool)
    at_upper[:n] = True
    nonbasic = np.ones(total, dtype=bool)
    nonbasic[n:] = False

    tol = FEAS_TOL
    max_pivots = 200 * (m + n + 1)
    for _ in range(max_pivots):
        rc = c - c[basis] @ T
        eligible = nonbasic & (
            (~at_upper & (rc < -tol)) | (at_upper & (rc > tol))
        )
        if not eligible.any():
            break
        j = int(np.argmax(eligible))  # first True: Bland's smallest index
        increase = not at_upper[j]
        col = T[:, j]
        delta = -col if increase else col
        # Ratio test: largest step keeping every basic variable in bounds,
        # Bland's rule (smallest leaving variable) among tied rows.
        best = np.inf
        leave = -1
        for i in range(m):
            di = delta[i]
            if di < -tol:
                cand = xB[i] / -di
            elif di > tol and np.isfinite(ub[basis[i]]):
                cand = (ub[basis[i]] - xB[i]) / di
            else:
                continue
            cand = max(cand, 0.0)
            if cand < best - tol:
                best = cand
                leave = i
            elif cand < best + tol and leave >= 0 and basis[i] < basis[leave]:
                leave = i
        if ub[j] <= best + tol:
            # The entering variable reaches its other bound first: flip it.
            # A flip moves a full unit, strictly improving the objective,
            # so flips cannot cycle.
            if not np.isfinite(ub[j]):
                raise PathCutError("cover LP is unbounded; this cannot happen")
            xB = xB + ub[j] * delta
            at_upper[j] = not at_upper[j]
            continue
        if leave < 0:
            raise PathCutError("cover LP is unbounded; this cannot happen")
        theta = max(best, 0.0)
        xB = xB + theta * delta
        entering_value = theta if increase else (ub[j] - theta)
        leaving = basis[leave]
        # Leaving variable rests at whichever of its bounds was hit.
        hit_upper = delta[leave] > tol
        at_upper[leaving] = bool(hit_upper and np.isfinite(ub[leaving]))
        nonbasic[leaving] = True
        nonbasic[j] = False
        at_upper[j] = False
        basis[leave] = j
        pivot = T[leave, j]
        T[leave] = T[leave] / pivot
        factors = T[:, j].copy()
        factors[leave] = 0.0
        T -= np.outer(factors, T[leave])
        xB[leave] = entering_value
    else:
        raise PathCutError("simplex failed to terminate within the pivot cap")

    x = np.where(at_upper[:total], np.where(np.isfinite(ub), ub, 0.0), 0.0)
    x[basis] = xB
    out = np.clip(x[:n], 0.0, 1.0)
    return out


def solve_relaxed(lp: RelaxedCutLP) -> LPSolution:
    """Optimal basic solution of the relaxed LP, or infeasible status.

    Variables absent from every row are fixed at 0 (their cost is
    nonnegative, so this is optimal and keeps the solution a vertex); the
    simplex runs on the active variables only. Row feasibility of the
    result is re-checked and asserted.
    """
    n = len(lp.edge_order)
    if any(len(r) == 0 for r in lp.rows):
        return LPSolution(values=(0.0,) * n, objective_value=0.0, status="infeasible")
    values = np.zeros(n)
    if lp.rows:
        active = sorted({j for row in lp.rows for j in row})
        remap = {j: i for i, j in enumerate(active)}
        reduced_rows = [tuple(remap[j] for j in row) for row in lp.rows]
        reduced_costs = np.asarray([lp.costs[j] for j in active], dtype=float)
        sol = _bounded_simplex(reduced_rows, reduced_costs)
        for j, i in remap.items():
            values[j] = sol[i]
    for row in lp.rows:
        if values[list(row)].sum() < 1.0 - FEAS_TOL:
            raise PathCutError("solver returned an infeasible point")
    objective = float(np.dot(values, np.asarray(lp.costs, dtype=float)))
    return LPSolution(values=tuple(float(v) for v in values), objective_value=objective, status="optimal")


def is_integral(sol: LPSolution, tol: float = INTEGRALITY_TOL) -> bool:
    """True iff every variable is within ``tol`` of 0 or 1."""
    if sol.status != "optimal":
        raise InputError("integrality is defined for optimal solutions only")
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
    """Inverse of :func:`write_lp_text`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["coverlp", "1"]:
        raise InputError("not a coverlp-1 document")
    if lines[-1] != "end":
        raise InputError("missing 'end' line")
    try:
        nvars = int(lines[1].split()[1])
    except (IndexError, ValueError):
        raise InputError("bad vars line") from None
    edge_order: list[Optional[EdgeKey]] = [None] * nvars
    costs: list[float] = [0.0] * nvars
    rows: list[tuple[int, ...]] = []
    for ln in lines[2:-1]:
        parts = ln.split()
        if parts[0] == "var":
            j, u, v = int(parts[1]), int(parts[2]), int(parts[3])
            edge_order[j] = (u, v) if u < v else (v, u)
            cost = float(parts[4])
            costs[j] = int(cost) if cost.is_integer() else cost
        elif parts[0] == "row":
            rows.append(tuple(int(p) for p in parts[1:]))
        else:
            raise InputError(f"unknown line: {ln!r}")
    if any(e is None for e in edge_order):
        raise InputError("var lines do not cover every index")
    return RelaxedCutLP(edge_order=tuple(edge_order), costs=tuple(costs), rows=tuple(rows))
