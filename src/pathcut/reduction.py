"""Hardness machinery and exact desk-scale oracles.

The transformation maps a 3-terminal separation instance to a force-path
instance: drop any edges between terminals, add three terminal edges too
heavy to ever remove (two of weight ``w_all + 2*eps``, one of weight
``2*w_all + 3*eps`` where ``w_all`` is the original total weight), protect
the direct edge between the first and third terminal, and shrink the
budget by the dropped edges' weight.

The brute-force solvers here are intentionally independent of the rest of
the package's machinery (pure DFS/BFS enumeration, no ranking iterator,
no LP), so they can serve as oracles for it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InfeasibleError, InputError, SizeError, check_count
from .graphs import (
    CutPlan,
    Graph,
    Path,
    _int_or_float,
    _target_length,
    edge_key,
    make_cut_plan,
    strictly_longer,
)

#: Subset enumeration beyond this many cuttable edges is refused.
MAX_BRUTE_EDGES = 22


@dataclass(frozen=True)
class TerminalCutInstance:
    """A 3-terminal separation question: can edges of total weight at most
    ``budget`` be removed so that no path joins any two terminals?

    Weights double as removal costs for this problem.
    """

    graph: Graph
    budget: float
    terminals: tuple[int, int, int]

    def __post_init__(self):
        if len(set(self.terminals)) != 3:
            raise InputError("terminals must be three distinct nodes")
        for x in self.terminals:
            self.graph.check_node(x)
        if not self.budget >= 0:  # NaN too
            raise InputError("budget must be nonnegative")


@dataclass(frozen=True)
class ForcePathInstance:
    """Transformed instance: graph with costs equal to weights, a protected
    path, a residual budget, and the edges already spent on (the original
    inter-terminal edges)."""

    graph: Graph
    p_star: Path
    budget: float
    pre_removed: frozenset


def create_force_path_input(inst: TerminalCutInstance, eps: float = 1.0) -> ForcePathInstance:
    """Build the force-path instance for ``inst`` (see module docs).
    ``eps`` is a positive, finite ``int`` or ``float``, at most the
    largest float, as weights are."""
    eps = _int_or_float(eps, "eps")
    if not 0 < eps <= sys.float_info.max:
        raise InputError(f"eps must be positive and finite, got {eps}")
    g = inst.graph
    s1, s2, s3 = inst.terminals
    w_all = g.total_weight()
    terminal_pairs = {edge_key(s1, s2), edge_key(s2, s3), edge_key(s1, s3)}
    pre_removed = frozenset(k for k in terminal_pairs if k in g.weights)
    records = [
        (u, v, w, w) for (u, v, w, _) in g.edge_records() if (u, v) not in pre_removed
    ]
    heavy = w_all + 2 * eps
    records.append((*edge_key(s1, s2), heavy, heavy))
    records.append((*edge_key(s2, s3), heavy, heavy))
    records.append((*edge_key(s1, s3), 2 * w_all + 3 * eps, 2 * w_all + 3 * eps))
    spent = sum(g.weights[k] for k in pre_removed)
    return ForcePathInstance(
        graph=Graph(g.node_count, records),
        p_star=Path((s1, s3)),
        budget=inst.budget - spent,
        pre_removed=pre_removed,
    )


def solve_3tc_via_fpc(
    inst: TerminalCutInstance,
    eps: float = 1.0,
    fpc_solver: Optional[Callable[[Graph, Path, float], bool]] = None,
) -> bool:
    """Decide the 3-terminal question through the transformation.

    ``fpc_solver(graph, p_star, budget)`` must decide exactly whether the
    minimum-cost force-path cut fits in the budget; the default is the
    brute-force oracle below (desk scale only).
    """
    fpc = create_force_path_input(inst, eps)
    if fpc.budget < 0:
        return False
    if fpc_solver is None:
        def fpc_solver(graph, p_star, budget):
            plan = brute_force_force_path_cut(graph, p_star)
            return plan.total_cost <= budget + 1e-9
    return fpc_solver(fpc.graph, fpc.p_star, fpc.budget)


def enumerate_simple_paths(g: Graph, s: int, t: int, allowed_nodes=None) -> list[tuple]:
    """All simple s-t paths as (length, nodes) pairs, sorted by
    (length, nodes). Pure DFS; independent of the ranking iterator."""
    s = g.check_node(s)
    t = g.check_node(t)
    allowed = None if allowed_nodes is None else frozenset(allowed_nodes)
    if allowed is not None and (s not in allowed or t not in allowed):
        return []
    out = []
    stack = [(s, (s,), 0)]
    while stack:
        u, nodes, length = stack.pop()
        if u == t:
            out.append((length, nodes))
            continue
        for v, w in g.neighbors(u):
            if v in nodes:
                continue
            if allowed is not None and v not in allowed:
                continue
            stack.append((v, nodes + (v,), length + w))
    out.sort()
    return out


def _min_cost_hitting_set(rows: list[frozenset], costs) -> tuple:
    """Exact minimum-cost set of edges intersecting every row.

    Branch and bound: branch on the uncovered row with the fewest options,
    partitioning by 'first allowed edge taken'; prune when the partial
    cost exceeds the incumbent. Ties on cost resolve to the
    lexicographically smallest sorted edge-key tuple.
    """
    # Dominated rows (supersets of another row) are hit automatically.
    minimal: list[frozenset] = []
    for row in sorted(set(rows), key=len):
        if not any(r <= row for r in minimal):
            minimal.append(row)

    best_cost = [None]
    best_set = [None]

    def consider(selected, cost):
        keys = tuple(sorted(selected))
        if best_cost[0] is None or cost < best_cost[0] - 1e-12 or (
            abs(cost - best_cost[0]) <= 1e-12 and keys < best_set[0]
        ):
            best_cost[0] = cost
            best_set[0] = keys

    def search(selected: set, banned: frozenset, cost):
        if best_cost[0] is not None and cost > best_cost[0] + 1e-12:
            return
        open_rows = [r for r in minimal if not (r & selected)]
        if not open_rows:
            consider(selected, cost)
            return
        row = min(open_rows, key=lambda r: (len(r - banned), sorted(r)))
        options = sorted(row - banned)
        if not options:
            return
        blocked = set()
        for e in options:
            search(selected | {e}, banned | frozenset(blocked), cost + costs[e])
            blocked.add(e)

    search(set(), frozenset(), 0)
    return best_cost[0], best_set[0]


def brute_force_force_path_cut(g: Graph, p_star: Path, max_cuttable: int = MAX_BRUTE_EDGES) -> CutPlan:
    """Exact minimum-cost plan making ``p_star`` the exclusive shortest
    path (ties: lexicographically smallest edge-key set).

    Enumerates every simple path between the endpoints, keeps those that
    are not strictly longer than the target, and solves the resulting
    hitting-set problem exactly.
    """
    check_count("max_cuttable", max_cuttable, 0)
    p_len = _target_length(g, p_star)
    protected = frozenset(p_star.edges)
    cuttable = [e for e in g.edges() if e not in protected]
    if len(cuttable) > max_cuttable:
        raise SizeError(
            f"{len(cuttable)} cuttable edges exceed the brute-force cap {max_cuttable}"
        )
    rows = []
    for length, nodes in enumerate_simple_paths(g, p_star.source, p_star.target):
        if nodes == p_star.nodes or strictly_longer(length, p_len):
            continue
        row = frozenset(e for e in Path(nodes).edges if e not in protected)
        if not row:
            raise InfeasibleError(f"competitor {nodes} cannot be cut")
        rows.append(row)
    _, keys = _min_cost_hitting_set(rows, g.costs)  # no rows: the empty set
    return make_cut_plan(g, p_star, keys, "brute-force", constraints_generated=len(rows))


def brute_force_3tc(inst: TerminalCutInstance) -> bool:
    """Exact decision for the 3-terminal question (desk scale).

    Branch and bound on connecting paths: while some pair of terminals is
    joined by a path, branch over which of its edges to remove, pruning on
    the budget. Independent of the transformation being tested.
    """
    g = inst.graph
    if g.edge_count > MAX_BRUTE_EDGES:
        raise SizeError(f"{g.edge_count} edges exceed the brute-force cap {MAX_BRUTE_EDGES}")
    s1, s2, s3 = inst.terminals
    pairs = [(s1, s2), (s1, s3), (s2, s3)]

    def connecting_path(removed: frozenset):
        for a, b in pairs:
            nodes = _bfs_path(g, a, b, removed)
            if nodes is not None:
                return nodes
        return None

    def search(removed: frozenset, banned: frozenset, spent) -> bool:
        if spent > inst.budget + 1e-9:
            return False
        nodes = connecting_path(removed)
        if nodes is None:
            return True
        edges = sorted({edge_key(a, b) for a, b in zip(nodes, nodes[1:])} - banned)
        blocked: list = []
        for e in edges:
            if search(removed | {e}, banned | frozenset(blocked), spent + g.weights[e]):
                return True
            # Later branches must keep e, partitioning the search space.
            blocked.append(e)
        return False

    return search(frozenset(), frozenset(), 0)


def _bfs_path(g: Graph, a: int, b: int, removed: frozenset):
    """Any a-b path avoiding ``removed`` edges, as a node tuple."""
    if a == b:
        return (a,)
    parent = {a: None}
    frontier = [a]
    while frontier:
        nxt = []
        for u in frontier:
            for v, _ in g.neighbors(u):
                if v in parent:
                    continue
                if ((u, v) if u < v else (v, u)) in removed:
                    continue
                parent[v] = u
                if v == b:
                    nodes = [v]
                    while nodes[-1] != a:
                        nodes.append(parent[nodes[-1]])
                    return tuple(reversed(nodes))
                nxt.append(v)
        frontier = nxt
    return None
