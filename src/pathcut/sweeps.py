"""Verification sweeps and canonical small instances.

Used by the ``reduce-check`` CLI verb, test oracles, and the runnable
scripts. Everything here is desk scale by construction.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import InputError, check_count
from .graphs import Graph, Path, bfs_hops
from .reduction import TerminalCutInstance, brute_force_3tc, brute_force_force_path_cut, solve_3tc_via_fpc

#: Node count up to which the sweep tries every weight assignment; larger
#: graphs get ``WEIGHT_SAMPLES`` seeded assignments each.
EXHAUSTIVE_WEIGHT_NODES = 4
WEIGHT_SAMPLES = 2


def connected_edge_sets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All connected labeled graphs on exactly ``n`` nodes, as edge tuples."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1, 2 ** len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        if _spans(n, edges):
            yield edges


def _spans(n: int, edges) -> bool:
    return len(bfs_hops(Graph(n, [(u, v, 1) for u, v in edges]), 0)) == n


def clique_instance(n: int) -> tuple[Graph, Path]:
    """Clique on ``n`` nodes, unit weights and costs except the protected
    direct edge (0, 1), which has weight (and cost) ``n``."""
    if n < 3:
        raise InputError("clique instance needs n >= 3")
    records = []
    for u in range(n):
        for v in range(u + 1, n):
            w = n if (u, v) == (0, 1) else 1
            records.append((u, v, w, w))
    return Graph(n, records), Path((0, 1))


def _weight_assignments(edges, n: int, rng):
    m = len(edges)
    if n <= EXHAUSTIVE_WEIGHT_NODES:
        for mask in range(2 ** m):
            yield tuple(1 + (mask >> i & 1) for i in range(m))
    else:
        for _ in range(WEIGHT_SAMPLES):
            yield tuple(int(w) for w in rng.integers(1, 3, size=m))


def _budget_grid(w_all: int) -> list[int]:
    return sorted({0, 1, 2, 3, 4, 5, w_all})


def reduction_equivalence_sweep(
    max_nodes: int = 5,
    random_instances: int = 200,
    random_nodes: int = 6,
    eps_values: tuple = (0.5, 1.0, 10.0),
    seed: int = 0,
) -> tuple[int, int]:
    """Check the transformation against direct brute force.

    Covers every connected labeled graph on 3..``max_nodes`` nodes with
    weights in {1, 2} (exhaustive assignments up to
    ``EXHAUSTIVE_WEIGHT_NODES`` nodes, seeded samples beyond), a budget
    grid, and every eps; plus ``random_instances`` random graphs on
    ``random_nodes`` nodes. Terminals are fixed to (0, 1, 2) for the
    labeled enumeration (all relabelings appear as other graphs) and drawn
    randomly for the random block.

    Returns (checks run, disagreements). The brute-force path-cut solve is
    memoized per transformed graph; the transformation pipeline itself
    runs for every (instance, budget, eps) triple.
    """
    check_count("max_nodes", max_nodes, 3)
    check_count("random_instances", random_instances, 0)
    check_count("random_nodes", random_nodes, 3)
    rng = np.random.default_rng(seed)
    checked = 0
    disagreements = 0

    def check(graph: Graph, terminals, budgets) -> None:
        nonlocal checked, disagreements
        cache: dict = {}

        def cached_solver(fpc_graph, p_star, budget):
            key = tuple(fpc_graph.edge_records())
            if key not in cache:
                cache[key] = brute_force_force_path_cut(fpc_graph, p_star).total_cost
            return cache[key] <= budget + 1e-9

        for b in budgets:
            inst = TerminalCutInstance(graph=graph, budget=b, terminals=terminals)
            direct = brute_force_3tc(inst)
            for eps in eps_values:
                via = solve_3tc_via_fpc(inst, eps=eps, fpc_solver=cached_solver)
                checked += 1
                if via != direct:
                    disagreements += 1

    for n in range(3, max_nodes + 1):
        for edges in connected_edge_sets(n):
            for weights in _weight_assignments(edges, n, rng):
                g = Graph(n, [(u, v, w, w) for (u, v), w in zip(edges, weights)])
                check(g, (0, 1, 2), _budget_grid(g.total_weight()))

    produced = 0
    while produced < random_instances:
        n = random_nodes
        pairs = list(combinations(range(n), 2))
        mask = rng.random(len(pairs)) < rng.uniform(0.35, 0.8)
        edges = tuple(p for p, keep in zip(pairs, mask) if keep)
        if not _spans(n, edges):
            continue
        weights = rng.integers(1, 3, size=len(edges))
        g = Graph(n, [(u, v, w, w) for (u, v), w in zip(edges, weights)])
        terminals = tuple(int(x) for x in rng.choice(n, size=3, replace=False))
        check(g, terminals, _budget_grid(g.total_weight()))
        produced += 1

    return checked, disagreements
