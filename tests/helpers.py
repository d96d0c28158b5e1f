"""Shared builders and independent oracles for the test suite."""

import heapq
import math
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from pathcut import ConvergenceError, Graph, Path
from pathcut.reduction import enumerate_simple_paths


def random_graph(rng, n, p, max_weight=10, costs_equal_weights=True):
    """Seeded ER-style graph with integer weights in [1, max_weight]."""
    records = []
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            w = int(rng.integers(1, max_weight + 1))
            c = w if costs_equal_weights else int(rng.integers(1, max_weight + 1))
            records.append((u, v, w, c))
    return Graph(n, records)


def reachable_pair(rng, g):
    """Some (s, t) with an s-t path, or None."""
    comp = {}
    for s in range(g.node_count):
        stack, seen = [s], {s}
        while stack:
            for v, _ in g.neighbors(stack.pop()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) > 1:
            others = sorted(seen - {s})
            return s, others[int(rng.integers(len(others)))]
    return None


def brute_sorted_paths(g, s, t):
    """All simple s-t paths sorted by (length, sequence): the enumeration
    oracle the ranking iterator is checked against."""
    return enumerate_simple_paths(g, s, t)


def brute_shortest(g, s, t):
    paths = enumerate_simple_paths(g, s, t)
    return paths[0] if paths else None


@st.composite
def small_graph_and_pair(draw, max_nodes=8, max_weight=6):
    """Hypothesis strategy: (graph, s, t) with at least one s-t edge set."""
    n = draw(st.integers(2, max_nodes))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    ws = draw(st.lists(st.integers(1, max_weight), min_size=len(edges), max_size=len(edges)))
    g = Graph(n, [(u, v, w) for (u, v), w in zip(edges, ws)])
    s = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, n - 1).filter(lambda x: x != s))
    return g, s, t


def path_from_nodes(nodes):
    return Path(tuple(nodes))


def reference_shortest_path(g, s, t, banned_nodes=frozenset(), banned_edges=frozenset(),
                            allowed_nodes=None):
    """``shortest_path`` without push pruning: every relaxation is pushed.

    The library kernel must return the same node sequence (or None) on
    every input; this loop is the reference it is checked against.
    """
    if s in banned_nodes or t in banned_nodes:
        return None
    if allowed_nodes is not None and (s not in allowed_nodes or t not in allowed_nodes):
        return None
    if s == t:
        return Path((s,))
    heap = [(0, (s,))]
    done = set()
    while heap:
        dist, nodes = heapq.heappop(heap)
        u = nodes[-1]
        if u in done:
            continue
        done.add(u)
        if u == t:
            return Path(nodes)
        for v, w in g.neighbors(u):
            if v in done or v in banned_nodes:
                continue
            if allowed_nodes is not None and v not in allowed_nodes:
                continue
            if banned_edges and ((u, v) if u < v else (v, u)) in banned_edges:
                continue
            heapq.heappush(heap, (dist + w, nodes + (v,)))
    return None


def reference_principal_eigenvector(g, tol=1e-8, max_iter=10000):
    """Power iteration computing ``A @ v`` three times per step (for the
    next iterate, the Rayleigh quotient and the residual).

    ``principal_eigenvector`` computes the product once per step and must
    return a bit-identical vector.
    """
    n = g.node_count
    A = np.zeros((n, n))
    for u, v in g.edges():
        A[u, v] = 1.0
        A[v, u] = 1.0
    v = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(max_iter):
        av = A @ v
        nxt = av + v
        nxt /= np.linalg.norm(nxt)
        lam = float(nxt @ (A @ nxt))
        residual = float(np.linalg.norm(A @ nxt - lam * nxt))
        v = nxt
        if residual <= tol * max(lam, 1e-30):
            return v
    raise ConvergenceError(f"power iteration did not converge in {max_iter} steps")
