"""Shared builders and independent oracles for the test suite."""

import heapq
import math
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from pathcut import (
    ConvergenceError, Graph, InputError, Path, PathCutError, edge_key, path_length, shortest_path,
)
from pathcut.lp import FEAS_TOL, RelaxedCutLP
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


def reference_path_iterator(g, s, t, allowed_nodes=None, banned_edges=()):
    """``PathIterator`` without Lawler's rule: every yielded path runs a
    spur search at every index, not only from its deviation index on.

    The library iterator must yield the same paths in the same order. Spur
    searches call this module's ``shortest_path``, so a test can count them.
    """
    allowed = frozenset(allowed_nodes) if allowed_nodes is not None else None
    banned = frozenset(edge_key(*e) for e in banned_edges)
    heap, seen, yielded = [], set(), []

    def push(length, nodes):
        if nodes not in seen:
            seen.add(nodes)
            heapq.heappush(heap, (length, nodes))

    first = shortest_path(g, s, t, banned_edges=banned, allowed_nodes=allowed)
    if first is not None:
        push(path_length(g, first), first.nodes)
    while heap:
        length, parent = heapq.heappop(heap)
        yielded.append((length, parent))
        # Deviations are spawned when the next path is requested.
        yield Path(parent)
        prefix_len = [0]
        for a, b in zip(parent, parent[1:]):
            prefix_len.append(prefix_len[-1] + g.weight(a, b))
        for i in range(len(parent) - 1):
            root = parent[: i + 1]
            spur = parent[i]
            spur_banned = set(banned)
            for _, nodes in yielded:
                if len(nodes) > i + 1 and nodes[: i + 1] == root:
                    spur_banned.add(edge_key(nodes[i], nodes[i + 1]))
            spur_path = shortest_path(
                g,
                spur,
                t,
                banned_nodes=frozenset(root[:-1]),
                banned_edges=frozenset(spur_banned),
                allowed_nodes=allowed,
            )
            if spur_path is None:
                continue
            push(prefix_len[i] + path_length(g, spur_path), root[:-1] + spur_path.nodes)


def reference_er(n, p, seed):
    """Erdos-Renyi graph with its pairs listed by ``np.triu_indices``: the
    construction ``generators._er`` must reproduce record for record."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    mask = rng.random(iu.shape[0]) < p
    return Graph(n, [(int(u), int(v), 1, 1) for u, v in zip(iu[mask], ju[mask])])


def reference_adjacency(g):
    """Adjacency lists built from the finished weight map and sorted, as
    ``Graph`` built them before it filed edges while validating."""
    adj = [[] for _ in range(g.node_count)]
    for (u, v), w in g.weights.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    for lst in adj:
        lst.sort()
    return adj


def dense_adjacency_product(g):
    """``x -> A @ x`` through a dense n x n adjacency matrix (one BLAS
    matvec): the product the power iteration used before it went sparse."""
    n = g.node_count
    A = np.zeros((n, n))
    for u, v in g.edges():
        A[u, v] = 1.0
        A[v, u] = 1.0
    return lambda x: A @ x


def shuffled_adjacency_product(g):
    """``x -> A @ x`` over the edge list in a seeded random order, with
    about half the edges listed as ``(v, u)``, summing each orientation
    separately and adding the two: the same matrix as ``pathcut.attack``'s
    product, summed in another order. On a clique the split sums differ
    per node, so even the uniform vector picks up last-bit noise."""
    edges = g.edges()
    rng = np.random.default_rng(len(edges))
    arcs = [(v, u) if flip else (u, v)
            for (u, v), flip in zip(edges, rng.random(len(edges)) < 0.5)]
    arcs = [arcs[i] for i in rng.permutation(len(arcs))]
    u, v = np.array(arcs, dtype=np.intp).reshape(-1, 2).T
    n = g.node_count
    return lambda x: (np.bincount(u, weights=x[v], minlength=n)
                      + np.bincount(v, weights=x[u], minlength=n))


def reference_principal_eigenvector(g, tol=1e-8, max_iter=10000, product=None):
    """Power iteration computing ``A @ v`` three times per step (for the
    next iterate, the Rayleigh quotient and the residual).

    ``product(g)`` builds the ``x -> A @ x`` callable; the default is
    :func:`dense_adjacency_product`. ``principal_eigenvector`` computes the
    product once per step and must return a bit-identical vector when
    given the same product, and a close one under the dense product.
    """
    n = g.node_count
    mul = (product or dense_adjacency_product)(g)
    v = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(max_iter):
        av = mul(v)
        nxt = av + v
        nxt /= np.linalg.norm(nxt)
        lam = float(nxt @ mul(nxt))
        residual = float(np.linalg.norm(mul(nxt) - lam * nxt))
        v = nxt
        if residual <= tol * max(lam, 1e-30):
            return v
    raise ConvergenceError(f"power iteration did not converge in {max_iter} steps")


def reference_bounded_simplex(rows, costs):
    """Minimize ``costs @ x`` s.t. per-row sums >= 1 and ``0 <= x <= 1``.

    Full-tableau bounded-variable simplex, Bland's rule for entering and
    leaving, upper-bound flips handled separately (a flip always moves a
    full unit, so it strictly improves the objective and cannot cycle).

    This is the all-numpy loop: ``pathcut.lp._bounded_simplex`` keeps its
    bookkeeping in Python floats and must return the same bytes.
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


def reference_build_cover_lp(g, p_star, paths):
    """The cut LP built in full on every call, with no column cache:
    ``pathcut.lp.build_cover_lp`` must return an equal LP."""
    protected = frozenset(p_star.edges)
    edge_order = tuple(e for e in g.edges() if e not in protected)
    index = {e: j for j, e in enumerate(edge_order)}
    rows = []
    for p in paths:
        row = sorted({index[e] for e in p.edges if e not in protected})
        assert row, f"uncuttable constraint {p!r}"
        rows.append(tuple(row))
    return RelaxedCutLP(
        edge_order=edge_order,
        costs=tuple(g.cost(u, v) for u, v in edge_order),
        rows=tuple(rows),
    )


def _reference_cost_effectiveness(count, cost):
    return math.inf if cost == 0 else count / cost


def reference_greedy_path_cover(g, p_star, paths):
    """Greedy set cover over its own edge-keyed tables, as
    ``pathcut.cover.greedy_path_cover`` ran before it read the cut LP's
    rows and columns: the library cover must return the same edge set, or
    raise an :class:`InputError` with the same message, on every input.

    Ties on cost-effectiveness go to the smallest canonical edge key.
    """
    costs = g.costs
    protected = frozenset(p_star.edges)
    paths_on_edge = {}
    edges_of_path = {}
    live_count = {}
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

    heap = [(-_reference_cost_effectiveness(live_count[e], costs[e]), e) for e in live_count]
    heapq.heapify(heap)
    chosen = []
    remaining = len(edges_of_path)
    while remaining > 0:
        neg_ratio, e = heapq.heappop(heap)
        count = live_count[e]
        if count == 0:
            continue
        current = -_reference_cost_effectiveness(count, costs[e])
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
