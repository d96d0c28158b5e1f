"""Shared builders and independent oracles for the test suite."""

import heapq
import math
from itertools import combinations, compress

import numpy as np
from hypothesis import strategies as st

from pathcut import (
    ConvergenceError, Graph, InfeasibleError, InputError, Path, PathCutError, edge_key, path_length,
    shortest_path, strictly_longer,
)
from pathcut.cover import DEFAULT_RETRY_CAP, LPCoverResult
from pathcut.errors import RoundingFailureError
from pathcut.lp import FEAS_TOL, LPSolution, RelaxedCutLP, _bounded_simplex
from pathcut.reduction import enumerate_simple_paths

#: Float costs for cover tests: exact ties, a pair that differs in the
#: last bit (0.1 + 0.2 and 0.3), and zero.
FLOAT_COSTS = (0.0, 0.1, 0.2, 0.1 + 0.2, 0.3, 1.5, 2.25)


def random_graph(rng, n, p, max_weight=10, costs_equal_weights=True):
    """Seeded ER-style graph with integer weights in [1, max_weight]."""
    records = []
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            w = int(rng.integers(1, max_weight + 1))
            c = w if costs_equal_weights else int(rng.integers(1, max_weight + 1))
            records.append((u, v, w, c))
    return Graph(n, records)


def residual_graph(g, removed):
    """``g`` without the edges ``removed``, rebuilt from its records; an
    edge not in ``g`` is rejected, as ``Graph.remove_edges`` rejects it."""
    gone = set()
    for e in removed:
        k = edge_key(*e)
        if k not in g.weights:
            raise InputError(f"cannot remove unknown edge {k}")
        gone.add(k)
    return Graph(g.node_count, [r for r in g.edge_records() if r[:2] not in gone])


def exclusive_after(g, p_star, removed):
    """True iff ``removed`` spares every edge of ``p_star`` and leaves it
    the strictly shortest simple path between its endpoints.

    Shares no code with the oracle (``pathcut.paths``, ``shortest_path``).
    With every weight > 0 it applies the rule of ``bench/plancheck.py``:
    two distance-only Dijkstras, and no edge off ``p_star`` may lie on an
    s-t walk no longer than ``p_star``. Otherwise it enumerates every
    simple path. Test graphs have integer weights, so sums are exact.
    """
    if frozenset(removed) & frozenset(p_star.edges):
        return False
    residual = residual_graph(g, removed)
    s, t, p_len = p_star.source, p_star.target, path_length(g, p_star)
    records = residual.edge_records()
    if any(w <= 0 for _, _, w, _ in records):
        return all(strictly_longer(length, p_len)
                   for length, nodes in enumerate_simple_paths(residual, s, t)
                   if nodes != p_star.nodes)
    d_s, d_t = _distances(residual, s), _distances(residual, t)
    on_path = frozenset(p_star.edges)
    return all(strictly_longer(min(d_s[u] + d_t[v], d_s[v] + d_t[u]) + w, p_len)
               for u, v, w, _ in records if (u, v) not in on_path)


def _distances(g, source):
    dist = [math.inf] * g.node_count
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d == dist[u]:
            for v, w in g.neighbors(u):
                if d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
    return dist


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


def reference_shortest_path(g, s, t, banned_nodes=frozenset(), banned_edges=frozenset(),
                            allowed_nodes=None, max_length=None):
    """``shortest_path`` without push pruning: every relaxation is pushed.

    The library kernel must return the same node sequence (or None) on
    every input; this loop is the reference it is checked against. A
    ``max_length`` is applied only after the search: the path found is
    returned unless it is longer.
    """
    found = _reference_search(g, s, t, banned_nodes, banned_edges, allowed_nodes)
    if found is not None and max_length is not None and path_length(g, found) > max_length:
        return None
    return found


def _reference_search(g, s, t, banned_nodes, banned_edges, allowed_nodes):
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


def checked_shortest_path(cut_off):
    """``shortest_path`` checked call by call against the reference kernel.

    Without ``max_length`` the nodes must match. With it, the search must
    return None exactly when the reference path is longer than
    ``max_length`` (the call is then appended to ``cut_off``), and the
    same nodes otherwise.
    """
    def search(g, s, t, max_length=None, **restrict):
        got = shortest_path(g, s, t, max_length=max_length, **restrict)
        expect = reference_shortest_path(g, s, t, **restrict)
        if expect is not None and max_length is not None and path_length(g, expect) > max_length:
            cut_off.append((s, t, max_length))
            expect = None
        assert (got and got.nodes) == (expect and expect.nodes), (s, t, max_length, restrict)
        return got

    return search


def recorded(search, calls):
    """``search`` that appends each call's ``(s, t, restrictions)`` to
    ``calls``, ``max_length`` left out, so that the calls of a limited
    ranking compare with those of an unlimited one."""
    def wrapper(g, s, t, max_length=None, **restrict):
        calls.append((s, t, restrict))
        return search(g, s, t, max_length=max_length, **restrict)

    return wrapper


def skipped_searches(unbounded, bounded):
    """The calls of ``unbounded`` that ``bounded`` does not make.

    A limited ranking yields the paths of the unlimited one and visits the
    same spur positions with the same bans, but skips the searches that
    cannot leave the spur within its cutoff. So its calls must be
    ``unbounded`` with some calls left out, in order; this asserts that.
    """
    skipped = []
    rest = iter(bounded)
    want = next(rest, None)
    for call in unbounded:
        if call == want:
            want = next(rest, None)
        else:
            skipped.append(call)
    assert want is None, ("a search the unlimited ranking does not make", want)
    return skipped


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


def reference_select_terminals_uniform(g, seed, retries):
    """``select_terminals`` in uniform mode, with reachability tested by a
    search from s over the edge keys: the (s, t) pair the library must return,
    or None where it must raise ``InstanceSkip``."""
    if g.node_count < 2:
        return None
    neighbours = [[] for _ in range(g.node_count)]
    for u, v in g.edges():
        neighbours[u].append(v)
        neighbours[v].append(u)
    rng = np.random.default_rng(seed)
    for _ in range(retries):
        s = int(rng.integers(g.node_count))
        t = int(rng.integers(g.node_count))
        if t == s:
            continue
        seen = {s}
        frontier = [s]
        while frontier:
            u = frontier.pop()
            for v in neighbours[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if t in seen:
            return s, t
    return None


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


def reference_bounded_simplex(rows, costs, trace=None):
    """Minimize ``costs @ x`` s.t. per-row sums >= 1 and ``0 <= x <= 1``.

    Full-tableau bounded-variable simplex, Bland's rule for entering and
    leaving, upper-bound flips handled separately (a flip always moves a
    full unit, so it strictly improves the objective and cannot cycle).
    Bland's scan recomputes every reduced cost and reads them from column 0
    at every step. If ``trace`` is a list, each step appends
    ``(entering column, flipped)`` to it.

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
            if trace is not None:
                trace.append((j, True))
            continue
        if leave < 0:
            raise PathCutError("cover LP is unbounded; this cannot happen")
        if trace is not None:
            trace.append((j, False))
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
    """The cut LP built in full through a dict index of the columns:
    ``pathcut.lp.build_cover_lp(CutRows(g, p_star, paths))`` must return
    an equal LP."""
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
    """Greedy set cover over its own edge-keyed tables, built afresh on
    every call: ``pathcut.cover.greedy_path_cover`` on a ``CutRows`` of
    the same paths must return the same edge set, and building that
    ``CutRows`` must raise an :class:`InputError` with the same message
    where this does, on every input.

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


def reference_solve_relaxed(lp):
    """``pathcut.lp.solve_relaxed`` as it read before its feasibility
    check moved to the reduced array: the full ``values.tolist()`` pass.
    The library must return the same bytes."""
    n = len(lp.edge_order)
    for i, row in enumerate(lp.rows):
        if not row:
            raise InfeasibleError(f"row {i} is empty")
    values = np.zeros(n)
    costs = np.zeros(n)
    if lp.rows:
        active = sorted({j for row in lp.rows for j in row})
        if active[0] < 0 or active[-1] >= n:
            raise InputError(f"row index out of range for {n} variables")
        remap = {j: i for i, j in enumerate(active)}
        reduced_rows = [tuple(map(remap.__getitem__, row)) for row in lp.rows]
        costs[active] = [lp.costs[j] for j in active]
        values[active] = _bounded_simplex(reduced_rows, costs[active])[0]
    vals = values.tolist()
    for row in lp.rows:
        if sum(map(vals.__getitem__, row)) < 1.0 - FEAS_TOL:
            # The simplex counts a row's entries as distinct variables, so
            # a row that repeats an index can end here; name it.
            for i, r in enumerate(lp.rows):
                if len(set(r)) < len(r):
                    raise InputError(f"row {i} repeats a variable index: {r}")
            raise PathCutError("solver returned an infeasible point")
    values.flags.writeable = False
    return LPSolution(values=values, objective_value=float(np.dot(values, costs)))


def reference_lp_path_cover(g, p_star, paths, rng, solver=reference_solve_relaxed):
    """``pathcut.cover.lp_path_cover`` as it read before rounding narrowed
    to the columns of nonzero value: full-width mask, ``tolist`` and
    ``compress`` over every column, on the reference LP. The library must
    return the same result and leave ``rng`` in the same state."""
    if not paths:
        raise InputError("lp_path_cover needs at least one constraint path")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    lp = reference_build_cover_lp(g, p_star, paths)
    sol = solver(lp)
    n_draws = math.ceil(math.log(4 * len(paths)))
    bound = 4.0 * math.log(4 * len(paths)) * sol.objective_value
    probs = np.asarray(sol.values)
    for retries in range(DEFAULT_RETRY_CAP):
        kept = (rng.random((n_draws, len(probs))) < probs).any(axis=0).tolist()
        if not all(any(map(kept.__getitem__, row)) for row in lp.rows):
            continue
        cost = float(np.fromiter(compress(lp.costs, kept), dtype=float).sum())
        if cost <= bound + 1e-9:
            return LPCoverResult(edges=frozenset(compress(lp.edge_order, kept)),
                                 retries=retries, solution=sol)
    raise RoundingFailureError(f"randomized rounding failed {DEFAULT_RETRY_CAP} times", solution=sol)
