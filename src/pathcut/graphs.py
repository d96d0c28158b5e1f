"""Undirected graphs with per-edge traversal weights and removal costs.

Edges are addressed everywhere by their canonical key: the endpoint pair
sorted ascending, so ``(u, v)`` and ``(v, u)`` name the same edge. A
graph's maps iterate in sorted key order, fixed at construction. Graphs
are immutable: attacks ban edges instead of building residual graphs.
Weights and costs are Python ``int`` or ``float`` values
(:func:`_as_number`), and construction records whether every weight is
an ``int`` (``_int_weights``; sums are then exact). A graph builds its
adjacency lists on the first search and caches the whole-graph distance
bound :func:`shortest_path` reads for its last target.

Node ids are dense integers ``0 .. node_count-1``. External labels are
mapped at ingestion (see :mod:`pathcut.harness`).
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InputError

EdgeKey = tuple[int, int]

#: Absolute tolerance for length comparisons with real-valued weights.
#: Integer lengths compare exactly (see :func:`strictly_longer`).
LENGTH_TOL = 1e-9


def _int_or_float(x, k):
    """``x`` as an ``int`` (not a ``bool``) or a ``float``: a numpy scalar
    becomes its Python number through ``.item()``. Any other value raises
    :class:`InputError` naming ``k``, an edge key for a weight or cost or
    a parameter's name (``"eps"``)."""
    if isinstance(x, np.generic):
        x = x.item()
    if type(x) is not int and type(x) is not float:
        what = k if type(k) is str else f"weight or cost on edge {k}"
        raise InputError(f"{what} must be an int or a float, got {x!r}")
    return x


def _as_number(x, k: EdgeKey):
    """Weight or cost ``x`` of edge ``k``: an :func:`_int_or_float`,
    nonnegative and finite, at most the largest float (an int beyond it
    overflows every float sum that lengths and costs take part in)."""
    x = _int_or_float(x, k)
    # Comparisons, not math.isfinite: NaN fails them, and they compare a
    # huge int exactly instead of overflowing.
    if not 0 <= x <= sys.float_info.max:
        raise InputError(f"weight or cost on edge {k} is negative or not finite")
    return x


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical unordered key for the edge {u, v}."""
    if u == v:
        raise InputError(f"self-loop at node {u}")
    return (u, v) if u < v else (v, u)


def strictly_longer(a, b) -> bool:
    """True iff length ``a`` exceeds length ``b`` beyond ``LENGTH_TOL``.
    Two ints compare exactly: ``b + LENGTH_TOL`` is a float, which ties
    ints apart above 2**53 and overflows beyond the float range. Below
    2**53 both tests agree."""
    if type(a) is int and type(b) is int:
        return a > b
    return a > b + LENGTH_TOL


def _as_node(x) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise InputError(f"node id must be an integer, got {x!r}") from None


class Graph:
    """Immutable undirected graph with finite nonnegative weights and removal costs.

    Parameters
    ----------
    node_count:
        Number of nodes; ids are ``0..node_count-1``.
    edges:
        Iterable of ``(u, v, weight)`` or ``(u, v, weight, cost)`` records,
        each a sequence or a numpy array. When cost is omitted it defaults
        to the weight. Records of another type (a set, a dict), self-loops,
        duplicate unordered pairs and weights or costs that
        :func:`_as_number` rejects raise :class:`InputError`.

    Construction stores the weight and cost maps in sorted key order,
    whatever the record order; :meth:`_adjacency` builds the adjacency
    lists on the first search, so a graph read only for its keys (the
    unit-weight graph ``assign_weights`` reads) never builds them.
    """

    __slots__ = ("node_count", "_weights", "_costs", "_adj", "_int_weights", "_bound")

    def __init__(self, node_count: int, edges: Iterable[tuple] = ()):
        node_count = _as_node(node_count)
        if node_count < 0:
            raise InputError("node_count must be nonnegative")
        weights: dict[EdgeKey, float] = {}
        costs: dict[EdgeKey, float] = {}
        for rec in edges:
            # Positional records only: a set or a mapping has a length
            # but no fields in order.
            if not isinstance(rec, (Sequence, np.ndarray)) or len(rec) not in (3, 4):
                raise InputError(f"edge record must be (u, v, w[, c]): {rec!r}")
            u, v, w, c = rec if len(rec) == 4 else (*rec, rec[2])  # cost defaults to the weight
            u, v = _as_node(u), _as_node(v)
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise InputError(f"edge ({u}, {v}) out of range for {node_count} nodes")
            k = edge_key(u, v)
            if k in weights:
                raise InputError(f"duplicate edge {k}")
            weights[k] = _as_number(w, k)
            costs[k] = _as_number(c, k)
        if (keys := sorted(weights)) != list(weights):
            weights, costs = {k: weights[k] for k in keys}, {k: costs[k] for k in keys}
        self._fill(node_count, weights, costs, all(type(w) is int for w in weights.values()))

    @classmethod
    def _trusted(cls, node_count: int, weights: dict) -> "Graph":
        """Unchecked graph over a map the library built, with canonical,
        distinct, in-range keys in sorted order and Python ``int`` weights
        (the generators' unit weights, ``assign_weights``' ``tolist`` draws),
        so no weight is scanned; each cost equals its weight. One dict serves
        as both maps: a graph never mutates them and exposes them read-only."""
        g = cls.__new__(cls)
        g._fill(node_count, weights, weights, True)
        return g

    def _fill(self, node_count: int, weights: dict, costs: dict, int_weights: bool) -> None:
        """The one construction body; it builds no adjacency lists.
        Both maps must iterate in sorted key order. ``int_weights`` says
        whether every weight is a Python ``int``, so that sums are exact."""
        self.node_count = node_count
        self._weights = weights
        self._costs = costs
        self._int_weights = int_weights
        # Adjacency lists, built on first search by _adjacency(), or None.
        self._adj = None
        # (t, bound list) of the last search target, or None.
        self._bound = None

    def _adjacency(self) -> list[list[tuple[int, float]]]:
        """Per-node ``(neighbour, weight)`` lists, built on the first call.

        Neighbours are appended in the map's sorted key order, which leaves
        every list sorted by node id: for a node ``x`` the keys ``(a, x)``
        with ``a < x`` all sort before the keys ``(x, b)``. The lists are
        stored by one assignment, as the distance bound is: two threads
        may both build them, and each reader sees ``None`` or a whole
        list."""
        adj = self._adj
        if adj is None:
            adj = [[] for _ in range(self.node_count)]
            for (u, v), w in self._weights.items():
                adj[u].append((v, w))
                adj[v].append((u, w))
            self._adj = adj
        return adj

    # -- lookups ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self._weights)

    @property
    def weights(self):
        """Read-only mapping EdgeKey -> weight, in sorted key order."""
        return MappingProxyType(self._weights)

    @property
    def costs(self):
        """Read-only mapping EdgeKey -> removal cost, in sorted key order."""
        return MappingProxyType(self._costs)

    def check_node(self, u) -> int:
        if type(u) is not int:
            u = _as_node(u)
        if not 0 <= u < self.node_count:
            raise InputError(f"node {u} out of range for {self.node_count} nodes")
        return u

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return ((u, v) if u < v else (v, u)) in self._weights

    def weight(self, u: int, v: int):
        try:
            return self._weights[edge_key(u, v)]
        except KeyError:
            raise InputError(f"no edge between {u} and {v}") from None

    def cost(self, u: int, v: int):
        try:
            return self._costs[edge_key(u, v)]
        except KeyError:
            raise InputError(f"no edge between {u} and {v}") from None

    def edges(self) -> list[EdgeKey]:
        """All edge keys, in sorted order (the maps' order)."""
        return list(self._weights)

    def edge_records(self) -> list[tuple[int, int, float, float]]:
        return [(u, v, w, self._costs[(u, v)]) for (u, v), w in self._weights.items()]

    def neighbors(self, u: int) -> tuple[tuple[int, float], ...]:
        """Neighbors of ``u`` as (node, weight) pairs, sorted by node id: a
        copy, so that no caller can change the lists the searches read."""
        return tuple(self._adjacency()[self.check_node(u)])

    def degree(self, u: int) -> int:
        return len(self._adjacency()[self.check_node(u)])

    def total_weight(self):
        """Sum of the weights in sorted key order, whatever the record order."""
        return sum(self._weights.values())

    # -- derivation ------------------------------------------------------

    def remove_edges(self, removed: Iterable) -> "Graph":
        """New graph without ``removed``; weights/costs preserved elsewhere.
        No library code calls it (attacks ban edges). Its callers: ``bench/tracing.py``,
        ``bench/test_bench.py``, and its tests in ``test_graphs.py``."""
        gone = set()
        for e in removed:
            k = edge_key(*e)
            if k not in self._weights:
                raise InputError(f"cannot remove unknown edge {k}")
            gone.add(k)
        return Graph(
            self.node_count,
            ((u, v, w, c) for (u, v, w, c) in self.edge_records() if (u, v) not in gone),
        )

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self._weights == other._weights
            and self._costs == other._costs
        )

    __hash__ = None

    def __repr__(self):
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"


class Path:
    """A simple (no repeated node) sequence of nodes.

    Length is not stored: it belongs to a graph's weights, not to the node
    sequence, and is evaluated against a graph via :func:`path_length`.
    """

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes: Sequence[int]):
        nodes = tuple(map(_as_node, nodes))
        if not nodes:
            raise InputError("a path needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise InputError(f"path repeats a node: {nodes}")
        self.nodes = nodes
        self.edges: tuple[EdgeKey, ...] = tuple(map(edge_key, nodes, nodes[1:]))

    @classmethod
    def _trusted(cls, nodes: tuple) -> "Path":
        """Unchecked path over a nonempty tuple of ``int`` node ids that
        repeats no node: the sequences :func:`shortest_path` and
        :class:`~pathcut.paths.PathIterator` build, simple by construction."""
        p = cls.__new__(cls)
        p.nodes = nodes
        p.edges = tuple((a, b) if a < b else (b, a) for a, b in zip(nodes, nodes[1:]))
        return p

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def target(self) -> int:
        return self.nodes[-1]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other):
        if isinstance(other, Path):
            return self.nodes == other.nodes
        return NotImplemented

    def __hash__(self):
        return hash(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __repr__(self):
        return "Path(" + "-".join(map(str, self.nodes)) + ")"


def path_length(g: Graph, p: Path):
    """Sum of edge weights along ``p``; 0 for a single-node path.

    Raises :class:`InputError` if some consecutive pair is not an edge of
    ``g``.
    """
    total = 0
    for e in p.edges:  # canonical keys; ``g.weight`` raises for a missing edge
        total += g._weights[e] if e in g._weights else g.weight(*e)
    return total


def _target_length(g: Graph, p_star: Path):
    """Check a target path (at least one edge, each in ``g``); return its length."""
    if p_star.num_edges == 0:
        raise InputError("target path must have at least one edge")
    for u, v in p_star.edges:
        if not g.has_edge(u, v):
            raise InputError(f"target path edge ({u}, {v}) is not in the graph")
    return path_length(g, p_star)


def _distance_bound(g: Graph, t: int) -> list:
    """Per-node lower bound on the distance to ``t`` in ``g``, ignoring
    bans and masks; ``math.inf`` where ``t`` is unreachable. Cached on
    ``g`` for the last ``t``.

    With all-``int`` weights the bound is the exact distance. Otherwise it
    is 0 for every node that reaches ``t``: see :func:`shortest_path`.
    """
    cached = g._bound
    if cached is not None and cached[0] == t:
        return cached[1]
    exact = g._int_weights
    adj = g._adjacency()
    bound = [math.inf] * g.node_count
    bound[t] = 0
    heap = [(0, t)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > bound[u]:
            continue
        for v, w in adj[u]:
            dv = d + w if exact else 0
            if dv < bound[v]:
                bound[v] = dv
                heapq.heappush(heap, (dv, v))
    # One assignment of a fresh tuple: a concurrent reader sees the old
    # entry or the new one, never a mix.
    g._bound = (t, bound)
    return bound


def shortest_path(
    g: Graph,
    s: int,
    t: int,
    banned_nodes: frozenset = frozenset(),
    banned_edges: frozenset = frozenset(),
    allowed_nodes: Optional[frozenset] = None,
    max_length: Optional[float] = None,
) -> Optional[Path]:
    """Minimum-length simple s-t path, or None if t is unreachable.

    Ties are broken by the lexicographically smallest node sequence, which
    makes the result deterministic. The heap holds (key, node sequence)
    pairs so tuple comparison implements the tie-break directly.

    The search is goal-directed (A*): an entry for ``v`` reached at length
    ``d`` is keyed ``d + bound[v]``, where ``bound`` is the distance from
    each node to ``t`` in all of ``g``. Bans and the mask only lengthen
    paths, so the bound stays below the true remaining distance and one
    bound, cached on ``g``, serves every search to ``t``. Nodes with an
    infinite bound cannot reach ``t`` and are never pushed. The first pop
    of each node is the one plain Dijkstra makes: ``bound[u] <= w(u, v) +
    bound[v]`` on every edge, so each node first pops at its shortest
    length, and a tight predecessor has a key no larger, with a node
    sequence that is a proper prefix on a tie, so it pops first. Hence the
    returned path is the same.

    That argument needs exact sums, so the distances are used only when
    every weight is a Python ``int``. For any other weights the bound is 0
    or infinite (reachability only) and the keys are plain lengths. With
    float distances a key rounds differently from the length it stands
    for, so ties stop being ties: on a graph with weights 0.1-0.7 the
    ranking put 3-5-0 before 3-4-2-5-0, which has the same float length
    and the smaller node sequence (see ``tests/test_paths.py``).

    One list, indexed by node and made per search, is the search's state:
    ``best[v]`` is the smallest length pushed for ``v`` (``inf`` before the
    first push), or ``-inf`` once ``v`` is finished (popped) or if it is
    banned. Pops of a ``-inf`` node are discarded, and a push for ``v`` is
    skipped when its length exceeds ``best[v]``. That is exact: the
    cheaper entry pops first and finishes ``v``, so the skipped one could
    only have been popped and discarded. Pushes of equal length are kept,
    since the node sequence decides between them. Every test of a push
    (``best``, the bound, the bans, the mask, ``max_length``) only filters
    and has no side effect, so their order changes no result; ``best``
    goes first, since on a dense graph nearly every neighbour fails it.

    ``banned_nodes``/``banned_edges``/``allowed_nodes`` restrict the search
    (used by the path-ranking iterator and by neighborhood-masked runs).
    An entry of ``banned_nodes`` equal to no node id of ``g`` bans
    nothing. ``banned_edges`` must hold canonical keys (see
    :func:`edge_key`): the search looks up each edge by its canonical key
    only, so a reversed key bans nothing. :func:`~pathcut.paths.PathIterator`
    canonicalizes the keys it is given.

    With ``max_length``, the search returns None when the shortest path is
    longer than ``max_length``; otherwise it returns the same path as
    without it, ties included. An entry whose key exceeds ``max_length`` is
    never pushed; :mod:`pathcut.paths` argues why that is exact, for the
    ranking cutoff that passes it. The oracle's first search passes
    ``len(p*)`` (:func:`~pathcut.paths.next_shortest_excluding`). A NaN
    ``max_length`` is an input error.
    """
    s = g.check_node(s)
    t = g.check_node(t)
    if max_length is not None and max_length != max_length:
        raise InputError("max_length must not be NaN")
    if s in banned_nodes or t in banned_nodes:
        return None
    if allowed_nodes is not None and (s not in allowed_nodes or t not in allowed_nodes):
        return None
    if s == t:
        return Path._trusted((s,)) if max_length is None or max_length >= 0 else None
    bound = _distance_bound(g, t)
    inf = math.inf
    limit = inf if max_length is None else max_length
    if bound[s] == inf or bound[s] > limit:
        return None
    adj = g._adjacency()
    heap: list[tuple] = [(bound[s], (s,))]
    n = g.node_count
    best = [inf] * n
    for x in banned_nodes:
        if type(x) is int:
            if 0 <= x < n:
                best[x] = -inf
        elif x in range(n):  # a numpy integer, say
            best[range(n).index(x)] = -inf
    best[s] = 0
    while heap:
        _, nodes = heapq.heappop(heap)
        u = nodes[-1]
        dist = best[u]
        if dist == -inf:
            continue
        if u == t:
            return Path._trusted(nodes)
        best[u] = -inf
        for v, w in adj[u]:
            d = dist + w
            if d > best[v]:
                continue
            h = bound[v]
            if h == inf:
                continue
            if banned_edges and ((u, v) if u < v else (v, u)) in banned_edges:
                continue
            if allowed_nodes is not None and v not in allowed_nodes:
                continue
            key = d + h
            if key > limit:
                continue
            best[v] = d
            heapq.heappush(heap, (key, nodes + (v,)))
    return None


def bfs_hops(g: Graph, s: int, max_hops: Optional[int] = None) -> dict[int, int]:
    """Unweighted hop distance from ``s`` to every reachable node.

    ``max_hops`` truncates the search (nodes farther away are omitted).
    """
    s = g.check_node(s)
    adj = g._adjacency()
    dist = {s: 0}
    frontier = deque([s])
    while frontier:
        u = frontier.popleft()
        d = dist[u]
        if max_hops is not None and d >= max_hops:
            continue
        for v, _ in adj[u]:
            if v not in dist:
                dist[v] = d + 1
                frontier.append(v)
    return dist


@dataclass(frozen=True)
class CutPlan:
    """Outcome of an attack: the removed edges plus provenance.

    ``lp_objective``/``lp_integral`` describe the final LP solve, when the
    method used one. ``rng_seed`` is the seed the randomized part consumed.
    """

    removed_edges: frozenset
    total_cost: float
    method_tag: str
    iterations: int = 0
    rounding_retries: int = 0
    constraints_generated: int = 0
    rng_seed: Optional[int] = None
    lp_objective: Optional[float] = None
    lp_integral: Optional[bool] = None


def make_cut_plan(g: Graph, p_star: Path, removed: Iterable, method_tag: str, **extra) -> CutPlan:
    """Build a :class:`CutPlan`, computing the total cost from ``g`` and
    enforcing that no protected edge is removed."""
    keys = frozenset(edge_key(*e) for e in removed)
    protected = frozenset(p_star.edges)
    total = 0
    for k in sorted(keys):
        if k in protected:
            raise InputError(f"plan removes protected edge {k}")
        total += g._costs[k] if k in g._costs else g.cost(*k)  # g.cost raises
    return CutPlan(
        removed_edges=keys,
        total_cost=total,
        method_tag=method_tag,
        **extra,
    )
