"""Ranking simple s-t paths by length, lazily.

:func:`PathIterator` yields simple paths in nondecreasing
``(length, node sequence)`` order using deviation-based ranking: each
yielded path spawns candidates that share a root prefix and deviate at a
spur node, with the spur search banning the root's interior nodes and the
deviation edges already taken by yielded paths with the same prefix: the
edges to the children of the root's node in a trie of the yielded paths.

Candidates wait in one list sorted by ``(length, nodes)``, so ties
resolve to the lexicographically smallest sequence. Generation is lazy:
a path spawns its deviations after its ``yield``, when the next path is
requested. The constraint-generation oracle
(:func:`next_shortest_excluding`) ranks only from the protected path,
and stops after the second path.

Spur searches follow Lawler's rule: a path spawns deviations only from
its own deviation index onward, the position where it left the yielded
path that first pushed it (0 for the first shortest path). Searches at
earlier positions would repeat ones already made, so the ranking is the
same as when every position is searched (see :func:`_ranking`).

A consumer that will take at most ``limit`` paths says so. With ``need``
paths still to yield, the list keeps its ``need`` first candidates only.
That is exact for any weights: a dropped candidate has ``need`` others
ahead of it, and each pop removes one of them as ``need`` falls by one.
While the list is full, its last length is a cutoff: each spur search
gets it, less its root prefix, as its ``max_length`` and returns None
rather than a path that is too long. A ``cap`` on the lengths wanted
seeds the cutoff before the list fills; a search it cuts off could only
yield a path over the cap. The search never pushes an entry whose key
exceeds the limit (:func:`shortest_path`). That is exact: a key is at
most the length of every path through its entry, so such a path is too
long, and since popped keys never decrease, the entry could only have
popped after every entry within the limit. Paths as long as the cutoff
are kept, so ties still resolve by node sequence. The cutoff never rises:
a pop leaves the list full, and a push can only lower it. Lawler's rule
stays exact: a skipped search repeats an earlier one, and if that one was
cut off or its candidate dropped, ``need`` candidates were ahead of its
path then, so it cannot be yielded.

Under the cutoff, the ranking runs a spur search only if some neighbour
``v`` of the spur has ``w(spur, v) + bound[v] <= max_length``, is not in
the root, is not a trie child of the spur, is not across a banned edge,
and is in the mask; ``bound`` is the whole-graph distance bound the
search reads, fetched once per ranking. That is exact: it is the search's
own push filter on its first expansion, from the spur at length 0, so a
skipped search would push nothing and return None. Rankings and ties
stay the same; only the number of searches falls.

Four shortcuts need exact sums and apply only when every weight is an
``int``: the distance bound of :func:`~pathcut.graphs.shortest_path`, the
ranking's cutoff with its spur skip, and the oracle's ``p_star_first`` hint
and ``max_length`` cap. With float weights sums round and ties stop being
ties (see the float paragraph of :func:`~pathcut.graphs.shortest_path`).
The oracle's ``len(p*)`` cap on its first search holds for any weights.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Iterator, Optional

from .errors import InputError, check_count
from .graphs import Graph, Path, _distance_bound, edge_key, path_length, shortest_path


def PathIterator(g: Graph, s: int, t: int, allowed_nodes=None, banned_edges=(),
                 limit: Optional[int] = None) -> Iterator[Path]:
    """Single-consumer iterator over simple s-t paths of an immutable graph.

    ``allowed_nodes`` restricts enumeration to the induced subgraph on that
    node subset (used for hop-bounded neighborhoods on grid-like graphs).
    ``banned_edges`` enumerates as if those edges were absent, which is how
    attacks express the residual graph after their cuts. Either orientation
    names an edge. A frozenset of edge keys of ``g``, which are canonical
    (the cuts attacks pass), is used as it is; any other input is
    canonicalized with :func:`~pathcut.graphs.edge_key` and its errors.
    ``limit`` caps the number of paths yielded; a consumer that knows how
    many it will take passes it, so that spur searches can stop early.

    The call checks the arguments and makes the first search. A yielded
    path spawns its deviations after its ``yield``, so a consumer that
    stops after one path pays for one search only.
    """
    s, t, allowed, banned = _arguments(g, s, t, allowed_nodes, banned_edges, limit)
    first = shortest_path(g, s, t, banned_edges=banned, allowed_nodes=allowed)
    return _ranking(g, t, allowed, banned, math.inf if limit is None else limit, first)


def _arguments(g: Graph, s, t, allowed_nodes, banned_edges, limit=None):
    """``(s, t, allowed, banned)`` checked and canonicalized as
    :func:`PathIterator` documents, in this order: ``s``, ``t``, distinct
    endpoints, ``limit``, ``allowed_nodes``, ``banned_edges``."""
    s = g.check_node(s)
    t = g.check_node(t)
    if s == t:
        raise InputError("path enumeration needs distinct endpoints")
    if limit is not None:
        check_count("limit", limit, 0)
    allowed = frozenset(allowed_nodes) if allowed_nodes is not None else None
    if type(banned_edges) is frozenset and all(map(g._weights.__contains__, banned_edges)):
        banned = banned_edges
    else:
        banned = frozenset(edge_key(*e) for e in banned_edges)
    return s, t, allowed, banned


def _ranking(g: Graph, t: int, allowed, banned: frozenset, left: float,
             first: Optional[Path], cap: float = math.inf) -> Iterator[Path]:
    """The ranking behind :func:`PathIterator`, with ``left`` paths still to
    yield (``math.inf`` without a limit: the list never fills, so nothing is
    dropped or cut off), and none after ``first`` longer than ``cap`` (int
    weights only). After its ``yield``, a path ``parent`` spawns the
    shortest deviation at each spur index from its deviation index ``dev``
    onward (Lawler's rule). The search at root ``parent[:i + 1]`` bans the
    edge at ``i`` of every yielded path with that root, read from the trie
    node the loop walks down to.

    Skipping the indices ``i < dev`` is exact. A yielded path that deviated
    after ``i`` shares its edge at ``i`` with its parent, which has the same
    root, so each banned edge belongs to a yielded path with that root and
    deviation index at most ``i``. The last such path spawned at ``i`` after
    it was yielded, with every one of these edges banned, so its search
    found the same spur path this one would, and that candidate is already
    in ``seen``.

    With a limit, each search is cut off above the last candidate's length
    once the list is full, or above ``cap`` before; a spur that no edge can
    leave within the cutoff is skipped. The module docstring argues why
    these and Lawler's rule together stay exact.
    """
    # (length, nodes, deviation index), sorted; at most ``left`` of them.
    candidates: list[tuple] = []
    seen: set[tuple] = set()
    trie: dict = {}  # yielded paths as nested {node: subtrie}
    cutoff = g._int_weights
    inf = math.inf

    def push(length, nodes: tuple, dev: int) -> None:
        # Node sequences are unique in the list, so ``dev`` never decides
        # the order: it only records where the first push deviated.
        if nodes not in seen:
            seen.add(nodes)
            insort(candidates, (length, nodes, dev))
            if len(candidates) > left:
                candidates.pop()

    if first is not None:
        push(path_length(g, first), first.nodes, 0)
        if cutoff:
            # Held for the whole ranking: the graph caches one bound only,
            # and another ranking may replace it between two spurs.
            bound = _distance_bound(g, t)
            adj = g._adjacency()
    while candidates:
        _, parent, dev = candidates.pop(0)
        left -= 1
        node = trie
        for v in parent:
            node = node.setdefault(v, {})
        yield Path._trusted(parent)
        if left == 0:
            return
        prefix_len = [0]
        for a, b in zip(parent, parent[1:]):  # a path of ``g``: every key is an edge
            prefix_len.append(prefix_len[-1] + g._weights[(a, b) if a < b else (b, a)])
        node = trie
        for v in parent[:dev]:
            node = node[v]
        for i in range(dev, len(parent) - 1):
            spur = parent[i]
            node = node[spur]
            # A full list's last length is within the cap: every candidate
            # but ``first``, popped at once, was found under it.
            ceiling = candidates[-1][0] if len(candidates) == left else cap
            limit = ceiling - prefix_len[i] if cutoff and ceiling < inf else None
            if limit is not None:
                # Skip a search whose first expansion would push nothing (see
                # the module docstring).
                for v, w in adj[spur]:
                    if (w + bound[v] <= limit and v not in node and v not in parent[:i]
                            and ((spur, v) if spur < v else (v, spur)) not in banned
                            and (allowed is None or v in allowed)):
                        break
                else:
                    continue
            # A child of ``spur`` is another node of a simple path, never ``spur``.
            spur_path = shortest_path(
                g, spur, t, banned_nodes=frozenset(parent[:i]),
                banned_edges=banned.union([(spur, v) if spur < v else (v, spur) for v in node]),
                allowed_nodes=allowed, max_length=limit,
            )
            if spur_path is not None:
                push(prefix_len[i] + path_length(g, spur_path), parent[:i] + spur_path.nodes, i)


def k_shortest_paths(g: Graph, s: int, t: int, k: int, allowed_nodes=None) -> list[Path]:
    """First ``min(k, total)`` simple s-t paths in ranking order.

    Returns an empty list when t is unreachable; fewer than ``k`` paths
    exactly when fewer exist.
    """
    check_count("k", k, 1)
    return list(PathIterator(g, s, t, allowed_nodes=allowed_nodes, limit=k))


def next_shortest_excluding(g: Graph, s: int, t: int, p_star: Path, banned_edges=(), *,
                            p_star_first: bool = False,
                            max_length: Optional[float] = None) -> Optional[Path]:
    """Minimum-length simple s-t path whose node sequence differs from
    ``p_star``, or None if no such path exists.

    This is the constraint-generation oracle: the returned path is a
    violated constraint iff it is not strictly longer than ``p_star``.
    ``p_star`` only needs to be a node-sequence descriptor; its edges are
    not required to exist in ``g``. ``banned_edges`` are treated as
    removed from ``g``. The search spans all of ``g``: a node mask limits
    only the choice of ``p_star`` (:func:`k_shortest_paths`), never the
    competitors an attack must cut.

    The first search answers the call unless it returns ``p_star``; only
    then does the ranking run, for its second path. ``p_star`` is live
    when it is an s-t path of ``g`` minus ``banned_edges``. The first search
    of a live ``p_star`` gets ``max_length=path_length(g, p_star)``, which
    is exact for any weights, with no rerun: ``p_star`` is not banned, so
    the shortest path is no longer than it, and by the ``max_length``
    contract of :func:`~pathcut.graphs.shortest_path` the capped search
    returns the same path, ties included, and never None. With float
    weights this holds too: the cap is summed as the search sums, from 0
    in s-to-t order, float addition rounds monotonically, and the float
    bound is 0 or infinite.

    ``max_length`` caps the answer as it caps
    :func:`~pathcut.graphs.shortest_path` (a NaN is an input error): None
    rather than a longer path. The first search of a live ``p_star`` gets
    the smaller cap, and the ranking gets ``max_length``. Float weights
    ignore it, as they ignore the hint: spur sums round in another order
    than ``path_length``.

    ``p_star_first=True`` hints that the first search would return
    ``p_star``; ``p_star`` must then be live (else
    :class:`~pathcut.errors.InputError`). With ``int`` weights the oracle
    then ranks from ``p_star`` without that search, and the answer is the
    same wherever ``p_star`` ranks: every other s-t path leaves ``p_star``
    at exactly one index, and the spur search there returns the
    ``(length, nodes)`` minimum of those paths.
    """
    s, t, _, banned = _arguments(g, s, t, None, banned_edges)
    if max_length is not None and max_length != max_length:
        raise InputError("max_length must not be NaN")
    cap = max_length if max_length is not None and g._int_weights else math.inf
    live = (p_star.nodes[0] == s and p_star.nodes[-1] == t and banned.isdisjoint(p_star.edges)
            and all(map(g._weights.__contains__, p_star.edges)))
    if p_star_first and not live:
        raise InputError(f"p_star_first: {p_star.nodes} is not an s-t path of g minus the bans")
    if p_star_first and g._int_weights:
        first = p_star
    else:
        first = shortest_path(g, s, t, banned_edges=banned,
                              max_length=min(path_length(g, p_star), cap) if live
                              else None if cap == math.inf else cap)
        if first is None or first.nodes != p_star.nodes:
            return first
    ranking = _ranking(g, t, None, banned, 2, first, cap)
    next(ranking)  # ``p_star``
    return next(ranking, None)
