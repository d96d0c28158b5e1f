"""Ranking simple s-t paths by length, lazily.

:class:`PathIterator` yields simple paths in nondecreasing
``(length, node sequence)`` order using deviation-based ranking: each
yielded path spawns candidates that share a root prefix and deviate at a
spur node, with the spur search banning the root's interior nodes and the
deviation edges already taken by yielded paths with the same prefix.

Candidates are popped from a heap keyed by ``(length, nodes)``, so ties
resolve to the lexicographically smallest sequence. Generation is lazy;
the constraint-generation oracle (:func:`next_shortest_excluding`)
materializes at most two paths per call.

Spur searches follow Lawler's rule: a path spawns deviations only from
its own deviation index onward, the position where it left the yielded
path that first pushed it (0 for the first shortest path). Searches at
earlier positions would repeat ones already made, so the ranking is the
same as when every position is searched (see
:meth:`PathIterator._spawn_deviations`).
"""

from __future__ import annotations

import heapq
from typing import Iterator, Optional

from .errors import InputError
from .graphs import Graph, Path, edge_key, path_length, shortest_path


class PathIterator:
    """Single-consumer iterator over simple s-t paths of an immutable graph.

    ``allowed_nodes`` restricts enumeration to the induced subgraph on that
    node subset (used for hop-bounded neighborhoods on grid-like graphs).
    ``banned_edges`` enumerates as if those edges were absent, which is how
    attacks express the residual graph after their cuts.
    """

    def __init__(self, g: Graph, s: int, t: int, allowed_nodes=None, banned_edges=()):
        s = g.check_node(s)
        t = g.check_node(t)
        if s == t:
            raise InputError("path enumeration needs distinct endpoints")
        self._g = g
        self._s = s
        self._t = t
        self._allowed = frozenset(allowed_nodes) if allowed_nodes is not None else None
        self._banned = frozenset(edge_key(*e) for e in banned_edges)
        self._heap: list[tuple] = []
        self._seen: set[tuple] = set()
        self._yielded: list[tuple] = []  # (length, nodes) in pop order
        # (nodes, deviation index) of the yielded path awaiting its spawn.
        self._pending: tuple | None = None
        first = shortest_path(g, s, t, banned_edges=self._banned, allowed_nodes=self._allowed)
        if first is not None:
            self._push(path_length(g, first), first.nodes, 0)

    def _push(self, length, nodes: tuple, dev: int) -> None:
        # Node sequences are unique in the heap, so ``dev`` never decides
        # the order: it only records where the first push deviated.
        if nodes not in self._seen:
            self._seen.add(nodes)
            heapq.heappush(self._heap, (length, nodes, dev))

    def __iter__(self) -> Iterator[Path]:
        return self

    def __next__(self) -> Path:
        # Deviations of the last yielded path are spawned only when the
        # next path is actually requested, so a consumer that stops after
        # one path (the oracle, usually) pays for one search only.
        if self._pending is not None:
            self._spawn_deviations(*self._pending)
            self._pending = None
        if not self._heap:
            raise StopIteration
        length, nodes, dev = heapq.heappop(self._heap)
        self._yielded.append((length, nodes))
        self._pending = (nodes, dev)
        return Path(nodes)

    def _spawn_deviations(self, parent: tuple, dev: int) -> None:
        """Push the shortest deviation of ``parent`` at each spur index from
        its deviation index ``dev`` onward (Lawler's rule).

        Skipping the indices ``i < dev`` is exact. The search at root
        ``parent[:i + 1]`` bans the edge at ``i`` of every yielded path with
        that root. A yielded path that deviated after ``i`` shares its edge
        at ``i`` with its parent, which has the same root, so each banned
        edge belongs to a yielded path with that root and deviation index at
        most ``i``. The last such path spawned at ``i`` after it was
        yielded, with every one of these edges banned, so its search found
        the same spur path this one would, and that candidate is already in
        ``_seen``.
        """
        g = self._g
        prefix_len = [0]
        for a, b in zip(parent, parent[1:]):
            prefix_len.append(prefix_len[-1] + g.weight(a, b))
        for i in range(dev, len(parent) - 1):
            root = parent[: i + 1]
            spur = parent[i]
            banned_edges = set(self._banned)
            for _, nodes in self._yielded:
                if len(nodes) > i + 1 and nodes[: i + 1] == root:
                    banned_edges.add(edge_key(nodes[i], nodes[i + 1]))
            spur_path = shortest_path(
                g,
                spur,
                self._t,
                banned_nodes=frozenset(root[:-1]),
                banned_edges=frozenset(banned_edges),
                allowed_nodes=self._allowed,
            )
            if spur_path is None:
                continue
            candidate = root[:-1] + spur_path.nodes
            self._push(prefix_len[i] + path_length(g, spur_path), candidate, i)


def k_shortest_paths(g: Graph, s: int, t: int, k: int, allowed_nodes=None) -> list[Path]:
    """First ``min(k, total)`` simple s-t paths in ranking order.

    Returns an empty list when t is unreachable; fewer than ``k`` paths
    exactly when fewer exist.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    out: list[Path] = []
    for p in PathIterator(g, s, t, allowed_nodes=allowed_nodes):
        out.append(p)
        if len(out) == k:
            break
    return out


def next_shortest_excluding(g: Graph, s: int, t: int, p_star: Path, banned_edges=()) -> Optional[Path]:
    """Minimum-length simple s-t path whose node sequence differs from
    ``p_star``, or None if no such path exists.

    This is the constraint-generation oracle: the returned path is a
    violated constraint iff it is not strictly longer than ``p_star``.
    ``p_star`` only needs to be a node-sequence descriptor; its edges are
    not required to exist in ``g``. ``banned_edges`` are treated as
    removed from ``g``. The search spans all of ``g``: a node mask limits
    only the choice of ``p_star`` (:func:`k_shortest_paths`), never the
    competitors an attack must cut.
    """
    skip = p_star.nodes
    for p in PathIterator(g, s, t, banned_edges=banned_edges):
        if p.nodes != skip:
            return p
    return None
