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

A consumer that will take at most ``limit`` paths says so, and spur
searches then stop early. With ``need`` paths still to yield, a candidate
longer than the ``need``-th smallest queued length cannot be yielded:
at least ``need`` queued paths precede it. So each spur search gets that
length, less its root prefix, as its ``max_length`` and returns None
rather than a path that is too long (see :func:`shortest_path`). Paths
as long as the cutoff are kept, so ties still resolve by node sequence.
The cutoff never rises: a pop removes the smallest queued length as ``need``
falls by one, and a push can only lower it. This is exact only with
exact sums, so it applies when every weight is an ``int``. With float
weights one node sequence can be pushed from two deviation indices with
lengths an ulp apart, and those graphs rank as without a limit.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Iterator, Optional

from .errors import InputError
from .graphs import Graph, Path, edge_key, int_weights, path_length, shortest_path


class PathIterator:
    """Single-consumer iterator over simple s-t paths of an immutable graph.

    ``allowed_nodes`` restricts enumeration to the induced subgraph on that
    node subset (used for hop-bounded neighborhoods on grid-like graphs).
    ``banned_edges`` enumerates as if those edges were absent, which is how
    attacks express the residual graph after their cuts.
    ``limit`` caps the number of paths yielded; a consumer that knows how
    many it will take passes it, so that spur searches can stop early.
    """

    def __init__(self, g: Graph, s: int, t: int, allowed_nodes=None, banned_edges=(),
                 limit: Optional[int] = None):
        s = g.check_node(s)
        t = g.check_node(t)
        if s == t:
            raise InputError("path enumeration needs distinct endpoints")
        if limit is not None and limit < 0:
            raise InputError(f"limit must be >= 0, got {limit}")
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
        # Paths left to yield, or None without a limit.
        self._left = limit
        # The smallest queued lengths, sorted, at most ``_left`` of them;
        # None when no cutoff applies.
        self._lengths: list | None = [] if limit is not None and int_weights(g) else None
        first = shortest_path(g, s, t, banned_edges=self._banned, allowed_nodes=self._allowed)
        if first is not None:
            self._push(path_length(g, first), first.nodes, 0)

    def _push(self, length, nodes: tuple, dev: int) -> None:
        # Node sequences are unique in the heap, so ``dev`` never decides
        # the order: it only records where the first push deviated.
        if nodes not in self._seen:
            self._seen.add(nodes)
            heapq.heappush(self._heap, (length, nodes, dev))
            lengths = self._lengths
            if lengths is not None:
                insort(lengths, length)
                if len(lengths) > self._left:
                    lengths.pop()

    def __iter__(self) -> Iterator[Path]:
        return self

    def __next__(self) -> Path:
        # Deviations of the last yielded path are spawned only when the
        # next path is actually requested, so a consumer that stops after
        # one path (the oracle, usually) pays for one search only.
        if self._left == 0:
            raise StopIteration
        if self._pending is not None:
            self._spawn_deviations(*self._pending)
            self._pending = None
        if not self._heap:
            raise StopIteration
        length, nodes, dev = heapq.heappop(self._heap)
        if self._left is not None:
            self._left -= 1
            if self._lengths is not None:
                del self._lengths[0]  # the popped length is the smallest queued
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

        With a limit, each search is cut off above the ``need``-th smallest
        queued length (see the module docstring). Lawler's rule stays exact:
        a skipped search repeats an earlier one, and if that one was cut
        off, its path was longer than a cutoff at least as large as today's.
        """
        g = self._g
        lengths = self._lengths
        need = self._left
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
                max_length=(lengths[-1] - prefix_len[i]
                            if lengths is not None and len(lengths) == need else None),
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
    return list(PathIterator(g, s, t, allowed_nodes=allowed_nodes, limit=k))


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
    for p in PathIterator(g, s, t, banned_edges=banned_edges, limit=2):
        if p.nodes != skip:
            return p
    return None
