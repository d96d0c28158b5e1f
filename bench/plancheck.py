"""Independent check that a plan makes p* the exclusive shortest path.

Shares no code with the library's oracle: it reads only the graph's edge
records and runs its own distance-only Dijkstra. For strictly positive
weights, p* is the exclusive shortest s-t path of the residual graph
exactly when ``d_s[t] == len(p*)`` and every residual edge (u, v) off p*
satisfies ``d_s[u] + w + d_t[v] > len(p*)`` in both orientations: a
shortest walk through such an edge of length ``<= len(p*)`` cannot repeat
a node (cutting the loop would beat ``d_s[t]``), so it would be a
competing simple path no longer than p*.

Generated weights are integers >= 1, so every comparison is exact.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional


def _distances(adj: list[list[tuple[int, int]]], source: int) -> list[float]:
    dist = [math.inf] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def plan_violation(g, p_star, removed) -> Optional[str]:
    """None if removing ``removed`` from ``g`` leaves ``p_star`` as the
    strictly shortest simple path between its endpoints; otherwise a
    short reason."""
    records = {(u, v): w for u, v, w, _ in g.edge_records()}
    if any(w <= 0 for w in records.values()):
        raise ValueError("the plan check needs strictly positive weights")
    gone = {tuple(sorted(e)) for e in removed}
    if not gone <= records.keys():
        return "plan removes an edge the graph does not have"
    on_path = {tuple(sorted(e)) for e in zip(p_star.nodes, p_star.nodes[1:])}
    if gone & on_path:
        return "plan removes an edge of p*"
    p_len = sum(records[e] for e in on_path)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.node_count)]
    for (u, v), w in records.items():
        if (u, v) not in gone:
            adj[u].append((v, w))
            adj[v].append((u, w))
    s, t = p_star.nodes[0], p_star.nodes[-1]
    d_s = _distances(adj, s)
    d_t = _distances(adj, t)
    if d_s[t] != p_len:
        return f"distance {d_s[t]} from s to t differs from len(p*) = {p_len}"
    for (u, v), w in records.items():
        if (u, v) in gone or (u, v) in on_path:
            continue
        if min(d_s[u] + d_t[v], d_s[v] + d_t[u]) + w <= p_len:
            return f"edge ({u}, {v}) lies on a competing path no longer than p*"
    return None
