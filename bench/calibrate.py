"""A fixed reference computation that gauges the machine's current speed.

On a shared host one thread's speed drifts by half or more within
minutes, with the load of other tenants, and an attack and a fixed
computation run next to it slow down nearly alike: their ratio varies
by about 4 % between runs where their times vary by 40 %. The runner
therefore runs ``kernel`` between timed items and scales each item's
wall time by ``REFERENCE_S`` over the kernel's time around it. The
result is the item's time at the reference speed: the speed at which the
kernel takes ``REFERENCE_S``, its typical time on a 2-vCPU VM.

The kernel mixes the two kinds of work the library does: a pure-Python
Dijkstra with a binary heap over adjacency lists, as in the path oracle
and the residual rebuilds, and dense matrix-vector products, as in the
eigenvector. Its inputs are fixed and owned by the benchmark, so a change
to the library cannot change what it measures.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Callable

import numpy as np

#: Typical seconds of one ``kernel`` call on a 2-vCPU VM.
REFERENCE_S = 0.004

_NODES = 400
_SOURCES = (0, 133, 266)
_DIM = 360
_PRODUCTS = 40


def make_kernel() -> Callable[[], float]:
    """The reference computation, as a function returning its seconds."""
    rng = random.Random(2104)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(_NODES)]
    for _ in range(5 * _NODES):
        u, v = rng.randrange(_NODES), rng.randrange(_NODES)
        if u != v:
            w = rng.randint(1, 21)
            adj[u].append((v, w))
            adj[v].append((u, w))
    matrix = np.random.default_rng(2104).random((_DIM, _DIM)) / _DIM
    start_vec = np.full(_DIM, 1.0)

    def kernel() -> float:
        start = time.perf_counter()
        for s in _SOURCES:
            dist = {s: 0}
            heap = [(0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in adj[u]:
                    nd = d + w
                    if nd < dist.get(v, nd + 1):
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
        vec = start_vec
        for _ in range(_PRODUCTS):
            vec = matrix @ vec
            vec /= np.linalg.norm(vec)
        return time.perf_counter() - start

    return kernel
