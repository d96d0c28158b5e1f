"""Attack drivers: one constraint-generation loop and its four cut rules.

All four methods run :func:`_force_path`: ask the oracle for the shortest
competitor to the protected path in the graph minus the current cut and,
while it is not *strictly* longer (an equal-length competitor counts as a
violated constraint), record it and update the cut. PATHATTACK re-covers
every constraint found so far (LP rounding or greedy set cover); a
baseline adds one edge of the newest competitor. Every method makes at
most ``iteration_cap`` cut updates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .cover import LPCoverResult, greedy_path_cover, lp_path_cover
from .errors import ConvergenceError, InputError, IterationLimitError
from .graphs import CutPlan, Graph, Path, make_cut_plan, path_length, strictly_longer
from .lp import is_integral
from .paths import next_shortest_excluding

METHOD_PATHATTACK_LP = "pathattack-lp"
METHOD_PATHATTACK_GREEDY = "pathattack-greedy"
METHOD_GREEDY_COST = "greedy-cost"
METHOD_GREEDY_EIGENSCORE = "greedy-eigenscore"
METHODS = (
    METHOD_PATHATTACK_LP,
    METHOD_PATHATTACK_GREEDY,
    METHOD_GREEDY_COST,
    METHOD_GREEDY_EIGENSCORE,
)
#: Relative tolerance of greedy eigenscore's tie rule (see greedy_eigenscore).
TIE_RTOL = 1e-9


@dataclass(frozen=True)
class AttackConfig:
    """Method selection and knobs for one attack run.

    ``rng_seed`` is a nonnegative integer (numpy's seeding rule).
    ``iteration_cap`` is a nonnegative integer that bounds the cut updates
    of every method; None means ``10 * edge_count``.
    """

    method: str = METHOD_PATHATTACK_LP
    rng_seed: int = 0
    iteration_cap: Optional[int] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}; choose from {METHODS}")
        if not _nonnegative_int(self.rng_seed):
            raise InputError(f"rng_seed must be a nonnegative integer, got {self.rng_seed!r}")
        if self.iteration_cap is not None and not _nonnegative_int(self.iteration_cap):
            raise InputError(
                f"iteration_cap must be a nonnegative integer, got {self.iteration_cap!r}")


def _nonnegative_int(value) -> bool:
    try:
        return operator.index(value) >= 0
    except TypeError:
        return False


def _force_path(g: Graph, p_star: Path, iteration_cap: Optional[int], cut):
    """The loop of the module docstring; ``cut(constraints, removed)``
    returns the next cut. The oracle gets the cut as banned edges, so the
    residual graph is never built. Returns ``(removed, iterations,
    certificate)``; the certificate is the final oracle call."""
    if p_star.num_edges == 0:
        raise InputError("target path must have at least one edge")
    for u, v in p_star.edges:
        if not g.has_edge(u, v):
            raise InputError(f"target path edge ({u}, {v}) is not in the graph")
    s, t = p_star.source, p_star.target
    p_len = path_length(g, p_star)
    cap = iteration_cap if iteration_cap is not None else 10 * g.edge_count

    constraints: list[Path] = []
    removed: frozenset = frozenset()
    while True:
        p = next_shortest_excluding(g, s, t, p_star, banned_edges=removed)
        if p is None or strictly_longer(path_length(g, p), p_len):
            break
        constraints.append(p)
        if len(constraints) > cap:
            raise IterationLimitError(
                f"no feasible plan within {cap} iterations",
                partial={"constraints": len(constraints), "removed_edges": removed},
            )
        removed = cut(constraints, removed)
    certificate = (None, None, p_len) if p is None else (p.nodes, path_length(g, p), p_len)
    return removed, len(constraints), certificate


def pathattack(g: Graph, p_star: Path, cfg: AttackConfig) -> CutPlan:
    """PATHATTACK: each cut update re-covers every constraint found so far
    over the original graph, by LP relaxation and randomized rounding
    (``pathattack-lp``) or by greedy set cover (``pathattack-greedy``)."""
    if cfg.method not in (METHOD_PATHATTACK_LP, METHOD_PATHATTACK_GREEDY):
        raise InputError(f"pathattack does not implement {cfg.method!r}")
    rng = np.random.default_rng(cfg.rng_seed)
    retries = 0
    last_lp: Optional[LPCoverResult] = None

    def cover(constraints, removed):
        nonlocal retries, last_lp
        if cfg.method == METHOD_PATHATTACK_GREEDY:
            return greedy_path_cover(g, p_star, constraints)
        last_lp = lp_path_cover(g, p_star, constraints, rng)
        retries += last_lp.retries
        return last_lp.edges

    removed, iterations, certificate = _force_path(g, p_star, cfg.iteration_cap, cover)
    return make_cut_plan(
        g,
        p_star,
        removed,
        cfg.method,
        iterations=iterations,
        constraints_generated=iterations,
        rounding_retries=retries,
        rng_seed=cfg.rng_seed,
        lp_objective=last_lp.solution.objective_value if last_lp else None,
        lp_integral=is_integral(last_lp.solution) if last_lp else None,
        certificate=certificate,
    )


def _greedy_baseline(g: Graph, p_star: Path, choose, method_tag: str,
                     iteration_cap: Optional[int]) -> CutPlan:
    """The two baselines: each cut update adds ``choose(candidates)``, one
    unprotected edge of the newest competing path."""
    protected = frozenset(p_star.edges)

    def cut_one(constraints, removed):
        # Two simple paths with the same endpoints cannot share all edges,
        # so there is always something to cut.
        return removed | {choose([e for e in constraints[-1].edges if e not in protected])}

    removed, iterations, certificate = _force_path(g, p_star, iteration_cap, cut_one)
    return make_cut_plan(
        g, p_star, removed, method_tag, iterations=iterations, rng_seed=None,
        certificate=certificate,
    )


def greedy_cost(g: Graph, p_star: Path, iteration_cap: Optional[int] = None) -> CutPlan:
    """Baseline: each cut update adds the cheapest unprotected edge of the
    newest competing path (ties: smallest edge key)."""

    def choose(candidates):
        return min(candidates, key=lambda e: (g.cost(*e), e))

    return _greedy_baseline(g, p_star, choose, METHOD_GREEDY_COST, iteration_cap)


def greedy_eigenscore(g: Graph, p_star: Path, iteration_cap: Optional[int] = None) -> CutPlan:
    """Baseline: each cut update adds the unprotected edge of the newest
    competing path with the largest eigenscore per unit cost, where an
    edge's eigenscore is the product of the principal adjacency-eigenvector
    entries at its endpoints.

    Scores are computed once, on the input graph.

    Ties: among the candidates whose ratio is at least
    ``top * (1 - TIE_RTOL)``, where ``top`` is the largest ratio, the
    smallest edge key is cut. Edges with equal scores in exact arithmetic
    (every edge of a clique, mirror images on a lattice) get ratios that
    differ in the last bits, and which one comes out larger depends on
    the order in which the power iteration's products were summed. When
    two orders stop at the same iterate, their vectors are a few units in
    the last place apart (about 1e-16 relative); 1e-9 only has to absorb
    that, and ratios further apart are ranked as they are. This does not
    make plans independent of the summation order or the numpy build in
    every case: an order can make the residual test pass one iterate
    earlier or later (vectors about ``tol`` apart), and a ratio lying
    right at the ``top * (1 - TIE_RTOL)`` floor can fall on either side
    of it. Zero-cost edges (ratio ``inf``) tie only with each other, and
    when every ratio is 0 all tie.
    """
    vector = principal_eigenvector(g)

    def choose(candidates):
        def ratio(e):
            u, v = e
            score = float(vector[u] * vector[v])
            cost = g.cost(u, v)
            return math.inf if cost == 0 else score / cost

        ratios = [ratio(e) for e in candidates]
        floor = max(ratios) * (1.0 - TIE_RTOL)
        return min(e for e, r in zip(candidates, ratios) if r >= floor)

    return _greedy_baseline(g, p_star, choose, METHOD_GREEDY_EIGENSCORE, iteration_cap)


def _adjacency_product(g: Graph):
    """``x -> A @ x`` for the unweighted adjacency matrix ``A`` of ``g``,
    in O(n + m) per product."""
    edges = g.edges()
    ends = np.fromiter(chain.from_iterable(edges), dtype=np.intp, count=2 * len(edges))
    u, v = ends[0::2], ends[1::2]
    # Both orientations: (A @ x)[d] sums x[s] over every arc s -> d.
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    n = g.node_count
    return lambda x: np.bincount(dst, weights=x[src], minlength=n)


def principal_eigenvector(g: Graph, tol: float = 1e-8, max_iter: int = 10000) -> np.ndarray:
    """Unit-norm nonnegative principal eigenvector of the unweighted
    adjacency matrix, by power iteration.

    Iterates with ``A + I`` so bipartite graphs (whose spectrum is
    symmetric) still converge; the residual test uses ``A`` itself:
    ``||Av - lambda*v|| <= tol * lambda`` with the Rayleigh-quotient
    estimate of ``lambda``.

    Each step computes one product ``A @ v`` and uses it for the Rayleigh
    quotient, the residual and the next iterate. The product runs over the
    edge list in both orientations (``np.bincount``), O(n + m) time and
    memory per step instead of a dense n x n matrix. Its summation order
    differs from a dense product's, so the vector can differ from one by a
    few units in the last place; greedy eigenscore's tie rule absorbs
    that noise (see its docstring for the limits).
    """
    n = g.node_count
    if n == 0:
        raise InputError("eigenvector of an empty graph is undefined")
    product = _adjacency_product(g)
    v = np.full(n, 1.0 / math.sqrt(n))
    av = product(v)
    for _ in range(max_iter):
        nxt = av + v
        nxt /= np.linalg.norm(nxt)
        av = product(nxt)
        lam = float(nxt @ av)
        residual = float(np.linalg.norm(av - lam * nxt))
        v = nxt
        if residual <= tol * max(lam, 1e-30):
            return v
    raise ConvergenceError(f"power iteration did not converge in {max_iter} steps")


def run_attack(g: Graph, p_star: Path, cfg: AttackConfig) -> CutPlan:
    """Dispatch on ``cfg.method``."""
    if cfg.method in (METHOD_PATHATTACK_LP, METHOD_PATHATTACK_GREEDY):
        return pathattack(g, p_star, cfg)
    if cfg.method == METHOD_GREEDY_COST:
        return greedy_cost(g, p_star, iteration_cap=cfg.iteration_cap)
    return greedy_eigenscore(g, p_star, iteration_cap=cfg.iteration_cap)
