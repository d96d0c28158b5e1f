"""The attack driver: one constraint-generation loop and its four cut rules.

:func:`run_attack` is the one entry point and runs the loop: ask the
oracle for the shortest competitor to the protected path in the graph
minus the current cut and, while it is not *strictly* longer (an
equal-length competitor counts as a violated constraint), record it and
update the cut. PATHATTACK re-covers every constraint found so far (LP
rounding or greedy set cover); a baseline adds one edge of the newest
competitor. Every method makes at most ``iteration_cap`` cut updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .cover import LPCoverResult, greedy_path_cover, lp_path_cover
from .errors import ConvergenceError, InputError, IterationLimitError, check_count
from .graphs import CutPlan, Graph, Path, _target_length, make_cut_plan, path_length, strictly_longer
from .lp import CutRows, is_integral
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
#: Relative tolerance of greedy eigenscore's tie rule (see _top_eigenscore).
TIE_RTOL = 1e-9
#: principal_eigenvector's relative residual tolerance, and its step limit.
POWER_TOL = 1e-8
MAX_POWER_ITER = 10_000


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
        check_count("rng_seed", self.rng_seed, 0)
        if self.iteration_cap is not None:
            check_count("iteration_cap", self.iteration_cap, 0)


def _cheapest_edge(g: Graph):
    """greedy-cost's rule: the cheapest candidate (ties: smallest edge key).
    Candidates are edges of a ``Path``, so canonical keys of ``g``."""
    costs = g._costs
    return lambda candidates: min(candidates, key=lambda e: (costs[e], e))


def _top_eigenscore(g: Graph):
    """greedy-eigenscore's rule: the candidate with the largest eigenscore
    per unit cost, where an edge's eigenscore is the product of the
    principal adjacency-eigenvector entries at its endpoints.

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
    earlier or later (vectors about ``POWER_TOL`` apart), and a ratio lying
    right at the ``top * (1 - TIE_RTOL)`` floor can fall on either side
    of it. Zero-cost edges (ratio ``inf``) tie only with each other, and
    when every ratio is 0 all tie.
    """
    vector = principal_eigenvector(g).tolist()
    costs = g._costs  # candidates are canonical keys, as in _cheapest_edge

    def choose(candidates):
        def ratio(e):
            u, v = e
            score = vector[u] * vector[v]
            cost = costs[e]
            return math.inf if cost == 0 else score / cost

        ratios = [ratio(e) for e in candidates]
        floor = max(ratios) * (1.0 - TIE_RTOL)
        return min(e for e, r in zip(candidates, ratios) if r >= floor)

    return choose


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


def principal_eigenvector(g: Graph) -> np.ndarray:
    """Unit-norm nonnegative principal eigenvector of the unweighted
    adjacency matrix, by power iteration.

    Iterates with ``A + I`` so bipartite graphs (whose spectrum is
    symmetric) still converge; the residual test uses ``A`` itself:
    ``||Av - lambda*v|| <= POWER_TOL * lambda`` with the Rayleigh-quotient
    estimate of ``lambda``. Each step computes one product ``A @ v`` over
    the edge list (:func:`_adjacency_product`); its summation order is not
    a dense product's, which greedy eigenscore's tie rule absorbs (see
    :func:`_top_eigenscore` for the limits). Norms are
    ``math.sqrt(x.dot(x))``, the sum ``np.linalg.norm`` computes for a
    real vector.

    A step skips the residual test when it provably cannot pass. The step
    that builds the next unnormalized iterate ``x = Av + v`` also takes
    the ``x.dot(x)`` the next step divides by, and ``mu = v.dot(x)``. For
    a unit ``v`` the residual is at least the distance from ``Av`` to the
    line through ``v``, which is the distance from ``x`` to it,
    ``sqrt(x.x - mu**2)``; and ``mu = lambda + v.v`` exceeds ``lambda``
    and its ``1e-30`` floor. So the test fails while ``x.x - mu**2``
    exceeds ``(POWER_TOL * mu)**2`` by more than the rounding ``band``.
    The band is a worst case over every summation order, so it holds
    for any BLAS kernel. With ``u = 2**-53``: every vector here is
    nonnegative, so the four dots (``x.x``, ``v.x``, ``lambda`` and the
    residual's) are each within ``gamma_n = n*u / (1 - n*u)`` of their
    exact values, relative (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 3.1); normalizing leaves ``v.v`` within about
    ``gamma_n + 4u`` of 1; ``x`` is within ``u`` of ``Av + v`` per entry;
    and the residual's arithmetic and the guard's own six operations
    round once each. For ``POWER_TOL <= 1`` these errors come to
    ``(9n + 22) * u * x.x`` to first order, and ``band = 16 * (n + 2) *
    u * x.x`` covers them with the higher-order terms at every ``n`` for
    which it is below ``x.x`` (up to ``n`` of about 5.6e14; beyond that
    no step skips). The band also sets where skipping ends: about where
    the relative residual falls to ``sqrt(16 * (n + 2) * u)``, 9e-7 on a
    22 x 22 lattice. A skipped step changes nothing, so the iterates,
    the stopping step and the ``ConvergenceError`` are those of testing
    every step.
    """
    n = g.node_count
    if n == 0:
        raise InputError("eigenvector of an empty graph is undefined")
    product = _adjacency_product(g)
    band = 16 * (n + 2) * 2.0**-53
    v = np.full(n, 1.0 / math.sqrt(n))
    x = product(v) + v
    xx = float(x.dot(x))
    for _ in range(MAX_POWER_ITER):
        x /= math.sqrt(xx)
        v = x
        av = product(v)
        x = av + v
        xx = float(x.dot(x))
        mu = float(v.dot(x))
        tol_mu = POWER_TOL * mu
        if xx - mu * mu > tol_mu * tol_mu + band * xx:
            continue
        lam = v.dot(av)
        r = av - lam * v
        if math.sqrt(r.dot(r)) <= POWER_TOL * max(lam, 1e-30):
            return v
    raise ConvergenceError(f"power iteration did not converge in {MAX_POWER_ITER} steps")


def run_attack(g: Graph, p_star: Path, cfg: AttackConfig) -> CutPlan:
    """Force ``p_star`` with the cut rule of ``cfg.method``.

    PATHATTACK re-covers every constraint found so far over the original
    graph, by LP relaxation and rounding seeded with ``cfg.rng_seed``
    (``pathattack-lp``) or by greedy set cover (``pathattack-greedy``). A
    baseline adds one unprotected edge of the newest competitor, chosen by
    :func:`_cheapest_edge` or :func:`_top_eigenscore`; it records no seed
    and no constraints.

    The run owns one :class:`~pathcut.lp.CutRows` of ``p_star``, so it
    leaves no cover state on ``g``: PATHATTACK adds the newest constraint
    to it before each cover, and a baseline reads its protected set.

    The oracle gets the cut as banned edges, so the residual graph is never
    built, and ``len(p_star)`` as its ``max_length``: the loop needs only
    competitors within it, so with int weights the final call returns None
    and ranks no further. Once an answer ranks after ``p_star`` by
    ``(path_length, nodes)``, ``p_star`` was first in that residual graph
    and usually stays first, so the loop passes the oracle's
    ``p_star_first`` hint from then on. No cut rule cuts an edge of
    ``p_star``, so the hint is valid input; it saves a search and changes
    no answer (:func:`~pathcut.paths.next_shortest_excluding`).
    """
    p_len = _target_length(g, p_star)
    s, t = p_star.source, p_star.target
    cap = cfg.iteration_cap if cfg.iteration_cap is not None else 10 * g.edge_count
    pathattack = cfg.method in (METHOD_PATHATTACK_LP, METHOD_PATHATTACK_GREEDY)
    rows = CutRows(g, p_star)
    if cfg.method == METHOD_PATHATTACK_LP:
        rng = np.random.default_rng(cfg.rng_seed)
    elif not pathattack:
        choose = (_cheapest_edge if cfg.method == METHOD_GREEDY_COST else _top_eigenscore)(g)
    iterations = retries = 0
    last_lp: Optional[LPCoverResult] = None
    removed: frozenset = frozenset()
    hint = False
    while True:
        p = next_shortest_excluding(g, s, t, p_star, banned_edges=removed, p_star_first=hint,
                                    max_length=p_len)
        if p is None or strictly_longer(length := path_length(g, p), p_len):
            break
        hint = hint or (length, p.nodes) > (p_len, p_star.nodes)
        iterations += 1
        if iterations > cap:
            raise IterationLimitError(
                f"no feasible plan within {cap} iterations",
                partial={"constraints": iterations, "removed_edges": removed},
            )
        if cfg.method == METHOD_PATHATTACK_LP:
            rows.add(p)
            last_lp = lp_path_cover(rows, rng)
            retries += last_lp.retries
            removed = last_lp.edges
        elif cfg.method == METHOD_PATHATTACK_GREEDY:
            rows.add(p)
            removed = greedy_path_cover(rows)
        else:
            # Two simple paths with the same endpoints cannot share all
            # edges, so there is always something to cut.
            removed = removed | {choose([e for e in p.edges if e not in rows.protected])}
    return make_cut_plan(
        g,
        p_star,
        removed,
        cfg.method,
        iterations=iterations,
        constraints_generated=iterations if pathattack else 0,
        rounding_retries=retries,
        rng_seed=cfg.rng_seed if pathattack else None,
        lp_objective=last_lp.solution.objective_value if last_lp else None,
        lp_integral=is_integral(last_lp.solution) if last_lp else None,
    )
