import math
from itertools import combinations

import numpy as np
import pytest

from helpers import random_graph
from pathcut import Graph, InputError, Path, path_length
from pathcut.cover import greedy_path_cover, lp_path_cover
from pathcut.errors import RoundingFailureError
from pathcut.lp import is_integral
from pathcut.sweeps import clique_instance


def fractional_triangle():
    """Five-node instance whose three constraint rows pairwise share one
    of three unit-cost edges, so the relaxed optimum is 1.5 at (.5,.5,.5).

    Protected: (0,1),(1,2),(2,4), each of weight 2 (the target has length
    6, so all three competitors below are genuinely not longer). Rows over
    e1=(0,3), e2=(2,3), e3=(3,4):
    (0,3,2,4) -> {e1,e2}; (0,1,2,3,4) -> {e2,e3}; (0,3,4) -> {e1,e3}.
    """
    g = Graph(5, [
        (0, 1, 2, 9), (1, 2, 2, 9), (2, 4, 2, 9),
        (0, 3, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1),
    ])
    p_star = Path((0, 1, 2, 4))
    paths = [Path((0, 3, 2, 4)), Path((0, 1, 2, 3, 4)), Path((0, 3, 4))]
    return g, p_star, paths


def covers(edge_set, paths, protected):
    return all(any(e in edge_set for e in p.edges if e not in protected) for p in paths)


def test_greedy_empty_input():
    g, p_star, _ = fractional_triangle()
    assert greedy_path_cover(g, p_star, []) == frozenset()


def test_greedy_on_five_clique_cuts_three_edges_around_a_terminal():
    g, p_star = clique_instance(5)
    two_hop = [Path((0, x, 1)) for x in (2, 3, 4)]
    three_hop = [Path((0, x, y, 1)) for x in (2, 3, 4) for y in (2, 3, 4) if x != y]
    cut = greedy_path_cover(g, p_star, two_hop + three_hop)
    assert sum(g.cost(*e) for e in cut) == 3
    # All three cuts are incident to one endpoint of the protected edge.
    assert cut == frozenset({(0, 2), (0, 3), (0, 4)})


def test_greedy_triple_overlap_matches_brute_force():
    g, p_star, paths = fractional_triangle()
    cut = greedy_path_cover(g, p_star, paths)
    protected = frozenset(p_star.edges)
    assert covers(cut, paths, protected)
    assert sum(g.cost(*e) for e in cut) == 2  # brute-force optimum below
    best = math.inf
    free = [e for e in g.edges() if e not in protected]
    for r in range(len(free) + 1):
        for combo in combinations(free, r):
            if covers(set(combo), paths, protected):
                best = min(best, sum(g.cost(*e) for e in combo))
    assert best == 2


def test_greedy_rejects_uncuttable_path():
    g, p_star, _ = fractional_triangle()
    with pytest.raises(InputError):
        greedy_path_cover(g, p_star, [Path((0, 1, 2))])


def test_greedy_deterministic():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 8, 0.6)
    from pathcut.paths import k_shortest_paths

    paths = k_shortest_paths(g, 0, 7, 6)
    if len(paths) < 3:
        pytest.skip("seeded graph too sparse")
    p_star = paths[2]
    ref = greedy_path_cover(g, p_star, [paths[0], paths[1]])
    for _ in range(5):
        assert greedy_path_cover(g, p_star, [paths[0], paths[1]]) == ref


def test_greedy_zero_cost_edge_taken_first():
    # Free edge on one path; it must be chosen before any costly edge.
    g = Graph(4, [(0, 1, 1, 0), (1, 3, 1, 5), (0, 2, 1, 1), (2, 3, 1, 1), (0, 3, 9, 9)])
    p_star = Path((0, 3))
    paths = [Path((0, 1, 3)), Path((0, 2, 3))]
    cut = greedy_path_cover(g, p_star, paths)
    assert (0, 1) in cut


def test_lp_cover_single_forced_edge_first_attempt():
    g = Graph(3, [(0, 1, 1, 3), (1, 2, 1, 4), (0, 2, 9, 9)])
    p_star = Path((0, 2))
    res = lp_path_cover(g, p_star, [Path((0, 1, 2))], rng=0)
    # Two cuttable edges; the cheaper one is forced to 1 and always drawn.
    assert res.edges == frozenset({(0, 1)})
    assert res.retries == 0
    assert is_integral(res.solution)


def test_lp_cover_fractional_triangle_properties():
    g, p_star, paths = fractional_triangle()
    protected = frozenset(p_star.edges)
    bound = 4 * math.log(4 * len(paths)) * 1.5
    sizes = set()
    for seed in range(40):
        res = lp_path_cover(g, p_star, paths, rng=seed)
        assert res.solution.objective_value == pytest.approx(1.5, abs=1e-9)
        assert covers(res.edges, paths, protected)
        cost = sum(g.cost(*e) for e in res.edges)
        assert cost <= bound + 1e-9
        assert len(res.edges) >= 2
        sizes.add(len(res.edges))
    assert sizes <= {2, 3} and sizes  # distribution over 2- and 3-edge covers


def test_lp_cover_integral_solution_returns_support():
    g = Graph(4, [(0, 1, 1, 2), (1, 3, 1, 3), (0, 2, 1, 4), (2, 3, 1, 5), (0, 3, 9, 9)])
    p_star = Path((0, 3))
    paths = [Path((0, 1, 3)), Path((0, 2, 3))]
    for seed in range(10):
        res = lp_path_cover(g, p_star, paths, rng=seed)
        assert is_integral(res.solution)
        support = {e for e, v in zip(res.lp.edge_order, res.solution.values) if v > 0.5}
        assert res.edges == frozenset(support)
        assert res.retries == 0


def test_lp_cover_requires_paths():
    g, p_star, _ = fractional_triangle()
    with pytest.raises(InputError):
        lp_path_cover(g, p_star, [], rng=0)


def test_lp_cover_retry_cap_raises_with_solution():
    g, p_star, paths = fractional_triangle()
    with pytest.raises(RoundingFailureError) as info:
        lp_path_cover(g, p_star, paths, rng=0, retry_cap=0)
    assert info.value.solution.objective_value == pytest.approx(1.5, abs=1e-9)


def test_mean_retries_small_on_fixed_fractional_instance():
    g, p_star, paths = fractional_triangle()
    retries = [lp_path_cover(g, p_star, paths, rng=seed).retries for seed in range(100)]
    assert sum(retries) / len(retries) <= 3


def test_solver_seam_accepts_external_engine():
    # Substitute an external solver, driving it through the text format.
    from scipy.optimize import linprog

    from pathcut.lp import LPSolution, parse_lp_text, write_lp_text

    def external(lp):
        lp = parse_lp_text(write_lp_text(lp))  # out-of-process stand-in
        A = np.zeros((len(lp.rows), len(lp.costs)))
        for i, row in enumerate(lp.rows):
            A[i, list(row)] = 1.0
        res = linprog(
            c=np.asarray(lp.costs, dtype=float),
            A_ub=-A,
            b_ub=-np.ones(len(lp.rows)),
            bounds=[(0, 1)] * len(lp.costs),
            method="highs",
        )
        assert res.status == 0
        return LPSolution(
            values=tuple(float(v) for v in res.x),
            objective_value=float(res.fun),
        )

    g, p_star, paths = fractional_triangle()
    ours = lp_path_cover(g, p_star, paths, rng=3)
    theirs = lp_path_cover(g, p_star, paths, rng=3, solver=external)
    assert theirs.solution.objective_value == pytest.approx(1.5, abs=1e-7)
    assert covers(theirs.edges, paths, frozenset(p_star.edges))
    assert ours.solution.objective_value == pytest.approx(theirs.solution.objective_value, abs=1e-7)
