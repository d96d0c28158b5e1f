import math
from itertools import combinations

import numpy as np
import pytest

from helpers import random_graph, reference_greedy_path_cover
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


#: Float costs drawn for the equivalence test: exact ties, a pair that
#: differs in the last bit (0.1 + 0.2 and 0.3), and zero.
FLOAT_COSTS = (0.0, 0.1, 0.2, 0.1 + 0.2, 0.3, 1.5, 2.25)


def _walk(rng, g, min_edges, max_edges):
    """Simple path from a random non-isolated node along random unvisited
    neighbors (a single node if the graph has no edges)."""
    starts = [u for u in range(g.node_count) if g.neighbors(u)] or [0]
    nodes = [starts[int(rng.integers(len(starts)))]]
    for _ in range(int(rng.integers(min_edges, max_edges + 1))):
        nxt = [v for v, _ in g.neighbors(nodes[-1]) if v not in nodes]
        if not nxt:
            break
        nodes.append(nxt[int(rng.integers(len(nxt)))])
    return Path(tuple(nodes))


def _cover_instance(seed):
    """Seeded (kind, graph, protected paths, constraint paths) for the
    equivalence test. ``kind`` picks the costs: integers in [0, 3], floats
    from FLOAT_COSTS or uniform, or one cost for every edge."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    kind = ("int", "float", "equal")[seed % 3]
    equal = (1, 2.5)[int(rng.integers(2))]
    records = []
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.7:
            if kind == "int":
                c = int(rng.integers(0, 4))
            elif kind == "float":
                c = (FLOAT_COSTS[int(rng.integers(len(FLOAT_COSTS)))] if rng.random() < 0.5
                     else float(rng.random() * 3))
            else:
                c = equal
            records.append((u, v, 1, c))
    g = Graph(n, records)
    # Two protected paths on one graph: the second call misses the
    # column cache the first one filled.
    p_stars = [_walk(rng, g, 1, 3) for _ in range(2)]
    paths = [_walk(rng, g, 2, 5) for _ in range(int(rng.integers(0, 9)))]
    # Uncuttable paths are added on purpose below, not by chance.
    protected = set(p_stars[0].edges) | set(p_stars[1].edges)
    paths = [p for p in paths if not set(p.edges) <= protected]
    if paths and rng.random() < 0.3:
        paths.append(paths[int(rng.integers(len(paths)))])
    if rng.random() < 0.05:  # distinct nodes, maybe not adjacent
        paths.append(Path(tuple(int(x) for x in rng.permutation(n)[:3])))
    if rng.random() < 0.05:
        paths.append(p_stars[0])
    return kind, g, p_stars, paths


def _cover_or_message(cover, g, p_star, paths):
    try:
        return cover(g, p_star, paths)
    except InputError as exc:
        return f"InputError: {exc}"


def test_greedy_matches_edge_keyed_reference_on_seeded_instances():
    """The cover on the cut LP's rows and columns returns the edge set of
    the edge-keyed reference, or the same InputError message, on 2,000
    seeded instances (4,000 covers). Any change of the tie rule moves
    some of the all-equal-cost instances."""
    seen = {"int": 0, "float": 0, "equal": 0, "zero cost": 0, "repeated": 0,
            "empty": 0, "error": 0, "multi-edge cover": 0}
    for seed in range(2000):
        kind, g, p_stars, paths = _cover_instance(seed)
        seen[kind] += 1
        seen["zero cost"] += any(c == 0 for c in g.costs.values())
        seen["repeated"] += len(set(paths)) < len(paths)
        seen["empty"] += not paths
        for p_star in p_stars:
            want = _cover_or_message(reference_greedy_path_cover, g, p_star, paths)
            got = _cover_or_message(greedy_path_cover, g, p_star, paths)
            assert got == want, (seed, p_star, paths)
            seen["error"] += isinstance(want, str)
            seen["multi-edge cover"] += not isinstance(want, str) and len(want) > 1
    assert min(seen.values()) >= 20, seen
