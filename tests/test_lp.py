import dataclasses
import math
import operator
import re
from itertools import combinations, permutations
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (
    FLOAT_COSTS,
    random_graph,
    reachable_pair,
    reference_bounded_simplex,
    reference_build_cover_lp,
    reference_greedy_path_cover,
)
from scipy.optimize import linprog

import pathcut.lp
from pathcut import AttackConfig, Graph, InfeasibleError, InputError, PathCutError, Path, run_attack
from pathcut.generators import GeneratorSpec, WeightScheme, assign_weights, generate
from pathcut.harness import select_p_star, select_terminals
from pathcut.cover import greedy_path_cover
from pathcut.lp import (
    _bounded_simplex,
    CutRows,
    RelaxedCutLP,
    build_cover_lp,
    is_integral,
    solve_relaxed,
)
from pathcut.paths import k_shortest_paths


def lp_of(rows, costs):
    n = len(costs)
    return RelaxedCutLP(
        edge_order=tuple((j, j + 100) for j in range(n)),
        costs=tuple(costs),
        rows=tuple(tuple(r) for r in rows),
    )


def scipy_objective(rows, costs):
    A = np.zeros((len(rows), len(costs)))
    for i, row in enumerate(rows):
        A[i, list(row)] = 1.0
    res = linprog(
        c=np.asarray(costs, dtype=float),
        A_ub=-A,
        b_ub=-np.ones(len(rows)),
        bounds=[(0, 1)] * len(costs),
        method="highs",
    )
    assert res.status == 0
    return res.fun


def test_forced_variable():
    sol = solve_relaxed(lp_of([(0,)], [4]))
    assert sol.values == (1.0,)
    assert sol.objective_value == pytest.approx(4.0, abs=1e-9)
    assert is_integral(sol)


def test_fractional_odd_cover():
    # Pairwise-overlapping rows force the half-everywhere vertex; the best
    # integral cover costs 2, the relaxation 1.5.
    sol = solve_relaxed(lp_of([(0, 1), (1, 2), (0, 2)], [1, 1, 1]))
    assert sol.objective_value == pytest.approx(1.5, abs=1e-9)
    assert sol.values == pytest.approx((0.5, 0.5, 0.5), abs=1e-9)
    assert not is_integral(sol)


def test_empty_constraint_set():
    sol = solve_relaxed(lp_of([], [3, 5]))
    assert sol.objective_value == 0.0
    assert sol.values.tolist() == [0.0, 0.0]


def test_solution_is_the_simplex_array_and_keeps_the_full_dot():
    # Wide LPs whose rows use a few scattered columns: the objective must
    # have the bits of the dot with the full cost vector. A dot over the
    # active columns alone regroups the sum and fails here.
    rng = np.random.default_rng(2029)
    for k in range(300):
        n = int(rng.integers(20, 200))
        active = rng.choice(n, size=int(rng.integers(2, max(3, n // 3))), replace=False)
        rows = [tuple(sorted(rng.choice(active, size=min(len(active), int(rng.integers(2, 5))),
                                        replace=False).tolist()))
                for _ in range(int(rng.integers(1, 30)))]
        if k % 2:
            costs = rng.integers(0, 9, size=n).tolist()
        else:
            costs = [FLOAT_COSTS[i] for i in rng.integers(len(FLOAT_COSTS), size=n)]
        lp = lp_of(rows, costs)
        sol = solve_relaxed(lp)
        values = sol.values
        assert type(values) is np.ndarray and values.dtype == np.float64 and values.shape == (n,)
        assert not values.flags.writeable
        off = np.ones(n, dtype=bool)
        off[[j for row in rows for j in row]] = False
        assert off.any() and not values[off].any(), k
        full = float(np.dot(np.asarray(values), np.asarray(lp.costs, dtype=float)))
        assert sol.objective_value.hex() == full.hex(), (k, rows, costs)


def test_solution_counts_the_simplex_pivots_and_flips():
    # Every column is active, so solve_relaxed runs the simplex on this LP
    # as given (see test_simplex_with_zero_and_tied_costs); an LP with no
    # rows makes no step. The counts are read-only.
    sol = solve_relaxed(lp_of([(1, 2), (1, 2, 4), (0, 1), (0, 4), (3, 5)], [2, 2, 1, 0, 4, 0]))
    assert (sol.pivots, sol.flips) == (4, 3)
    empty = solve_relaxed(lp_of([], [1, 2]))
    assert (empty.pivots, empty.flips) == (0, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.pivots = 0


def test_empty_row_raises_infeasible():
    # No choice of variables covers an empty row; the error names the row.
    for rows, empty in (([()], 0), ([(0,), ()], 1)):
        with pytest.raises(InfeasibleError, match=f"^row {empty} is empty$"):
            solve_relaxed(lp_of(rows, [1]))


def test_is_integral_examples():
    sol = solve_relaxed(lp_of([(0,), (1,)], [1, 1]))
    assert is_integral(sol)
    assert not is_integral(solve_relaxed(lp_of([(0, 1), (1, 2), (0, 2)], [1, 1, 1])))
    assert is_integral(solve_relaxed(lp_of([(0,)], [4])))


def test_matches_external_solver_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(400):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 10))
        rows = []
        for _ in range(m):
            size = int(rng.integers(1, n + 1))
            rows.append(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
        costs = [float(c) for c in rng.uniform(0, 5, size=n).round(3)]
        sol = solve_relaxed(lp_of(rows, costs))
        assert sol.objective_value == pytest.approx(scipy_objective(rows, costs), abs=1e-7)


def brute_integral_optimum(rows, costs):
    best = math.inf
    n = len(costs)
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            chosen = set(combo)
            if all(chosen & set(row) for row in rows):
                best = min(best, sum(costs[j] for j in combo))
    return best


def test_lower_bound_property():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 7))
        rows = [
            tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()))
            for _ in range(m)
        ]
        costs = [int(c) for c in rng.integers(1, 9, size=n)]
        sol = solve_relaxed(lp_of(rows, costs))
        assert sol.objective_value <= brute_integral_optimum(rows, costs) + 1e-9


def test_monotone_in_added_rows():
    rng = np.random.default_rng(16)
    n = 8
    costs = [int(c) for c in rng.integers(1, 9, size=n)]
    rows = []
    prev = 0.0
    for _ in range(10):
        rows.append(tuple(sorted(rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist())))
        obj = solve_relaxed(lp_of(rows, costs)).objective_value
        assert obj >= prev - 1e-9
        prev = obj


def test_build_cover_lp_excludes_protected_edges():
    records = [(0, 1, 1, 2), (1, 2, 1, 3), (0, 2, 1, 5), (2, 3, 1, 7), (0, 3, 1, 11)]
    g = Graph(4, records)
    p_star = Path((0, 1, 2, 3))
    lp = build_cover_lp(CutRows(g, p_star, [Path((0, 2, 3)), Path((0, 3))]))
    assert lp.edge_order == ((0, 2), (0, 3))
    assert lp.costs == (5, 11)
    assert lp.rows == ((0,), (1,))
    # Each error reads the same in a one-shot CutRows and in one whose
    # rows were already built into an LP.
    for paths, message in (
        ([Path((0, 1, 2))], r"^uncuttable constraint: Path\(0-1-2\) has only protected edges$"),
        ([Path((0, 2, 3)), Path((0, 1, 3))], r"^constraint path uses unknown edge \(1, 3\)$"),
    ):
        with pytest.raises(InputError, match=message):
            CutRows(g, p_star, paths)
        grown = CutRows(g, p_star, [Path((0, 3))])
        build_cover_lp(grown)
        with pytest.raises(InputError, match=message):
            for p in paths:
                grown.add(p)


def _zero_cost_graph(rng, n, p):
    """Seeded graph whose removal costs include zeros."""
    g = random_graph(rng, n, p, costs_equal_weights=False)
    return Graph(n, [(u, v, w, 0 if rng.random() < 0.3 else c) for u, v, w, c in g.edge_records()])


def test_build_cover_lp_matches_uncached_reference():
    # Two protected paths alternate on one graph: each one-shot CutRows
    # reads the columns of its own protected set only.
    rng = np.random.default_rng(808)
    checked = zero_costs = 0
    for _ in range(30):
        g = _zero_cost_graph(rng, int(rng.integers(6, 12)), float(rng.uniform(0.3, 0.7)))
        pair = reachable_pair(rng, g)
        if pair is None:
            continue
        ranked = k_shortest_paths(g, *pair, 8)
        if len(ranked) < 4:
            continue
        stars = ranked[:2]
        assert frozenset(stars[0].edges) != frozenset(stars[1].edges)
        for i in range(1, len(ranked)):
            p_star = stars[i % 2]
            paths = [p for p in ranked[:i + 1] if p != p_star]
            got = build_cover_lp(CutRows(g, p_star, paths))
            assert got == reference_build_cover_lp(g, p_star, paths)
            checked += 1
            zero_costs += got.costs.count(0)
    assert checked > 50 and zero_costs > 0


def test_cut_rows_hold_edge_keyed_rows_and_their_own_columns():
    g = _zero_cost_graph(np.random.default_rng(809), 9, 0.6)
    fresh = Graph(g.node_count, g.edge_records())
    s, t = 0, 8
    first, second, *others = k_shortest_paths(g, s, t, 6)
    cut = CutRows(g, first, others)
    assert cut.protected == frozenset(first.edges)
    # Each row holds its path's cuttable edge keys, sorted; rows_on lists
    # each edge's rows in row order.
    assert cut.rows == [tuple(sorted(set(p.edges) - cut.protected)) for p in others]
    assert cut.rows_on == {e: [i for i, row in enumerate(cut.rows) if e in row]
                           for row in cut.rows for e in row}
    # A row's columns are its keys' positions in edge_order.
    lp = build_cover_lp(cut)
    assert lp.rows == tuple(tuple(map(lp.edge_order.index, row)) for row in cut.rows)
    assert lp == reference_build_cover_lp(g, first, others)
    # A second protected set on the same graph gets its own columns, and
    # the first one's LP does not move; the graph holds neither.
    assert build_cover_lp(CutRows(g, second, others)) == reference_build_cover_lp(g, second, others)
    assert build_cover_lp(cut) == lp
    assert g == fresh


def test_cover_lp_errors_are_not_memoized():
    # A path that raises adds no row: the rows, rows_on and the next LP are
    # those of the paths added before it, and it raises again on retry.
    records = [(0, 1, 1, 2), (1, 2, 1, 3), (0, 2, 1, 5), (2, 3, 1, 7), (0, 3, 1, 11)]
    g = Graph(4, records)
    p_star = Path((0, 1, 2, 3))
    ok = [Path((0, 2, 3)), Path((0, 3))]
    cut = CutRows(g, p_star, ok)
    lp = build_cover_lp(cut)
    assert lp.rows == ((0,), (1,))
    late = CutRows(g, p_star, ok[:1])
    for path, message in (
        (Path((0, 1, 2)), r"^uncuttable constraint: Path\(0-1-2\) has only protected edges$"),
        (Path((0, 1, 3)), r"^constraint path uses unknown edge \(1, 3\)$"),
        # The unknown edge follows a cuttable one.
        (Path((0, 2, 1, 3)), r"^constraint path uses unknown edge \(1, 3\)$"),
    ):
        for _ in range(2):
            with pytest.raises(InputError, match=message):
                cut.add(path)
            assert cut.rows == [((0, 2),), ((0, 3),)]
            assert cut.rows_on == {(0, 2): [0], (0, 3): [1]}
            assert build_cover_lp(cut) == lp
            # Before the first build as well.
            with pytest.raises(InputError, match=message):
                late.add(path)
    late.add(ok[1])
    assert build_cover_lp(late) == lp


def test_memoized_rows_match_reference_while_protected_paths_alternate():
    # Two CutRows on one graph, one per protected path, grow one path at a
    # time in turn. After each step the LP and the greedy cover equal the
    # references on the paths so far, and the LP keeps the row tuples it
    # built before: each row is ranked once.
    rng = np.random.default_rng(811)
    checked = 0
    for _ in range(20):
        g = _zero_cost_graph(rng, int(rng.integers(7, 12)), float(rng.uniform(0.3, 0.7)))
        pair = reachable_pair(rng, g)
        if pair is None:
            continue
        ranked = k_shortest_paths(g, *pair, 10)
        if len(ranked) < 6:
            continue
        runs = [(p_star, [p for p in ranked if p != p_star], CutRows(g, p_star))
                for p_star in ranked[:2]]
        previous = [None, None]
        for k in range(1, len(ranked)):
            for r, (p_star, others, cut) in enumerate(runs):
                cut.add(others[k - 1])
                got = build_cover_lp(cut)
                assert got == reference_build_cover_lp(g, p_star, others[:k])
                assert greedy_path_cover(cut) == reference_greedy_path_cover(g, p_star, others[:k])
                if previous[r] is not None:
                    assert all(map(operator.is_, got.rows, previous[r].rows))
                previous[r] = got
                checked += 1
    assert checked > 100


def _check_one_shot_and_grown(g, p_star, paths):
    """``build_cover_lp`` on a one-shot ``CutRows``, and on one grown a
    path at a time with a build after each, equals the reference."""
    want = reference_build_cover_lp(g, p_star, paths)
    assert build_cover_lp(CutRows(g, p_star, paths)) == want
    grown = CutRows(g, p_star)
    for p in paths:
        grown.add(p)
        build_cover_lp(grown)
    assert build_cover_lp(grown) == want


def test_sliced_columns_match_reference_at_every_position():
    # Every ranked path of up to three edges between any two nodes is the
    # protected path in turn, so protected edges sit at the first and the
    # last sorted key and at adjacent positions, and constraint paths
    # share edges with them.
    rng = np.random.default_rng(812)
    g = _zero_cost_graph(rng, 7, 0.7)
    keys = g.edges()
    seen = set()
    for s, t in combinations(range(g.node_count), 2):
        ranked = k_shortest_paths(g, s, t, 12)
        for p_star in ranked:
            if p_star.num_edges > 3:
                continue
            protected = set(p_star.edges)
            paths = [p for p in ranked if not protected.issuperset(p.edges)]
            if not paths:
                continue
            _check_one_shot_and_grown(g, p_star, paths)
            cut = sorted(map(keys.index, protected))
            seen.update(
                name for name, hit in (
                    ("first", cut[0] == 0),
                    ("last", cut[-1] == len(keys) - 1),
                    ("adjacent", any(b == a + 1 for a, b in zip(cut, cut[1:]))),
                    ("shared", any(protected.intersection(p.edges) for p in paths)),
                ) if hit
            )
    assert seen == {"first", "last", "adjacent", "shared"}


# Keys (0, 2) (1, 2) (1, 3) (2, 3) (2, 4): (0, 1) sorts before the first,
# (1, 4) between two keys and (3, 4) after the last.
_GAPPED = [(0, 2, 1, 3), (1, 2, 1, 5), (1, 3, 1, 7), (2, 3, 1, 11), (2, 4, 1, 13)]


def test_protected_edges_missing_from_the_graph_are_ignored():
    # A protected path may use edges the graph lacks: they get no column
    # and cut no position, and constraint paths may use them too, since
    # protected edges are skipped before any lookup.
    g = Graph(5, _GAPPED)
    candidates = [Path(nodes) for k in (2, 3, 4) for nodes in permutations(range(5), k)]
    checked = 0
    for p_star in (Path((1, 0, 2)), Path((2, 4, 3)), Path((3, 1, 4, 2)), Path((1, 0)), Path((4, 3))):
        protected = frozenset(p_star.edges)
        assert not protected <= set(g.edges())
        paths = [p for p in candidates
                 if all(e in protected or g.has_edge(*e) for e in p.edges)
                 and not protected.issuperset(p.edges)]
        _check_one_shot_and_grown(g, p_star, paths)
        checked += sum(not protected.isdisjoint(p.edges) for p in paths)
    assert checked > 0


def test_unknown_edge_error_names_the_first_in_path_order():
    # Protected edges are skipped, present or not; the first unknown edge
    # in path order is named, not the first in sorted order, in a one-shot
    # CutRows and in one grown after a build, on every call.
    g = Graph(5, _GAPPED)
    p_star = Path((1, 0, 2))
    for nodes, named in (((0, 1, 4, 3), (1, 4)), ((2, 3, 4, 1), (3, 4)), ((0, 2, 3, 4), (3, 4))):
        message = f"^{re.escape(f'constraint path uses unknown edge {named}')}$"
        with pytest.raises(InputError, match=message):
            CutRows(g, p_star, [Path((1, 2)), Path(nodes)])
        grown = CutRows(g, p_star, [Path((1, 2))])
        build_cover_lp(grown)
        for _ in range(2):
            with pytest.raises(InputError, match=message):
                grown.add(Path(nodes))
        assert grown.rows == [((1, 2),)]


def test_sliced_columns_match_reference_on_a_25000_edge_graph():
    # BA n=5,000, m=5 with Poisson weights: a few seeded protected paths
    # between seeded terminals, each against the paths ranked before it.
    g = generate(GeneratorSpec(family="ba", n=5000, m=5, seed=1))
    g = assign_weights(g, WeightScheme(kind="poisson", seed=2))
    assert g.edge_count > 24_000
    for seed in (3, 4):
        s, t = select_terminals(g, "uniform", seed)
        ranked = k_shortest_paths(g, s, t, 8)
        for rank in (4, 6, 8):
            _check_one_shot_and_grown(g, ranked[rank - 1], ranked[:rank - 1])


def test_rows_sum_to_at_least_one():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        rows = [
            tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()))
            for _ in range(int(rng.integers(1, 8)))
        ]
        costs = [float(c) for c in rng.uniform(0.1, 4, size=n)]
        sol = solve_relaxed(lp_of(rows, costs))
        for row in rows:
            assert sum(sol.values[j] for j in row) >= 1 - 1e-9


@pytest.mark.parametrize("row", [(3,), (0, 1), (-1, 0)])
def test_solve_rejects_row_index_out_of_range(row):
    with pytest.raises(InputError, match="out of range"):
        solve_relaxed(lp_of([(0,), row], [1]))


_THREE = ((0, 1), (1, 2), (2, 3))


@pytest.mark.parametrize("costs, rows, message", [
    ((math.nan, 1, 1), ((0, 1),), "variable 0 has cost nan; costs must be finite nonnegative numbers"),
    ((1, math.inf, 1), ((0, 1),), "variable 1 has cost inf; costs must be finite nonnegative numbers"),
    ((1, 1, -1), ((1, 2),), "variable 2 has cost -1; costs must be finite nonnegative numbers"),
    ((1, 1), ((0, 1),), "2 costs for 3 variables"),
    ((1, 1, 1), ((0.0, 1),), "row 0 holds 0.0, not a variable index"),
    (("1", True, 10**400), ((0,), (1,), (2,)),
     "variable 0 has cost '1'; costs must be finite nonnegative numbers"),
    ((1, True, 10**400), ((0,), (1,), (2,)),
     "variable 1 has cost True; costs must be finite nonnegative numbers"),
    ((1, 1, 10**400), ((0,), (1,), (2,)),
     f"variable 2 has cost {10**400}; costs must be finite nonnegative numbers"),
    ((1e308, 1e308, 1), ((0,), (1,)), "the cut LP's costs sum beyond the float range"),
], ids=["nan-cost", "infinite-cost", "negative-cost", "short-costs", "float-index",
        "str-cost", "bool-cost", "huge-int-cost", "cost-sum-beyond-float-range"])
def test_solve_rejects_malformed_hand_built_lp(costs, rows, message):
    # Each returned a wrong solution or raised a bare error: a NaN cost gave
    # a NaN objective, an infinite one a NaN objective (a RuntimeWarning in
    # np.dot under -W error), a negative one voids the argument that unused
    # variables at 0 are optimal, short costs or a float index raised
    # IndexError or TypeError, a str or bool cost was read as a number, an
    # int too large for a float raised OverflowError, and costs summing
    # beyond the float range overflowed in the objective's dot.
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        solve_relaxed(RelaxedCutLP(_THREE, costs, rows))


def test_feasibility_recheck_fires(monkeypatch):
    monkeypatch.setattr(pathcut.lp, "_bounded_simplex",
                        lambda rows, costs, cap: (np.zeros(len(costs)), 0, 0))
    with pytest.raises(PathCutError, match="infeasible point"):
        solve_relaxed(lp_of([(0, 1)], [1, 1]))


@pytest.mark.parametrize("rows", [[(1, 0, 0)], [(0, 0)]])
def test_solve_names_row_repeating_an_index(rows):
    # The simplex counts a row's entries as distinct variables; the
    # failed feasibility re-check reports the row, not the solver.
    with pytest.raises(InputError, match=r"row 0 repeats a variable index"):
        solve_relaxed(lp_of(rows, [1, 1]))


COST_KINDS = ("ones", "small-int", "uniform", "log-uniform")


def random_cover_lp(rng, kind, max_rows=40, max_vars=60, max_row_size=4):
    """Seeded cover LP with m <= 40 rows of 2 to 4 variables out of n <= 60
    by default; small pairwise rows make odd cycles, hence fractional
    optima, common."""
    n = int(rng.integers(2, 21)) if rng.random() < 0.5 else int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    rows = [
        tuple(sorted(rng.choice(n, size=int(rng.integers(2, min(n, max_row_size) + 1)),
                                replace=False).tolist()))
        for _ in range(m)
    ]
    if kind == "ones":
        costs = np.ones(n)
    elif kind == "small-int":
        costs = rng.integers(0, 5, size=n).astype(float)
    elif kind == "uniform":
        costs = rng.uniform(0, 5, size=n)
    elif kind == "large":
        costs = 10.0 ** rng.uniform(6, 12, size=n)
    else:
        costs = 10.0 ** rng.uniform(-6, 6, size=n)
        costs[rng.random(n) < 0.1] = 0.0
    return rows, costs


def test_simplex_bit_identical_to_numpy_loop_on_random_lps():
    rng = np.random.default_rng(2024)
    fractional = 0
    for k in range(2000):
        rows, costs = random_cover_lp(rng, COST_KINDS[k % len(COST_KINDS)])
        got = _bounded_simplex(rows, costs)[0]
        want = reference_bounded_simplex(rows, costs)
        assert got.tobytes() == want.tobytes(), (k, rows, costs.tolist())
        fractional += bool(np.any((want > 1e-6) & (want < 1 - 1e-6)))
    assert fractional >= 300


def test_simplex_bit_identical_to_numpy_loop_on_fill_in_heavy_lps():
    # Up to 150 rows of 2 to 8 variables out of up to 200: pivots fill the
    # sparse tableau rows in far beyond their starting size. The "large"
    # costs, 1e6 to 1e12, put the reduced costs' rounding in the 1e-4s.
    rng = np.random.default_rng(2025)
    kinds = COST_KINDS + ("large",)
    for k in range(200):
        rows, costs = random_cover_lp(rng, kinds[k % len(kinds)],
                                      max_rows=150, max_vars=200, max_row_size=8)
        got = _bounded_simplex(rows, costs)[0]
        want = reference_bounded_simplex(rows, costs)
        assert got.tobytes() == want.tobytes(), (k, rows, costs.tolist())


@pytest.mark.parametrize("work", [0, 10**9])
def test_simplex_bytes_do_not_depend_on_where_the_tableau_turns_dense(monkeypatch, work):
    # 0 moves the tableau to a numpy array at the first pivot; 10**9 keeps
    # the dict rows to the end, however far they fill in.
    monkeypatch.setattr(pathcut.lp, "_DENSE_WORK", work)
    rng = np.random.default_rng(2027)
    for k in range(300):
        size = {} if k < 200 else dict(max_rows=60, max_vars=100, max_row_size=6)
        rows, costs = random_cover_lp(rng, COST_KINDS[k % len(COST_KINDS)], **size)
        got = _bounded_simplex(rows, costs)[0]
        want = reference_bounded_simplex(rows, costs)
        assert got.tobytes() == want.tobytes(), (k, rows, costs.tolist())


def test_simplex_optimal_where_tied_large_costs_void_the_byte_rule():
    # Tied costs of 2**20 to 2**22: a reduced cost that is exactly 0 reads
    # as rounding of about FEAS_TOL in either loop, so the two may stop at
    # different optimal vertices. Each must still be a feasible optimum.
    rng = np.random.default_rng(2026)
    for k in range(300):
        rows, ones = random_cover_lp(rng, "ones")
        costs = rng.integers(1, 5, size=len(ones)) * 2.0 ** 20
        got = _bounded_simplex(rows, costs)[0]
        want = reference_bounded_simplex(rows, costs)
        assert all(sum(got[list(row)]) >= 1 - 1e-9 for row in rows), k
        assert costs @ got == pytest.approx(costs @ want, rel=1e-12), k


def _lp_attack_instances():
    rng = np.random.default_rng(8)
    k8 = assign_weights(generate(GeneratorSpec("complete", n=8)), WeightScheme("equal"))
    yield k8, select_p_star(k8, 0, 7, 8)
    er = random_graph(rng, 30, 0.2)
    s, t = reachable_pair(rng, er)
    yield er, select_p_star(er, s, t, 40)
    lattice = assign_weights(generate(GeneratorSpec("lattice", rows=6, cols=6)),
                             WeightScheme("uniform", upper=5, seed=3))
    yield lattice, select_p_star(lattice, 0, 35, 60)


def test_simplex_bit_identical_to_numpy_loop_inside_pathattack(monkeypatch):
    solved = []

    def both(rows, costs, cap):
        got = _bounded_simplex(rows, costs, cap)
        solved.append(got[0].tobytes() == reference_bounded_simplex(rows, costs).tobytes())
        return got

    monkeypatch.setattr(pathcut.lp, "_bounded_simplex", both)
    for seed, (g, p_star) in enumerate(_lp_attack_instances()):
        before = len(solved)
        run_attack(g, p_star, AttackConfig(method="pathattack-lp", rng_seed=seed))
        assert len(solved) > before
    assert all(solved)


def _recorded_solves(monkeypatch):
    """The list that gets ``(lp, solution, blocks)`` of every solve of the
    PATHATTACK-LP attacks run after this call, through the solver seam,
    ``blocks`` the number of the run's blocks when the LP was solved."""
    solves = []

    def recording(lp):
        solves.append((lp, solve_relaxed(lp), len(lp._run.blocks)))
        return solves[-1][1]

    cover = pathcut.attack.lp_path_cover
    monkeypatch.setattr(pathcut.attack, "lp_path_cover", lambda cut, rng: cover(cut, rng, solver=recording))
    return solves


def test_simplex_bit_identical_to_numpy_loop_on_dense_ties(monkeypatch):
    # A K16 clique with equal weights and p* at rank 16, its first three-hop
    # path: every competitor ties with p*, so each attack solves about 40
    # growing LPs over the same clique edges.
    solved, counts = [], []

    def both(rows, costs, cap):
        got = _bounded_simplex(rows, costs, cap)
        solved.append(got[0].tobytes() == reference_bounded_simplex(rows, costs).tobytes())
        counts.append(got[1:])
        return got

    monkeypatch.setattr(pathcut.lp, "_bounded_simplex", both)
    solves = _recorded_solves(monkeypatch)
    k16 = assign_weights(generate(GeneratorSpec("complete", n=16)), WeightScheme("equal"))
    for seed, (s, t) in enumerate([(0, 15), (3, 8), (12, 5), (9, 10)]):
        p_star = select_p_star(k16, s, t, 16)
        assert len(p_star.edges) == 3
        run_attack(k16, p_star, AttackConfig(method="pathattack-lp", rng_seed=seed))
    assert len(solves) >= 4 * 30 and all(solved)
    # Pivots and bound flips over the 156 solves, as cold solves count them,
    # and as the simplex made them: one call per solve, on the block that
    # the solve's new row joined.
    assert len(solved) == len(solves)
    assert tuple(map(sum, zip(*((sol.pivots, sol.flips) for _, sol, _ in solves)))) == (2586, 2154)
    assert tuple(map(sum, zip(*counts))) == (228, 240)


def _cold(lp):
    """``lp`` solved cold: a hand-built copy, one block, no run's solves."""
    return solve_relaxed(RelaxedCutLP(lp.edge_order, lp.costs, lp.rows))


def _same_solution(got, want):
    return (got.values.tobytes(), got.objective_value.hex(), got.pivots, got.flips) == \
        (want.values.tobytes(), want.objective_value.hex(), want.pivots, want.flips)


def _column_cut_rows(costs):
    """A ``CutRows`` whose LP has one column per cost, in order, and the
    path that adds a row of given columns. Column ``j`` is the edge
    ``(2j, 2j + 1)``; a path steps between the columns of its row on
    edges that the protected set holds and the graph lacks, which
    ``CutRows`` skips (a stand-in for ``p*``, since no one path holds them
    all)."""
    n = len(costs)
    g = Graph(2 * n, [(2 * j, 2 * j + 1, 1, c) for j, c in enumerate(costs.tolist())])
    links = SimpleNamespace(edges=[(2 * a + 1, 2 * b) for a, b in combinations(range(n), 2)])
    return CutRows(g, links), lambda row: Path(tuple(v for j in row for v in (2 * j, 2 * j + 1)))


def _grown_cover_lps(rng, count):
    """``count`` random cover LPs of every cost kind, the ``"large"`` one and
    tied ``2**20`` costs, each fed a row at a time through one ``CutRows``:
    yields, for each, an iterator of the LPs built, one per row, each
    built when the iterator reaches it."""
    kinds = COST_KINDS + ("large", "tied")
    for k in range(count):
        kind = kinds[k % len(kinds)]
        rows, costs = random_cover_lp(rng, "ones" if kind == "tied" else kind)
        if kind == "tied":
            costs = rng.integers(1, 5, size=len(costs)) * 2.0 ** 20
        yield _grow(rows, costs)


def _grow(rows, costs):
    cut, path = _column_cut_rows(costs)
    for k, row in enumerate(rows):
        cut.add(path(row))
        lp = build_cover_lp(cut)
        assert lp.rows == tuple(rows[:k + 1]) and lp.costs == tuple(costs.tolist())
        yield lp


def _count_simplex_calls(monkeypatch):
    calls = []
    simplex = pathcut.lp._bounded_simplex

    def counting(rows, costs, cap):
        calls.append(len(rows))
        return simplex(rows, costs, cap)

    monkeypatch.setattr(pathcut.lp, "_bounded_simplex", counting)
    return calls


def _attack_instances(rng, count):
    """``(k, graph, p*)`` for ``k`` below ``count``: seeded ER, 5 x 6
    lattice and clique instances in turn, ``p*`` of rank 12."""
    for k in range(count):
        if k % 3 == 0:
            g = random_graph(rng, 30, 0.2, costs_equal_weights=False)
            s, t = reachable_pair(rng, g)
        elif k % 3 == 1:
            g = assign_weights(generate(GeneratorSpec("lattice", rows=5, cols=6)),
                               WeightScheme("uniform", upper=4, seed=k))
            s, t = 0, 29
        else:
            g = assign_weights(generate(GeneratorSpec("complete", n=8 + k)), WeightScheme("equal"))
            s, t = 0, 1 + k
        yield k, g, select_p_star(g, s, t, 12)


def test_every_solve_of_a_run_equals_a_cold_solve(monkeypatch):
    # Each solve of a run re-solves only the blocks its new row changed; its
    # values, objective bits and counts must be a cold solve's. The run
    # keeps one solve per live block, and an older LP solved after newer
    # rows were added still gets its cold result.
    calls = _count_simplex_calls(monkeypatch)
    blocks = solved = several = 0
    for lps in _grown_cover_lps(np.random.default_rng(2030), 200):
        built, colds = [], []
        for lp in lps:
            built.append(lp)
            colds.append(_cold(lp))
            before = len(calls)
            assert _same_solution(solve_relaxed(lp), colds[-1])
            assert all(block.solve is not None for block in lp._run.blocks)
            blocks += len(lp._run.blocks)
            solved += len(calls) - before
            several += len(lp._run.blocks) > 1
        for lp, cold in zip(built, colds):
            assert _same_solution(solve_relaxed(lp), cold)
    assert several > 500 and blocks - solved > 1000  # block solves reused

    solves = _recorded_solves(monkeypatch)
    for k, g, p_star in _attack_instances(np.random.default_rng(2031), 12):
        before = len(calls), len(solves)
        run_attack(g, p_star, AttackConfig(method="pathattack-lp", rng_seed=k))
        # A solve after one new row runs the simplex on one block: that row's.
        assert len(calls) - before[0] == len(solves) - before[1]
    for lp, sol, _ in solves:
        assert _same_solution(sol, _cold(lp))
    assert sum(count > 1 for _, _, count in solves) > 20


def test_an_older_lp_of_a_run_is_solved_cold_and_keeps_nothing(monkeypatch):
    # An LP built before a row merged two of its blocks is no longer its
    # run's current LP: it is solved cold, one simplex call on all of its
    # rows, and leaves every solve the run's live blocks hold as it was,
    # a dropped one (None) included.
    cut, path = _column_cut_rows(np.array([3.0, 1.0, 2.0, 4.0, 1.0]))
    for row in ((0, 1), (2, 3), (4,)):
        cut.add(path(row))
    old = build_cover_lp(cut)
    assert _same_solution(solve_relaxed(old), _cold(old)) and len(cut.blocks) == 3
    lone = next(b for b in cut.blocks if b.rows == [2])
    cut.add(path((1, 2)))  # merges the blocks of rows 0 and 1
    assert len(cut.blocks) == 2
    calls = _count_simplex_calls(monkeypatch)
    for current in (None, build_cover_lp(cut)):
        if current is not None:
            assert _same_solution(solve_relaxed(current), _cold(current))
        kept = {b: b.solve for b in cut.blocks}
        before = len(calls)
        assert _same_solution(solve_relaxed(old), _cold(old))
        assert calls[before:] == [3, 3]  # the old LP's, then its cold copy's
        assert all(b.solve is kept[b] for b in cut.blocks)
        assert lone.solve is not None
    # The current LP re-solves the merged block's three rows, not all four.
    assert calls == [3, 3, 3, 4, 3, 3]


def test_every_greedy_cover_of_a_run_equals_a_cold_cover(monkeypatch):
    # A run's greedy cover picks only on the blocks of rows that have no
    # picks, the new row's, and keeps every other block's; each cover must
    # be the cold greedy cover of the rows so far. Rows are grown one at a
    # time over int, float, zero and tied costs, some of them repeated,
    # then taken from PATHATTACK-greedy attacks on ER, lattice and clique
    # graphs.
    rng = np.random.default_rng(2040)
    seen = dict.fromkeys(["several blocks", "merge", "reused", "repeated"], 0)
    for k in range(400):
        n = int(rng.integers(2, 16))
        costs = (rng.integers(0, 4, size=n),
                 np.array(FLOAT_COSTS)[rng.integers(len(FLOAT_COSTS), size=n)],
                 rng.integers(0, 2, size=n) * 3,
                 np.full(n, 2))[k % 4]
        cut, path = _column_cut_rows(costs)
        rows = []
        for _ in range(int(rng.integers(1, 12))):
            if rows and rng.random() < 0.15:
                row = rows[int(rng.integers(len(rows)))]
                seen["repeated"] += 1
            else:
                size = int(rng.integers(1, min(n, 3) + 1))
                row = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            rows.append(row)
            joined = {cut._row_block[cut.rows_on[e][0]]
                      for e in ((2 * j, 2 * j + 1) for j in row) if e in cut.rows_on}
            seen["merge"] += len(joined) > 1
            cut.add(path(row))
            seen["reused"] += any(b.picks is not None for b in cut.blocks)
            seen["several blocks"] += len(cut.blocks) > 1
            want = reference_greedy_path_cover(cut.g, SimpleNamespace(edges=cut.protected),
                                               [path(r) for r in rows])
            assert greedy_path_cover(cut) == want, (k, rows)
    assert min(seen.values()) > 100, seen

    cover = pathcut.attack.greedy_path_cover
    covers = dict.fromkeys(["calls", "several blocks", "reused"], 0)

    def checked(cut):
        covers["calls"] += 1
        covers["several blocks"] += len(cut.blocks) > 1
        covers["reused"] += any(b.picks is not None for b in cut.blocks)
        got = cover(cut)
        rows = [SimpleNamespace(edges=row) for row in cut.rows]
        assert got == reference_greedy_path_cover(cut.g, SimpleNamespace(edges=cut.protected), rows)
        return got

    monkeypatch.setattr(pathcut.attack, "greedy_path_cover", checked)
    for k, g, p_star in _attack_instances(np.random.default_rng(2041), 12):
        run_attack(g, p_star, AttackConfig(method="pathattack-greedy"))
    assert covers["several blocks"] > 20 and covers["reused"] > 20, covers


def test_run_solve_hits_the_step_cap_where_a_cold_solve_does(monkeypatch):
    # The cap counts the steps of every block, reused ones included, against
    # _step_cap of the whole LP's rows and active columns; a run's solve
    # raises exactly when the cold solve does. Each LP is solved under
    # caps of one below, at and above the cold steps, then under the
    # default; a second solve, every block reused, raises at the cold steps.
    step_cap = pathcut.lp._step_cap
    asked = []
    reused_steps = 0
    for lps in _grown_cover_lps(np.random.default_rng(2032), 80):
        for lp in lps:
            cold_lp = RelaxedCutLP(lp.edge_order, lp.costs, lp.rows)
            cold = solve_relaxed(cold_lp)
            steps = cold.pivots + cold.flips
            reused = sum(sum(block.solve[2:]) for block in lp._run.blocks
                         if block.solve is not None)
            reused_steps += reused > 0
            for cap in (steps - 1, steps, steps + 1, steps):
                monkeypatch.setattr(pathcut.lp, "_step_cap", lambda m, n: asked.append((m, n)) or cap)
                for solve in (cold_lp, lp):
                    if cap <= steps:
                        with pytest.raises(PathCutError, match="pivot cap"):
                            solve_relaxed(solve)
                    else:
                        assert _same_solution(solve_relaxed(solve), cold)
            active = len({j for row in lp.rows for j in row})
            assert set(asked) == {(len(lp.rows), active)}
            asked.clear()
            monkeypatch.setattr(pathcut.lp, "_step_cap", step_cap)
            assert _same_solution(solve_relaxed(lp), cold)
    assert reused_steps > 300


def _steps(rows, costs):
    """``_bounded_simplex``'s pivot and flip counts on an LP, checked to be
    the reference loop's, and the reference's ``(entering column,
    flipped)`` steps; the two results must be equal byte for byte."""
    costs = np.asarray(costs, dtype=float)
    got, pivots, flips = _bounded_simplex(rows, costs)
    steps = []
    assert got.tobytes() == reference_bounded_simplex(rows, costs, steps).tobytes()
    assert (pivots, flips) == (sum(not f for _, f in steps), sum(f for _, f in steps))
    return pivots, flips, steps


def test_simplex_enters_a_smaller_column_that_a_pivot_made_eligible():
    # Found by search over random_cover_lp: columns 0 to 3 flip to 0, then
    # 4 pivots in and turns column 0's reduced cost negative at its lower
    # bound, so 0 enters next. Bland's rule must find it left of the last
    # entering column, which a mask the pivot left unchanged would not.
    pivots, flips, steps = _steps([(0, 4), (3, 4)], [2, 3, 4, 3, 3])
    assert steps == [(0, True), (1, True), (2, True), (3, True), (4, False), (0, False)]
    assert (pivots, flips) == (2, 4)


def test_simplex_with_zero_and_tied_costs():
    # Found by search over random_cover_lp: two tied costs of 2, and the
    # zero-cost columns 3 and 5 share a row. A zero-cost column at its
    # upper bound has a reduced cost of at most 0, so it never enters and
    # its row never binds: surplus column 8 (row 2's) enters last.
    pivots, flips, steps = _steps([(1, 2), (1, 2, 4), (0, 1), (0, 4), (3, 5)], [2, 2, 1, 0, 4, 0])
    assert steps == [(0, True), (1, False), (2, True), (4, False), (0, False), (2, True), (8, False)]
    assert (pivots, flips) == (4, 3)


def test_simplex_turning_dense_midway(monkeypatch):
    # Found by search over random_cover_lp: the tableau turns dense at the
    # sixth of ten pivots, so the last five recompute every eligible bit.
    # Kept sparse throughout, the solve makes the same steps.
    rows = [(2, 9, 10, 11), (0, 1, 2, 6, 7, 9, 11), (0, 1, 2, 3, 5, 7, 12), (0, 4, 7),
            (1, 6, 9, 10, 11), (0, 1, 2, 3, 4, 10, 12), (0, 2, 3, 6, 7), (0, 3, 4, 5, 6, 7),
            (2, 3, 4, 6, 7, 8, 9, 12)]
    pivots, flips, steps = _steps(rows, [1] * 13)
    assert (pivots, flips) == (10, 11)
    monkeypatch.setattr(pathcut.lp, "_DENSE_WORK", 10**9)
    assert _steps(rows, [1] * 13) == (pivots, flips, steps)
