import dataclasses
import json
import pathlib
import warnings
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pathcut.attack
import pathcut.harness
from helpers import (
    dense_adjacency_product,
    exclusive_after,
    random_graph,
    reachable_pair,
    reference_principal_eigenvector,
    shuffled_adjacency_product,
)
from pathcut import (
    ConvergenceError, Graph, InputError, IterationLimitError, Path, edge_key, path_length,
)
from pathcut.attack import (
    METHODS,
    AttackConfig,
    _adjacency_product,
    principal_eigenvector,
    run_attack,
)
from pathcut.cli import main
from pathcut.generators import GeneratorSpec, WeightScheme, assign_weights, generate
from pathcut.graphs import _distance_bound
from pathcut.harness import (
    ExperimentConfig, InstanceSkip, load_edge_list, neighborhood_mask, run_experiments,
    save_edge_list, select_p_star, select_terminals,
)
from pathcut.paths import k_shortest_paths, next_shortest_excluding
from pathcut.reduction import brute_force_force_path_cut
from pathcut.sweeps import clique_instance


GREEDY_COST = AttackConfig(method="greedy-cost")
GREEDY_EIGENSCORE = AttackConfig(method="greedy-eigenscore")


def already_exclusive_instance():
    g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 9)])
    return g, Path((0, 1, 2))


@pytest.mark.parametrize("method", METHODS)
def test_already_exclusive_yields_empty_plan(method):
    g, p_star = already_exclusive_instance()
    plan = run_attack(g, p_star, AttackConfig(method=method))
    assert plan.removed_edges == frozenset()
    assert plan.total_cost == 0
    assert plan.iterations == 0


ITERATION_CAP_PARTIAL = {
    "pathattack-lp": {"constraints": 2, "removed_edges": {(1, 2)}},
    "pathattack-greedy": {"constraints": 2, "removed_edges": {(0, 2)}},
    "greedy-cost": {"constraints": 2, "removed_edges": {(0, 2)}},
    "greedy-eigenscore": {"constraints": 2, "removed_edges": {(0, 2)}},
}


@pytest.mark.parametrize("method", METHODS)
def test_iteration_cap_raises_with_partial_state(method):
    g, p_star = clique_instance(6)
    with pytest.raises(IterationLimitError) as info:
        run_attack(g, p_star, AttackConfig(method=method, iteration_cap=1))
    assert info.value.category == "iteration-limit"
    assert info.value.partial == ITERATION_CAP_PARTIAL[method]


def cap_boundary_instances():
    yield clique_instance(6)
    g = random_graph(np.random.default_rng(0), 12, 0.35, costs_equal_weights=False)
    yield g, k_shortest_paths(g, 0, 11, 5)[4]


@pytest.mark.parametrize("method", METHODS)
def test_iteration_cap_bounds_cut_updates(method):
    # A cap equal to the uncapped run's iteration count k changes nothing;
    # a cap of k - 1 stops at constraint k with the cut of k - 1 updates.
    for g, p_star in cap_boundary_instances():
        cfg = AttackConfig(method=method, rng_seed=3)
        plan = run_attack(g, p_star, cfg)
        k = plan.iterations
        assert k >= 1
        capped = run_attack(g, p_star, dataclasses.replace(cfg, iteration_cap=k))
        assert (capped.removed_edges, capped.total_cost, capped.iterations) == (
            plan.removed_edges, plan.total_cost, k)
        with pytest.raises(IterationLimitError, match=f"within {k - 1} iterations") as info:
            run_attack(g, p_star, dataclasses.replace(cfg, iteration_cap=k - 1))
        partial = info.value.partial
        assert partial["constraints"] == k
        if method in ("greedy-cost", "greedy-eigenscore"):
            assert len(partial["removed_edges"]) == k - 1
            assert partial["removed_edges"] <= plan.removed_edges


@pytest.mark.parametrize("n", range(5, 21))
def test_clique_cost_and_constraint_bound(n):
    g, p_star = clique_instance(n)
    # Seed n, and the seed scripts/run_clique_sweep.py uses by default.
    for method in METHODS:
        for seed in (n, 0):
            plan = run_attack(g, p_star, AttackConfig(method=method, rng_seed=seed))
            assert plan.total_cost == n - 2
            assert plan.constraints_generated <= (n - 2) ** 2 + (n - 2)
            assert exclusive_after(g, p_star, plan.removed_edges)


@pytest.mark.parametrize("method", METHODS)
def test_plan_provenance_per_method(method):
    # Seed, constraint count and LP fields reach records.jsonl: only
    # PATHATTACK consumes the seed and counts constraints, and only the
    # LP variant reports an LP.
    g, p_star = clique_instance(6)
    cfg = AttackConfig(method=method, rng_seed=11)
    plan = run_attack(g, p_star, cfg)
    assert plan.iterations >= 1
    if method.startswith("pathattack-"):
        assert (plan.rng_seed, plan.constraints_generated) == (cfg.rng_seed, plan.iterations)
    else:
        assert (plan.rng_seed, plan.constraints_generated) == (None, 0)
    lp_fields = (plan.lp_objective is not None, plan.lp_integral is not None)
    assert lp_fields == ((True, True) if method == "pathattack-lp" else (False, False))


def test_attack_config_validates_method():
    with pytest.raises(InputError):
        AttackConfig(method="nope")


@pytest.mark.parametrize("field, value", [
    ("rng_seed", -1), ("rng_seed", 1.5), ("rng_seed", None), ("rng_seed", "3"),
    ("iteration_cap", -1), ("iteration_cap", 2.0),
])
def test_attack_config_rejects_negative_or_non_integer_seed_and_cap(field, value):
    with pytest.raises(InputError, match=f"^{field} must be (an integer|>= 0), got "):
        AttackConfig(**{field: value})


def test_attack_config_accepts_zero_seed_and_zero_cap():
    cfg = AttackConfig(rng_seed=np.int64(0), iteration_cap=0)
    assert (cfg.rng_seed, cfg.iteration_cap) == (0, 0)
    assert AttackConfig(iteration_cap=None).iteration_cap is None


def test_lp_matches_brute_force_when_integral():
    rng = np.random.default_rng(1234)
    from pathcut.paths import k_shortest_paths

    done = 0
    while done < 25:
        g = random_graph(rng, 8, 0.45)
        ranked = k_shortest_paths(g, 0, 7, 3)
        if len(ranked) < 3:
            continue
        p_star = ranked[2]
        if g.edge_count - p_star.num_edges > 18:
            continue
        done += 1
        plan = run_attack(g, p_star, AttackConfig(method="pathattack-lp", rng_seed=done))
        opt = brute_force_force_path_cut(g, p_star)
        assert plan.lp_objective <= opt.total_cost + 1e-9
        if plan.lp_integral:
            assert plan.total_cost == opt.total_cost
        assert exclusive_after(g, p_star, plan.removed_edges)


def test_greedy_cost_single_step_triangle():
    # The direct edge competes and is the only cuttable edge: one step,
    # paying its removal cost of 2.
    g = Graph(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 2)])
    p_star = Path((0, 1, 2))
    plan = run_attack(g, p_star, GREEDY_COST)
    assert plan.removed_edges == frozenset({(0, 2)})
    assert plan.total_cost == 2
    assert plan.iterations == 1


def test_greedy_cost_prefers_cheap_edges():
    # Competing 2-hop route: cutting its cheap half is enough.
    g = Graph(4, [(0, 1, 2, 5), (1, 3, 2, 5), (0, 2, 1, 3), (2, 3, 1, 1)])
    p_star = Path((0, 1, 3))
    plan = run_attack(g, p_star, GREEDY_COST)
    assert plan.removed_edges == frozenset({(2, 3)})
    assert plan.total_cost == 1


def test_budget_never_alters_optimization(tmp_path, capsys):
    # --budget is only compared against the final cost; the attack never
    # sees it.
    g, p_star = clique_instance(8)
    f = str(tmp_path / "k8.edges")
    save_edge_list(f, g)
    argv = ["attack", "--graph", f, "--method", "greedy-cost",
            "--p-star", ",".join(map(str, p_star.nodes))]
    plans = []
    for extra in ([], ["--budget", "1"]):
        assert main(argv + extra) == 0
        plans.append(json.loads(capsys.readouterr().out))
    free, tight = plans
    assert free["removed_edges"] == tight["removed_edges"]
    assert tight["within_budget"] is False


def test_eigenvector_single_edge_and_clique():
    pair = Graph(2, [(0, 1, 1)])
    v = principal_eigenvector(pair)
    assert v == pytest.approx(np.full(2, 1 / np.sqrt(2)), abs=1e-6)
    k5 = Graph(5, [(u, w, 1) for u in range(5) for w in range(u + 1, 5)])
    v = principal_eigenvector(k5)
    assert v == pytest.approx(np.full(5, 1 / np.sqrt(5)), abs=1e-6)
    with pytest.raises(InputError):
        principal_eigenvector(Graph(0))


def test_eigenvector_matches_dense_solver(monkeypatch):
    rng = np.random.default_rng(8)
    g = random_graph(rng, 30, 0.2)
    monkeypatch.setattr(pathcut.attack, "POWER_TOL", 1e-10)
    v = principal_eigenvector(g)
    A = np.zeros((30, 30))
    for u, w in g.edges():
        A[u, w] = A[w, u] = 1.0
    vals, vecs = np.linalg.eigh(A)
    ref = np.abs(vecs[:, -1])
    assert v == pytest.approx(ref, abs=1e-6)


def _clique_edges(nodes):
    return [(u, w, 1) for u, w in combinations(nodes, 2)]


EIGEN_GRAPHS = [
    generate(GeneratorSpec("lattice", rows=10, cols=10)),
    random_graph(np.random.default_rng(60), 60, 0.1),
    Graph(7, _clique_edges(range(7))),
    Graph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 2, 1)]),
    Graph(4),
    # Graphs where a skip band that is too loose would skip the stopping
    # step: the benchmark's lattice, bipartite spectra (K3,4, a star, a
    # path), one-step convergence (K16, two disjoint K5), and larger or
    # irregular degree sequences (BA, Kronecker).
    generate(GeneratorSpec("lattice", rows=22, cols=22)),
    Graph(7, [(u, w, 1) for u in range(3) for w in range(3, 7)]),
    Graph(13, [(0, w, 1) for w in range(1, 13)]),
    Graph(30, [(u, u + 1, 1) for u in range(29)]),
    generate(GeneratorSpec("complete", n=16)),
    Graph(10, _clique_edges(range(5)) + _clique_edges(range(5, 10))),
    generate(GeneratorSpec("ba", n=1000, m=5)),
    generate(GeneratorSpec("kronecker", iterations=7, density=0.08)),
]
EIGEN_IDS = ["lattice-10x10", "er-60", "k7", "isolated-node", "no-edges",
             "lattice-22x22", "k3-4", "star-12", "path-30", "k16", "two-k5",
             "ba-1000", "kronecker-128"]


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("g", EIGEN_GRAPHS, ids=EIGEN_IDS)
def test_eigenvector_bit_identical_to_three_product_loop(g, tol, monkeypatch):
    # Bit identity, not closeness: on the same product, computing A @ v
    # once per step and skipping the residual test where it cannot pass
    # must not change a single iterate. Bytes, because array_equal takes
    # -0.0 for 0.0.
    monkeypatch.setattr(pathcut.attack, "POWER_TOL", tol)
    got = principal_eigenvector(g)
    expect = reference_principal_eigenvector(g, tol=tol, product=_adjacency_product)
    assert got.tobytes() == expect.tobytes()


@st.composite
def graphs_with_isolated_nodes(draw):
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    return Graph(n, [(u, w, 1) for u, w in {edge_key(u, w) for u, w in pairs if u != w}])


@given(graphs_with_isolated_nodes())
def test_eigenvector_bit_identical_to_three_product_loop_on_random_graphs(g):
    got = principal_eigenvector(g)
    expect = reference_principal_eigenvector(g, product=_adjacency_product)
    assert got.tobytes() == expect.tobytes()


def test_eigenvector_stops_at_the_three_product_loops_step(monkeypatch):
    # The stopping step is the reference's: a cap of exactly its step
    # count returns its vector, one step fewer raises.
    g = generate(GeneratorSpec("lattice", rows=10, cols=10))
    calls = []

    def counted(g):
        mul = _adjacency_product(g)

        def product(x):
            calls.append(None)
            return mul(x)

        return product

    expect = reference_principal_eigenvector(g, product=counted)
    steps = len(calls) // 3  # three products per reference step
    monkeypatch.setattr(pathcut.attack, "MAX_POWER_ITER", steps)
    assert principal_eigenvector(g).tobytes() == expect.tobytes()
    monkeypatch.setattr(pathcut.attack, "MAX_POWER_ITER", steps - 1)
    with pytest.raises(ConvergenceError):
        principal_eigenvector(g)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("g", EIGEN_GRAPHS, ids=EIGEN_IDS)
def test_eigenvector_close_to_dense_three_product_loop(g, tol, monkeypatch):
    # The sparse product sums in another order than a dense matvec, so the
    # vectors may differ in the last bits (greedy eigenscore's tie rule
    # absorbs that), but no more.
    monkeypatch.setattr(pathcut.attack, "POWER_TOL", tol)
    got = principal_eigenvector(g)
    expect = reference_principal_eigenvector(g, tol=tol)
    assert np.max(np.abs(got - expect)) <= 1e-12
    av = dense_adjacency_product(g)(got)
    lam = float(got @ av)
    assert np.linalg.norm(av - lam * got) <= tol * lam


DESK_BLOCKS = {
    # The two desk --quick blocks whose greedy-eigenscore plans flipped
    # when only the product's summation order changed.
    "complete-n100-uniform": (GeneratorSpec("complete", n=100), WeightScheme("uniform")),
    "lattice-n100-equal": (GeneratorSpec("lattice", rows=10, cols=10), WeightScheme("equal")),
}


@pytest.mark.parametrize("block", sorted(DESK_BLOCKS))
def test_eigenscore_plans_independent_of_product_order(block, monkeypatch):
    spec, scheme = DESK_BLOCKS[block]
    cfg = ExperimentConfig(generator=spec, weight_scheme=scheme, p_star_ranks=(5, 20),
                           repetitions=3, methods=("greedy-eigenscore",))
    k7, k7_target = clique_instance(7)

    def plans():
        got = []

        def recording_run_attack(g, p_star, acfg):
            plan = run_attack(g, p_star, acfg)
            got.append(plan.removed_edges)
            return plan

        with monkeypatch.context() as m:
            m.setattr(pathcut.harness, "run_attack", recording_run_attack)
            run_experiments(cfg)
        got.append(run_attack(k7, k7_target, GREEDY_EIGENSCORE).removed_edges)
        return got

    sparse = plans()
    assert len(sparse) == 6 + 1
    for product in (dense_adjacency_product, shuffled_adjacency_product):
        monkeypatch.setattr(pathcut.attack, "_adjacency_product", product)
        assert plans() == sparse, product.__name__


def test_eigenscore_ties_within_the_relative_tolerance_go_to_the_smallest_key(monkeypatch):
    # Ratios within a relative TIE_RTOL of the largest tie, and the smallest
    # edge key among them is cut, though another ratio is larger in the last
    # bits; a ratio further below is ranked as it is. Zero-cost edges tie
    # only with each other, and when every ratio is 0 all tie.
    g = Graph(5, [(0, 1, 1, 2), (1, 2, 1, 2), (2, 3, 1, 2), (3, 4, 1, 0), (0, 4, 1, 0)])
    vector = np.array([1.0, 1.0, 1.0 + 2.0**-52, 1.0, 0.0])
    monkeypatch.setattr(pathcut.attack, "principal_eigenvector", lambda graph: vector)
    def choose(candidates):  # the rule reads the vector once, when made
        return pathcut.attack._top_eigenscore(g)(candidates)

    assert choose([(1, 2), (0, 1)]) == (0, 1)  # (1, 2)'s ratio is 2**-52 larger
    vector[0] = 1.0 - 1e-10
    assert choose([(1, 2), (0, 1)]) == (0, 1)
    vector[0] = 1.0 - 1e-8
    assert choose([(1, 2), (0, 1)]) == (1, 2)
    assert choose([(3, 4), (2, 3), (0, 4)]) == (0, 4)  # zero costs: ratio inf
    vector[:] = 0.0
    assert choose([(2, 3), (1, 2)]) == (1, 2)


def test_eigenscore_choice_on_star_with_chord():
    # Star around node 0 plus chords; eigenscores from the dense
    # eigendecomposition decide the first cut.
    edges = [(0, i, 1, 1) for i in range(1, 6)] + [(1, 2, 1, 1), (1, 3, 1, 1), (2, 4, 1, 1)]
    g = Graph(6, edges)
    p_star = Path((3, 1, 2, 4))  # length 3; (3,0,4) and (3,1,0,4) compete
    plan = run_attack(g, p_star, GREEDY_EIGENSCORE)
    A = np.zeros((6, 6))
    for u, v, _, _ in edges:
        A[u, v] = A[v, u] = 1.0
    vec = np.abs(np.linalg.eigh(A)[1][:, -1])
    first = next_shortest_excluding(g, 3, 4, p_star)
    assert first.nodes == (3, 0, 4)
    cuttable = [e for e in first.edges if e not in set(p_star.edges)]
    # Round so the dense solver's 1e-16 noise cannot flip a symmetric tie.
    expect = min(cuttable, key=lambda e: (-round(vec[e[0]] * vec[e[1]], 9), e))
    assert expect in plan.removed_edges
    assert exclusive_after(g, p_star, plan.removed_edges)


def test_eigenscore_equals_greedy_cost_on_clique():
    g, p_star = clique_instance(7)
    a = run_attack(g, p_star, GREEDY_COST)
    b = run_attack(g, p_star, GREEDY_EIGENSCORE)
    assert a.removed_edges == b.removed_edges


def test_eigenscore_plan_pinned_on_random_instance():
    # A seeded instance with several competing paths; the plan is pinned.
    from pathcut.paths import k_shortest_paths

    rng = np.random.default_rng(6)
    while True:
        g = random_graph(rng, 12, 0.35)
        ranked = k_shortest_paths(g, 0, 11, 6)
        if len(ranked) == 6:
            break
    p_star = ranked[5]
    assert p_star.nodes == (0, 2, 9, 11)
    frozen = run_attack(g, p_star, GREEDY_EIGENSCORE)
    assert frozen.removed_edges == frozenset({(6, 11), (7, 11), (10, 11)})
    assert exclusive_after(g, p_star, frozen.removed_edges)


def test_feasibility_and_protection_on_random_instances():
    rng = np.random.default_rng(77)
    from pathcut.paths import k_shortest_paths

    done = 0
    while done < 12:
        g = random_graph(rng, 12, 0.3)
        ranked = k_shortest_paths(g, 0, 11, 4)
        if len(ranked) < 4:
            continue
        p_star = ranked[3]
        done += 1
        for method in METHODS:
            plan = run_attack(g, p_star, AttackConfig(method=method, rng_seed=done))
            assert exclusive_after(g, p_star, plan.removed_edges)
            assert plan.method_tag == method


def test_numpy_int_weights_give_the_plans_of_python_ints():
    # numpy ints are read as Python ints, so they take the exact int
    # branches (distance bound, ranking cutoff, p*-first hint) and every
    # method's plan equals the plan on the same graph built from ints.
    rng = np.random.default_rng(5)
    done = 0
    while done < 6:
        g = random_graph(rng, 12, 0.4, max_weight=3, costs_equal_weights=False)
        ranked = k_shortest_paths(g, 0, 11, 6)
        if len(ranked) < 6:
            continue
        done += 1
        numpy_g = Graph(12, [(u, v, np.int64(w), np.int32(c)) for u, v, w, c in g.edge_records()])
        assert numpy_g._int_weights and numpy_g == g
        for method in METHODS:
            cfg = AttackConfig(method=method, rng_seed=done)
            assert run_attack(numpy_g, ranked[5], cfg) == run_attack(g, ranked[5], cfg)


def test_cost_and_weight_overrides():
    # Costs and weights are decoupled: a costly competitor still must be
    # cut, at its own price.
    p_star = Path((0, 1, 2))
    g = Graph(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 7)])
    plan = run_attack(g, p_star, GREEDY_COST)
    assert plan.total_cost == 7
    # Heavier direct edge: nothing competes anymore.
    g = Graph(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 9, 1)])
    plan = run_attack(g, p_star, GREEDY_COST)
    assert plan.removed_edges == frozenset()


def test_feasibility_with_zero_weights_and_decoupled_costs():
    from itertools import combinations

    rng = np.random.default_rng(7)
    done = 0
    from pathcut.paths import k_shortest_paths

    while done < 10:
        n = int(rng.integers(5, 9))
        records = [
            (u, v, int(rng.integers(0, 4)), int(rng.integers(1, 5)))
            for u, v in combinations(range(n), 2)
            if rng.random() < 0.5
        ]
        g = Graph(n, records)
        ranked = k_shortest_paths(g, 0, n - 1, 3)
        if len(ranked) < 3 or g.edge_count - ranked[2].num_edges > 18:
            continue
        p_star = ranked[2]
        done += 1
        opt = brute_force_force_path_cut(g, p_star)
        for method in METHODS:
            plan = run_attack(g, p_star, AttackConfig(method=method, rng_seed=done))
            assert exclusive_after(g, p_star, plan.removed_edges)
            assert plan.total_cost >= opt.total_cost


def test_vacuous_success_when_target_separates():
    # Removing the chain's competitor disconnects s from t except via the
    # protected path; the oracle returns nothing and the attack succeeds.
    g = Graph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)])
    p_star = Path((0, 1, 3))
    plan = run_attack(g, p_star, GREEDY_COST)
    assert exclusive_after(g, p_star, plan.removed_edges)
    assert next_shortest_excluding(g, 0, 3, p_star, banned_edges=plan.removed_edges) is None


@pytest.mark.parametrize("method", METHODS)
def test_certificate_when_already_exclusive(method, tmp_path, capsys):
    # Already exclusive: no cut, and the CLI prints the runner-up the
    # oracle finds in the input graph.
    g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 4)])
    p_star = Path((0, 1, 2))
    plan = run_attack(g, p_star, AttackConfig(method=method))
    assert plan.removed_edges == frozenset()
    assert plan.iterations == 0
    f = str(tmp_path / "triangle.edges")
    save_edge_list(f, g)
    assert main(["attack", "--graph", f, "--method", method, "--p-star", "0,1,2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["removed_edges"], out["iterations"]) == ([], 0)
    assert (out["target_length"], out["next_competitor_length"], out["exclusive"]) == (2, 4, True)


@pytest.mark.parametrize("method", METHODS)
def test_an_int_tie_above_2_to_the_53_is_cut(method, tmp_path, capsys):
    # Both paths from 0 to 2 are 2**54 + 2 long, where a float tolerance
    # cannot tell them apart: int lengths compare exactly, so 0-3-2 ties
    # with p* and every method, brute force and the CLI cut it.
    w = 2**53 + 1
    g = Graph(4, [(0, 1, w), (1, 2, w), (0, 3, w), (3, 2, w)])
    p_star = Path((0, 1, 2))
    plan = run_attack(g, p_star, AttackConfig(method=method))
    assert (plan.iterations, plan.total_cost) == (1, w)
    assert plan.removed_edges <= {(0, 3), (2, 3)} and exclusive_after(g, p_star, plan.removed_edges)
    assert not exclusive_after(g, p_star, ())
    assert brute_force_force_path_cut(g, p_star).removed_edges == {(0, 3)}
    f = str(tmp_path / "tie.edges")
    save_edge_list(f, g)
    assert main(["attack", "--graph", f, "--method", method, "--p-star", "0,1,2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["iterations"], out["total_cost"]) == (1, w)
    assert (out["target_length"], out["next_competitor_length"], out["exclusive"]) == (2 * w, None, True)


@pytest.mark.parametrize("method", METHODS)
def test_lengths_beyond_the_float_range_get_a_plan(method):
    # p* is 2 * 10**308 long, an int no float holds; the competitor 0-2 is
    # cut, and no length comparison overflows.
    g = Graph(3, [(0, 1, 10**308), (1, 2, 10**308), (0, 2, 1)])
    p_star = Path((0, 1, 2))
    plan = run_attack(g, p_star, AttackConfig(method=method))
    assert plan.removed_edges == {(0, 2)} and exclusive_after(g, p_star, plan.removed_edges)
    assert brute_force_force_path_cut(g, p_star).removed_edges == {(0, 2)}


@pytest.mark.parametrize("method", METHODS)
def test_lp_costs_beyond_the_float_range_are_an_input_error(method, tmp_path, capsys):
    # Each competitor costs 2 * 10**308 to cut. PATHATTACK-LP sums the
    # costs of its LP's columns in float (its objective's dot), so it
    # raises InputError, and the CLI exits 2 with a JSON input error: it
    # warned of an overflow and returned an objective of inf, which the
    # CLI could not print. The other methods cut both competitors.
    b = 10**308
    g = Graph(5, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 3, 1, b), (3, 2, 1, b), (0, 4, 1, b), (4, 2, 1, b)])
    p_star = Path((0, 1, 2))
    f = str(tmp_path / "overflow.edges")
    save_edge_list(f, g)
    argv = ["attack", "--graph", f, "--method", method, "--p-star", "0,1,2"]
    message = "the cut LP's costs sum beyond the float range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if method == "pathattack-lp":
            with pytest.raises(InputError, match=f"^{message}$"):
                run_attack(g, p_star, AttackConfig(method=method))
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and json.loads(err) == {"error": "input", "message": message}
        else:
            plan = run_attack(g, p_star, AttackConfig(method=method))
            assert plan.removed_edges == {(0, 3), (0, 4)} and plan.total_cost == 2 * b
            assert exclusive_after(g, p_star, plan.removed_edges)
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["exclusive"] is True


@pytest.mark.parametrize("method", METHODS)
def test_the_loop_calls_the_attack_modules_names(method, monkeypatch):
    # bench/tracing.py times an attack by patching these names on
    # pathcut.attack, so run_attack must look each one up there per call:
    # one oracle call per iteration and a last one that finds nothing, one
    # call of the method's own cover per iteration, and one eigenvector
    # for greedy-eigenscore.
    calls = Counter()

    def counted(name):
        fn = getattr(pathcut.attack, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return count

    for name in ("next_shortest_excluding", "lp_path_cover", "greedy_path_cover",
                 "principal_eigenvector"):
        monkeypatch.setattr(pathcut.attack, name, counted(name))
    g, p_star = clique_instance(7)
    plan = run_attack(g, p_star, AttackConfig(method=method))
    assert plan.iterations > 1
    want = Counter(next_shortest_excluding=plan.iterations + 1)
    if method == "pathattack-lp":
        want["lp_path_cover"] = plan.iterations
    elif method == "pathattack-greedy":
        want["greedy_path_cover"] = plan.iterations
    elif method == "greedy-eigenscore":
        want["principal_eigenvector"] = 1
    assert calls == want


def test_attack_hints_change_no_oracle_answer(monkeypatch):
    # Each oracle call of run_attack's loop, with its p_star_first hint and its
    # max_length of len(p*), must answer as an unhinted, uncapped call:
    # with int weights the same path when that one is within max_length,
    # and None otherwise; with float weights, which ignore both, the same
    # path always. Equal-weight cliques and tied random graphs make p*
    # come first often, and PATHATTACK's covers there can drop an edge
    # that an earlier cut held, so p* need not still come first.
    told = {"int": 0, "float": 0}
    calls = capped = 0

    def oracle(g, s, t, p_star, banned_edges=(), **kwargs):
        nonlocal calls, capped
        got = next_shortest_excluding(g, s, t, p_star, banned_edges, **kwargs)
        free = next_shortest_excluding(g, s, t, p_star, banned_edges)
        if g._int_weights and free is not None and path_length(g, free) > kwargs["max_length"]:
            assert got is None
            capped += 1
        else:
            assert got == free
        if kwargs.get("p_star_first"):
            told["int" if g._int_weights else "float"] += 1
        calls += 1
        return got

    monkeypatch.setattr(pathcut.attack, "next_shortest_excluding", oracle)
    cases = []
    for n in range(5, 13):
        clique = Graph(n, [(u, v, 1) for u, v in combinations(range(n), 2)])
        cases += [(clique, select_p_star(clique, 0, n - 1, k)) for k in (2, n)]
    floats = load_edge_list(pathlib.Path(__file__).parents[1] / "scripts" / "float_weights.edges").graph
    rng = np.random.default_rng(31)
    for seed in range(6):
        s, t = select_terminals(floats, "uniform", seed)
        cases += [(floats, select_p_star(floats, s, t, k)) for k in (2, 5, 20)]
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(7, 12)), 0.6, max_weight=2)
        s, t = reachable_pair(rng, g)
        for k in (2, 4, 8):
            try:
                cases.append((g, select_p_star(g, s, t, k)))
            except InstanceSkip:
                pass
    for g, p_star in cases:
        for method in METHODS:
            run_attack(g, p_star, AttackConfig(method=method))
    assert told["int"] > 100 and calls > 1000 and capped > 300, (told, calls, capped)


@pytest.mark.parametrize("method", METHODS + ("brute-force",))
@pytest.mark.parametrize("p_star, message", [
    (Path((1,)), r"^target path must have at least one edge$"),
    (Path((0, 1, 3)), r"^target path edge \(1, 3\) is not in the graph$"),
])
def test_run_attack_rejects_a_target_path_without_edges_or_off_the_graph(method, p_star, message):
    # Brute force shares the check, and makes it before its size check.
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 5)])
    with pytest.raises(InputError, match=message):
        if method == "brute-force":
            brute_force_force_path_cut(g, p_star, max_cuttable=0)
        else:
            run_attack(g, p_star, AttackConfig(method=method))


def _hop_lattice():
    g = generate(GeneratorSpec("lattice", rows=8, cols=8))
    g = assign_weights(g, WeightScheme(kind="uniform", seed=1))
    s, t = select_terminals(g, "hop", 2, hop_distance=5)
    mask = neighborhood_mask(g, s, 6)
    return g, select_p_star(g, s, t, 6, allowed_nodes=mask)


def _weighted_er():
    g = generate(GeneratorSpec("er", n=40, p=0.15, seed=5))
    g = assign_weights(g, WeightScheme(kind="poisson", seed=6))
    s, t = select_terminals(g, "uniform", 7)
    return g, select_p_star(g, s, t, 6)


#: Instance set-ups, each run afresh per use. In hop mode the p* search
#: is masked, as in the benchmark's lattice-hop workload, and leaves the
#: whole-graph distance bound to t that every attack reads.
ORDER_INSTANCES = {
    "lattice-hop": _hop_lattice,
    "clique": lambda: clique_instance(7),
    "er-weighted": _weighted_er,
}


@pytest.mark.parametrize("name", sorted(ORDER_INSTANCES))
def test_plans_do_not_depend_on_the_order_of_methods(name):
    # Each method alone on a fresh instance, then all four in METHODS order
    # and in reverse order on one instance: every CutPlan field is equal.
    setup = ORDER_INSTANCES[name]
    alone = {}
    for method in METHODS:
        g, p_star = setup()
        alone[method] = run_attack(g, p_star, AttackConfig(method=method))
    assert alone["pathattack-lp"].iterations > 1
    for order in (METHODS, METHODS[::-1]):
        g, p_star = setup()
        for method in order:
            assert run_attack(g, p_star, AttackConfig(method=method)) == alone[method], order


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", sorted(ORDER_INSTANCES))
def test_pathattack_leaves_no_cover_state_on_the_graph(name, method):
    # A graph has no instance dict, and after an attack every slot but the
    # adjacency lists reads as on a fresh copy that computed the bound to
    # t. Setup leaves that bound (the clique comes with its p* and searches
    # nothing), and the attack keeps the very same object.
    g, p_star = ORDER_INSTANCES[name]()
    fresh = Graph(g.node_count, g.edge_records())
    _distance_bound(fresh, p_star.target)
    setup_bound = g._bound
    assert setup_bound == (None if name == "clique" else fresh._bound)
    run_attack(g, p_star, AttackConfig(method=method))
    assert not hasattr(g, "__dict__")
    if setup_bound is not None:
        assert g._bound is setup_bound
    for slot in set(Graph.__slots__) - {"_adj"}:
        assert getattr(g, slot) == getattr(fresh, slot), slot
