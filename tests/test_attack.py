import dataclasses
import json

import numpy as np
import pytest

import pathcut.attack
import pathcut.harness
from helpers import (
    dense_adjacency_product,
    random_graph,
    reference_principal_eigenvector,
    shuffled_adjacency_product,
)
from pathcut import Graph, InputError, IterationLimitError, Path, path_length, strictly_longer
from pathcut.attack import (
    METHODS,
    AttackConfig,
    _adjacency_product,
    greedy_cost,
    greedy_eigenscore,
    pathattack,
    principal_eigenvector,
    run_attack,
)
from pathcut.cli import main
from pathcut.generators import GeneratorSpec, WeightScheme, generate
from pathcut.harness import ExperimentConfig, run_experiments, save_edge_list
from pathcut.paths import k_shortest_paths, next_shortest_excluding
from pathcut.reduction import brute_force_force_path_cut
from pathcut.sweeps import clique_instance


def assert_exclusive(g, p_star, plan):
    residual = g.remove_edges(plan.removed_edges)
    alt = next_shortest_excluding(residual, p_star.source, p_star.target, p_star)
    target_len = path_length(g, p_star)
    assert alt is None or strictly_longer(path_length(residual, alt), target_len)
    assert not plan.removed_edges & frozenset(p_star.edges)


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
    for method in METHODS:
        plan = run_attack(g, p_star, AttackConfig(method=method, rng_seed=n))
        assert plan.total_cost == n - 2
        assert plan.constraints_generated <= (n - 2) ** 2 + (n - 2)
        assert_exclusive(g, p_star, plan)


def test_pathattack_counts_constraints_per_iteration():
    g, p_star = clique_instance(6)
    plan = pathattack(g, p_star, AttackConfig(method="pathattack-lp", rng_seed=0))
    assert plan.constraints_generated == plan.iterations
    assert plan.lp_integral is not None and plan.lp_objective is not None


def test_pathattack_rejects_baseline_method():
    g, p_star = clique_instance(5)
    with pytest.raises(InputError):
        pathattack(g, p_star, AttackConfig(method="greedy-cost"))


def test_attack_config_validates_method():
    with pytest.raises(InputError):
        AttackConfig(method="nope")


@pytest.mark.parametrize("field, value", [
    ("rng_seed", -1), ("rng_seed", 1.5), ("rng_seed", None), ("rng_seed", "3"),
    ("iteration_cap", -1), ("iteration_cap", 2.0),
])
def test_attack_config_rejects_negative_or_non_integer_seed_and_cap(field, value):
    with pytest.raises(InputError, match=f"^{field} must be a nonnegative integer, got "):
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
        assert_exclusive(g, p_star, plan)


def test_greedy_cost_single_step_triangle():
    # The direct edge competes and is the only cuttable edge: one step,
    # paying its removal cost of 2.
    g = Graph(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 2)])
    p_star = Path((0, 1, 2))
    plan = greedy_cost(g, p_star)
    assert plan.removed_edges == frozenset({(0, 2)})
    assert plan.total_cost == 2
    assert plan.iterations == 1


def test_greedy_cost_prefers_cheap_edges():
    # Competing 2-hop route: cutting its cheap half is enough.
    g = Graph(4, [(0, 1, 2, 5), (1, 3, 2, 5), (0, 2, 1, 3), (2, 3, 1, 1)])
    p_star = Path((0, 1, 3))
    plan = greedy_cost(g, p_star)
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


def test_eigenvector_matches_dense_solver():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 30, 0.2)
    v = principal_eigenvector(g, tol=1e-10)
    A = np.zeros((30, 30))
    for u, w in g.edges():
        A[u, w] = A[w, u] = 1.0
    vals, vecs = np.linalg.eigh(A)
    ref = np.abs(vecs[:, -1])
    assert v == pytest.approx(ref, abs=1e-6)


EIGEN_GRAPHS = [
    generate(GeneratorSpec("lattice", rows=10, cols=10)),
    random_graph(np.random.default_rng(60), 60, 0.1),
    Graph(7, [(u, w, 1) for u in range(7) for w in range(u + 1, 7)]),
    Graph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 2, 1)]),
    Graph(4),
]
EIGEN_IDS = ["lattice-10x10", "er-60", "k7", "isolated-node", "no-edges"]


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("g", EIGEN_GRAPHS, ids=EIGEN_IDS)
def test_eigenvector_bit_identical_to_three_product_loop(g, tol):
    # Bit identity, not closeness: on the same product, computing A @ v
    # once per step and reusing it must not change a single iterate.
    got = principal_eigenvector(g, tol=tol)
    expect = reference_principal_eigenvector(g, tol=tol, product=_adjacency_product)
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("g", EIGEN_GRAPHS, ids=EIGEN_IDS)
def test_eigenvector_close_to_dense_three_product_loop(g, tol):
    # The sparse product sums in another order than a dense matvec, so the
    # vectors may differ in the last bits (greedy eigenscore's tie rule
    # absorbs that), but no more.
    got = principal_eigenvector(g, tol=tol)
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
        got.append(greedy_eigenscore(k7, k7_target).removed_edges)
        return got

    sparse = plans()
    assert len(sparse) == 6 + 1
    for product in (dense_adjacency_product, shuffled_adjacency_product):
        monkeypatch.setattr(pathcut.attack, "_adjacency_product", product)
        assert plans() == sparse, product.__name__


def test_eigenscore_choice_on_star_with_chord():
    # Star around node 0 plus chords; eigenscores from the dense
    # eigendecomposition decide the first cut.
    edges = [(0, i, 1, 1) for i in range(1, 6)] + [(1, 2, 1, 1), (1, 3, 1, 1), (2, 4, 1, 1)]
    g = Graph(6, edges)
    p_star = Path((3, 1, 2, 4))  # length 3; (3,0,4) and (3,1,0,4) compete
    plan = greedy_eigenscore(g, p_star)
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
    assert_exclusive(g, p_star, plan)


def test_eigenscore_equals_greedy_cost_on_clique():
    g, p_star = clique_instance(7)
    a = greedy_cost(g, p_star)
    b = greedy_eigenscore(g, p_star)
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
    frozen = greedy_eigenscore(g, p_star)
    assert frozen.removed_edges == frozenset({(6, 11), (7, 11), (10, 11)})
    assert_exclusive(g, p_star, frozen)


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
            assert_exclusive(g, p_star, plan)
            assert plan.method_tag == method


def test_cost_and_weight_overrides():
    # Costs and weights are decoupled: a costly competitor still must be
    # cut, at its own price.
    p_star = Path((0, 1, 2))
    g = Graph(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 7)])
    plan = greedy_cost(g, p_star)
    assert plan.total_cost == 7
    # Heavier direct edge: nothing competes anymore.
    g = Graph(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 9, 1)])
    plan = greedy_cost(g, p_star)
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
            assert_exclusive(g, p_star, plan)
            assert plan.total_cost >= opt.total_cost


def test_vacuous_success_when_target_separates():
    # Removing the chain's competitor disconnects s from t except via the
    # protected path; the oracle returns nothing and the attack succeeds.
    g = Graph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)])
    p_star = Path((0, 1, 3))
    plan = greedy_cost(g, p_star)
    assert_exclusive(g, p_star, plan)
    assert plan.certificate[0] is None


def test_certificate_records_final_oracle_call():
    g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 4)])
    p_star = Path((0, 1, 2))
    plan = run_attack(g, p_star, AttackConfig(method="pathattack-greedy"))
    assert plan.certificate == ((0, 2), 4, 2)
    # Vacuous success leaves no competitor in the certificate.
    g5, p5 = clique_instance(5)
    plan5 = run_attack(g5, p5, AttackConfig(method="pathattack-greedy"))
    assert plan5.certificate == (None, None, 5)


@pytest.mark.parametrize("method", METHODS)
def test_certificate_when_already_exclusive(method):
    # Already exclusive: the first oracle call is the certificate.
    g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 4)])
    p_star = Path((0, 1, 2))
    plan = run_attack(g, p_star, AttackConfig(method=method))
    assert plan.removed_edges == frozenset()
    assert plan.iterations == 0
    assert plan.certificate == ((0, 2), 4, 2)
