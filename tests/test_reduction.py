import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_graph, residual_graph
from pathcut import Graph, InputError, Path, SizeError, path_length
from pathcut.reduction import (
    TerminalCutInstance,
    brute_force_3tc,
    brute_force_force_path_cut,
    create_force_path_input,
    enumerate_simple_paths,
    solve_3tc_via_fpc,
)
from pathcut.sweeps import clique_instance, reduction_equivalence_sweep


def test_instance_validation():
    g = Graph(3, [(0, 1, 1)])
    with pytest.raises(InputError):
        TerminalCutInstance(graph=g, budget=1, terminals=(0, 1, 1))
    with pytest.raises(InputError):
        TerminalCutInstance(graph=g, budget=-1, terminals=(0, 1, 2))
    # Accepted, a NaN budget made the transformation answer False on the
    # path 0-1-2, where brute force answers True.
    path = Graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(InputError, match="budget must be nonnegative"):
        TerminalCutInstance(graph=path, budget=math.nan, terminals=(0, 1, 2))


def test_transform_path_graph():
    # s1-a-s2-b-s3 with unit weights: w_all=4, eps=1 gives 6, 6, 11.
    g = Graph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    inst = TerminalCutInstance(graph=g, budget=3, terminals=(0, 2, 4))
    fpc = create_force_path_input(inst, eps=1)
    assert fpc.graph.weights[(0, 2)] == 6
    assert fpc.graph.weights[(2, 4)] == 6
    assert fpc.graph.weights[(0, 4)] == 11
    assert fpc.graph.costs[(0, 4)] == 11  # costs equal weights
    assert fpc.pre_removed == frozenset()
    assert fpc.budget == 3
    assert fpc.p_star == Path((0, 4))


def test_transform_consumes_existing_terminal_edge():
    # Edge {s1,s2} of weight 3 is spent up front: budget 10 -> 7, and the
    # pair gets the heavy replacement weight w_all + 2*eps.
    g = Graph(4, [(0, 1, 3), (1, 3, 2), (0, 3, 1), (2, 3, 4)])
    inst = TerminalCutInstance(graph=g, budget=10, terminals=(0, 1, 2))
    fpc = create_force_path_input(inst, eps=1)
    assert fpc.pre_removed == frozenset({(0, 1)})
    assert fpc.budget == 7
    w_all = 10
    assert fpc.graph.weights[(0, 1)] == w_all + 2
    assert fpc.graph.weights[(1, 2)] == w_all + 2
    assert fpc.graph.weights[(0, 2)] == 2 * w_all + 3


def test_transform_edgeless_graph():
    g = Graph(3)
    inst = TerminalCutInstance(graph=g, budget=0, terminals=(0, 1, 2))
    fpc = create_force_path_input(inst, eps=1)
    assert fpc.graph.weights[(0, 1)] == 2
    assert fpc.graph.weights[(1, 2)] == 2
    assert fpc.graph.weights[(0, 2)] == 3
    assert fpc.graph.edge_count == 3


def test_transform_requires_positive_eps():
    g = Graph(3)
    inst = TerminalCutInstance(graph=g, budget=0, terminals=(0, 1, 2))
    with pytest.raises(InputError):
        create_force_path_input(inst, eps=0)
    for eps in (math.nan, math.inf, 10**400):
        with pytest.raises(InputError, match=f"eps must be positive and finite, got {eps}"):
            create_force_path_input(inst, eps=eps)


@pytest.mark.parametrize("eps", [Decimal("1"), Fraction(1, 2), True, "1"], ids=repr)
def test_transform_rejects_eps_that_is_not_an_int_or_a_float(eps):
    # The weight rule of Graph: int (not bool) or float, named in the error.
    inst = TerminalCutInstance(graph=Graph(3, [(0, 1, 1)]), budget=0, terminals=(0, 1, 2))
    message = f"eps must be an int or a float, got {eps!r}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        create_force_path_input(inst, eps=eps)


def test_transform_accepts_int_and_float_eps():
    inst = TerminalCutInstance(graph=Graph(3, [(0, 1, 1)]), budget=0, terminals=(0, 1, 2))
    for eps, heavy in ((1, 3), (1.0, 3.0), (np.float64(0.5), 2.0)):
        fpc = create_force_path_input(inst, eps=eps)
        assert fpc.graph.weights[(1, 2)] == heavy
        assert type(fpc.graph.weights[(1, 2)]) is type(heavy)


def test_solve_triangle_budgets():
    tri = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    yes = TerminalCutInstance(graph=tri, budget=3, terminals=(0, 1, 2))
    no = TerminalCutInstance(graph=tri, budget=2, terminals=(0, 1, 2))
    assert brute_force_3tc(yes) and solve_3tc_via_fpc(yes)
    assert not brute_force_3tc(no) and not solve_3tc_via_fpc(no)


def test_solve_star_budgets():
    star = Graph(4, [(3, 0, 1), (3, 1, 1), (3, 2, 1)])
    two = TerminalCutInstance(graph=star, budget=2, terminals=(0, 1, 2))
    one = TerminalCutInstance(graph=star, budget=1, terminals=(0, 1, 2))
    assert brute_force_3tc(two) and solve_3tc_via_fpc(two)
    assert not brute_force_3tc(one) and not solve_3tc_via_fpc(one)


def test_already_separated_terminals_zero_budget():
    g = Graph(5, [(0, 3, 2), (1, 4, 2)])
    inst = TerminalCutInstance(graph=g, budget=0, terminals=(0, 1, 2))
    assert brute_force_3tc(inst) and solve_3tc_via_fpc(inst)


def test_negative_residual_budget_is_false():
    # Inter-terminal edges exceed the budget before anything else happens.
    g = Graph(3, [(0, 1, 5), (1, 2, 5)])
    inst = TerminalCutInstance(graph=g, budget=4, terminals=(0, 1, 2))
    assert not solve_3tc_via_fpc(inst)
    assert not brute_force_3tc(inst)


def test_eps_invariance():
    rng = np.random.default_rng(17)
    for _ in range(15):
        g = random_graph(rng, 5, 0.7, max_weight=2)
        for b in (0, 2, 4, g.total_weight()):
            inst = TerminalCutInstance(graph=g, budget=b, terminals=(0, 1, 2))
            answers = {solve_3tc_via_fpc(inst, eps=e) for e in (0.5, 1, 10)}
            assert len(answers) == 1


def test_path_confinement_in_solved_instances():
    # After solving the transformed instance, the only surviving routes
    # between the protected endpoints are the direct heavy edge and the
    # two-hop heavy detour.
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 10:
        g = random_graph(rng, 5, 0.6, max_weight=2)
        inst = TerminalCutInstance(graph=g, budget=g.total_weight(), terminals=(0, 1, 2))
        fpc = create_force_path_input(inst, eps=1)
        plan = brute_force_force_path_cut(fpc.graph, fpc.p_star)
        if not brute_force_3tc(inst):
            continue
        checked += 1
        residual = residual_graph(fpc.graph, plan.removed_edges)
        survivors = [nodes for _, nodes in enumerate_simple_paths(residual, 0, 2)]
        assert survivors == [(0, 2), (0, 1, 2)] or survivors == [(0, 1, 2), (0, 2)]


def test_brute_force_fpc_examples():
    for n in (5, 6, 7):  # 20 cuttable edges at n=7
        g, p_star = clique_instance(n)
        assert brute_force_force_path_cut(g, p_star).total_cost == n - 2
    trivial = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 9)])
    assert brute_force_force_path_cut(trivial, Path((0, 1, 2))).total_cost == 0


def test_brute_force_fpc_above_fractional_lp():
    from test_cover import fractional_triangle

    g, p_star, _ = fractional_triangle()
    plan = brute_force_force_path_cut(g, p_star)
    # Integral optimum 2, strictly above the 1.5 fractional value.
    assert plan.total_cost == 2


def test_brute_force_size_errors():
    g, p_star = clique_instance(9)  # 36 edges, 35 cuttable
    with pytest.raises(SizeError):
        brute_force_force_path_cut(g, p_star)
    inst = TerminalCutInstance(graph=g, budget=1, terminals=(0, 1, 2))
    with pytest.raises(SizeError):
        brute_force_3tc(inst)


def test_brute_force_deterministic_tie_break():
    # Two disjoint competitor rows, cheapest hits cost 2+1; among the
    # cost-3 optima the lexicographically smallest edge set must win.
    g = Graph(4, [(0, 1, 1, 2), (1, 3, 1, 2), (0, 2, 1, 1), (2, 3, 1, 1), (0, 3, 5, 4)])
    p_star = Path((0, 3))
    plan = brute_force_force_path_cut(g, p_star)
    assert plan.total_cost == 3
    assert plan.removed_edges == frozenset({(0, 1), (0, 2)})
    for _ in range(3):
        assert brute_force_force_path_cut(g, p_star).removed_edges == plan.removed_edges


def test_enumeration_is_sorted_and_complete():
    g = Graph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 2), (1, 2, 1)])
    ranked = enumerate_simple_paths(g, 0, 3)
    lengths = [L for L, _ in ranked]
    assert lengths == sorted(lengths)
    assert {nodes for _, nodes in ranked} == {
        (0, 1, 3), (0, 2, 3), (0, 1, 2, 3), (0, 2, 1, 3),
    }


def test_small_sweep_agrees():
    checked, disagreements = reduction_equivalence_sweep(
        max_nodes=4, random_instances=10, seed=1
    )
    assert checked > 1000
    assert disagreements == 0
