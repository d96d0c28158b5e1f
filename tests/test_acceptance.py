"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Shared instance banks are module-scoped fixtures so the feasibility
runs are reused by the criteria that inspect them.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from helpers import exclusive_after, random_graph
from pathcut import AttackConfig, Graph, InstanceSkip, Path, path_length
from pathcut.attack import METHOD_GREEDY_COST, METHOD_PATHATTACK_LP, METHODS, run_attack
from pathcut.cover import lp_path_cover
from pathcut.generators import GeneratorSpec, WeightScheme, assign_weights, generate
from pathcut.graphs import shortest_path
from pathcut.harness import ExperimentConfig, run_experiments, select_p_star, select_terminals
from pathcut.lp import CutRows
from pathcut.paths import PathIterator
from pathcut.reduction import brute_force_force_path_cut, enumerate_simple_paths
from pathcut.sweeps import clique_instance, reduction_equivalence_sweep

SCHEMES = ("poisson", "uniform", "equal")
RANKS = (5, 20, 50)
FAMILY_SPECS = {
    "er": dict(family="er", n=60, p=0.12),
    "ba": dict(family="ba", n=60, m=3),
    "lattice": dict(family="lattice", rows=8, cols=8),
    "complete": dict(family="complete", n=20),
}
BANK_SEEDS = 14  # 4 families x 3 schemes x 3 ranks x 14 seeds = 504 instances


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@dataclass
class BankRun:
    family: str
    scheme: str
    rank: int
    seed: int
    graph: Graph
    p_star: Path
    plans: dict  # method -> CutPlan
    exclusive: dict  # method -> bool


def _bank_instance(family, scheme, rank, seed):
    """Deterministic instance; walks derived seeds past skips."""
    for attempt in range(20):
        mix = seed + 1000 * attempt
        g = generate(GeneratorSpec(seed=mix, **FAMILY_SPECS[family]))
        g = assign_weights(g, WeightScheme(kind=scheme, seed=mix + 7))
        try:
            s, t = select_terminals(g, "uniform", mix + 13)
            p_star = select_p_star(g, s, t, rank)
        except InstanceSkip:
            continue
        return g, p_star
    raise AssertionError(f"no viable instance for {family}/{scheme}/{rank}/{seed}")


@pytest.fixture(scope="module")
def feasibility_bank():
    runs = []
    started = time.perf_counter()
    for family in FAMILY_SPECS:
        for scheme in SCHEMES:
            for rank in RANKS:
                for seed in range(BANK_SEEDS):
                    g, p_star = _bank_instance(family, scheme, rank, seed)
                    plans, exclusive = {}, {}
                    for method in METHODS:
                        plan = run_attack(g, p_star, AttackConfig(method=method, rng_seed=seed))
                        plans[method] = plan
                        exclusive[method] = exclusive_after(g, p_star, plan.removed_edges)
                    runs.append(BankRun(family, scheme, rank, seed, g, p_star, plans, exclusive))
    elapsed = time.perf_counter() - started
    return runs, elapsed


@pytest.fixture(scope="module")
def brute_bank():
    """>= 200 instances with <= 20 cuttable edges, brute-force optimum known."""
    rng = np.random.default_rng(20240817)
    out = []
    while len(out) < 200:
        n = int(rng.integers(6, 11))
        g = random_graph(rng, n, float(rng.uniform(0.3, 0.55)))
        try:
            s, t = select_terminals(g, "uniform", int(rng.integers(2**31)))
            p_star = select_p_star(g, s, t, 3)
        except InstanceSkip:
            continue
        if g.edge_count - p_star.num_edges > 20:
            continue
        opt = brute_force_force_path_cut(g, p_star)
        lp_plan = run_attack(g, p_star, AttackConfig(method="pathattack-lp", rng_seed=len(out)))
        greedy_plan = run_attack(g, p_star, AttackConfig(method="pathattack-greedy"))
        out.append((g, p_star, opt, lp_plan, greedy_plan))
    return out


def test_criterion_1_feasibility(feasibility_bank):
    runs, elapsed = feasibility_bank
    failures = [
        (r.family, r.scheme, r.rank, r.seed, m)
        for r in runs
        for m in METHODS
        if not r.exclusive[m]
    ]
    ok = len(runs) >= 500 and not failures and elapsed < 600
    report(
        1,
        "feasibility",
        ok,
        f"{len(runs)} instances x {len(METHODS)} methods, "
        f"{len(failures)} failures, {elapsed:.0f}s",
    )


def test_criterion_2_lp_optimality(brute_bank):
    integral = [row for row in brute_bank if row[3].lp_integral]
    mismatches = [
        (opt.total_cost, lp.total_cost)
        for (_, _, opt, lp, _) in integral
        if lp.total_cost != opt.total_cost
    ]
    frac = len(integral) / len(brute_bank)
    ok = not mismatches and frac >= 0.90
    report(
        2,
        "lp-optimality",
        ok,
        f"{len(brute_bank)} instances, integral {frac:.2%}, {len(mismatches)} cost mismatches",
    )


def test_criterion_3_approximation_certificates(brute_bank):
    greedy_bad = lp_bad = bound_bad = 0
    for g, p_star, opt, lp_plan, greedy_plan in brute_bank:
        h_m = sum(1.0 / i for i in range(1, g.edge_count + 1))
        if greedy_plan.total_cost > h_m * opt.total_cost + 1e-9:
            greedy_bad += 1
        n_paths = lp_plan.constraints_generated
        bound = 4 * math.log(4 * n_paths) * lp_plan.lp_objective
        if lp_plan.total_cost > bound + 1e-9:
            bound_bad += 1
        if lp_plan.lp_objective > opt.total_cost + 1e-9:
            lp_bad += 1
    ok = greedy_bad == 0 and bound_bad == 0 and lp_bad == 0
    report(
        3,
        "approximation-certificates",
        ok,
        f"greedy>H_M*opt: {greedy_bad}, lp>4ln(4|P|)*frac: {bound_bad}, frac>opt: {lp_bad}",
    )


def test_criterion_4_clique_regression():
    bad = []
    for n in range(5, 21):
        g, p_star = clique_instance(n)
        for method in METHODS:
            plan = run_attack(g, p_star, AttackConfig(method=method, rng_seed=n))
            if plan.total_cost != n - 2:
                bad.append((n, method, "cost", plan.total_cost))
            if method.startswith("pathattack") and plan.constraints_generated > (n - 2) ** 2 + (n - 2):
                bad.append((n, method, "constraints", plan.constraints_generated))
    report(4, "clique-regression", not bad, f"N=5..20 all methods; deviations: {bad}")


def test_criterion_5_reduction_equivalence():
    checked, disagreements = reduction_equivalence_sweep(
        max_nodes=5,
        random_instances=200,
        random_nodes=6,
        eps_values=(0.5, 1.0, 10.0),
        seed=0,
    )
    report(
        5,
        "reduction-equivalence",
        disagreements == 0,
        f"{checked} checks across eps in {{0.5, 1, 10}}, {disagreements} disagreements",
    )


def test_criterion_6_constraint_parsimony():
    families = [
        GeneratorSpec(family="er", n=500, p=0.016),
        GeneratorSpec(family="ba", n=500, m=4),
    ]
    runs = within = 0
    for spec in families:
        for seed in range(10):
            g = generate(spec.reseeded(seed))
            g = assign_weights(g, WeightScheme(kind="poisson", seed=seed))
            try:
                s, t = select_terminals(g, "uniform", seed)
                p_star = select_p_star(g, s, t, 20)
            except InstanceSkip:
                continue
            plan = run_attack(g, p_star, AttackConfig(method=METHOD_PATHATTACK_LP, rng_seed=seed))
            runs += 1
            if plan.constraints_generated <= 0.05 * g.edge_count:
                within += 1
    frac = within / runs if runs else 0.0
    report(
        6,
        "constraint-parsimony",
        runs >= 15 and frac >= 0.90,
        f"{within}/{runs} runs within 5% of M ({frac:.2%})",
    )


def test_criterion_7_rounding_retries():
    from test_cover import fractional_triangle

    g, p_star, paths = fractional_triangle()
    rows = CutRows(g, p_star, paths)
    retries = [lp_path_cover(rows, rng=seed).retries for seed in range(100)]
    mean = sum(retries) / len(retries)
    report(7, "rounding-retries", mean <= 3, f"mean retries {mean:.3f} over 100 seeds")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(2)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(4, 9))
        g = random_graph(rng, n, float(rng.uniform(0.25, 0.6)))
        s, t = 0, n - 1
        expect = enumerate_simple_paths(g, s, t)
        got = [(path_length(g, p), p.nodes) for p in PathIterator(g, s, t)]
        if got != expect:
            mismatches += 1
            continue
        sp = shortest_path(g, s, t)
        if expect:
            if sp is None or (path_length(g, sp), sp.nodes) != expect[0]:
                mismatches += 1
        elif sp is not None:
            mismatches += 1
    report(8, "oracle-equivalence", mismatches == 0, f"1000 instances, {mismatches} mismatches")


def test_criterion_9_baseline_ordering(feasibility_bank):
    runs, _ = feasibility_bank
    checked = violations = 0
    for r in runs:
        lp_plan = r.plans[METHOD_PATHATTACK_LP]
        base = r.plans[METHOD_GREEDY_COST]
        if not lp_plan.lp_integral:
            continue
        checked += 1
        if lp_plan.total_cost > base.total_cost:
            violations += 1
    report(
        9,
        "baseline-ordering",
        checked > 0 and violations == 0,
        f"{checked} integral-LP runs, {violations} costlier than greedy-cost",
    )


def test_criterion_10_determinism(tmp_path):
    cfg = ExperimentConfig(
        generator=GeneratorSpec(family="er", n=40, p=0.18),
        weight_scheme=WeightScheme(kind="uniform", upper=10),
        p_star_ranks=(5, 20),
        repetitions=3,
        master_seed=99,
    )
    run_experiments(cfg, output_dir=tmp_path / "a")
    run_experiments(cfg, output_dir=tmp_path / "b")
    same = (tmp_path / "a/records.jsonl").read_bytes() == (tmp_path / "b/records.jsonl").read_bytes()
    report(10, "determinism", same, "re-run with same master seed is byte-identical")
