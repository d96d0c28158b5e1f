"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

The plan check is compared with brute-force path enumeration on small
random graphs, and every workload runs at a tiny size through both the
untraced and the traced path.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path as FsPath

import pytest

BENCH_DIR = FsPath(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (puts the library's src/ on sys.path)
from plancheck import plan_violation  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from pathcut.generators import GeneratorSpec  # noqa: E402
from pathcut.graphs import Graph, Path  # noqa: E402
from pathcut.reduction import enumerate_simple_paths  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def _exclusive_by_enumeration(g: Graph, p_star: Path, removed) -> bool:
    ranked = enumerate_simple_paths(g.remove_edges(removed), p_star.source, p_star.target)
    return ranked[0][1] == p_star.nodes and (len(ranked) == 1 or ranked[1][0] > ranked[0][0])


def _random_case(rng: random.Random):
    n = rng.randint(4, 7)
    edges = [(u, v, rng.randint(1, 3)) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.6]
    g = Graph(n, edges)
    s, t = rng.sample(range(n), 2)
    ranked = enumerate_simple_paths(g, s, t)
    if not ranked:
        return None
    p_star = Path(rng.choice(ranked)[1])
    cuttable = [e for e in g.edges() if e not in set(p_star.edges)]
    removed = [e for e in cuttable if rng.random() < 0.4]
    return g, p_star, removed


def test_plan_check_agrees_with_enumeration():
    rng = random.Random(7)
    verdicts = []
    for _ in range(400):
        case = _random_case(rng)
        if case is None:
            continue
        g, p_star, removed = case
        accepted = plan_violation(g, p_star, removed) is None
        assert accepted == _exclusive_by_enumeration(g, p_star, removed), (g.edge_records(), p_star, removed)
        verdicts.append(accepted)
    assert any(verdicts) and not all(verdicts)


def test_plan_check_rejects_tie_and_accepts_its_cut():
    # Two equal routes 0-1-3 and 0-2-3: p* = 0-1-3 only wins once 0-2-3 is cut.
    g = Graph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)])
    p_star = Path((0, 1, 3))
    assert "competing path" in plan_violation(g, p_star, [])
    assert plan_violation(g, p_star, [(0, 2)]) is None
    assert "edge of p*" in plan_violation(g, p_star, [(0, 1), (0, 2)])
    assert "does not have" in plan_violation(g, p_star, [(0, 3)])


def test_failures_compares_with_reference_and_across_passes():
    fields = {"total_cost": 1, "removed_edges": [[0, 2]], "constraints_generated": 1,
              "iterations": 1, "lp_integral": True, "rounding_retries": 0}
    checked = run.Pass(outcomes=[[fields]])
    assert run.failures(checked, [run.Pass(outcomes=[[dict(fields)]])], [[fields]]) == []
    moved = dict(fields, total_cost=2)
    assert len(run.failures(checked, [], [[moved]])) == 1
    assert len(run.failures(checked, [run.Pass(outcomes=[[moved]])], None)) == 1
    raised = run.Pass(outcomes=[[{"error": "InputError: boom"}]])
    assert len(run.failures(raised, [], None)) == 1


def test_clock_scales_wall_time_by_the_kernel():
    kernel_times = iter([run.REFERENCE_S, 3 * run.REFERENCE_S])
    clock, out = run.Clock(lambda: next(kernel_times)), run.Pass()
    clock.record(out, "setup", 1.0)
    assert out.wall["setup"] == [1.0]
    assert out.seconds["setup"] == [pytest.approx(0.5)]
    run.Clock().record(out, "setup", 2.0)
    assert out.seconds["setup"][1] == out.wall["setup"][1] == 2.0


TINY = {
    "sparse-weighted": dict(generator=GeneratorSpec(family="er", n=60, p=10 / 59),
                            rank=3, instances=2),
    "dense-ties": dict(generator=GeneratorSpec(family="complete", n=7), rank=9, instances=2),
    "lattice-hop": dict(generator=GeneratorSpec(family="lattice", rows=8, cols=8),
                        rank=4, instances=2, hop_distance=4, radius=6),
}


def test_declared_workloads_match_the_runner():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_untraced_and_traced(name, tmp_path):
    w = dataclasses.replace(WORKLOADS[name], **TINY[name])

    values, attempted, failed, passes = run.run(w, seed=3, seconds=60, trace=False)
    n = w.instances
    assert failed == [] and passes == run.PASSES and attempted == passes * n * 4
    for m in DECLARED["end_to_end"]:
        assert values[m["name"]] > 0, m["name"]

    values, attempted, failed, _ = run.run(w, seed=3, seconds=0, trace=True, spans_dir=tmp_path)
    assert failed == [] and attempted == 2 * n * 4
    missing = {m["name"] for m in DECLARED["per_layer"]} - values.keys()
    assert not missing
    assert values["attack.run_attack.calls"] == n * 4
    assert values["harness.select_p_star.calls"] == n
    assert values["paths.shortest_path.calls"] > 0
    assert (tmp_path / f"spans-{name}-seed3.jsonl").is_file()
