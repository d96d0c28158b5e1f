import dataclasses
import json
import re

import numpy as np
import pytest

from helpers import reference_select_terminals_uniform
from pathcut import Graph, InputError, InstanceSkip, Path, bfs_hops
from pathcut.generators import GeneratorSpec, WeightScheme
from pathcut.harness import (
    SELECTION_RETRIES,
    ExperimentConfig,
    ExperimentRecord,
    load_edge_list,
    neighborhood_mask,
    run_experiments,
    save_edge_list,
    select_p_star,
    select_terminals,
    summarize,
)


def write(tmp_path, text, name="g.edges"):
    f = tmp_path / name
    f.write_text(text, encoding="ascii")
    return f


def test_load_triangle_with_costs_defaulting_to_weights(tmp_path):
    f = write(tmp_path, "0 1 1\n1 2 2\n0 2 3\n")
    loaded = load_edge_list(f)
    g = loaded.graph
    assert g.edge_count == 3 and g.node_count == 3
    assert g.weight(0, 2) == 3 and g.cost(0, 2) == 3


def test_load_duplicate_keeps_first_and_warns(tmp_path, caplog):
    f = write(tmp_path, "0 1 1\n1 0 9\n")
    with caplog.at_level("WARNING"):
        g = load_edge_list(f).graph
    assert g.edge_count == 1
    assert g.weight(0, 1) == 1
    assert any("duplicate" in r.message for r in caplog.records)


def test_load_drops_self_loop_with_warning(tmp_path, caplog):
    f = write(tmp_path, "0 0 1\n0 1 2\n")
    with caplog.at_level("WARNING"):
        g = load_edge_list(f).graph
    assert g.edges() == [(0, 1)]
    assert any("self-loop" in r.message for r in caplog.records)


def test_load_parse_error_reports_line_number(tmp_path):
    f = write(tmp_path, "0 1 1\n0 2 x\n")
    with pytest.raises(InputError, match=":2:"):
        load_edge_list(f)
    f2 = write(tmp_path, "0\n", name="short.edges")
    with pytest.raises(InputError, match=":1:"):
        load_edge_list(f2)
    # NaN and infinity parse as floats but are not usable weights or costs.
    f3 = write(tmp_path, "0 1 1\n1 2 nan\n", name="nan.edges")
    with pytest.raises(InputError, match=":2:"):
        load_edge_list(f3)
    f4 = write(tmp_path, "0 1 1 inf\n", name="inf.edges")
    with pytest.raises(InputError, match=":1:"):
        load_edge_list(f4)


def test_load_unweighted_two_column_file(tmp_path):
    f = write(tmp_path, "0 1\n1 2\n")
    g = load_edge_list(f).graph
    assert g.weight(0, 1) == 1


def test_load_string_labels_first_appearance_order(tmp_path):
    f = write(tmp_path, "alice bob 2\nbob carol 3\n")
    loaded = load_edge_list(f)
    assert loaded.labels == ("alice", "bob", "carol")
    assert loaded.graph.weight(0, 1) == 2


def test_round_trip_identity(tmp_path):
    g = Graph(6, [(0, 1, 2, 5), (1, 3, 1, 1), (2, 3, 4, 4)])  # nodes 4,5 isolated
    f = tmp_path / "rt.edges"
    save_edge_list(f, g)
    assert load_edge_list(f).graph == g


def test_select_terminals_uniform_complete_graph():
    g = Graph(6, [(u, v, 1) for u in range(6) for v in range(u + 1, 6)])
    s, t = select_terminals(g, "uniform", seed=3)
    assert s != t
    assert select_terminals(g, "uniform", seed=3) == (s, t)  # deterministic


def test_select_terminals_hop_mode_path_graph():
    n = 51
    g = Graph(n, [(i, i + 1, 1) for i in range(n - 1)])
    s, t = select_terminals(g, "hop", seed=0, hop_distance=50)
    assert {s, t} == {0, 50}


def test_select_terminals_hop_mode_lattice_distance_verified_by_bfs():
    spec_edges = []
    rows = cols = 20
    for i in range(rows):
        for j in range(cols):
            node = i * cols + j
            if j + 1 < cols:
                spec_edges.append((node, node + 1, 1))
            if i + 1 < rows:
                spec_edges.append((node, node + cols, 1))
    g = Graph(rows * cols, spec_edges)
    for seed in range(5):
        s, t = select_terminals(g, "hop", seed=seed, hop_distance=10)
        assert bfs_hops(g, s)[t] == 10


@pytest.mark.parametrize("mode, kwargs, message", [
    ("hop", {"seed": 0, "hop_distance": 0}, "hop_distance must be >= 1, got 0"),
    ("hop", {"seed": 0, "hop_distance": 2.5}, "hop_distance must be an integer, got 2.5"),
    ("uniform", {"seed": -1}, "seed must be >= 0, got -1"),
    ("hop", {"seed": -3, "hop_distance": 2}, "seed must be >= 0, got -3"),
    ("uniform", {"seed": 1.5}, "seed must be an integer, got 1.5"),
])
def test_select_terminals_rejects_bad_seed_or_hop_distance(mode, kwargs, message):
    # A zero hop distance used to return s == t, and numpy rejected a
    # negative seed with a ValueError.
    g = Graph(6, [(u, v, 1) for u in range(6) for v in range(u + 1, 6)])
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        select_terminals(g, mode, **kwargs)


def test_select_terminals_skip_when_unreachable():
    g = Graph(4, [(0, 1, 1)])
    with pytest.raises(InstanceSkip):
        select_terminals(g, "hop", seed=0, hop_distance=3)


def test_uniform_terminals_match_bfs_reference_on_disconnected_graphs():
    # Uniform mode tests reachability with the distance bound to t; the
    # pairs drawn and the skips must be those of a search from s. Graphs have
    # several components, isolated nodes and int, zero or float weights;
    # the sparsest ones make most draws fail, so some seeds skip.
    rng = np.random.default_rng(2024)
    picked = skipped = 0
    for seed in range(200):
        n = int(rng.integers(1, 40))
        blocks = np.sort(rng.integers(0, n, size=int(rng.integers(1, 5))))
        density = [0.3, 0.05, 0.002][seed % 3]
        weight = [1, 0, 0.25][int(rng.integers(3))]
        records = [(u, v, weight + int(rng.integers(3)))
                   for u in range(n) for v in range(u + 1, n)
                   if np.searchsorted(blocks, u, side="right") == np.searchsorted(blocks, v, side="right")
                   and rng.random() < density]
        g = Graph(n, records)
        want = reference_select_terminals_uniform(g, seed, SELECTION_RETRIES)
        if want is None:
            with pytest.raises(InstanceSkip):
                select_terminals(g, "uniform", seed)
            skipped += 1
        else:
            assert select_terminals(g, "uniform", seed) == want
            # The bound select_p_star's first search reads is cached.
            assert g._bound[0] == want[1]
            picked += 1
    assert picked > 50 and skipped > 10


def test_select_p_star_ranks():
    g = Graph(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
    assert select_p_star(g, 0, 1, 1).nodes == (0, 1)
    p2 = select_p_star(g, 0, 1, 2)
    assert p2.num_edges == 2  # a 2-hop path of length 2
    with pytest.raises(InstanceSkip):
        select_p_star(g, 0, 1, 6)  # only 5 simple paths exist


def test_neighborhood_mask_radius():
    g = Graph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    assert neighborhood_mask(g, 0, 2) == frozenset({0, 1, 2})
    assert neighborhood_mask(g, 0, None) is None


def small_config(**over):
    base = dict(
        generator=GeneratorSpec(family="er", n=30, p=0.25),
        weight_scheme=WeightScheme(kind="uniform", upper=10),
        p_star_ranks=(5,),
        repetitions=3,
        master_seed=5,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_config_requires_one_source():
    with pytest.raises(InputError):
        ExperimentConfig()
    with pytest.raises(InputError):
        ExperimentConfig(generator=GeneratorSpec(family="er", n=5, p=0.5), edge_list="x")


def test_config_round_trips_through_json():
    cfg = small_config()
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_config_round_trip_keeps_no_mask_in_hop_mode():
    # neighborhood_cap=None means "no mask"; a null must not turn into
    # the default radius.
    cfg = small_config(terminal_mode="hop", neighborhood_cap=None)
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg and again.neighborhood_cap is None


@pytest.mark.parametrize("over, message", [
    ({"p_star_ranks": (2, 0)}, "rank must be >= 1, got 0"),
    ({"repetitions": -3}, "repetitions must be >= 0, got -3"),
    ({"repetitions": 2.5}, "repetitions must be an integer, got 2.5"),
    ({"repetitions": "3"}, "repetitions must be an integer, got '3'"),
    ({"p_star_ranks": (2.5,)}, "rank must be an integer, got 2.5"),
    ({"master_seed": 1.5}, "master_seed must be an integer, got 1.5"),
    ({"hop_distance": 2.5}, "hop_distance must be an integer, got 2.5"),
    ({"iteration_cap": 4.0}, "iteration_cap must be an integer, got 4.0"),
    ({"neighborhood_cap": 2.5}, "neighborhood_cap must be an integer, got 2.5"),
    ({"master_seed": -3}, "master_seed must be >= 0, got -3"),
    ({"iteration_cap": -1}, "iteration_cap must be >= 0, got -1"),
])
def test_config_rejects_bad_ranks_and_repetitions(over, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        small_config(**over)
    d = small_config().to_dict()
    d.update({k: list(v) if isinstance(v, tuple) else v for k, v in over.items()})
    with pytest.raises(InputError, match=f"^{message}$"):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("key, value", [
    ("p_star_ranks", 5),
    ("p_star_ranks", "5"),
    ("methods", "greedy-cost"),
    ("methods", {"greedy-cost": 1}),
])
def test_config_from_dict_rejects_non_list_sequences(key, value):
    d = small_config().to_dict()
    d[key] = value
    with pytest.raises(InputError, match=f"^{key} must be a list, got {re.escape(repr(value))}$"):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("over, message", [
    ({"hop_distance": 0}, "hop_distance must be >= 1, got 0"),
    ({"hop_distance": -1}, "hop_distance must be >= 1, got -1"),
    ({"hop_distance": 2, "neighborhood_cap": 1},
     "neighborhood_cap must be >= hop_distance (2), got 1"),
    ({"hop_distance": 2, "neighborhood_cap": 0},
     "neighborhood_cap must be >= hop_distance (2), got 0"),
])
def test_hop_config_rejects_settings_that_skip_every_instance(over, message):
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(InputError, match=pattern):
        small_config(terminal_mode="hop", **over)
    d = small_config().to_dict()
    d.update(terminal_mode="hop", **over)
    with pytest.raises(InputError, match=pattern):
        ExperimentConfig.from_dict(d)
    # Uniform mode uses neither setting.
    assert small_config(**over).terminal_mode == "uniform"


@pytest.mark.parametrize("cap", [2, None])
def test_hop_config_with_cap_reaching_t_runs_every_instance(cap):
    cfg = small_config(generator=GeneratorSpec(family="lattice", rows=5, cols=5),
                       terminal_mode="hop", hop_distance=2, neighborhood_cap=cap,
                       p_star_ranks=(1,), methods=("greedy-cost",))
    records = run_experiments(cfg)
    assert len(records) == 3 and all(r.status == "ok" for r in records)


def test_run_experiments_ratios_and_records(tmp_path):
    cfg = small_config()
    records = run_experiments(cfg, output_dir=tmp_path)
    ok = [r for r in records if r.status == "ok"]
    assert ok, "expected at least one successful run"
    for r in ok:
        if r.method == "greedy-cost":
            assert r.cost_reduction_ratio == 1.0
        elif r.cost_reduction_ratio is not None:
            base = [
                b for b in ok
                if b.run_id == r.run_id and b.method == "greedy-cost"
            ][0]
            assert r.cost_reduction_ratio == pytest.approx(r.total_cost / base.total_cost)
    assert (tmp_path / "records.jsonl").exists()
    assert (tmp_path / "timings.jsonl").exists()
    assert (tmp_path / "summary.txt").exists()
    # Records are replayable descriptors: no timing field inside.
    for line in (tmp_path / "records.jsonl").read_text().splitlines():
        assert "wall_time_s" not in json.loads(line)


def test_run_experiments_greedy_only_all_ratios_one():
    cfg = small_config(methods=("greedy-cost",))
    records = run_experiments(cfg)
    assert all(r.cost_reduction_ratio == 1.0 for r in records if r.status == "ok")


def test_run_experiments_byte_identical_records(tmp_path):
    cfg = small_config()
    run_experiments(cfg, output_dir=tmp_path / "a")
    run_experiments(cfg, output_dir=tmp_path / "b")
    assert (tmp_path / "a/records.jsonl").read_bytes() == (tmp_path / "b/records.jsonl").read_bytes()
    # timings differ run to run, but the summary always exists
    assert (tmp_path / "a/summary.txt").exists()


def test_run_experiments_records_skips():
    # Rank far beyond the path count of a tiny tree: every instance skips.
    cfg = ExperimentConfig(
        generator=GeneratorSpec(family="lattice", rows=1, cols=4),
        p_star_ranks=(50,),
        repetitions=2,
        master_seed=1,
    )
    records = run_experiments(cfg)
    assert records and all(r.status == "skip" for r in records)


def test_run_experiments_hop_mode_with_neighborhood_mask():
    cfg = ExperimentConfig(
        generator=GeneratorSpec(family="lattice", rows=9, cols=9),
        weight_scheme=WeightScheme(kind="poisson"),
        terminal_mode="hop",
        hop_distance=6,
        neighborhood_cap=8,
        p_star_ranks=(5,),
        methods=("greedy-cost", "pathattack-greedy"),
        repetitions=2,
        master_seed=2,
    )
    records = run_experiments(cfg)
    ok = [r for r in records if r.status == "ok"]
    assert ok
    for r in ok:
        s, t = r.instance["s"], r.instance["t"]
        g_nodes = r.instance["nodes"]
        assert 0 <= s < g_nodes and 0 <= t < g_nodes
        # terminals really are hop_distance apart on the regenerated graph
        spec = GeneratorSpec.from_dict(r.instance["generator"])
        from pathcut.generators import generate

        assert bfs_hops(generate(spec), s)[t] == 6


def test_summary_mentions_methods_and_counts():
    cfg = small_config()
    records = run_experiments(cfg)
    text = summarize(records)
    assert "greedy-cost" in text and "pathattack-lp" in text
    assert "ok:" in text


def test_summary_prints_a_mean_cost_beyond_the_float_range():
    # Int costs sum exactly; a mean no float holds prints as inf.
    record = ExperimentRecord(run_id="r0", instance={}, method="greedy-cost", status="ok",
                              total_cost=2 * 10**308, cost_reduction_ratio=1.0, wall_time_s=0.5)
    line = next(x for x in summarize([record]).splitlines() if x.startswith("greedy-cost"))
    assert line.split()[1:4] == ["1", "inf", "1.0000"]


def test_config_accepts_zero_seed_and_zero_cap():
    cfg = small_config(master_seed=0, iteration_cap=0)
    assert (cfg.master_seed, cfg.iteration_cap) == (0, 0)


@pytest.mark.parametrize("d", [[1], 3, "config", None])
def test_config_from_dict_rejects_non_object(d):
    with pytest.raises(InputError, match="^experiment config must be an object"):
        ExperimentConfig.from_dict(d)


def test_load_edge_list_names_unreadable_and_non_ascii_files(tmp_path):
    missing = tmp_path / "missing.edges"
    with pytest.raises(InputError, match=f"^{re.escape(str(missing))}: cannot read"):
        load_edge_list(missing)
    f = tmp_path / "latin.edges"
    f.write_bytes(b"0 1 1\n1 2 \xe9\n")
    with pytest.raises(InputError, match=f"^{re.escape(str(f))}: non-ASCII byte 0xe9 at offset 10$"):
        load_edge_list(f)


def test_load_edge_list_line_numbers_count_every_newline(tmp_path):
    # Lines end at \n, \r\n or \r, as when the file is read in text mode.
    f = tmp_path / "mixed.edges"
    f.write_bytes(b"0 1\r\n# comment\r1 2\n\n2 3 x\n")
    with pytest.raises(InputError, match="mixed.edges:5: not a number: 'x'$"):
        load_edge_list(f)


def test_save_edge_list_round_trips_numpy_scalars(tmp_path):
    g = Graph(4, [(0, 1, np.int64(2), np.int32(7)), (1, 2, np.float64(1.5), np.float32(0.1)),
                  (2, 3, np.int64(3), np.float64(2.5))])
    f = tmp_path / "np.edges"
    save_edge_list(f, g)
    assert "np." not in f.read_text(encoding="ascii")
    assert load_edge_list(f).graph == g


@pytest.mark.parametrize("value", [0, 7, 10**20, 0.0, 0.1, 1e-300, 1.5e300, np.int64(3), np.uint8(4),
                                   np.int32(7), np.float32(0.1), np.float64(2.5)])
def test_save_edge_list_round_trips_every_accepted_type(tmp_path, value):
    # Every accepted weight and cost is stored as an int or a float, and
    # loads back as the same number of the same type.
    g = Graph(3, [(0, 1, value), (1, 2, 1, value)])
    f = tmp_path / "one.edges"
    save_edge_list(f, g)
    loaded = load_edge_list(f).graph
    assert loaded == g
    assert [type(x) for rec in loaded.edge_records() for x in rec[2:]] == [
        type(x) for rec in g.edge_records() for x in rec[2:]]


def test_save_edge_list_writes_python_numbers_by_repr(tmp_path):
    g = Graph(3, [(0, 1, 2, 0.1), (1, 2, 1e-300, 10**20)])
    f = tmp_path / "py.edges"
    save_edge_list(f, g)
    assert f.read_text(encoding="ascii") == "#nodes 3\n0 1 2 0.1\n1 2 1e-300 100000000000000000000\n"
    assert load_edge_list(f).graph == g


def test_run_experiments_on_an_edge_list_records_each_attack_error(tmp_path):
    g = Graph(6, [(u, v, 1) for u in range(6) for v in range(u + 1, 6)])
    f = tmp_path / "k6.edges"
    save_edge_list(f, g)
    cfg = ExperimentConfig(edge_list=str(f), p_star_ranks=(2,), repetitions=2, master_seed=3)
    capped = run_experiments(dataclasses.replace(cfg, iteration_cap=0), output_dir=tmp_path / "out")
    uncapped = run_experiments(cfg)
    assert [r.method for r in capped] == [r.method for r in uncapped]
    for r, ok in zip(capped, uncapped):
        assert ok.status == "ok"
        assert (r.status, r.error_category) == ("error", "iteration-limit")
        assert r.instance == ok.instance and r.instance["source"] == str(f)
        assert "generator" not in r.instance
        # The attack seed: the one the uncapped LP run consumed.
        lp = [x for x in uncapped if x.run_id == r.run_id and x.method == "pathattack-lp"][0]
        assert r.seed == lp.seed is not None
        assert r.total_cost is None and r.wall_time_s >= 0
    records = [json.loads(line) for line in (tmp_path / "out/records.jsonl").read_text().splitlines()]
    timings = [json.loads(line) for line in (tmp_path / "out/timings.jsonl").read_text().splitlines()]
    assert len(records) == len(timings) == len(capped)
    assert all("wall_time_s" not in r for r in records)
    assert [(t["run_id"], t["method"]) for t in timings] == [(r.run_id, r.method) for r in capped]
