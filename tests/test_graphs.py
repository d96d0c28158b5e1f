import pickle
import re
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, islice, permutations

import numpy as np
import pytest
from hypothesis import given

import pathcut.paths
from helpers import (
    brute_shortest,
    checked_shortest_path,
    random_graph,
    recorded,
    reference_adjacency,
    reference_shortest_path,
    residual_graph,
    skipped_searches,
    small_graph_and_pair,
)
from pathcut import (
    Graph,
    InputError,
    Path,
    TerminalCutInstance,
    create_force_path_input,
    edge_key,
    load_edge_list,
    make_cut_plan,
    path_length,
    save_edge_list,
    shortest_path,
    strictly_longer,
)
from pathcut.generators import GeneratorSpec, WeightScheme, assign_weights, generate
from pathcut.paths import PathIterator


def test_edge_key_is_order_insensitive():
    assert edge_key(3, 1) == edge_key(1, 3) == (1, 3)
    with pytest.raises(InputError):
        edge_key(2, 2)


def test_graph_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(0, 0, 1)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1, 1), (1, 0, 2)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1, -1)])
    with pytest.raises(InputError):
        Graph(2, [(0, 5, 1)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1, float("nan"))])
    with pytest.raises(InputError):
        Graph(3, [(0, 2, float("inf"))])
    with pytest.raises(InputError):
        Graph(3, [(0, 1, 1, float("inf"))])
    with pytest.raises(InputError):
        Graph(3, [(0, 1, 1, float("nan"))])
    # Ints are compared exactly, without overflow: the largest float's int
    # passes, and anything beyond it, which no float sum of lengths or
    # costs could hold, is rejected as a weight or as a cost.
    top = int(sys.float_info.max)
    assert Graph(2, [(0, 1, top, top)]).weight(0, 1) == top
    for record in [(0, 1, 10**400), (0, 1, top + 1), (0, 1, 1, 10**400), (0, 1, 1, top + 1)]:
        with pytest.raises(InputError, match=r"^weight or cost on edge \(0, 1\) is negative or not finite$"):
            Graph(2, [record])


def test_edge_lookup_both_orders():
    g = Graph(3, [(2, 0, 4, 7)])
    assert g.weight(0, 2) == g.weight(2, 0) == 4
    assert g.cost(0, 2) == g.cost(2, 0) == 7
    assert g.has_edge(2, 0) and not g.has_edge(0, 1)
    with pytest.raises(InputError):
        g.weight(0, 1)


@pytest.mark.parametrize("records, message", [
    ([(0, 1)], "edge record must be (u, v, w[, c]): (0, 1)"),
    ([("a", 1, -1)], "node id must be an integer, got 'a'"),
    ([(0, 1.0, -1)], "node id must be an integer, got 1.0"),
    ([(0, 5, -1)], "edge (0, 5) out of range for 3 nodes"),
    ([(1, 1, -1)], "self-loop at node 1"),
    ([(0, 1, 1), (1, 0, -1)], "duplicate edge (0, 1)"),
    ([(2, 0, 1, float("nan"))], "weight or cost on edge (0, 2) is negative or not finite"),
    ([5], "edge record must be (u, v, w[, c]): 5"),
    ([None], "edge record must be (u, v, w[, c]): None"),
    ([{0, 1, 2}], "edge record must be (u, v, w[, c]): {0, 1, 2}"),
    ([{5: 1, 6: 2, 7: 3}], "edge record must be (u, v, w[, c]): {5: 1, 6: 2, 7: 3}"),
    ([{0: 1, 1: 2, 2: 3}], "edge record must be (u, v, w[, c]): {0: 1, 1: 2, 2: 3}"),
])
def test_graph_checks_run_in_order_with_their_messages(records, message):
    # Each record fails several checks at once where it can; the first
    # check in order names the error.
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        Graph(3, records)


def test_graph_reads_list_and_array_records_as_tuples():
    want = Graph(3, [(0, 1, 2), (1, 2, 3, 4)]).edge_records()
    assert Graph(3, [[0, 1, 2], [1, 2, 3, 4]]).edge_records() == want
    assert Graph(3, [np.array([0, 1, 2]), np.array([1, 2, 3, 4])]).edge_records() == want


def test_graph_adjacency_matches_sorted_weight_map():
    # Records in any order and orientation file into the same sorted
    # adjacency lists as building them from the finished weight map.
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        records = [(v, u, float(rng.random())) if rng.random() < 0.5 else (u, v, int(rng.integers(0, 9)))
                   for u, v in combinations(range(n), 2) if rng.random() < 0.4]
        records = [records[i] for i in rng.permutation(len(records))]
        g = Graph(n, records)
        assert g._adjacency() == reference_adjacency(g)


def _bits(x):
    return x.hex() if isinstance(x, float) else x


def _heavy_edge_bits(g):
    # The three terminal edges create_force_path_input weighs from
    # total_weight(), as exact bits.
    fpc = create_force_path_input(TerminalCutInstance(graph=g, budget=1, terminals=(0, 1, 2)))
    return [(_bits(fpc.graph.weight(*k)), _bits(fpc.graph.cost(*k))) for k in ((0, 1), (1, 2), (0, 2))]


def _seeded_records(kind, seed):
    # Records of a seeded G(24, 0.3) in sorted key order, some written
    # (v, u); weights are ints, ints with many zeros, or floats whose sums
    # round, and costs are drawn separately.
    rng = np.random.default_rng(seed)
    floats = (0.1, 0.2, 0.3, 0.7, 1e16, 1.0)
    records = []
    for u, v in combinations(range(24), 2):
        if rng.random() >= 0.3:
            continue
        if kind == "int":
            w = int(rng.integers(1, 20))
        elif kind == "zero":
            w = int(rng.integers(0, 3)) * int(rng.integers(0, 2))
        else:
            w = floats[int(rng.integers(len(floats)))]
        c = floats[int(rng.integers(len(floats)))]
        records.append((v, u, w, c) if rng.random() < 0.5 else (u, v, w, c))
    return records


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("kind", ["int", "zero", "float"])
def test_record_order_does_not_matter(kind, seed):
    # Sorted, reversed and shuffled records build the same graph, down to
    # the maps' iteration order, the adjacency lists and the bits of
    # total_weight(), which feed create_force_path_input's heavy edges.
    # Sorted records keep the maps as read; the others rebuild them, also
    # when only the last two records are swapped.
    records = _seeded_records(kind, seed)
    shuffled = [records[i] for i in np.random.default_rng(seed).permutation(len(records))]
    swapped = records[:-2] + records[:-3:-1]
    graphs = [Graph(24, recs) for recs in (records, records[::-1], shuffled, swapped)]
    keys = sorted(edge_key(u, v) for u, v, _, _ in records)
    views = []
    for g in graphs:
        assert g == graphs[0]
        assert g.edges() == list(g.weights) == list(g.costs) == keys
        assert g._adjacency() == reference_adjacency(g)
        views.append((g.edge_records(), g._adjacency(), _bits(g.total_weight()), _heavy_edge_bits(g)))
    assert views[0] == views[1] == views[2] == views[3]


def test_float_total_weight_does_not_depend_on_record_order():
    # Summed in record order, these six weights give three different
    # floats over their 720 orders.
    weights = (0.1, 0.2, 0.3, 0.7, 1e16, 1.0)
    seen = set()
    for order in permutations(range(len(weights))):
        g = Graph(len(weights) + 1, [(i, i + 1, weights[i]) for i in order])
        seen.add((g.total_weight().hex(), tuple(_heavy_edge_bits(g))))
    assert len(seen) == 1


def test_load_edge_list_does_not_depend_on_line_order(tmp_path):
    g = Graph(24, _seeded_records("float", 5))
    save_edge_list(tmp_path / "sorted.edges", g)
    lines = (tmp_path / "sorted.edges").read_text(encoding="ascii").splitlines()
    order = np.random.default_rng(5).permutation(len(lines))
    (tmp_path / "shuffled.edges").write_text("".join(lines[i] + "\n" for i in order), encoding="ascii")
    want = load_edge_list(tmp_path / "sorted.edges")
    got = load_edge_list(tmp_path / "shuffled.edges")
    assert want.graph == got.graph == g and want.labels == got.labels
    assert got.graph.edge_records() == want.graph.edge_records() == g.edge_records()


def test_adjacency_built_concurrently_by_first_searches():
    # Threads that search a fresh graph at once may each build the
    # adjacency lists; every search must still see whole lists and return
    # the single-threaded path.
    spec = GeneratorSpec(family="er", n=120, p=0.08, seed=9)
    scheme = WeightScheme(kind="poisson", rate=5.0, seed=9)
    want = shortest_path(assign_weights(generate(spec), scheme), 0, 119)
    assert want is not None and want.num_edges >= 2
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            g = assign_weights(generate(spec), scheme)
            start = threading.Barrier(8)
            got = []

            def search():
                start.wait(timeout=10)
                got.append((len(g.neighbors(5)), shortest_path(g, 0, 119)))

            workers = [threading.Thread(target=search) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert not any(w.is_alive() for w in workers)
            assert got == [(len(reference_adjacency(g)[5]), want)] * 8
            assert g._adj == reference_adjacency(g)
    finally:
        sys.setswitchinterval(old_interval)


@pytest.mark.parametrize("weight", [1.0, pytest.param(np.float64(1), id="float64")])
def test_only_python_int_weights_are_exact(weight):
    # Sums are exact, and the distance bound and ranking cutoff apply,
    # only when every weight is an int; numpy ints are read as ints.
    assert Graph(3, [(0, 1, 1), (1, 2, np.int64(1))])._int_weights is True
    assert Graph(3, [(0, 1, 1), (1, 2, weight)])._int_weights is False


@pytest.mark.parametrize("bad", [True, np.bool_(False), Decimal("1"), Fraction(1, 3), "1", None, 1j])
def test_graph_rejects_weights_of_other_types(bad):
    # Only int (not bool) and float weights and costs, so that sums never
    # mix types and every graph round-trips through an edge list.
    shown = bad.item() if isinstance(bad, np.generic) else bad
    message = f"weight or cost on edge (1, 2) must be an int or a float, got {shown!r}"
    for record in [(2, 1, bad), (2, 1, 1, bad), (2, 1, bad, 1.5)]:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Graph(3, [(0, 1, 1), record])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1, -0.5, np.float64("nan"), np.int64(-2)])
def test_graph_rejects_negative_or_infinite_lengths(bad):
    for record in [(2, 1, bad), (2, 1, 1, bad)]:
        with pytest.raises(InputError, match=r"^weight or cost on edge \(1, 2\) is negative or not finite$"):
            Graph(3, [(0, 1, 1), record])


def test_numpy_weights_become_python_numbers():
    g = Graph(4, [(0, 1, np.int64(2), np.uint8(3)), (1, 2, np.int32(1), np.float32(0.1)),
                  (2, 3, np.float64(2.5), np.float16(1))])
    assert g.edge_records() == [(0, 1, 2, 3), (1, 2, 1, 0.10000000149011612), (2, 3, 2.5, 1.0)]
    assert [type(x) for rec in g.edge_records() for x in rec[2:]] == [int, int, int, float, float, float]


def test_numpy_and_bool_node_ids_become_int():
    g = Graph(4, [(np.int64(0), True, 2), (np.int32(3), np.uint8(1), 1, 5), (False, 2, 1)])
    assert g.edges() == [(0, 1), (0, 2), (1, 3)]
    assert all(type(x) is int for k in g.edges() for x in k)
    assert all(type(v) is int for u in range(4) for v, _ in g.neighbors(u))


def test_path_requires_simple_sequence():
    with pytest.raises(InputError, match=r"^path repeats a node: \(0, 1, 0\)$"):
        Path((0, 1, 0))
    with pytest.raises(InputError, match="^a path needs at least one node$"):
        Path(())
    for bad in ("a", 1.5):
        with pytest.raises(InputError, match=f"^node id must be an integer, got {bad!r}$"):
            Path((0, bad))
    p = Path((0, 3, 1))
    assert p.edges == ((0, 3), (1, 3))
    assert p.source == 0 and p.target == 1
    # numpy and bool ids become plain ints, in the nodes and the edge keys.
    q = Path((np.int64(2), True, np.int64(0)))
    assert q.nodes == (2, 1, 0) and q.edges == ((1, 2), (0, 1))
    assert all(type(x) is int for x in q.nodes + sum(q.edges, ()))


def test_path_length_cases():
    g = Graph(4, [(0, 1, 2), (1, 2, 5)])
    assert path_length(g, Path((0,))) == 0
    assert path_length(g, Path((0, 1, 2))) == 7
    with pytest.raises(InputError):
        path_length(g, Path((0, 2)))


def test_path_length_fifty_unit_edges():
    n = 51
    g = Graph(n, [(i, i + 1, 1) for i in range(n - 1)])
    assert path_length(g, Path(range(n))) == 50


def test_shortest_path_single_edge_and_unreachable():
    g = Graph(4, [(0, 1, 3), (2, 3, 1)])
    assert shortest_path(g, 0, 1).nodes == (0, 1)
    assert path_length(g, shortest_path(g, 0, 1)) == 3
    assert shortest_path(g, 0, 2) is None
    with pytest.raises(InputError):
        shortest_path(g, 0, 9)


def test_shortest_path_matches_enumeration_on_seeded_graph():
    # 8 nodes, 14 edges, integer weights; expected value from the DFS oracle.
    rng = np.random.default_rng(20240)
    while True:
        g = random_graph(rng, 8, 0.5)
        if g.edge_count == 14 and brute_shortest(g, 0, 7):
            break
    expect_len, expect_nodes = brute_shortest(g, 0, 7)
    got = shortest_path(g, 0, 7)
    assert got.nodes == expect_nodes
    assert path_length(g, got) == expect_len


@given(small_graph_and_pair())
def test_shortest_path_is_minimal_and_lex_smallest(case):
    g, s, t = case
    got = shortest_path(g, s, t)
    expect = brute_shortest(g, s, t)
    if expect is None:
        assert got is None
    else:
        assert (path_length(g, got), got.nodes) == expect


def test_shortest_path_deterministic_tie_break():
    # Two length-2 routes; lexicographically smaller wins.
    g = Graph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)])
    assert shortest_path(g, 0, 3).nodes == (0, 1, 3)


def test_pruned_shortest_path_matches_unpruned_reference():
    # Skipping dominated pushes must never change the returned path. Heavy
    # ties (equal and zero weights) are where the (length, nodes) tie-break
    # matters; the float weights make sums that tie or miss by rounding.
    rng = np.random.default_rng(3003)
    weight_draws = {
        "zero": lambda: int(rng.integers(0, 3)),
        "float": lambda: float(rng.choice([0.1, 0.2, 0.3, 0.7, 1.0])),
        "equal": lambda: 1,
    }
    graphs = cut_checked = 0
    for kind in ("zero", "float", "equal") * 80:
        n = int(rng.integers(4, 15))
        density = float(rng.uniform(0.2, 0.8))
        g = Graph(n, [(u, v, weight_draws[kind]())
                      for u, v in combinations(range(n), 2) if rng.random() < density])
        graphs += 1
        edges = g.edges()
        for _ in range(5):
            s, t = (int(x) for x in rng.integers(0, n, size=2))
            restrict = {}
            if rng.random() < 0.5:
                restrict["banned_nodes"] = frozenset(
                    int(x) for x in rng.integers(0, n, size=int(rng.integers(1, 3))))
            if edges and rng.random() < 0.5:
                restrict["banned_edges"] = frozenset(
                    e for e in edges if rng.random() < 0.25)
            if rng.random() < 0.4:
                restrict["allowed_nodes"] = frozenset(
                    {s, t} | {u for u in range(n) if rng.random() < 0.7})
            got = shortest_path(g, s, t, **restrict)
            expect = reference_shortest_path(g, s, t, **restrict)
            assert (got and got.nodes) == (expect and expect.nodes), (kind, s, t, restrict)
            if expect is None:
                continue
            # A limit at the path's length keeps it; one just below drops it.
            length = path_length(g, expect)
            below = length - 1 if kind != "float" else float(np.nextafter(length, -np.inf))
            assert shortest_path(g, s, t, max_length=length, **restrict).nodes == expect.nodes
            assert shortest_path(g, s, t, max_length=below, **restrict) is None
            cut_checked += 1
    assert graphs >= 200 and cut_checked > 500


def test_pruned_shortest_path_matches_reference_in_spur_searches(monkeypatch):
    # Every spur search of a ranking run on a weighted lattice agrees with
    # the unpruned reference, unbounded and with a limit of 40 paths. With
    # the limit, a search returns None exactly when the reference path is
    # longer than its cutoff, and the ranking skips the spurs that no edge
    # leaves within the cutoff. Both runs visit the same spur positions, so
    # a position is cut off in the kernel or skipped, or searched in full.
    g = assign_weights(generate(GeneratorSpec("lattice", rows=6, cols=6)),
                       WeightScheme("uniform", upper=3, seed=5))
    unbounded, calls = [], []
    cut_off = []
    search = checked_shortest_path(cut_off)
    monkeypatch.setattr(pathcut.paths, "shortest_path", recorded(search, unbounded))
    ranked = list(islice(PathIterator(g, 0, 35), 40))
    assert len(ranked) == 40
    assert sum(1 for _, _, r in unbounded if r.get("banned_nodes")) > 100
    assert not cut_off
    monkeypatch.setattr(pathcut.paths, "shortest_path", recorded(search, calls))
    assert list(PathIterator(g, 0, 35, limit=40)) == ranked
    skipped = skipped_searches(unbounded, calls)
    assert sum(1 for _, _, r in calls + skipped if r.get("banned_nodes")) > 100
    assert len(cut_off) + len(skipped) > 50


def test_distance_bound_cache_holds_one_target():
    g = assign_weights(generate(GeneratorSpec("lattice", rows=5, cols=5)),
                       WeightScheme("uniform", upper=4, seed=2))
    assert g._bound is None
    for t in range(1, 11):
        assert shortest_path(g, 0, t) == reference_shortest_path(g, 0, t)
        target, bound = g._bound
        assert (target, len(bound)) == (t, g.node_count)
    # Exact distances on integer weights: the bound at the source is the
    # length of the path found.
    assert bound[0] == path_length(g, shortest_path(g, 0, 10))
    assert g.remove_edges([(0, 1)])._bound is None


def test_distance_bound_cache_ignored_by_eq_and_kept_by_pickle():
    g = random_graph(np.random.default_rng(11), 9, 0.5)
    fresh = Graph(g.node_count, g.edge_records())
    first = shortest_path(g, 0, 8)
    assert g._bound is not None and fresh._bound is None
    assert g == fresh
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy._bound == g._bound
    assert shortest_path(copy, 0, 8) == first
    assert [p.nodes for p in islice(PathIterator(copy, 0, 8), 10)] == \
        [p.nodes for p in islice(PathIterator(fresh, 0, 8), 10)]


def test_distance_bound_unreachable_and_masked_terminals():
    g = Graph(5, [(0, 1, 2), (1, 2, 2), (3, 4, 1)])
    assert shortest_path(g, 0, 4) is None
    assert g._bound[1][0] == float("inf")
    assert shortest_path(g, 0, 2, allowed_nodes=frozenset({1, 2})) is None
    assert shortest_path(g, 0, 2, allowed_nodes=frozenset({0, 2})) is None
    assert shortest_path(g, 0, 2).nodes == (0, 1, 2)


def test_distance_bound_cache_not_fooled_by_mutated_mask():
    # The unmasked route 0-1-3 (length 2) leaves the mask {0, 2, 3}, whose
    # own route 0-2-3 has length 6. A masked search reads the whole-graph
    # bound the unmasked search cached, and keeps it.
    g = Graph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 5)])
    assert shortest_path(g, 0, 3).nodes == (0, 1, 3)
    cached = g._bound
    mask = {0, 2, 3}
    assert shortest_path(g, 0, 3, allowed_nodes=mask).nodes == (0, 2, 3)
    assert shortest_path(g, 0, 3, allowed_nodes=mask, max_length=6).nodes == (0, 2, 3)
    assert shortest_path(g, 0, 3, allowed_nodes=mask, max_length=5) is None
    assert g._bound is cached
    mask.add(1)
    assert shortest_path(g, 0, 3, allowed_nodes=mask).nodes == (0, 1, 3)


def test_bans_after_cached_unbanned_bound_match_reference():
    # The cached bound comes from an unbanned search; bans only lengthen
    # paths, so later banned searches to the same target stay exact.
    rng = np.random.default_rng(812)
    for _ in range(60):
        n = int(rng.integers(5, 12))
        g = random_graph(rng, n, float(rng.uniform(0.3, 0.8)), max_weight=4)
        s, t = 0, n - 1
        shortest_path(g, s, t)
        edges = g.edges()
        for _ in range(4):
            restrict = {
                "banned_nodes": frozenset(int(x) for x in rng.integers(1, n - 1, size=2)),
                "banned_edges": frozenset(e for e in edges if rng.random() < 0.3),
            }
            got = shortest_path(g, s, t, **restrict)
            expect = reference_shortest_path(g, s, t, **restrict)
            assert (got and got.nodes) == (expect and expect.nodes)
            assert g._bound[0] == t


def test_banned_nodes_at_the_source_match_reference():
    # Banned nodes start the search as finished nodes. A source with one
    # unbanned neighbour must leave through it; a target reached only
    # through a banned node is unreachable.
    rng = np.random.default_rng(2121)
    cases = 0
    while cases < 40:
        n = int(rng.integers(6, 12))
        g = random_graph(rng, n, float(rng.uniform(0.3, 0.8)), max_weight=4)
        s, t = 0, n - 1
        neighbours = sorted(v for v, _ in g.neighbors(s))
        if t in neighbours or len(neighbours) < 2:
            continue
        keep = neighbours[int(rng.integers(len(neighbours)))]
        banned = frozenset(neighbours) - {keep}
        got = shortest_path(g, s, t, banned_nodes=banned)
        expect = reference_shortest_path(g, s, t, banned_nodes=banned)
        assert (got and got.nodes) == (expect and expect.nodes)
        assert got is None or got.nodes[1] == keep
        cases += 1
    # Two seeded clusters {0..4} and {6..9} joined only through node 5.
    records = [(u, v, int(rng.integers(1, 5))) for block in (range(5), range(6, 10))
               for u, v in combinations(block, 2) if rng.random() < 0.8]
    records += [(3, 5, 1), (4, 5, 2), (5, 6, 1), (5, 8, 3)]
    g = Graph(10, records)
    assert 5 in shortest_path(g, 0, 9).nodes
    banned = frozenset({5})
    assert shortest_path(g, 0, 9, banned_nodes=banned) is None
    assert reference_shortest_path(g, 0, 9, banned_nodes=banned) is None


def test_banned_nodes_that_are_no_node_ids_ban_nothing():
    # An entry equal to no node id of the graph bans nothing, whatever its
    # value; an integer of another type that equals a node id bans it.
    g = Graph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)])
    n = g.node_count
    for extra in (-1, n, n + 7):
        assert shortest_path(g, 0, 3, banned_nodes=frozenset({extra})).nodes == (0, 1, 3)
        assert shortest_path(g, 0, 3, banned_nodes=frozenset({extra, 1})).nodes == (0, 2, 3)
    assert shortest_path(g, 0, 3, banned_nodes=frozenset({np.int64(1)})).nodes == (0, 2, 3)
    assert shortest_path(g, 0, 3, banned_nodes=frozenset({np.int64(1), np.int64(2)})) is None


def test_nan_max_length_is_an_input_error():
    # Both branches: a search, and s == t, which returns before searching.
    g = Graph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)])
    for t in (3, 0):
        with pytest.raises(InputError, match="max_length must not be NaN"):
            shortest_path(g, 0, t, max_length=float("nan"))
        assert shortest_path(g, 0, t, max_length=float("inf")).nodes[-1] == t


def test_remove_edges_identity_empty_and_triangle():
    tri = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    assert tri.remove_edges([]) == tri
    empty = tri.remove_edges(tri.edges())
    assert empty.edge_count == 0 and empty.node_count == 3
    chain = tri.remove_edges([(0, 2)])
    assert chain.edges() == [(0, 1), (1, 2)]
    assert chain.weight(1, 2) == 2
    with pytest.raises(InputError):
        tri.remove_edges([(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1, 1)]).remove_edges([(1, 2)])


@given(small_graph_and_pair())
def test_remove_edges_preserves_survivors(case):
    g, _, _ = case
    keys = g.edges()
    victim = keys[: len(keys) // 2]
    h = g.remove_edges(victim)
    assert h.edge_count == g.edge_count - len(victim)
    for u, v in h.edges():
        assert h.weight(u, v) == g.weight(u, v)
        assert h.cost(u, v) == g.cost(u, v)


@given(small_graph_and_pair())
def test_residual_graph_helper_matches_remove_edges(case):
    # The tests that check plans on residual graphs build them with the helper.
    g, _, _ = case
    victim = [(v, u) for u, v in g.edges()[1::2]]
    assert residual_graph(g, victim) == g.remove_edges(victim)
    with pytest.raises(InputError, match="unknown edge"):
        residual_graph(Graph(3, [(0, 1, 1)]), [(1, 2)])


@given(small_graph_and_pair())
def test_path_length_invariant_under_reversal(case):
    g, s, t = case
    p = shortest_path(g, s, t)
    if p is not None:
        assert path_length(g, p) == path_length(g, Path(p.nodes[::-1]))


def test_strictly_longer_tolerance():
    assert strictly_longer(2, 1)
    assert not strictly_longer(1, 1)
    assert not strictly_longer(1.0 + 1e-12, 1.0)
    assert strictly_longer(1.0 + 1e-8, 1.0)
    # Two ints compare exactly, also where a float ties them or overflows.
    assert not strictly_longer(2**54 + 2, 2**54 + 2)
    assert not strictly_longer(2**54 + 1, 2**54 + 2)
    assert strictly_longer(2**54 + 3, 2**54 + 2)
    assert strictly_longer(2 * 10**308 + 1, 2 * 10**308)
    assert not strictly_longer(1, 2 * 10**308)


def test_make_cut_plan_protects_target_path():
    g = Graph(3, [(0, 1, 1, 4), (1, 2, 1, 5), (0, 2, 1, 6)])
    p_star = Path((0, 1, 2))
    plan = make_cut_plan(g, p_star, [(0, 2)], "test")
    assert plan.total_cost == 6
    assert plan.removed_edges == frozenset({(0, 2)})
    with pytest.raises(InputError):
        make_cut_plan(g, p_star, [(0, 1)], "test")


def test_neighbors_is_a_copy_that_cannot_change_a_later_search():
    g = Graph(3, [(0, 1, 5), (1, 2, 5)])
    got = g.neighbors(0)
    assert got == ((1, 5),)
    with pytest.raises(AttributeError):
        got.append((2, 1))
    assert g.neighbors(0) == ((1, 5),) and not g.has_edge(0, 2)
    assert shortest_path(g, 0, 2) == Path((0, 1, 2))
    assert list(PathIterator(g, 0, 2)) == [Path((0, 1, 2))]
