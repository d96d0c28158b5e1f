import pathlib
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings

import helpers
import pathcut.paths
from helpers import (
    brute_sorted_paths,
    checked_shortest_path,
    random_graph,
    recorded,
    reference_path_iterator,
    reference_shortest_path,
    residual_graph,
    skipped_searches,
    small_graph_and_pair,
)
from pathcut import Graph, InputError, Path, bfs_hops, path_length, shortest_path
from pathcut.generators import GeneratorSpec, WeightScheme, assign_weights, generate
from pathcut.attack import AttackConfig, run_attack
from pathcut.harness import load_edge_list, neighborhood_mask, select_p_star, select_terminals
from pathcut.paths import PathIterator, k_shortest_paths, next_shortest_excluding
from pathcut.reduction import enumerate_simple_paths
from pathcut.sweeps import clique_instance


def test_unique_path_exhausts_early():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    assert [p.nodes for p in k_shortest_paths(g, 0, 2, 2)] == [(0, 1, 2)]


def test_four_clique_first_five_lengths():
    # s=0, t=1: one direct edge, two 2-hop, two 3-hop paths.
    g = Graph(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
    got = k_shortest_paths(g, 0, 1, 5)
    assert [path_length(g, p) for p in got] == [1, 2, 2, 3, 3]
    assert [p.nodes for p in got] == [(0, 1), (0, 2, 1), (0, 3, 1), (0, 2, 3, 1), (0, 3, 2, 1)]


def test_k1_equals_shortest_path():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(rng, 7, 0.5)
        sp = shortest_path(g, 0, 6)
        ranked = k_shortest_paths(g, 0, 6, 1)
        if sp is None:
            assert ranked == []
        else:
            assert ranked[0] == sp


def test_k_validation():
    g = Graph(2, [(0, 1, 1)])
    with pytest.raises(InputError):
        k_shortest_paths(g, 0, 1, 0)
    with pytest.raises(InputError):
        PathIterator(g, 1, 1)
    with pytest.raises(InputError, match="limit must be >= 0, got -1"):
        PathIterator(g, 0, 1, limit=-1)
    assert list(PathIterator(g, 0, 1, limit=0)) == []
    # A non-integer count used to run the limit past zero and fail with an
    # IndexError once the candidates ran out.
    clique = clique_instance(6)[0]
    with pytest.raises(InputError, match="k must be an integer, got 2.5"):
        k_shortest_paths(clique, 0, 1, 2.5)
    with pytest.raises(InputError, match="rank must be an integer, got 2.5"):
        select_p_star(clique, 0, 1, 2.5)
    for limit in (2.5, "3"):
        with pytest.raises(InputError, match="limit must be an integer, got "):
            PathIterator(clique, 0, 1, limit=limit)
    assert len(k_shortest_paths(clique, 0, 1, np.int64(3))) == 3


def test_unreachable_gives_empty():
    g = Graph(4, [(0, 1, 1), (2, 3, 1)])
    assert k_shortest_paths(g, 0, 3, 4) == []


@given(small_graph_and_pair())
def test_iterator_matches_brute_force_order(case):
    g, s, t = case
    expect = brute_sorted_paths(g, s, t)
    got = [(path_length(g, p), p.nodes) for p in PathIterator(g, s, t)]
    assert got == expect


@given(small_graph_and_pair())
def test_iterator_lengths_nondecreasing_and_unique(case):
    g, s, t = case
    seen = set()
    prev = None
    for p in PathIterator(g, s, t):
        length = path_length(g, p)
        assert p.nodes not in seen
        seen.add(p.nodes)
        if prev is not None:
            assert length >= prev
        prev = length


def test_next_shortest_excluding_trivial_cases():
    # Only the target path exists.
    chain = Graph(3, [(0, 1, 1), (1, 2, 1)])
    p_star = Path((0, 1, 2))
    assert next_shortest_excluding(chain, 0, 2, p_star) is None
    # Triangle: the only alternative is the direct edge.
    tri = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    alt = next_shortest_excluding(tri, 0, 2, Path((0, 1, 2)))
    assert alt.nodes == (0, 2) and path_length(tri, alt) == 1


def test_next_shortest_excluding_matches_enumeration():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 25:
        g = random_graph(rng, 8, 0.4)
        ranked = brute_sorted_paths(g, 0, 7)
        if len(ranked) < 2:
            continue
        checked += 1
        p_star = Path(ranked[int(rng.integers(len(ranked)))][1])
        expect = next(nodes for _, nodes in ranked if nodes != p_star.nodes)
        assert next_shortest_excluding(g, 0, 7, p_star).nodes == expect


def test_oracle_accepts_target_with_missing_edges():
    # The descriptor's edges need not exist in the (residual) graph.
    g = Graph(3, [(0, 2, 5)])
    ghost = Path((0, 1, 2))
    assert next_shortest_excluding(g, 0, 2, ghost).nodes == (0, 2)


def test_node_mask_restricts_enumeration():
    # Square with a shortcut through node 4; masking 4 out removes it.
    g = Graph(5, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 2, 1), (0, 4, 1), (4, 2, 1)])
    full = [p.nodes for p in k_shortest_paths(g, 0, 2, 10)]
    masked = [p.nodes for p in k_shortest_paths(g, 0, 2, 10, allowed_nodes={0, 1, 2, 3})]
    assert (0, 4, 2) in full
    assert masked == [(0, 1, 2), (0, 3, 2)]


def test_zero_weight_edges_keep_exact_ordering():
    # Weights may be 0; ties then cascade and the (length, sequence)
    # ordering must still match the enumeration oracle exactly.
    from itertools import combinations

    rng = np.random.default_rng(99)
    for _ in range(150):
        n = int(rng.integers(3, 8))
        records = [
            (u, v, int(rng.integers(0, 3)))
            for u, v in combinations(range(n), 2)
            if rng.random() < 0.45
        ]
        g = Graph(n, records)
        expect = brute_sorted_paths(g, 0, n - 1)
        got = [(path_length(g, p), p.nodes) for p in PathIterator(g, 0, n - 1)]
        assert got == expect


@settings(max_examples=30)
@given(small_graph_and_pair(max_nodes=7))
def test_exclusivity_predicate(case):
    # The oracle answer is strictly longer iff the chosen target is the
    # exclusive shortest path.
    g, s, t = case
    ranked = brute_sorted_paths(g, s, t)
    if not ranked:
        return
    p_star = Path(ranked[0][1])
    alt = next_shortest_excluding(g, s, t, p_star)
    others = [entry for entry in ranked if entry[1] != p_star.nodes]
    exclusive = not others or others[0][0] > ranked[0][0]
    if alt is None:
        assert not others
    else:
        assert (path_length(g, alt) > ranked[0][0]) == exclusive


def test_banned_edges_equal_removed_edges():
    # Banning edges must rank exactly as removing them from the graph:
    # same oracle answer, same first k paths, with zero weights and masks.
    rng = np.random.default_rng(2104)
    for _ in range(40):
        n = int(rng.integers(4, 9))
        records = [
            (u, v, int(rng.integers(0, 4)))
            for u, v in combinations(range(n), 2)
            if rng.random() < 0.5
        ]
        g = Graph(n, records)
        ranked = brute_sorted_paths(g, 0, n - 1)
        if not ranked:
            continue
        p_star = Path(ranked[int(rng.integers(len(ranked)))][1])
        mask = None
        if rng.random() < 0.5:
            mask = {0, n - 1} | {u for u in range(n) if rng.random() < 0.7}
        edges = g.edges()
        for _ in range(4):
            cut = [edges[i] for i in range(len(edges)) if rng.random() < 0.3]
            # Either orientation names the same edge.
            banned = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in cut]
            residual = residual_graph(g, cut)
            got = next_shortest_excluding(g, 0, n - 1, p_star, banned_edges=banned)
            expect = next_shortest_excluding(residual, 0, n - 1, p_star)
            assert (got and got.nodes) == (expect and expect.nodes)
            got = PathIterator(g, 0, n - 1, allowed_nodes=mask, banned_edges=banned)
            expect = PathIterator(residual, 0, n - 1, allowed_nodes=mask)
            assert [p.nodes for p in islice(got, 6)] == [p.nodes for p in islice(expect, 6)]


def test_banned_edges_in_any_form_rank_alike(monkeypatch):
    # A frozenset of the graph's edge keys reaches the searches as it is;
    # every other form is canonicalized first, with the same errors.
    rng = np.random.default_rng(2323)
    g = random_graph(rng, 9, 0.6)
    n = g.node_count
    edges = g.edges()
    ranked = brute_sorted_paths(g, 0, n - 1)
    p_star = Path(ranked[len(ranked) // 2][1])
    cut = [e for e in edges if e not in p_star.edges and rng.random() < 0.3]
    forms = {
        "canonical frozenset": lambda: frozenset(cut),
        "reversed list": lambda: [(v, u) for u, v in cut],
        "set": lambda: set(cut),
        "generator": lambda: ((v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(cut)),
        "frozenset with a reversed key": lambda: frozenset(cut[:-1] + [cut[-1][::-1]]),
    }
    residual = residual_graph(g, cut)
    expect_paths = [p.nodes for p in islice(PathIterator(residual, 0, n - 1), 8)]
    expect_next = next_shortest_excluding(residual, 0, n - 1, p_star)
    assert expect_paths != [p.nodes for p in islice(PathIterator(g, 0, n - 1), 8)]
    for name, form in forms.items():
        got = [p.nodes for p in islice(PathIterator(g, 0, n - 1, banned_edges=form()), 8)]
        assert got == expect_paths, name
        assert next_shortest_excluding(g, 0, n - 1, p_star, banned_edges=form()) == expect_next, name
    bans = []

    def recorded(*args, **kwargs):
        bans.append(kwargs["banned_edges"])
        return shortest_path(*args, **kwargs)

    monkeypatch.setattr(pathcut.paths, "shortest_path", recorded)
    canonical = frozenset(cut)
    PathIterator(g, 0, n - 1, banned_edges=canonical)
    assert bans[-1] is canonical
    PathIterator(g, 0, n - 1, banned_edges=set(cut))
    assert bans[-1] == canonical and type(bans[-1]) is frozenset
    for bad, error in (((1, 1), InputError), ((0, 1, 2), TypeError)):
        for form in (frozenset({bad}), [bad], frozenset({bad, edges[0]})):
            with pytest.raises(error):
                PathIterator(g, 0, n - 1, banned_edges=form)
            with pytest.raises(error):
                next_shortest_excluding(g, 0, n - 1, p_star, banned_edges=form)


def _ranked(g, s, t, count, **restrict):
    return [p.nodes for p in islice(PathIterator(g, s, t, **restrict), count)]


def _weight_draws(rng):
    """Edge weight samplers: small ints, zeros, all equal, up to 1e12, and
    floats whose sums tie or miss by rounding."""
    return {
        "int": lambda: int(rng.integers(1, 6)),
        "zero": lambda: int(rng.choice([0, 0, 1])),
        "equal": lambda: 4,
        "huge": lambda: int(rng.integers(1, 10**12 + 1)),
        "float": lambda: float(rng.choice([0.1, 0.2, 0.3, 0.6, 0.7])),
    }


def _random_case(rng, draw, n_range=(5, 10)):
    """A random graph, terminals, and a mask and bans half the time."""
    n = int(rng.integers(*n_range))
    density = float(rng.uniform(0.4, 0.9))
    g = Graph(n, [(u, v, draw()) for u, v in combinations(range(n), 2) if rng.random() < density])
    s, t = (int(x) for x in rng.choice(n, size=2, replace=False))
    restrict = {}
    if rng.random() < 0.4:
        restrict["allowed_nodes"] = {s, t} | {u for u in range(n) if rng.random() < 0.7}
    if rng.random() < 0.5:
        restrict["banned_edges"] = [e for e in g.edges() if rng.random() < 0.2]
    return g, s, t, restrict


def test_ranked_paths_match_unbounded_reference(monkeypatch):
    # The goal-directed search must rank exactly as plain Dijkstra does:
    # the iterator with the library kernel against the same iterator with
    # the unbounded reference kernel. Integer kinds run with the exact
    # distance bound, the float kind with the reachability-only bound. The
    # iterator limited to 60 paths must rank the same, with every spur
    # search checked against the reference: None exactly when the
    # reference path is longer than the cutoff, the same nodes otherwise.
    # It makes the unbounded run's searches, less the spurs it skips.
    rng = np.random.default_rng(4406)
    weight_draws = _weight_draws(rng)
    graphs = compared = 0
    cut_off = {kind: [] for kind in weight_draws}
    skipped = {kind: [] for kind in weight_draws}
    for kind in list(weight_draws) * 60:
        g, s, t, restrict = _random_case(rng, weight_draws[kind])
        got = _ranked(g, s, t, 60, **restrict)
        unbounded, calls = [], []
        with monkeypatch.context() as m:
            m.setattr(pathcut.paths, "shortest_path", recorded(reference_shortest_path, unbounded))
            expect = _ranked(g, s, t, 60, **restrict)
        with monkeypatch.context() as m:
            m.setattr(pathcut.paths, "shortest_path", recorded(checked_shortest_path(cut_off[kind]), calls))
            bounded = [p.nodes for p in PathIterator(g, s, t, limit=60, **restrict)]
        assert got == expect == bounded, (kind, s, t, restrict)
        skipped[kind] += skipped_searches(unbounded, calls)
        graphs += 1
        compared += len(got)
    assert graphs >= 300 and compared > 5000
    # Float weights rank without a cutoff; every int kind cuts searches off,
    # in the kernel or by skipping the spur.
    assert not cut_off.pop("float") and not skipped.pop("float")
    assert all(len(cut_off[k]) + len(skipped[k]) > 50 for k in cut_off), \
        {k: (len(cut_off[k]), len(skipped[k])) for k in cut_off}


def test_the_ranking_is_lazy(monkeypatch):
    # The call makes the first search; a yielded path spawns its spur
    # searches only when the next path is requested.
    g, _ = clique_instance(6)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return shortest_path(*args, **kwargs)

    monkeypatch.setattr(pathcut.paths, "shortest_path", counted)
    ranking = PathIterator(g, 0, 1)
    assert len(calls) == 1
    first = next(ranking)
    assert len(calls) == 1
    next(ranking)
    assert len(calls) == 1 + len(first.nodes) - 1
    calls.clear()
    # The first path is not p*, so the oracle stops after one search.
    assert next_shortest_excluding(g, 0, 1, Path((0, 1))) == first
    assert len(calls) == 1


def test_bounded_ranking_is_a_prefix_of_the_unbounded_one(monkeypatch):
    # For every k from 1 to 60, the iterator limited to k paths yields the
    # first k of the unbounded ranking, or all of it when there are fewer.
    # It makes the searches the unbounded ranking makes up to its k-th
    # path, less the spurs it skips. k_shortest_paths, which passes k as
    # the limit, agrees on masks.
    rng = np.random.default_rng(1414)
    weight_draws = _weight_draws(rng)
    short = cut = 0
    for kind in list(weight_draws) * 6:
        g, s, t, restrict = _random_case(rng, weight_draws[kind], (4, 9))
        unbounded, made = [], []  # made[j]: searches before the (j + 1)-th path
        with monkeypatch.context() as m:
            m.setattr(pathcut.paths, "shortest_path", recorded(shortest_path, unbounded))
            full = []
            for p in islice(PathIterator(g, s, t, **restrict), 61):
                made.append(len(unbounded))
                full.append(p.nodes)
        cut_off = []
        skipped = 0
        with monkeypatch.context() as m:
            for k in range(1, 61):
                calls = []
                m.setattr(pathcut.paths, "shortest_path", recorded(checked_shortest_path(cut_off), calls))
                ranking = PathIterator(g, s, t, limit=k, **restrict)
                got = []
                for p in ranking:
                    got.append(p.nodes)
                    # Only the candidates that can still be yielded are kept.
                    assert len(ranking.gi_frame.f_locals["candidates"]) <= k - len(got)
                assert got == full[:k], (kind, k, s, t, restrict)
                short += len(full) < k
                before_kth = unbounded[:made[k - 1]] if k <= len(full) else unbounded
                skipped += len(skipped_searches(before_kth, calls))
        mask = restrict.get("allowed_nodes")
        for k in (1, 2, 5, 60):
            assert [p.nodes for p in k_shortest_paths(g, s, t, k, allowed_nodes=mask)] == \
                _ranked(g, s, t, k, allowed_nodes=mask)
        assert kind != "float" or not (cut_off or skipped)
        cut += len(cut_off) + skipped
    assert short > 700 and cut > 500, (short, cut)


def test_oracle_agrees_with_unbounded_iterator(monkeypatch):
    # next_shortest_excluding ranks at most two paths; it must return the
    # first path of the unbounded ranking that is not p*, for p* anywhere
    # in the ranking, absent from it, or a ghost whose edges are missing,
    # with and without bans. When its first search returns a path other
    # than p*, that search is the only one. Hinted that a p* of the
    # ranking comes first, it gives the same answer with int weights, and
    # when p* is first it skips the first search and makes the others;
    # float graphs ignore the hint. A first search is capped at len(p*)
    # when p* is live (an s-t path of g minus the bans) and uncapped
    # otherwise: for a ghost, or for a p* through a banned edge.
    rng = np.random.default_rng(2718)
    weight_draws = _weight_draws(rng)
    calls, caps = [], []

    def capped(g, s, t, max_length=None, **restrict):
        caps.append(max_length)
        return shortest_path(g, s, t, max_length=max_length, **restrict)

    monkeypatch.setattr(pathcut.paths, "shortest_path", recorded(capped, calls))

    def searches(**hint):
        calls.clear()
        caps.clear()
        got = next_shortest_excluding(g, s, t, Path(star), banned_edges=banned, **hint)
        return (got and got.nodes), list(calls)

    checked = answered_first = 0
    hinted = dict.fromkeys(["first", "later", "float"], 0)
    uncapped = dict.fromkeys(["ghost", "banned"], 0)
    for kind in list(weight_draws) * 30:
        g, s, t, restrict = _random_case(rng, weight_draws[kind])
        banned = restrict.get("banned_edges", ())
        ranked = _ranked(g, s, t, 8, banned_edges=banned)
        ghost = (s,) + tuple(u for u in range(g.node_count) if u not in (s, t))[:2] + (t,)
        through_ban = [nodes for nodes in _ranked(g, s, t, 8)
                       if not set(Path(nodes).edges).isdisjoint(banned)][:1]
        for star in ranked[:4] + [ghost] + through_ban:
            got, made = searches()
            expect = next((nodes for nodes in ranked if nodes != star), None)
            assert got == expect, (kind, s, t, star, banned)
            checked += 1
            live = all(g.has_edge(*e) and e not in banned for e in Path(star).edges)
            assert caps[0] == (path_length(g, Path(star)) if live else None), (kind, s, t, star, banned)
            if not live:
                uncapped["ghost" if star == ghost else "banned"] += 1
            if ranked[:1] != [star]:
                assert len(made) == 1, (kind, s, t, star, banned)
                answered_first += 1
            if star not in ranked:  # no path of g minus the bans: no hint
                continue
            told = searches(p_star_first=True)
            if kind == "float":
                assert told == (got, made), (kind, s, t, star, banned)
                hinted["float"] += 1
            elif star == ranked[0]:
                assert told == (got, made[1:]), (kind, s, t, star, banned)
                hinted["first"] += 1
            else:
                assert told[0] == got, (kind, s, t, star, banned)
                hinted["later"] += 1
    assert checked > 500 and answered_first > 300 and min(hinted.values()) > 100, (
        checked, answered_first, hinted)
    assert min(uncapped.values()) > 30, uncapped
    # The only competitor is longer than p*, which is banned: the first
    # search runs uncapped and finds it.
    g = Graph(5, [(0, 1, 1), (1, 3, 1), (0, 4, 10), (4, 3, 10)])
    s, t, star, banned = 0, 3, (0, 1, 3), [(0, 1)]
    assert searches() == ((0, 4, 3), [(0, 3, {"banned_edges": frozenset(banned)})])
    assert caps == [None]


def test_oracle_rejects_a_hint_that_is_no_path_of_the_graph_minus_its_bans():
    # Ranked from, a p* through a banned edge would yield a competitor
    # through that edge, and a ghost p* has no length. Hinted, both raise,
    # on either kind of weights; unhinted, p* is a descriptor and each
    # call answers from its first search.
    records = [(0, 1, 1), (1, 3, 1), (1, 2, 1), (2, 3, 1), (0, 4, 10), (4, 3, 10)]
    for number in (int, float):
        g = Graph(5, [(u, v, number(w)) for u, v, w in records])
        for star, banned, expect in [((0, 1, 3), [(0, 1)], (0, 4, 3)),
                                     ((0, 3), [], (0, 1, 3)),
                                     ((1, 3), [], (0, 1, 3))]:
            assert next_shortest_excluding(g, 0, 3, Path(star), banned).nodes == expect
            with pytest.raises(InputError, match="p_star_first"):
                next_shortest_excluding(g, 0, 3, Path(star), banned, p_star_first=True)


def test_capped_oracle_returns_the_uncapped_answer_within_the_cap():
    # With int weights, a call with max_length returns the uncapped
    # answer when that one is at most max_length long, and None
    # otherwise: for caps just below, at and above len(p*) and below
    # every path, with and without bans, for p* anywhere in the ranking
    # (hinted too, as it is live) and for a p* through a banned edge.
    rng = np.random.default_rng(1972)
    weight_draws = _weight_draws(rng)
    del weight_draws["float"]
    answered = dict.fromkeys(["path", "none", "hinted"], 0)
    for kind in list(weight_draws) * 30:
        g, s, t, restrict = _random_case(rng, weight_draws[kind])
        banned = restrict.get("banned_edges", ())
        ranked = _ranked(g, s, t, 6, banned_edges=banned)
        through_ban = [nodes for nodes in _ranked(g, s, t, 8)
                       if not set(Path(nodes).edges).isdisjoint(banned)][:1]
        for star in ranked[:4] + through_ban:
            p_star = Path(star)
            free = next_shortest_excluding(g, s, t, p_star, banned)
            p_len = path_length(g, p_star)
            hints = [{}, {"p_star_first": True}] if star in ranked else [{}]
            for cap in (p_len - 1, p_len, p_len + 1, -1):
                expect = free if free is not None and path_length(g, free) <= cap else None
                for hint in hints:
                    got = next_shortest_excluding(g, s, t, p_star, banned, max_length=cap, **hint)
                    assert got == expect, (kind, s, t, star, banned, cap, hint)
                    answered["hinted" if hint else "path" if got else "none"] += 1
    assert min(answered.values()) > 300, answered
    g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 4)])
    for hint in (False, True):
        with pytest.raises(InputError, match="^max_length must not be NaN$"):
            next_shortest_excluding(g, 0, 2, Path((0, 1, 2)), max_length=float("nan"),
                                    p_star_first=hint)


def test_float_weights_ignore_the_oracle_cap():
    # Spur sums round in another order than path_length, so float graphs
    # ignore max_length: a cap below every path changes no answer.
    edges = pathlib.Path(__file__).parents[1] / "scripts" / "float_weights.edges"
    floats = load_edge_list(edges).graph
    answers = 0
    for seed in range(6):
        s, t = select_terminals(floats, "uniform", seed)
        for k in (1, 2, 5):
            p_star = select_p_star(floats, s, t, k)
            free = next_shortest_excluding(floats, s, t, p_star)
            for cap in (-1, 0.0, path_length(floats, p_star)):
                assert next_shortest_excluding(floats, s, t, p_star, max_length=cap) == free
            answers += free is not None
    assert answers == 18


def test_capped_oracle_runs_fewer_spur_searches(monkeypatch):
    # After a greedy-cost attack on a 6 x 6 lattice, p* is exclusive: the
    # final call ranks from p* and finds nothing within len(p*). Capped at
    # len(p*), it skips every spur that no edge leaves within the cap. The
    # counts are pinned, so a cap dropped from the search or from the spur
    # skip shows here, not only in the traced benchmark counts.
    g = assign_weights(generate(GeneratorSpec(family="lattice", rows=6, cols=6)),
                       WeightScheme(kind="uniform", upper=9, seed=3))
    calls = []
    made = {"uncapped": [0, 0], "capped": [0, 0]}  # answers, searches
    for k in (4, 8, 12, 16, 20):
        p_star = select_p_star(g, 0, 35, k)
        removed = run_attack(g, p_star, AttackConfig(method="greedy-cost")).removed_edges
        with monkeypatch.context() as m:
            m.setattr(pathcut.paths, "shortest_path", recorded(shortest_path, calls))
            for name, cap in (("uncapped", None), ("capped", path_length(g, p_star))):
                calls.clear()
                got = next_shortest_excluding(g, 0, 35, p_star, removed, p_star_first=True,
                                              max_length=cap)
                made[name][0] += got is not None
                made[name][1] += len(calls)
    assert made == {"uncapped": [5, 26], "capped": [0, 11]}, made


def test_iterator_and_oracle_check_arguments_in_one_order():
    # The first fault in the order s, t, distinct endpoints, limit, node
    # mask, bans decides the error, for the iterator and the oracle alike
    # (the oracle takes no limit and no mask).
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    order = ("s", "t", "same", "limit", "allowed", "banned")
    errors = {
        "s": (InputError, "node 7 out of range for 3 nodes"),
        "t": (InputError, "node 9 out of range for 3 nodes"),
        "same": (InputError, "path enumeration needs distinct endpoints"),
        "limit": (InputError, "limit must be >= 0, got -1"),
        "allowed": (TypeError, "'int' object is not iterable"),
        "banned": (InputError, "self-loop at node 1"),
    }

    def raised(call):
        with pytest.raises(Exception) as info:
            call()
        return info.type, str(info.value)

    tried = 0
    for mask in range(1, 1 << len(order)):
        faults = [f for i, f in enumerate(order) if mask >> i & 1]
        if "t" in faults and "same" in faults:
            continue
        s = 7 if "s" in faults else 0
        t = s if "same" in faults else 9 if "t" in faults else 2
        banned = [(1, 1)] if "banned" in faults else [(0, 1)]
        assert raised(lambda: PathIterator(
            g, s, t, allowed_nodes=5 if "allowed" in faults else None, banned_edges=banned,
            limit=-1 if "limit" in faults else None)) == errors[faults[0]], faults
        oracle_faults = [f for f in faults if f not in ("limit", "allowed")]
        if oracle_faults:
            assert raised(lambda: next_shortest_excluding(
                g, s, t, Path((0, 1, 2)), banned_edges=banned)) == errors[oracle_faults[0]], faults
        tried += 1
    assert tried == 47


def test_float_weights_rank_without_distance_bound():
    # 3-4-2-5-0 and 3-5-0 both sum to 0.7999999999999999, so node order
    # ranks 3-4-2-5-0 first. With float distances as the bound, node 4 is
    # keyed 0.3 + 0.5 = 0.8 and 3-5-0 came out first; the reachability-only
    # bound keeps plain Dijkstra's order.
    g = Graph(6, [(0, 1, .7), (0, 3, .6), (0, 5, .1), (1, 3, .7), (1, 4, .1), (1, 5, .6),
                  (2, 3, .2), (2, 4, .1), (2, 5, .3), (3, 4, .3), (3, 5, .7), (4, 5, .6)])
    assert _ranked(g, 3, 0, 5, banned_edges=[(1, 5), (2, 3)]) == [
        (3, 0), (3, 4, 2, 5, 0), (3, 5, 0), (3, 4, 5, 0), (3, 4, 1, 0)]


def test_lawler_ranking_matches_full_spur_reference():
    # Spawning deviations only from a path's deviation index must rank
    # exactly as spawning at every index: the first 80 paths against the
    # reference iterator, over weight kinds with ties, zeros, floats and
    # 1e12 magnitudes, with and without masks and bans.
    rng = np.random.default_rng(1010)
    weight_draws = {
        "int": lambda: int(rng.integers(1, 6)),
        "zero": lambda: int(rng.choice([0, 0, 1])),
        "equal": lambda: 3,
        "float": lambda: float(rng.choice([0.1, 0.2, 0.3, 0.6, 0.7])),
        "huge": lambda: int(rng.integers(10**12 - 5, 10**12 + 5)),
    }
    graphs = compared = 0
    for kind in list(weight_draws) * 64:
        n = int(rng.integers(6, 11))
        density = float(rng.uniform(0.4, 0.9))
        g = Graph(n, [(u, v, weight_draws[kind]())
                      for u, v in combinations(range(n), 2) if rng.random() < density])
        s, t = (int(x) for x in rng.choice(n, size=2, replace=False))
        restrict = {}
        if rng.random() < 0.4:
            restrict["allowed_nodes"] = {s, t} | {u for u in range(n) if rng.random() < 0.7}
        if rng.random() < 0.5:
            restrict["banned_edges"] = [e for e in g.edges() if rng.random() < 0.2]
        got = _ranked(g, s, t, 80, **restrict)
        expect = [p.nodes for p in islice(reference_path_iterator(g, s, t, **restrict), 80)]
        assert got == expect, (kind, s, t, restrict)
        graphs += 1
        compared += len(got)
    assert graphs >= 300 and compared > 10000


def test_lawler_ranking_runs_fewer_spur_searches(monkeypatch):
    g = assign_weights(generate(GeneratorSpec(family="lattice", rows=6, cols=6)),
                       WeightScheme(kind="uniform", upper=9, seed=3))
    calls = {"library": 0, "reference": 0, "bounded": 0, "bounded none": 0}

    def counting(side):
        def search(*args, **kwargs):
            calls[side] += 1
            found = shortest_path(*args, **kwargs)
            if found is None and side == "bounded":
                calls["bounded none"] += 1
            return found
        return search

    monkeypatch.setattr(pathcut.paths, "shortest_path", counting("library"))
    monkeypatch.setattr(helpers, "shortest_path", counting("reference"))
    got = _ranked(g, 0, 35, 40)
    expect = [p.nodes for p in islice(reference_path_iterator(g, 0, 35), 40)]
    assert got == expect and len(got) == 40
    assert calls["library"] < calls["reference"], calls
    # The ranking limited to 40 paths visits the same spur positions. It
    # skips the 139 spurs that no edge leaves within the cutoff, and 27
    # of the 97 searches it makes return None. The counts are pinned, so a
    # change to Lawler's rule or to the cutoff shows here, not only in the
    # traced benchmark counts.
    monkeypatch.setattr(pathcut.paths, "shortest_path", counting("bounded"))
    assert [p.nodes for p in PathIterator(g, 0, 35, limit=40)] == got
    assert (calls["library"], calls["bounded"], calls["bounded none"]) == (236, 97, 27), calls
    assert calls["library"] - calls["bounded"] == 139
    # A hop mask around s, pinned likewise. The bound covers the whole
    # graph, so the skip tests the mask itself: without that test it would
    # run 7 more searches, each returning None.
    mask = neighborhood_mask(g, 0, 5)
    calls.update({"library": 0, "bounded": 0, "bounded none": 0})
    monkeypatch.setattr(pathcut.paths, "shortest_path", counting("library"))
    got = _ranked(g, 0, 14, 40, allowed_nodes=mask)
    assert got == [nodes for _, nodes in enumerate_simple_paths(g, 0, 14, allowed_nodes=mask)][:40]
    monkeypatch.setattr(pathcut.paths, "shortest_path", counting("bounded"))
    assert [p.nodes for p in PathIterator(g, 0, 14, allowed_nodes=mask, limit=40)] == got
    assert (calls["library"], calls["bounded"], calls["bounded none"]) == (132, 93, 42), calls


def test_interleaved_rankings_on_one_graph_match_their_solo_runs():
    # The graph caches the distance bound of one target, and every spur
    # search of a ranking replaces it. Two limited rankings to different
    # targets, one masked, advanced in turn on one graph, must each yield
    # what they yield alone: a ranking tests its spurs against its own bound.
    g = assign_weights(generate(GeneratorSpec("lattice", rows=7, cols=7)),
                       WeightScheme("uniform", upper=9, seed=4))
    runs = [dict(s=0, t=48, limit=40),
            dict(s=45, t=3, limit=40, allowed_nodes=neighborhood_mask(g, 45, 8))]
    solo = [[p.nodes for p in PathIterator(g, **run)] for run in runs]
    assert all(len(paths) == 40 for paths in solo)
    together = ([], [])
    for a, b in zip(*(PathIterator(g, **run) for run in runs)):
        together[0].append(a.nodes)
        together[1].append(b.nodes)
    assert list(together) == solo


def test_masked_lattices_rank_as_brute_force():
    # Lattice-hop's shape at desk scale: grids with integer weights, t some
    # hops from s, a hop mask around s a little wider, and long paths with
    # many spur positions. For every k up to the number of paths in the
    # mask, k_shortest_paths is the first k of all simple paths sorted by
    # (length, nodes).
    checked = masked = 0
    for rows, cols, upper, seed in ((3, 4, 1, 0), (4, 4, 3, 1), (3, 5, 9, 2), (4, 4, 41, 3)):
        g = assign_weights(generate(GeneratorSpec("lattice", rows=rows, cols=cols)),
                           WeightScheme("uniform", upper=upper, seed=seed))
        for s, hops, extra in ((0, 3, 1), (1, 2, 2), (cols + 1, 2, 1)):
            t = max(v for v, d in bfs_hops(g, s).items() if d == hops)
            mask = neighborhood_mask(g, s, hops + extra)
            every = [nodes for _, nodes in enumerate_simple_paths(g, s, t, allowed_nodes=mask)]
            for k in range(1, len(every) + 1):
                assert [p.nodes for p in k_shortest_paths(g, s, t, k, allowed_nodes=mask)] == every[:k], \
                    (rows, cols, upper, s, t, k)
            checked += len(every)
            masked += len(mask) < g.node_count
    assert checked > 300 and masked > 6, (checked, masked)


def _same_as_checked(p):
    assert type(p) is Path and all(type(v) is int for v in p.nodes)
    q = Path(p.nodes)
    assert (p.nodes, p.edges, hash(p)) == (q.nodes, q.edges, hash(q))


def test_kernel_paths_equal_checked_paths():
    # Searches and the ranking build their paths unchecked; each must be
    # the path the public constructor builds from the same nodes.
    rng = np.random.default_rng(4242)
    checked = 0
    for trial in range(40):
        n = int(rng.integers(4, 14))
        g = random_graph(rng, n, float(rng.uniform(0.3, 0.8)))
        if trial % 2:
            g = Graph(n, [(u, v, w / 7, c) for u, v, w, c in g.edge_records()])
        s, t = (int(x) for x in rng.choice(n, size=2, replace=False))
        same = shortest_path(g, s, s)
        _same_as_checked(same)
        for p in PathIterator(g, s, t, banned_edges=g.edges()[:2], limit=12):
            _same_as_checked(p)
            checked += 1
        competitor = next_shortest_excluding(g, s, t, Path((s, t)))
        if competitor is not None:
            _same_as_checked(competitor)
    assert checked > 100
