import math
import re
from dataclasses import dataclass
from typing import Optional

import pytest

import pathcut.generators
from helpers import reference_adjacency, reference_er
from pathcut import Graph, InputError, shortest_path
from pathcut.errors import check_field_types
from pathcut.generators import WEIGHT_KINDS, GeneratorSpec, WeightScheme, assign_weights, generate


def test_lattice_counts():
    g = generate(GeneratorSpec(family="lattice", rows=3, cols=3))
    assert g.node_count == 9 and g.edge_count == 12
    g = generate(GeneratorSpec(family="lattice", rows=5, cols=7))
    assert g.edge_count == 2 * 5 * 7 - 5 - 7


def test_complete_count():
    g = generate(GeneratorSpec(family="complete", n=565))
    assert g.edge_count == 159_330


def test_er_edge_count_within_four_sigma():
    g = generate(GeneratorSpec(family="er", n=1000, p=0.01, seed=2024))
    mean = 0.01 * 1000 * 999 / 2
    sigma = math.sqrt(mean * 0.99)
    assert abs(g.edge_count - mean) <= 4 * sigma


def test_ba_count_and_connectivity():
    n, m = 120, 4
    g = generate(GeneratorSpec(family="ba", n=n, m=m, seed=7))
    assert g.edge_count == m * (m - 1) // 2 + m * (n - m)
    from pathcut import bfs_hops

    assert len(bfs_hops(g, 0)) == n


def test_kronecker_density_and_compaction():
    spec = GeneratorSpec(family="kronecker", iterations=10, density=0.00125, seed=5)
    g = generate(spec)
    n_full = 2 ** 10
    target = round(spec.density * n_full * (n_full - 1) / 2)
    assert abs(g.edge_count - target) <= 0.1 * target
    assert g.node_count <= n_full
    # ids are dense: no isolated node survives compaction
    assert all(g.degree(u) > 0 for u in range(g.node_count))


def test_generation_deterministic_per_seed():
    for family, kwargs in [
        ("er", dict(n=150, p=0.05)),
        ("ba", dict(n=100, m=3)),
        ("kronecker", dict(iterations=8, density=0.01)),
    ]:
        a = generate(GeneratorSpec(family=family, seed=13, **kwargs))
        b = generate(GeneratorSpec(family=family, seed=13, **kwargs))
        c = generate(GeneratorSpec(family=family, seed=14, **kwargs))
        assert a == b
        assert a != c  # different seed, different graph (overwhelmingly)


def test_invalid_parameters():
    with pytest.raises(InputError):
        generate(GeneratorSpec(family="er", n=10, p=1.5))
    with pytest.raises(InputError):
        generate(GeneratorSpec(family="ba", n=5, m=5))
    with pytest.raises(InputError):
        generate(GeneratorSpec(family="lattice", rows=0, cols=3))
    with pytest.raises(InputError):
        generate(GeneratorSpec(family="nope", n=3))
    with pytest.raises(InputError):
        assign_weights(Graph(2, [(0, 1, 1)]), WeightScheme(kind="bad"))


def test_equal_weights():
    g = generate(GeneratorSpec(family="complete", n=10))
    w = assign_weights(g, WeightScheme(kind="equal"))
    assert set(w.weights.values()) == {1}
    assert set(w.costs.values()) == {1}


def big_weighted(kind, seed=99):
    g = generate(GeneratorSpec(family="complete", n=142))  # 10,011 edges
    return assign_weights(g, WeightScheme(kind=kind, seed=seed))


def test_poisson_weights_mean_and_floor():
    w = big_weighted("poisson")
    values = list(w.weights.values())
    assert min(values) >= 1
    assert abs(sum(values) / len(values) - 21) <= 0.5
    assert w.costs == w.weights


def test_uniform_weights_support_and_mean():
    w = big_weighted("uniform")
    values = list(w.weights.values())
    assert set(values) == set(range(1, 42))
    assert abs(sum(values) / len(values) - 21) <= 0.5


def test_weights_deterministic_per_seed():
    a = big_weighted("uniform", seed=5)
    b = big_weighted("uniform", seed=5)
    assert a == b


def test_spec_round_trips_through_dict():
    spec = GeneratorSpec(family="kronecker", iterations=9, density=0.002, seed=3)
    assert GeneratorSpec.from_dict(spec.to_dict()) == spec
    scheme = WeightScheme(kind="poisson", rate=20.0, seed=8)
    assert WeightScheme.from_dict(scheme.to_dict()) == scheme


@pytest.mark.parametrize("cls, d, message", [
    (GeneratorSpec, [1], "generator spec must be an object, got [1]"),
    (GeneratorSpec, {"family": "er", "n": 5, "p": "0.5"}, "p must be a number, got '0.5'"),
    (GeneratorSpec, {"family": "lattice", "rows": 2.0, "cols": 3}, "rows must be an integer, got 2.0"),
    (GeneratorSpec, {"family": "complete", "n": 5, "seed": None}, "seed must be an integer, got None"),
    (GeneratorSpec, {"family": "kronecker", "initiator": 5}, "bad generator spec"),
    (WeightScheme, "equal", "weight scheme must be an object, got 'equal'"),
    (WeightScheme, {"kind": "poisson", "rate": None}, "rate must be a number, got None"),
    (WeightScheme, {"kind": "equal", "value": 2.5}, "value must be an integer, got 2.5"),
])
def test_from_dict_rejects_wrong_types(cls, d, message):
    # JSON of the right syntax but the wrong shape: each used to end in a
    # TypeError from deep inside generation.
    with pytest.raises(InputError) as info:
        cls.from_dict(d)
    assert message in str(info.value)


@dataclass
class _Typed:
    count: int | None = None
    rate: Optional[float] = None
    name: str = "x"
    anything: tuple = ()


@pytest.mark.parametrize("kwargs, message", [
    ({"count": "3"}, "count must be an integer, got '3'"),
    ({"rate": "fast"}, "rate must be a number, got 'fast'"),
    ({"name": None}, "name must be a string, got None"),
])
def test_field_type_check_reads_either_optional_spelling(kwargs, message):
    # This module has no ``from __future__ import annotations``, so its
    # fields carry type objects, and ``count`` is spelt ``int | None``.
    check_field_types(_Typed(count=3, rate=None, anything=[1]))
    with pytest.raises(InputError) as info:
        check_field_types(_Typed(**kwargs))
    assert str(info.value) == message


@pytest.mark.parametrize("n", [1, 2, 3, 17, 200])
@pytest.mark.parametrize("p", [0, 0.05, 0.5, 1])
def test_er_matches_triu_indices_reference(n, p):
    # The flat-index decoding must give the pairs np.triu_indices gives.
    g = generate(GeneratorSpec(family="er", n=n, p=p, seed=n))
    ref = reference_er(n, p, seed=n)
    assert g.edge_records() == ref.edge_records()
    assert g._adjacency() == ref._adjacency()
    assert all(type(u) is int and type(v) is int for u, v in g.edges())


@pytest.mark.parametrize("chunk", [1, 7, 1000])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 200])
@pytest.mark.parametrize("p", [0, 0.05, 0.5, 1])
def test_er_drawn_in_chunks_matches_triu_indices_reference(monkeypatch, chunk, n, p):
    # Chunked draws take the same PCG64 doubles as one draw of every pair,
    # so the records and their order do not depend on the chunk size.
    monkeypatch.setattr(pathcut.generators, "_ER_CHUNK", chunk)
    g = generate(GeneratorSpec(family="er", n=n, p=p, seed=n))
    ref = reference_er(n, p, seed=n)
    assert list(g._weights.items()) == list(ref._weights.items())
    assert g.node_count == ref.node_count


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
def test_assigned_weights_are_python_ints(kind):
    # The A* distance bound is exact only for Python int weights.
    g = assign_weights(generate(GeneratorSpec(family="er", n=60, p=0.2, seed=1)),
                       WeightScheme(kind=kind, seed=2))
    assert g.edge_count > 0
    assert all(type(w) is int for w in g.weights.values())
    assert all(type(c) is int for c in g.costs.values())


FAMILY_SPECS = [
    GeneratorSpec(family="er", n=80, p=0.1, seed=3),
    GeneratorSpec(family="ba", n=60, m=3, seed=3),
    GeneratorSpec(family="kronecker", iterations=6, density=0.1, seed=3),
    GeneratorSpec(family="lattice", rows=5, cols=6),
    GeneratorSpec(family="complete", n=9),
]


@pytest.mark.parametrize("kind", (None,) + WEIGHT_KINDS)
@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda spec: spec.family)
def test_trusted_build_matches_validated_build(spec, kind):
    # generate and assign_weights build without record checks; the result
    # must be what Graph(n, records) builds from the same records, down to
    # dict order and adjacency lists. Graph(n, records) stores its maps in
    # sorted key order, so this pins _trusted's contract that every family
    # and scheme hands it a map already in sorted order.
    g = generate(spec)
    if kind is not None:
        g = assign_weights(g, WeightScheme(kind=kind, value=2, seed=4))
    ref = Graph(g.node_count, [(u, v, w) for (u, v), w in g._weights.items()])
    assert g.node_count == ref.node_count and g.edge_count > 0
    assert list(g._weights.items()) == list(ref._weights.items())
    assert list(g._costs.items()) == list(ref._costs.items())
    assert g._adjacency() == ref._adjacency()
    assert g._int_weights is ref._int_weights is True


@pytest.mark.parametrize("scheme", [None] + [WeightScheme(kind=k, seed=5) for k in WEIGHT_KINDS]
                         + [WeightScheme(kind="uniform", upper=2**62, seed=5)],
                         ids=lambda scheme: "unit" if scheme is None else f"{scheme.kind}-{scheme.upper}")
@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda spec: spec.family)
def test_trusted_int_flag_equals_the_weight_scan(spec, scheme):
    # Trusted builds set _int_weights without scanning; the flag must be
    # what Graph.__init__'s scan finds.
    g = generate(spec)
    if scheme is not None:
        g = assign_weights(g, scheme)
    assert g._int_weights is all(type(w) is int for w in g._weights.values())


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda spec: spec.family)
def test_adjacency_is_built_on_first_search_only(spec, kind):
    # assign_weights reads the unit graph's keys only, so that graph never
    # builds adjacency lists; the weighted graph builds them on its first
    # search, equal to lists sorted from the finished weight map.
    unit = generate(spec)
    g = assign_weights(unit, WeightScheme(kind=kind, value=2, seed=4))
    assert unit._adj is None and g._adj is None
    shortest_path(g, 0, g.node_count - 1)
    assert unit._adj is None
    assert g._adj == reference_adjacency(g)
    assert g._adjacency() is g._adj


@pytest.mark.parametrize("value", [math.inf, math.nan, 0, 1.5])
def test_equal_scheme_rejects_non_finite_or_non_positive_value(value):
    with pytest.raises(InputError, match="^equal scheme needs a positive integer value$"):
        assign_weights(Graph(2, [(0, 1, 1)]), WeightScheme(kind="equal", value=value))


def test_ba_with_one_edge_per_node_is_a_tree():
    spec = GeneratorSpec(family="ba", n=60, m=1, seed=3)
    g = generate(spec)
    assert g.node_count == 60 and g.edge_count == 59
    from pathcut import bfs_hops

    assert len(bfs_hops(g, 0)) == 60
    assert generate(spec) == g


def test_families_keep_their_order_and_the_unknown_family_message():
    assert pathcut.generators.FAMILIES == ("er", "ba", "kronecker", "lattice", "complete")
    message = "unknown family 'nope'; choose from ('er', 'ba', 'kronecker', 'lattice', 'complete')"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        generate(GeneratorSpec(family="nope", n=3))
