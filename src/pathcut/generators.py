"""Seeded synthetic graph families and edge-weight schemes.

Families: Erdos-Renyi (``er``), preferential attachment (``ba``),
stochastic Kronecker (``kronecker``), grid (``lattice``), and clique
(``complete``). Generation is deterministic per seed; lattice and
complete are deterministic outright.

Weight schemes produce positive integer weights and set each edge's
removal cost equal to its weight.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .errors import InputError, check_count, check_field_types
from .graphs import Graph

WEIGHT_KINDS = ("poisson", "uniform", "equal")

#: Default Kronecker initiator; rescaled per draw so the density parameter
#: controls the expected edge count.
DEFAULT_INITIATOR = ((0.9, 0.5), (0.5, 0.1))

#: Most node pairs ``_er`` draws at once (8 MB of doubles).
_ER_CHUNK = 1 << 20


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for one synthetic graph.

    Family-specific fields: ``n``/``p`` (er), ``n``/``m`` (ba, attachment
    degree), ``iterations``/``density``/``initiator`` (kronecker),
    ``rows``/``cols`` (lattice), ``n`` (complete).
    """

    family: str
    n: Optional[int] = None
    p: Optional[float] = None
    m: Optional[int] = None
    iterations: Optional[int] = None
    density: Optional[float] = None
    initiator: tuple = DEFAULT_INITIATOR
    rows: Optional[int] = None
    cols: Optional[int] = None
    seed: int = 0

    def to_dict(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if v is not None}
        if self.family != "kronecker":
            d.pop("initiator", None)
        else:
            d["initiator"] = [list(r) for r in self.initiator]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        _require(isinstance(d, dict), f"generator spec must be an object, got {d!r}")
        d = dict(d)
        try:
            if "initiator" in d:
                d["initiator"] = tuple(tuple(r) for r in d["initiator"])
            spec = cls(**d)
        except TypeError as exc:
            raise InputError(f"bad generator spec: {exc}") from None
        check_field_types(spec)
        return spec

    def reseeded(self, seed: int) -> "GeneratorSpec":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class WeightScheme:
    """Edge-weight initialization: 1 + Poisson(rate), integer-uniform on
    [1, upper], or a constant."""

    kind: str
    rate: float = 20.0
    upper: int = 41
    value: int = 1
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "WeightScheme":
        _require(isinstance(d, dict), f"weight scheme must be an object, got {d!r}")
        try:
            scheme = cls(**d)
        except TypeError as exc:
            raise InputError(f"bad weight scheme: {exc}") from None
        check_field_types(scheme)
        return scheme

    def reseeded(self, seed: int) -> "WeightScheme":
        return replace(self, seed=seed)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def generate(spec: GeneratorSpec) -> Graph:
    """Graph of the requested family with unit weights and costs."""
    check_count("seed", spec.seed, 0)
    if spec.family not in FAMILIES:
        raise InputError(f"unknown family {spec.family!r}; choose from {FAMILIES}")
    return _BUILDERS[spec.family](spec)


def _er(spec: GeneratorSpec) -> Graph:
    _require(spec.n is not None and spec.n >= 1, "er needs n >= 1")
    _require(spec.p is not None and 0.0 <= spec.p <= 1.0, "er needs 0 <= p <= 1")
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    # One draw per pair u < v in row-major order, the order of
    # ``np.triu_indices(n, 1)``. Only the kept flat indices are decoded:
    # row u starts at offset u(n-1) - u(u-1)/2, so u is found by binary
    # search over the row offsets and v follows from the offset within
    # the row. This avoids two index arrays of n(n-1)/2 entries each.
    # Pairs are drawn in chunks of at most ``_ER_CHUNK``: PCG64 gives the
    # same doubles whether they are drawn at once or in pieces, so only
    # the kept indices grow with n(n-1)/2.
    pairs = n * (n - 1) // 2
    kept = np.concatenate([np.empty(0, dtype=np.intp)] + [
        start + np.flatnonzero(rng.random(min(_ER_CHUNK, pairs - start)) < spec.p)
        for start in range(0, pairs, _ER_CHUNK)
    ])
    rows = np.arange(n)
    offsets = rows * (n - 1) - rows * (rows - 1) // 2
    u = np.searchsorted(offsets, kept, side="right") - 1
    v = kept - offsets[u] + u + 1
    return Graph._trusted(n, dict.fromkeys(zip(u.tolist(), v.tolist()), 1))


def _ba(spec: GeneratorSpec) -> Graph:
    _require(spec.n is not None and spec.m is not None, "ba needs n and m")
    _require(1 <= spec.m < spec.n, "ba needs 1 <= m < n")
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n, spec.m
    edges = dict.fromkeys(((u, v) for u in range(m) for v in range(u + 1, m)), 1)
    # One endpoint entry per degree; sampling an index is degree-proportional.
    repeated: list[int] = [u for u in range(m) for _ in range(m - 1)]
    for new in range(m, n):
        targets: set[int] = set()
        while len(targets) < m:
            if repeated:
                targets.add(repeated[int(rng.integers(len(repeated)))])
            else:
                targets.add(int(rng.integers(new)))
        for tgt in sorted(targets):
            edges[(tgt, new)] = 1
            repeated.extend((tgt, new))
    return Graph._trusted(n, dict.fromkeys(sorted(edges), 1))  # (tgt, new) came by new


def _kronecker(spec: GeneratorSpec) -> Graph:
    _require(spec.iterations is not None and spec.iterations >= 1,
             "kronecker needs iterations >= 1")
    # NaN fails both comparisons.
    _require(spec.density is not None and 0 < spec.density <= 1, "kronecker needs 0 < density <= 1")
    try:
        init = np.asarray(spec.initiator, dtype=float)
    except (TypeError, ValueError):  # ragged, or an entry that is not a number
        raise InputError(f"initiator must be a 2x2 matrix of numbers, got {spec.initiator!r}") from None
    _require(init.shape == (2, 2) and (init >= 0).all() and 0 < init.sum() < np.inf,
             "initiator must be a nonnegative 2x2 matrix with a positive finite sum")
    rng = np.random.default_rng(spec.seed)
    k = spec.iterations
    n = 2 ** k
    target = int(round(spec.density * n * (n - 1) / 2))
    probs = (init / init.sum()).ravel()  # quadrant probabilities, MSB first
    quadrants = rng.choice(4, size=(target, k), p=probs)
    shifts = np.arange(k - 1, -1, -1)
    u = ((quadrants >> 1) << shifts).sum(axis=1)
    v = ((quadrants & 1) << shifts).sum(axis=1)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keep = lo != hi  # drop self-loops
    pairs = sorted({(int(a), int(b)) for a, b in zip(lo[keep], hi[keep])})
    # Drop isolated nodes and compact ids.
    used = sorted({x for pair in pairs for x in pair})
    relabel = {x: i for i, x in enumerate(used)}
    # Relabelling keeps the order, so each key stays canonical.
    return Graph._trusted(len(used), {(relabel[a], relabel[b]): 1 for a, b in pairs})


def _lattice(spec: GeneratorSpec) -> Graph:
    _require(spec.rows is not None and spec.cols is not None, "lattice needs rows and cols")
    _require(spec.rows >= 1 and spec.cols >= 1, "lattice needs rows, cols >= 1")
    r, c = spec.rows, spec.cols
    edges = {}
    for i in range(r):
        for j in range(c):
            node = i * c + j
            if j + 1 < c:
                edges[(node, node + 1)] = 1
            if i + 1 < r:
                edges[(node, node + c)] = 1
    return Graph._trusted(r * c, edges)


def _complete(spec: GeneratorSpec) -> Graph:
    _require(spec.n is not None and spec.n >= 1, "complete needs n >= 1")
    n = spec.n
    return Graph._trusted(n, dict.fromkeys(((u, v) for u in range(n) for v in range(u + 1, n)), 1))


_BUILDERS = {"er": _er, "ba": _ba, "kronecker": _kronecker, "lattice": _lattice,
             "complete": _complete}
FAMILIES = tuple(_BUILDERS)


def assign_weights(g: Graph, scheme: WeightScheme) -> Graph:
    """Fresh graph with scheme-drawn integer weights; costs equal weights."""
    check_count("weight seed", scheme.seed, 0)
    rng = np.random.default_rng(scheme.seed)
    keys = g.edges()
    if scheme.kind == "poisson":
        _require(scheme.rate > 0, "poisson scheme needs rate > 0")
        try:
            draws = 1 + rng.poisson(scheme.rate, size=len(keys))
        except ValueError as exc:  # numpy's bound: a rate from about 9.2e18 up
            raise InputError(f"poisson scheme: rate {scheme.rate!r}: {exc}") from None
    elif scheme.kind == "uniform":
        # The draws are int64; numpy rejects a larger bound.
        _require(1 <= scheme.upper < 2**63, "uniform scheme needs 1 <= upper < 2**63")
        draws = rng.integers(1, scheme.upper + 1, size=len(keys))
    elif scheme.kind == "equal":
        # NaN fails the comparison; an infinite value stops before ``int``.
        _require(1 <= scheme.value < np.inf and int(scheme.value) == scheme.value,
                 "equal scheme needs a positive integer value")
        draws = np.full(len(keys), int(scheme.value))
    else:
        raise InputError(f"unknown weight scheme {scheme.kind!r}; choose from {WEIGHT_KINDS}")
    # ``tolist`` yields Python ints, which the A* distance bound needs.
    return Graph._trusted(g.node_count, dict(zip(keys, draws.tolist())))
