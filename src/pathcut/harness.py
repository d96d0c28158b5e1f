"""Experiment protocol: ingestion, instance setup, batch runs, reports.

Edge-list format (ASCII, newline-delimited): ``u v [weight [cost]]``,
whitespace-separated, ``#`` starts a comment. Weight defaults to 1, cost
to the weight. A ``#nodes N`` comment fixes the node count (needed to
round-trip graphs with isolated nodes). Files whose labels are all
nonnegative integers keep them as node ids; otherwise labels map to dense
ids in order of first appearance and the mapping is retained.

Batch output is two line-oriented files plus a human-readable summary:
``records.jsonl`` holds one fully deterministic record per run (so a
re-run with the same master seed is byte-identical) and
``timings.jsonl`` holds the wall-clock measurements keyed by run id.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Optional, Sequence

import numpy as np

from .attack import METHOD_GREEDY_COST, METHODS, AttackConfig, run_attack
from .errors import InputError, InstanceSkip, PathCutError, check_count, check_field_types
from .generators import GeneratorSpec, WeightScheme, assign_weights, generate
from .graphs import Graph, Path, _distance_bound, bfs_hops
from .paths import k_shortest_paths

logger = logging.getLogger(__name__)

TERMINAL_MODES = ("uniform", "hop")
SELECTION_RETRIES = 100


# -- edge-list ingestion --------------------------------------------------

@dataclass(frozen=True)
class LoadedGraph:
    graph: Graph
    labels: tuple[str, ...]  # labels[node_id] = original label


def _parse_number(token: str, path, line_no: int):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise InputError(f"{path}:{line_no}: not a number: {token!r}") from None


def read_ascii(path) -> str:
    """Text of an ASCII file, newlines translated as in text mode. A file
    that cannot be read or holds a non-ASCII byte raises
    :class:`InputError` naming it."""
    try:
        return FsPath(path).read_text(encoding="ascii")
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: non-ASCII byte {exc.object[exc.start]:#04x} at offset {exc.start}"
        ) from None


def load_edge_list(path) -> LoadedGraph:
    """Parse an edge-list file (format above) into a graph.

    Duplicate edges keep the first occurrence (warning); self-loops are
    dropped (warning); malformed lines raise with their line number.
    """
    path = FsPath(path)
    labels: dict[str, int] = {}
    records: dict[tuple[int, int], tuple] = {}
    node_hint = 0
    integer_labels = True
    raw_edges: list[tuple[str, str, object, object, int]] = []
    for line_no, raw in enumerate(read_ascii(path).split("\n"), start=1):
        comment = raw.split("#", 1)
        body = comment[0].strip()
        if len(comment) > 1:
            tail = comment[1].split()
            if tail[:1] == ["nodes"] and len(tail) >= 2 and tail[1].isdigit():
                node_hint = max(node_hint, int(tail[1]))
        if not body:
            continue
        parts = body.split()
        if len(parts) < 2 or len(parts) > 4:
            raise InputError(f"{path}:{line_no}: expected 'u v [weight [cost]]'")
        w = _parse_number(parts[2], path, line_no) if len(parts) >= 3 else 1
        c = _parse_number(parts[3], path, line_no) if len(parts) == 4 else w
        if not (0 <= w <= sys.float_info.max and 0 <= c <= sys.float_info.max):
            raise InputError(f"{path}:{line_no}: weight or cost is negative or not finite")
        raw_edges.append((parts[0], parts[1], w, c, line_no))
        for lbl in parts[:2]:
            integer_labels = integer_labels and lbl.isdigit()

    def node_id(lbl: str) -> int:
        if integer_labels:
            return int(lbl)
        if lbl not in labels:
            labels[lbl] = len(labels)
        return labels[lbl]

    for lu, lv, w, c, line_no in raw_edges:
        u, v = node_id(lu), node_id(lv)
        if u == v:
            logger.warning("%s:%d: dropping self-loop at %s", path, line_no, lu)
            continue
        k = (u, v) if u < v else (v, u)
        if k in records:
            logger.warning("%s:%d: duplicate edge %s-%s, keeping first", path, line_no, lu, lv)
            continue
        records[k] = (k[0], k[1], w, c)
    if integer_labels:
        n = max([node_hint] + [max(k) + 1 for k in records] + [0])
        label_list = tuple(str(i) for i in range(n))
    else:
        n = max(node_hint, len(labels))
        label_list = tuple(sorted(labels, key=labels.get))
        label_list += tuple(str(i) for i in range(len(label_list), n))
    graph = Graph(n, records.values())
    return LoadedGraph(graph=graph, labels=label_list)


def save_edge_list(path, g: Graph) -> None:
    """Write ``g`` so that :func:`load_edge_list` reproduces it exactly:
    its weights and costs are ``int`` and ``float`` values, whose ``repr``
    is a plain number."""
    with FsPath(path).open("w", encoding="ascii") as fh:
        fh.write(f"#nodes {g.node_count}\n")
        for u, v, w, c in g.edge_records():
            fh.write(f"{u} {v} {w!r} {c!r}\n")


# -- instance setup --------------------------------------------------------

def select_terminals(g: Graph, mode: str, seed: int, hop_distance: int = 50) -> tuple[int, int]:
    """Pick (s, t) for one experiment instance, deterministically per seed.

    ``uniform``: both uniform over nodes, re-drawn until t is reachable
    from s. ``hop``: s uniform, t uniform among nodes exactly
    ``hop_distance`` BFS hops from s. Raises :class:`InstanceSkip` after
    bounded retries. ``seed`` must be a nonnegative integer, and in hop
    mode ``hop_distance`` a positive one.
    """
    if mode not in TERMINAL_MODES:
        raise InputError(f"unknown terminal mode {mode!r}; choose from {TERMINAL_MODES}")
    check_count("seed", seed, 0)
    if mode == "hop":
        check_count("hop_distance", hop_distance, 1)
    if g.node_count < 2:
        raise InstanceSkip("graph too small for terminal selection")
    rng = np.random.default_rng(seed)
    for _ in range(SELECTION_RETRIES):
        s = int(rng.integers(g.node_count))
        if mode == "uniform":
            t = int(rng.integers(g.node_count))
            if t == s:
                continue
            # The bound to t is the one select_p_star's first search reads
            # back from the graph's cache.
            if _distance_bound(g, t)[s] != math.inf:
                return s, t
        else:
            ring = sorted(v for v, d in bfs_hops(g, s, max_hops=hop_distance).items()
                          if d == hop_distance)
            if ring:
                return s, ring[int(rng.integers(len(ring)))]
    raise InstanceSkip(f"no terminal pair found in {SELECTION_RETRIES} tries (mode={mode})")


def neighborhood_mask(g: Graph, s: int, radius: Optional[int]) -> Optional[frozenset]:
    """Node mask for hop-bounded path enumeration; None means no mask."""
    if radius is None:
        return None
    check_count("neighborhood_cap", radius, 0)
    return frozenset(bfs_hops(g, s, max_hops=radius))


def select_p_star(g: Graph, s: int, t: int, k: int, allowed_nodes=None) -> Path:
    """The k-th simple s-t path in ranking order; skip if fewer exist."""
    check_count("rank", k, 1)
    found = k_shortest_paths(g, s, t, k, allowed_nodes=allowed_nodes)
    if len(found) < k:
        raise InstanceSkip(f"only {len(found)} simple paths, rank {k} unavailable")
    return found[k - 1]


# -- batch experiments -----------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """One batch: a graph source, instance protocol, methods, seeds.

    Exactly one of ``generator``/``edge_list`` must be set. A None
    ``weight_scheme`` keeps the weights from the file/generator.
    """

    generator: Optional[GeneratorSpec] = None
    edge_list: Optional[str] = None
    weight_scheme: Optional[WeightScheme] = None
    terminal_mode: str = "uniform"
    hop_distance: int = 50
    neighborhood_cap: Optional[int] = 60  # node mask radius in hop mode
    p_star_ranks: tuple[int, ...] = (5, 20, 50)
    methods: tuple[str, ...] = METHODS
    repetitions: int = 20
    master_seed: int = 0
    iteration_cap: Optional[int] = None

    def __post_init__(self):
        if (self.generator is None) == (self.edge_list is None):
            raise InputError("config needs exactly one of generator or edge_list")
        for m in self.methods:
            if m not in METHODS:
                raise InputError(f"unknown method {m!r}")
        if self.terminal_mode not in TERMINAL_MODES:
            raise InputError(f"unknown terminal mode {self.terminal_mode!r}")
        # Checked here, not per instance: a bad rank would otherwise abort
        # the batch midway, after the instances before it had run, and a
        # float hop distance would skip every instance.
        check_field_types(self)
        for k in self.p_star_ranks:
            check_count("rank", k, 1)
        for name in ("repetitions", "master_seed", "iteration_cap"):
            value = getattr(self, name)
            if value is not None:
                check_count(name, value, 0)
        # In hop mode either would skip every instance: t must lie at
        # least one hop from s, and a mask of smaller radius than the hop
        # distance leaves t out.
        if self.terminal_mode == "hop":
            check_count("hop_distance", self.hop_distance, 1)
            if self.neighborhood_cap is not None and self.neighborhood_cap < self.hop_distance:
                raise InputError(
                    f"neighborhood_cap must be >= hop_distance ({self.hop_distance}), "
                    f"got {self.neighborhood_cap}")

    def to_dict(self) -> dict:
        d = {
            "edge_list": self.edge_list,
            "terminal_mode": self.terminal_mode,
            "hop_distance": self.hop_distance,
            "neighborhood_cap": self.neighborhood_cap,
            "p_star_ranks": list(self.p_star_ranks),
            "methods": list(self.methods),
            "repetitions": self.repetitions,
            "master_seed": self.master_seed,
            "iteration_cap": self.iteration_cap,
        }
        d["generator"] = self.generator.to_dict() if self.generator else None
        d["weight_scheme"] = self.weight_scheme.to_dict() if self.weight_scheme else None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise InputError(f"experiment config must be an object, got {d!r}")
        d = dict(d)
        if d.get("generator") is not None:
            d["generator"] = GeneratorSpec.from_dict(d["generator"])
        if d.get("weight_scheme") is not None:
            d["weight_scheme"] = WeightScheme.from_dict(d["weight_scheme"])
        for key in ("p_star_ranks", "methods"):
            value = d.get(key)
            if value is None:
                continue
            # tuple() would split a string into characters and fail on a
            # number with a bare TypeError.
            if not isinstance(value, (list, tuple)):
                raise InputError(f"{key} must be a list, got {value!r}")
            d[key] = tuple(value)
        # A null means "the default", except where None is itself a
        # setting: the source fields and neighborhood_cap (no mask).
        nullable = ("generator", "edge_list", "neighborhood_cap")
        try:
            return cls(**{k: v for k, v in d.items() if v is not None or k in nullable})
        except TypeError as exc:
            raise InputError(f"bad experiment config: {exc}") from None


@dataclass(frozen=True)
class ExperimentRecord:
    """One (instance, method) outcome. ``wall_time_s`` is measured around
    the attack call only and serialized separately from the deterministic
    fields."""

    run_id: str
    instance: dict
    method: str
    status: str  # ok | skip | error
    total_cost: Optional[float] = None
    constraints_generated: Optional[int] = None
    lp_integral: Optional[bool] = None
    rounding_retries: Optional[int] = None
    seed: Optional[int] = None
    cost_reduction_ratio: Optional[float] = None
    edge_count: Optional[int] = None
    error_category: Optional[str] = None
    wall_time_s: Optional[float] = None

    def record_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d.pop("wall_time_s")
        return d


def _child_seed(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))


def run_experiments(cfg: ExperimentConfig, output_dir=None) -> list[ExperimentRecord]:
    """Run the batch; optionally emit records/timings/summary files.

    One instance is (repetition, rank); every configured method runs on
    each instance. The cost-reduction ratio divides a method's cost by the
    same-instance greedy-cost baseline cost (1.0 for the baseline itself,
    absent when the baseline did not run or failed). Per-run failures are
    recorded, never raised.
    """
    base = load_edge_list(cfg.edge_list).graph if cfg.edge_list is not None else None
    records: list[ExperimentRecord] = []
    for rep in range(cfg.repetitions):
        for rank in cfg.p_star_ranks:
            seeds = {name: _child_seed(np.random.SeedSequence(
                entropy=cfg.master_seed, spawn_key=(rep, rank, i)))
                for i, name in enumerate(("graph", "weights", "terminals", "attack"))}
            run_id = f"rep{rep:04d}-rank{rank}"
            instance: dict = {
                "repetition": rep,
                "p_star_rank": rank,
                "terminal_mode": cfg.terminal_mode,
                "source": cfg.edge_list or cfg.generator.family,
            }
            try:
                if base is not None:
                    g = base
                else:
                    spec = cfg.generator.reseeded(seeds["graph"])
                    g = generate(spec)
                    instance["generator"] = spec.to_dict()
                if cfg.weight_scheme is not None:
                    scheme = cfg.weight_scheme.reseeded(seeds["weights"])
                    g = assign_weights(g, scheme)
                    instance["weight_scheme"] = scheme.to_dict()
                instance["nodes"] = g.node_count
                instance["edges"] = g.edge_count
                s, t = select_terminals(g, cfg.terminal_mode, seeds["terminals"],
                                        hop_distance=cfg.hop_distance)
                mask = None
                if cfg.terminal_mode == "hop":
                    mask = neighborhood_mask(g, s, cfg.neighborhood_cap)
                p_star = select_p_star(g, s, t, rank, allowed_nodes=mask)
                instance["s"], instance["t"] = s, t
                instance["p_star"] = list(p_star.nodes)
            except InstanceSkip as exc:
                logger.info("%s: skipped (%s)", run_id, exc)
                for method in cfg.methods:
                    records.append(ExperimentRecord(
                        run_id=run_id, instance=instance, method=method,
                        status="skip", error_category="skip"))
                continue

            baseline_cost = None
            ordered = sorted(cfg.methods, key=lambda m: m != METHOD_GREEDY_COST)
            for method in ordered:
                acfg = AttackConfig(method=method, rng_seed=seeds["attack"],
                                    iteration_cap=cfg.iteration_cap)
                start = time.perf_counter()
                try:
                    plan = run_attack(g, p_star, acfg)
                except PathCutError as exc:
                    records.append(ExperimentRecord(
                        run_id=run_id, instance=instance, method=method,
                        status="error", error_category=exc.category,
                        seed=seeds["attack"],
                        wall_time_s=time.perf_counter() - start))
                    continue
                wall = time.perf_counter() - start
                ratio = None
                if method == METHOD_GREEDY_COST:
                    baseline_cost = plan.total_cost
                    ratio = 1.0
                elif baseline_cost is not None and baseline_cost > 0:
                    ratio = plan.total_cost / baseline_cost
                records.append(ExperimentRecord(
                    run_id=run_id,
                    instance=instance,
                    method=method,
                    status="ok",
                    total_cost=plan.total_cost,
                    constraints_generated=plan.constraints_generated,
                    lp_integral=plan.lp_integral,
                    rounding_retries=plan.rounding_retries,
                    seed=plan.rng_seed,
                    cost_reduction_ratio=ratio,
                    edge_count=g.edge_count,
                    wall_time_s=wall,
                ))
    if output_dir is not None:
        write_results(output_dir, records)
    return records


def write_results(output_dir, records: Sequence[ExperimentRecord]) -> None:
    out = FsPath(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "records.jsonl").open("w", encoding="ascii") as fh:
        for r in records:
            fh.write(json.dumps(r.record_dict(), sort_keys=True) + "\n")
    with (out / "timings.jsonl").open("w", encoding="ascii") as fh:
        for r in records:
            if r.wall_time_s is not None:
                fh.write(json.dumps(
                    {"run_id": r.run_id, "method": r.method,
                     "wall_time_s": r.wall_time_s}, sort_keys=True) + "\n")
    (out / "summary.txt").write_text(summarize(records), encoding="ascii")


def summarize(records: Sequence[ExperimentRecord]) -> str:
    """Aggregate view: per-method cost ratio and wall time (the axes of the
    usual tradeoff plots), LP integrality rate, constraint parsimony."""
    lines = []
    ok = [r for r in records if r.status == "ok"]
    skips = sum(1 for r in records if r.status == "skip")
    errors = sum(1 for r in records if r.status == "error")
    lines.append(f"runs: {len(records)}  ok: {len(ok)}  skipped: {skips}  errors: {errors}")
    lines.append("")
    lines.append(f"{'method':<20}{'n':>5}{'mean cost':>12}{'mean ratio':>12}"
                 f"{'mean time s':>13}{'lp integral':>13}{'cons<=5%M':>11}")
    for method in METHODS:
        rows = [r for r in ok if r.method == method]
        if not rows:
            continue
        try:
            mean_cost = sum(r.total_cost for r in rows) / len(rows)
        except OverflowError:  # int costs whose mean is beyond the float range
            mean_cost = math.inf
        ratios = [r.cost_reduction_ratio for r in rows if r.cost_reduction_ratio is not None]
        mean_ratio = sum(ratios) / len(ratios) if ratios else float("nan")
        times = [r.wall_time_s for r in rows if r.wall_time_s is not None]
        mean_time = sum(times) / len(times) if times else float("nan")
        lp_rows = [r for r in rows if r.lp_integral is not None]
        lp_frac = (sum(1 for r in lp_rows if r.lp_integral) / len(lp_rows)) if lp_rows else float("nan")
        cons_rows = [r for r in rows
                     if r.constraints_generated is not None and r.edge_count
                     and method.startswith("pathattack")]
        cons_frac = (sum(1 for r in cons_rows
                         if r.constraints_generated <= 0.05 * r.edge_count) / len(cons_rows)
                     ) if cons_rows else float("nan")
        lines.append(f"{method:<20}{len(rows):>5}{mean_cost:>12.3f}{mean_ratio:>12.4f}"
                     f"{mean_time:>13.4f}{lp_frac:>13.3f}{cons_frac:>11.3f}")
    return "\n".join(lines) + "\n"
