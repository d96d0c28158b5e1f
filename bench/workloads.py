"""Benchmark workloads and the seeded instances they are made of.

A workload is a fixed number of instances. Instance ``i`` of a workload
draws its graph, weight, terminal and attack seeds from the workload seed
and ``i``, so the same workload seed always yields the same instances and
the library only ever sees generated inputs. Why each workload exists and
which layer it stresses is written down in ``WORKLOADS.md`` beside this
file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from pathcut import generators, harness
from pathcut.generators import GeneratorSpec, WeightScheme
from pathcut.graphs import Graph, Path


@dataclass(frozen=True)
class Workload:
    name: str
    generator: GeneratorSpec
    weights: WeightScheme
    terminal_mode: str
    #: Rank of p* among the simple s-t paths.
    rank: int
    instances: int
    hop_distance: int = 50
    #: Neighbourhood radius for the p* search in hop mode; None for no mask.
    radius: Optional[int] = None


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's default protocol (mean degree 10) at one p* rank:
        # the oracle's Dijkstra runs and the residual-graph rebuilds
        # dominate, the LPs stay small. Per-instance times spread by about
        # a quarter at every rank, so a low rank buys the most instances,
        # and so the steadiest sums, in a run's time.
        Workload(
            name="sparse-weighted",
            generator=GeneratorSpec(family="er", n=500, p=10.0 / 499),
            weights=WeightScheme(kind="poisson"),
            terminal_mode="uniform",
            rank=8,
            instances=23,
        ),
        # Every competitor ties with p*, so constraint generation runs long
        # and the simplex solve dominates pathattack-lp. A clique's
        # instances differ only in labels, so their sums repeat across
        # seeds; dense random graphs vary several-fold in constraints.
        # Rank n is the first three-hop path: pathattack adds about 39
        # constraints, and the solve is most of pathattack-lp.
        Workload(
            name="dense-ties",
            generator=GeneratorSpec(family="complete", n=16),
            weights=WeightScheme(kind="equal"),
            terminal_mode="uniform",
            rank=16,
            instances=60,
        ),
        # The paper's hop protocol: few constraints, while the dense
        # power-iteration eigenvector dominates greedy-eigenscore. The
        # eigenvector's cost is the same for every instance; the lattice
        # is just large enough for it to be 80 % of greedy-eigenscore,
        # so the cheap, more variable methods get the most instances.
        Workload(
            name="lattice-hop",
            generator=GeneratorSpec(family="lattice", rows=22, cols=22),
            weights=WeightScheme(kind="uniform"),
            terminal_mode="hop",
            rank=20,
            instances=44,
            hop_distance=10,
            radius=14,
        ),
    )
}


@dataclass(frozen=True)
class InstanceSeeds:
    graph: int
    weights: int
    terminals: int
    attack: int


def _child_seed(seed: int, index: int, role: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index, role))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))


def instance_seeds(w: Workload, seed: int) -> list[InstanceSeeds]:
    """Seeds of every instance of ``w`` for workload seed ``seed``."""
    return [
        InstanceSeeds(*(_child_seed(seed, i, role) for role in range(4)))
        for i in range(w.instances)
    ]


def build_instance(w: Workload, seeds: InstanceSeeds) -> tuple[Graph, Path]:
    """Set up one instance through the public API: generate, weight, pick
    terminals, mask (hop mode only) and rank p*.

    Every call goes through the module attribute, so a tracer that
    replaces the attribute sees it.
    """
    g = generators.generate(w.generator.reseeded(seeds.graph))
    g = generators.assign_weights(g, w.weights.reseeded(seeds.weights))
    s, t = harness.select_terminals(g, w.terminal_mode, seeds.terminals,
                                    hop_distance=w.hop_distance)
    mask = None
    if w.terminal_mode == "hop":
        mask = harness.neighborhood_mask(g, s, w.radius)
    p_star = harness.select_p_star(g, s, t, w.rank, allowed_nodes=mask)
    return g, p_star
