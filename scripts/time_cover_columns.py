#!/usr/bin/env python3
"""Cold cut-LP builds on BA graphs of 25,000 and 250,000 edges.

For BA graphs with m = 5 and n = 5,000 and 50,000 (graph seed 1, Poisson
weights seed 2, terminals seed 3), ranks the first 50 paths between the
seeded terminals and builds the cut LP of the first five paths, protecting
the 50th and then the 49th in turn. Each timed build reads a fresh
``CutRows``, so it cuts the columns afresh. Prints the median seconds of
the builds per graph and exits 1 if any LP differs from the reference
build in ``tests/helpers.py``.

    PYTHONPATH=src python scripts/time_cover_columns.py
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from helpers import reference_build_cover_lp  # noqa: E402

from pathcut.generators import GeneratorSpec, WeightScheme, assign_weights, generate  # noqa: E402
from pathcut.harness import select_terminals  # noqa: E402
from pathcut.lp import CutRows, build_cover_lp  # noqa: E402
from pathcut.paths import k_shortest_paths  # noqa: E402

RANK = 50
COMPETITORS = 5
BUILDS = 6


def main() -> int:
    print(f"{'nodes':>7}{'edges':>9}{'columns':>9}{'rows':>6}{'median s':>10}{'equal':>7}")
    failures = 0
    for n in (5_000, 50_000):
        g = generate(GeneratorSpec(family="ba", n=n, m=5, seed=1))
        g = assign_weights(g, WeightScheme(kind="poisson", seed=2))
        s, t = select_terminals(g, "uniform", 3)
        ranked = k_shortest_paths(g, s, t, RANK)
        competitors = ranked[:COMPETITORS]
        seconds = []
        equal = True
        for i in range(BUILDS):
            p_star = ranked[RANK - 1 - i % 2]
            t0 = time.perf_counter()
            lp = build_cover_lp(CutRows(g, p_star, competitors))
            seconds.append(time.perf_counter() - t0)
            equal = equal and lp == reference_build_cover_lp(g, p_star, competitors)
        failures += not equal
        print(f"{n:>7}{g.edge_count:>9}{len(lp.edge_order):>9}{len(lp.rows):>6}"
              f"{statistics.median(seconds):>10.4f}{str(equal):>7}")
    if failures:
        print(f"{failures} graphs with an LP unequal to the reference")
        return 1
    print("every LP equals the reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
