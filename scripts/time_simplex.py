#!/usr/bin/env python3
"""The cut-LP simplex on the cover LPs of the seed-0 benchmark workloads.

Builds the seed-0 instances of each workload in ``bench/workloads.py`` and
runs PATHATTACK-LP on them with ``pathcut.lp._bounded_simplex`` wrapped, so
every LP the attack solves is captured. Each captured LP is then replayed
through ``_bounded_simplex`` and through the all-numpy reference loop in
``tests/helpers.py``. Prints, per workload, the solves, the simplex's pivots
and bound flips, and the median seconds of one replay of all its LPs. Exits 1
if any result differs from the reference by a byte, or if the solve, pivot
or flip totals differ from the pinned ones in ``COUNTS``.

    PYTHONPATH=src python scripts/time_simplex.py
"""

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "bench"))

from helpers import reference_bounded_simplex  # noqa: E402
from workloads import WORKLOADS, build_instance, instance_seeds  # noqa: E402

import pathcut.lp  # noqa: E402
from pathcut.attack import AttackConfig, run_attack  # noqa: E402

#: Seed-0 solves, pivots and bound flips per workload. Only a change of
#: the pivot rule, the tolerances or the LPs the attack builds moves them.
COUNTS = {
    "sparse-weighted": (132, 613, 1181),
    "dense-ties": (2340, 37686, 33564),
    "lattice-hop": (245, 1174, 2593),
}
ROUNDS = 5


def captured_lps(w):
    """``(rows, costs)`` of every LP that PATHATTACK-LP solves on the seed-0
    instances of ``w``, in solve order."""
    lps = []
    simplex = pathcut.lp._bounded_simplex

    def capture(rows, costs):
        lps.append((list(rows), costs.copy()))
        return simplex(rows, costs)

    pathcut.lp._bounded_simplex = capture
    try:
        for sd in instance_seeds(w, 0):
            g, p_star = build_instance(w, sd)
            run_attack(g, p_star, AttackConfig(method="pathattack-lp", rng_seed=sd.attack))
    finally:
        pathcut.lp._bounded_simplex = simplex
    return lps


def main() -> int:
    print(f"{'workload':<16}{'solves':>8}{'pivots':>9}{'flips':>8}{'median s':>10}{'equal':>7}")
    problems = []
    for name, want in COUNTS.items():
        lps = captured_lps(WORKLOADS[name])
        pivots = flips = unequal = 0
        for rows, costs in lps:
            x, p, f = pathcut.lp._bounded_simplex(rows, costs)
            pivots += p
            flips += f
            unequal += x.tobytes() != reference_bounded_simplex(rows, costs).tobytes()
        seconds = []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            for rows, costs in lps:
                pathcut.lp._bounded_simplex(rows, costs)
            seconds.append(time.perf_counter() - t0)
        got = (len(lps), pivots, flips)
        print(f"{name:<16}{got[0]:>8}{got[1]:>9}{got[2]:>8}"
              f"{statistics.median(seconds):>10.4f}{str(not unequal):>7}")
        if unequal:
            problems.append(f"{name}: {unequal} results unequal to the reference")
        if got != want:
            problems.append(f"{name}: (solves, pivots, flips) = {got}, pinned {want}")
    if problems:
        print("\n".join(problems))
        return 1
    print("every result equals the reference; the counts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
