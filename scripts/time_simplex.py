#!/usr/bin/env python3
"""The two PATHATTACK covers on the cover rows of the seed-0 benchmark workloads.

Builds the seed-0 instances of each workload in ``bench/workloads.py`` and
runs PATHATTACK-LP on them with the LP solver seam of ``lp_path_cover``
wrapped, so every LP the attack solves is captured with its solution, and
with ``pathcut.lp._bounded_simplex`` wrapped, to count the steps the run's
simplex made: a run re-solves only the blocks a new row changed (see
``pathcut.lp.solve_relaxed``). Each captured LP is then solved cold, as a
hand-built ``RelaxedCutLP`` (one block), and solved again as it was
captured, now that its run has moved on (an older LP of a run is solved
cold, the run's last LP on its blocks), and its simplex input is replayed
through ``_bounded_simplex`` and through the all-numpy reference loop in
``tests/helpers.py``. Prints, per workload, the solves, the cold solves'
pivots and bound flips, the run's pivots and flips, and the median seconds
of one cold replay of all its LPs. Exits 1 if a run's solution or a later
solve of its LP differs from the cold solve (values, objective bits or
counts), if a replay differs from the reference by a byte, or if the
totals differ from the pinned ones in ``COUNTS`` and ``RUN_STEPS``.

Then it runs PATHATTACK-greedy on the same instances with
``greedy_path_cover`` wrapped: each cover of a run, which re-covers only
the blocks of rows that have no picks (see
``pathcut.cover.greedy_path_cover``), must equal the cold greedy cover of
the same rows, ``reference_greedy_path_cover`` in ``tests/helpers.py``.
Prints, per workload, the covers, the rows of the blocks the run's greedy
re-covered and the rows of every cover, and exits 1 on a cover unequal to
the cold one or on totals that differ from ``GREEDY_ROWS``.

    PYTHONPATH=src python scripts/time_simplex.py
"""

import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "bench"))

from helpers import reference_bounded_simplex, reference_greedy_path_cover  # noqa: E402
from workloads import WORKLOADS, build_instance, instance_seeds  # noqa: E402

import pathcut.attack  # noqa: E402
import pathcut.lp  # noqa: E402
from pathcut.attack import AttackConfig, run_attack  # noqa: E402
from pathcut.lp import RelaxedCutLP, solve_relaxed  # noqa: E402

#: Seed-0 solves, and the pivots and bound flips of the cold solves of
#: their LPs, per workload. Only a change of the pivot rule, the tolerances
#: or the LPs the attack builds moves them.
COUNTS = {
    "sparse-weighted": (132, 613, 1181),
    "dense-ties": (2340, 37686, 33564),
    "lattice-hop": (245, 1174, 2593),
}
#: Seed-0 pivots and bound flips the run's simplex made, on the blocks it
#: did not reuse. These move also when the blocks a run reuses change.
RUN_STEPS = {
    "sparse-weighted": (279, 541),
    "dense-ties": (3372, 3600),
    "lattice-hop": (967, 2132),
}
#: Seed-0 PATHATTACK-greedy covers, the rows of the blocks they re-covered
#: and the rows they covered, per workload. Covers and rows move only with
#: the constraints the attack finds; the rows re-covered also move when the
#: blocks a cover keeps change.
GREEDY_ROWS = {
    "sparse-weighted": (133, 198, 463),
    "dense-ties": (2340, 4500, 46800),
    "lattice-hop": (194, 445, 588),
}
ROUNDS = 5


def swapped(owner, name, fn):
    """Set ``owner.name`` to ``fn``; return the function that undoes it."""
    saved = getattr(owner, name)
    setattr(owner, name, fn)
    return lambda: setattr(owner, name, saved)


def captured_solves(w):
    """``(lp, solution)`` of every solve of PATHATTACK-LP on the seed-0
    instances of ``w``, in solve order, and the pivots and flips its
    simplex calls made."""
    solves, steps = [], [0, 0]
    simplex, cover = pathcut.lp._bounded_simplex, pathcut.attack.lp_path_cover

    def counting(rows, costs, cap):
        x, pivots, flips = simplex(rows, costs, cap)
        steps[0] += pivots
        steps[1] += flips
        return x, pivots, flips

    def recording(lp):
        solves.append((lp, solve_relaxed(lp)))
        return solves[-1][1]

    undo = [swapped(pathcut.lp, "_bounded_simplex", counting),
            swapped(pathcut.attack, "lp_path_cover", lambda cut, rng: cover(cut, rng, solver=recording))]
    try:
        for sd in instance_seeds(w, 0):
            g, p_star = build_instance(w, sd)
            run_attack(g, p_star, AttackConfig(method="pathattack-lp", rng_seed=sd.attack))
    finally:
        for fn in undo:
            fn()
    return solves, tuple(steps)


def greedy_replay(w):
    """``(covers, rows re-covered, rows covered, covers unequal to the cold
    cover)`` of PATHATTACK-greedy on the seed-0 instances of ``w``."""
    counts = [0, 0, 0, 0]
    cover = pathcut.attack.greedy_path_cover

    def checked(cut):
        counts[0] += 1
        counts[1] += sum(len(b.rows) for b in cut.blocks if b.picks is None)
        counts[2] += len(cut.rows)
        got = cover(cut)
        rows = [SimpleNamespace(edges=row) for row in cut.rows]
        counts[3] += got != reference_greedy_path_cover(cut.g, SimpleNamespace(edges=()), rows)
        return got

    undo = swapped(pathcut.attack, "greedy_path_cover", checked)
    try:
        for sd in instance_seeds(w, 0):
            g, p_star = build_instance(w, sd)
            run_attack(g, p_star, AttackConfig(method="pathattack-greedy", rng_seed=sd.attack))
    finally:
        undo()
    return tuple(counts)


def cold_solve(lp):
    """``lp`` solved cold as a hand-built LP, and the ``(rows, costs)`` of
    its one simplex call."""
    calls = []
    simplex = pathcut.lp._bounded_simplex

    def capture(rows, costs, cap):
        calls.append((list(rows), costs.copy()))
        return simplex(rows, costs, cap)

    undo = swapped(pathcut.lp, "_bounded_simplex", capture)
    try:
        sol = solve_relaxed(RelaxedCutLP(lp.edge_order, lp.costs, lp.rows))
    finally:
        undo()
    (call,) = calls
    return sol, call


def fields(sol):
    return sol.values.tobytes(), sol.objective_value.hex(), sol.pivots, sol.flips


def main() -> int:
    print(f"{'workload':<16}{'solves':>8}{'pivots':>9}{'flips':>8}{'run piv':>9}{'run flp':>9}"
          f"{'median s':>10}{'equal':>7}")
    problems = []
    for name, want in COUNTS.items():
        solves, run_steps = captured_solves(WORKLOADS[name])
        lps = []
        pivots = flips = unequal = not_cold = later = 0
        for lp, sol in solves:
            cold, (rows, costs) = cold_solve(lp)
            not_cold += fields(sol) != fields(cold)
            later += fields(solve_relaxed(lp)) != fields(cold)
            x, p, f = pathcut.lp._bounded_simplex(rows, costs)
            pivots += p
            flips += f
            unequal += x.tobytes() != reference_bounded_simplex(rows, costs).tobytes()
            lps.append((rows, costs))
        seconds = []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            for rows, costs in lps:
                pathcut.lp._bounded_simplex(rows, costs)
            seconds.append(time.perf_counter() - t0)
        got = (len(lps), pivots, flips)
        print(f"{name:<16}{got[0]:>8}{got[1]:>9}{got[2]:>8}{run_steps[0]:>9}{run_steps[1]:>9}"
              f"{statistics.median(seconds):>10.4f}{str(not (unequal or not_cold or later)):>7}")
        if unequal:
            problems.append(f"{name}: {unequal} results unequal to the reference")
        if not_cold:
            problems.append(f"{name}: {not_cold} run solutions unequal to their cold solves")
        if later:
            problems.append(f"{name}: {later} later solves of the run's LPs unequal to their "
                            "cold solves")
        if got != want:
            problems.append(f"{name}: (solves, pivots, flips) = {got}, pinned {want}")
        if run_steps != RUN_STEPS[name]:
            problems.append(f"{name}: the run's (pivots, flips) = {run_steps}, pinned {RUN_STEPS[name]}")
    print(f"{'workload':<16}{'covers':>8}{'re-covered':>12}{'rows':>8}{'equal':>7}")
    for name, want in GREEDY_ROWS.items():
        *got, unequal = greedy_replay(WORKLOADS[name])
        print(f"{name:<16}{got[0]:>8}{got[1]:>12}{got[2]:>8}{str(not unequal):>7}")
        if unequal:
            problems.append(f"{name}: {unequal} greedy covers unequal to the cold cover")
        if tuple(got) != want:
            problems.append(f"{name}: greedy (covers, rows re-covered, rows) = {tuple(got)}, "
                            f"pinned {want}")
    if problems:
        print("\n".join(problems))
        return 1
    print("every run solution and later solve equals its cold solve, every result the "
          "reference, every greedy cover the cold cover; the counts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
