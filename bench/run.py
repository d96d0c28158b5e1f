"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload dense-ties --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The run is a closed loop in one process and one thread: one instance is
set up, then attacked by each of the four methods in turn, then the next
instance follows. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` over
``PASSES`` passes through the workload's instances, spread over the run.
Times are in seconds at a reference machine speed: the fixed kernel of
:mod:`calibrate` runs after every set-up and attack, and each item's wall
time is scaled by the kernel's reference time over its measured time
next to the item. On a shared host one thread's speed drifts by half or
more within minutes; the scaling removes most of that, since the item and
the kernel slow down together. The measured wall-clock figures are
printed on the line before the result.

Each set-up and each attack is a deterministic computation; its figure
is the median of its passes' times, and a metric sums these medians
over the instances. The median keeps the common speed when a pass met a
brief spell that the kernel next to it did not. The instance counts are
sized so that three passes take about 0.8 of ``--seconds``. A pass that
would end later than ``LIMIT * --seconds`` is not started, so a run on a
machine slowed by other load, or of a regressed version, still ends in
time; its figures then rest on fewer passes.

``--trace 1`` measures the per-layer metrics in one pass: each instance
runs untraced and then traced, back to back. The difference of the two
sides' wall-clock totals is ``trace.overhead_s``; traced times are not
scaled, as the spans are not. Spans are written to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.

Every plan of the first pass (the traced pass with ``--trace 1``) is
checked outside the timed region by :mod:`plancheck`, and for the
reference seed also against ``reference.json``. Every later pass must
reproduce the first pass's deterministic fields. An attack that raises
or fails any of these checks counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path as FsPath

# One process, one thread: keep the BLAS behind numpy's matrix products
# single-threaded, as the rest of the run is.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = FsPath(__file__).resolve().parent.parent
BENCH_DIR = FsPath(__file__).resolve().parent
if not (ROOT / "src" / "pathcut").is_dir():
    sys.exit(f"bench: no library source at {ROOT / 'src' / 'pathcut'}; run from a checkout")
sys.path.insert(0, str(ROOT / "src"))

from pathcut import attack  # noqa: E402
from pathcut.attack import METHODS, AttackConfig  # noqa: E402

from calibrate import REFERENCE_S, make_kernel  # noqa: E402
from plancheck import plan_violation  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, build_instance, instance_seeds  # noqa: E402

PASSES = 3
#: No pass starts that would end after this share of ``--seconds``.
LIMIT = 1.1
#: Workload seed whose outcomes ``reference.json`` records.
REFERENCE_SEED = 0
REFERENCE_FILE = BENCH_DIR / "reference.json"


def plan_fields(plan) -> dict:
    """The deterministic fields a performance change must not move."""
    return {
        "total_cost": plan.total_cost,
        "removed_edges": sorted([list(e) for e in plan.removed_edges]),
        "constraints_generated": plan.constraints_generated,
        "iterations": plan.iterations,
        "lp_integral": plan.lp_integral,
        "rounding_retries": plan.rounding_retries,
    }


#: Timed items of an instance: its set-up, then one attack per method.
ITEMS = ("setup",) + tuple(METHODS)


@dataclass
class Pass:
    """Timings and outcomes of one pass over a workload's instances."""

    #: seconds[item][i]: seconds of ``item`` on instance i at the reference
    #: speed of ``calibrate``; wall[item][i]: the measured wall time.
    seconds: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in ITEMS})
    wall: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in ITEMS})
    #: outcomes[i][k]: plan fields of method METHODS[k] on instance i, or
    #: {"error": ...}; {"violation": ...} is added when the check fails.
    outcomes: list[list[dict]] = field(default_factory=list)

    def wall_total(self) -> float:
        return sum(sum(ts) for ts in self.wall.values())


class Clock:
    """Records timed items, scaling each by the machine's speed around it.

    With a kernel from ``calibrate``, the kernel runs after every item,
    and an item's seconds at the reference speed are its wall time times
    ``REFERENCE_S`` over the mean of the kernel times just before and just
    after it. Without one, the seconds are the wall time.
    """

    def __init__(self, kernel=None):
        self.kernel = kernel
        self.last = kernel() if kernel is not None else REFERENCE_S

    def record(self, into: Pass, item: str, wall: float) -> None:
        before = self.last
        if self.kernel is not None:
            self.last = self.kernel()
        into.seconds[item].append(wall * 2 * REFERENCE_S / (before + self.last))
        into.wall[item].append(wall)


def run_instance(w: Workload, sd, check: bool, into: Pass, clock: Clock) -> None:
    """Set up one instance and attack it with every method, appending the
    timings and outcomes to ``into``."""
    start = time.perf_counter()
    g, p_star = build_instance(w, sd)
    clock.record(into, "setup", time.perf_counter() - start)
    row = []
    for method in METHODS:
        cfg = AttackConfig(method=method, rng_seed=sd.attack)
        start = time.perf_counter()
        try:
            plan = attack.run_attack(g, p_star, cfg)
        except Exception as exc:  # any raise is a failed attack, not a crash
            clock.record(into, method, time.perf_counter() - start)
            traceback.print_exc(file=sys.stderr)
            row.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        clock.record(into, method, time.perf_counter() - start)
        fields = plan_fields(plan)
        if check:
            violation = plan_violation(g, p_star, plan.removed_edges)
            if violation is not None:
                fields["violation"] = violation
        row.append(fields)
    into.outcomes.append(row)


def run_pass(w: Workload, seeds, check: bool, clock: Clock) -> Pass:
    out = Pass()
    for sd in seeds:
        run_instance(w, sd, check, out, clock)
    return out


def reference_outcomes(w: Workload, seed: int):
    """Recorded outcomes of ``w`` for ``seed``, or None without a record."""
    if not REFERENCE_FILE.is_file():
        return None
    ref = json.loads(REFERENCE_FILE.read_text(encoding="ascii"))
    return ref["workloads"].get(w.name) if ref["seed"] == seed else None


def failures(checked: Pass, others: list[Pass], expected) -> list[str]:
    """One line per failed attack over all passes. ``checked`` carries the
    plan-check verdicts; ``expected`` holds reference outcomes or None."""
    out = []
    for i, row in enumerate(checked.outcomes):
        for k, got in enumerate(row):
            where = f"instance {i} {METHODS[k]}"
            if "error" in got:
                out.append(f"{where}: raised {got['error']}")
            elif "violation" in got:
                out.append(f"{where}: plan check failed: {got['violation']}")
            elif expected is not None and (i >= len(expected) or expected[i][k] != got):
                out.append(f"{where}: differs from the reference fields")
    for n, other in enumerate(others, start=1):
        for i, row in enumerate(other.outcomes):
            for k, got in enumerate(row):
                where = f"pass {n} instance {i} {METHODS[k]}"
                want = {key: v for key, v in checked.outcomes[i][k].items() if key != "violation"}
                if "error" in got:
                    out.append(f"{where}: raised {got['error']}")
                elif got != want:
                    out.append(f"{where}: differs from the checked pass")
    return out


def end_to_end(passes: list[Pass], times: str = "seconds") -> dict[str, float]:
    """The end-to-end metrics from the passes' ``times`` ("seconds" or
    "wall"): each item's median over the passes, summed over instances."""
    med = statistics.median
    typical = {k: [med(ts) for ts in zip(*(getattr(p, times)[k] for p in passes))] for k in ITEMS}
    values = {f"attack_s.{m}": sum(typical[m]) for m in METHODS}
    values["setup_s"] = sum(typical["setup"])
    values["attack_p50_s"] = med(t for m in METHODS for t in typical[m])
    values["instances_per_s"] = len(typical["setup"]) / sum(sum(ts) for ts in typical.values())
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def per_layer(tracer: Tracer, traced: Pass, untraced: Pass) -> dict[str, float]:
    values = tracer.layer_totals()
    plans = [o for row in traced.outcomes for o in row if "error" not in o]
    oracle_calls = values.get("paths.next_shortest_excluding.calls", 0)
    values["paths.oracle_hit_frac"] = (
        sum(p["iterations"] for p in plans) / oracle_calls if oracle_calls else 0.0)
    values["attack.constraints_total"] = sum(p["constraints_generated"] for p in plans)
    values["trace.overhead_s"] = traced.wall_total() - untraced.wall_total()
    return values


def run(w: Workload, seed: int, seconds: float, trace: bool, spans_dir=None):
    """Measure ``w`` for workload seed ``seed``.

    Returns ``(values, attempted, failure_lines, passes_run)``; ``values``
    maps every metric this mode can report to its value. Without tracing
    it also holds ``wall.<metric>``: the timing metrics from measured wall
    time rather than at the reference speed.
    """
    seeds = instance_seeds(w, seed)
    if trace:
        # Each instance runs untraced and then traced, back to back, so
        # drift in machine speed touches both sides of the overhead alike.
        untraced, traced, tracer, clock = Pass(), Pass(), Tracer(), Clock()
        for sd in seeds:
            run_instance(w, sd, False, untraced, clock)
            with tracer.install():
                run_instance(w, sd, True, traced, clock)
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(spans_dir / f"spans-{w.name}-seed{seed}.jsonl")
        values = per_layer(tracer, traced, untraced)
        checked, others = traced, [untraced]
    else:
        start = time.perf_counter()
        clock = Clock(make_kernel())
        checked = run_pass(w, seeds, True, clock)
        others = []
        last = time.perf_counter() - start
        while len(others) + 1 < PASSES and time.perf_counter() - start + last <= LIMIT * seconds:
            begun = time.perf_counter()
            others.append(run_pass(w, seeds, False, clock))
            last = time.perf_counter() - begun
        values = end_to_end([checked] + others)
        wall = end_to_end([checked] + others, "wall")
        values.update((f"wall.{k}", v) for k, v in wall.items() if k != "peak_rss_mb")
    passes = 1 + len(others)
    failed = failures(checked, others, reference_outcomes(w, seed))
    return values, passes * w.instances * len(METHODS), failed, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    w = WORKLOADS[args.workload]
    values, attempted, failed, passes = run(
        w, args.seed, args.seconds, bool(args.trace), spans_dir=ROOT / ".bench_out")

    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{w.name} seed={args.seed}: {w.instances} instances x {len(METHODS)} methods, "
          f"{passes} pass(es), {w.instances * len(METHODS)} attack samples per pass, "
          f"{len(failed)} of {attempted} attacks failed")
    wall = {k[len("wall."):]: v for k, v in values.items() if k.startswith("wall.")}
    if wall:
        print("measured wall time: " + json.dumps(wall))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
