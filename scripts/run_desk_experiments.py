#!/usr/bin/env python3
"""Desk-scale experiment protocol.

Runs the four attack methods over synthetic families sized for a laptop
(n in {100, 500}; the clique family stays at n=100 where the full
quadratic blowup is still tractable), the three weight schemes, target
ranks {5, 20, 50}, 20 repetitions per block. One results directory per
(family, size, scheme) block with records.jsonl / timings.jsonl /
summary.txt. A block whose generator spec and scheme an earlier block
already ran is skipped (the complete-n500 blocks would repeat complete-n100
byte for byte), and the run prints which block it repeats.

Use --quick for a minutes-long smoke variant.
"""

import argparse
import sys
import time
from pathlib import Path

from pathcut.generators import GeneratorSpec, WeightScheme
from pathcut.harness import ExperimentConfig, run_experiments, summarize

SCHEMES = ("poisson", "uniform", "equal")


def family_specs(n: int) -> dict[str, GeneratorSpec]:
    side = round(n ** 0.5)
    return {
        "er": GeneratorSpec(family="er", n=n, p=10.0 / (n - 1)),
        "ba": GeneratorSpec(family="ba", n=n, m=5),
        "kronecker": GeneratorSpec(
            family="kronecker",
            iterations=max(2, (n - 1).bit_length()),
            density=min(1.0, 10.0 / n),  # mean degree 10; a density is at most 1
        ),
        "lattice": GeneratorSpec(family="lattice", rows=side, cols=side),
        "complete": GeneratorSpec(family="complete", n=min(n, 100)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", help="output root directory")
    ap.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")],
                    default=[100, 500])
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--ranks", type=lambda s: [int(x) for x in s.split(",")],
                    default=[5, 20, 50])
    ap.add_argument("--families", default="er,ba,kronecker,lattice,complete")
    ap.add_argument("--schemes", default=",".join(SCHEMES))
    ap.add_argument("--master-seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true",
                    help="n=100 only, 3 reps, ranks 5 and 20")
    args = ap.parse_args()

    sizes, reps, ranks = args.sizes, args.reps, args.ranks
    if args.quick:
        sizes, reps, ranks = [100], 3, [5, 20]

    out_root = Path(args.out)
    started = time.time()
    ran = {}  # (generator spec, scheme) -> the block that ran it
    for n in sizes:
        specs = family_specs(n)
        for family in args.families.split(","):
            for scheme in args.schemes.split(","):
                block = out_root / f"{family}-n{n}-{scheme}"
                first = ran.setdefault((specs[family], scheme), block)
                if first != block:
                    print(f"[{family} n={n} {scheme}] repeats {first}; skipped")
                    continue
                cfg = ExperimentConfig(
                    generator=specs[family],
                    weight_scheme=WeightScheme(kind=scheme),
                    p_star_ranks=tuple(ranks),
                    repetitions=reps,
                    master_seed=args.master_seed,
                )
                t0 = time.time()
                records = run_experiments(cfg, output_dir=block)
                ok = sum(1 for r in records if r.status == "ok")
                print(f"[{family} n={n} {scheme}] {ok}/{len(records)} ok "
                      f"in {time.time() - t0:.0f}s -> {block}")
                print(summarize(records))
    print(f"total {time.time() - started:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
