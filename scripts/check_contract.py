#!/usr/bin/env python3
"""The reproduction's contract: every check that CI runs after the tier-1 tests.

    PYTHONPATH=src python scripts/check_contract.py [STEP ...]

With no argument, runs every step in ``STEPS``; otherwise the named ones,
in the order given. It runs all of them even after one fails, names each
failed step, and exits 1 if any failed.

The pinned values live in two places: ``TRACE_COUNTS`` below, and one
``scripts/<name>.sha256`` per record set, in ``sha256sum -c`` format
(relative to the run directory), so a by-hand check still works. A
deliberate change of what the program computes re-pins them in the same
commit: edit ``TRACE_COUNTS``, or regenerate a checksum file with
``sha256sum`` in a run directory.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Warnings fail every library run, as in the tier-1 step.
PYTHON_W = [sys.executable, "-W", "error"]
# Test runs fail on warnings too, but for the DeprecationWarning Hypothesis's
# plugin raises while it reports a failure: as an error it would end the
# session before the failure is named.
PYTEST_W = [sys.executable, "-m", "pytest", "-q", "-W", "error",
            "-W", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"]

TRACE_NAMES = (
    "attack.constraints_total", "lp.build_cover_lp.calls", "lp.solve_relaxed.calls",
    "lp.build_cover_lp.rows_total", "lp.build_cover_lp.active_cols_max",
    "cover.rounding_retries", "paths.shortest_path.calls",
    "paths.next_shortest_excluding.calls", "cover.greedy_path_cover.calls",
    "attack.run_attack.calls", "attack.principal_eigenvector.calls",
)
# Seed-0 counts of the per-layer trace, in TRACE_NAMES order. A refactor
# that moves work off a traced call site zeroes or changes one of them, so
# each must hold exactly; only an intended change of the LP, the oracle or
# the path ranking moves them. The run_attack and principal_eigenvector
# counts catch a driver that calls itself or binds a traced name locally.
TRACE_COUNTS = {
    "sparse-weighted": (265, 132, 132, 456, 22, 0, 1125, 639, 133, 92, 23),
    "dense-ties": (4680, 2340, 2340, 46800, 51, 0, 13777, 8160, 2340, 240, 60),
    "lattice-hop": (439, 245, 245, 924, 34, 1, 3970, 965, 194, 176, 44),
}


class ContractError(Exception):
    """A step's output differs from what the contract pins."""


def run(cmd, env=(), cwd=ROOT, quiet=False):
    """Run ``cmd`` on the checkout's source; raise on a non-zero exit."""
    subprocess.run(cmd, cwd=cwd, check=True,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **dict(env)},
                   stdout=subprocess.DEVNULL if quiet else None)


def trace_problems(workload, result):
    """What in one ``bench/run.py --trace 1`` result breaks the contract."""
    problems = [f"{workload}: {name} = {result['metrics'][name]['value']}, expected {want}"
                for name, want in zip(TRACE_NAMES, TRACE_COUNTS[workload], strict=True)
                if result["metrics"][name]["value"] != want]
    # bench/run.py exits 0 even when a plan fails its check (plancheck
    # and, for seed 0, reference.json), so the verdict is read from the
    # JSON result.
    if result["correct"] is not True:
        problems.append(f"{workload}: correct is {result['correct']!r}, failed: {result['failed']}")
    return problems


def check_trace_counts():
    problems = []
    for workload in TRACE_COUNTS:
        out = subprocess.run(
            PYTHON_W + ["bench/run.py", "--workload", workload, "--seed", "0", "--trace", "1"],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
        result = json.loads(out.splitlines()[-1])
        print(workload, "correct:", result["correct"], "failed:", result["failed"],
              {name: result["metrics"][name]["value"] for name in TRACE_NAMES})
        problems += trace_problems(workload, result)
    if problems:
        raise ContractError("\n".join(problems))


def records_map(out):
    """``{path relative to out: sha256}`` of every records.jsonl under ``out``."""
    out = Path(out)
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("records.jsonl"))}


def read_sums(path):
    """The ``{path: sha256}`` map of a ``sha256sum`` checksum file."""
    sums = {}
    for n, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        digest, sep, name = line.partition("  ")
        if not sep or len(digest) != 64 or name in sums:
            raise ContractError(f"{path}:{n}: not a sha256sum line, or a repeated file: {line!r}")
        sums[name] = digest
    return sums


def map_problems(label, got, want, want_label):
    """Each path whose digest in ``got`` is missing, extra or not the one in ``want``."""
    problems = []
    for path in sorted(got.keys() | want.keys()):
        if path not in got:
            problems.append(f"{label}: {path} missing (in {want_label})")
        elif path not in want:
            problems.append(f"{label}: {path} not in {want_label}")
        elif got[path] != want[path]:
            problems.append(f"{label}: {path} differs from {want_label}")
    return problems


def records_problems(runs, pinned, pinned_name):
    """Where the records maps of a set's runs break the contract.

    ``runs`` maps a label to the records map of one run; the first run is
    compared with the pinned sums and every other run with the first.
    """
    (first_label, first), *others = runs.items()
    problems = [] if first else [f"{first_label}: no records.jsonl"]
    problems += map_problems(first_label, first, pinned, pinned_name)
    for label, got in others:
        problems += map_problems(label, got, first, first_label)
    return problems


def check_records(name, cmd, variants=()):
    """Run one record set and compare its records.jsonl files, byte for byte.

    Records depend on the master seed only, not on the hash seed (set and
    dict order): ``cmd`` runs under two hash seeds, and both runs, then
    each variant ``(label, env, cwd)``, must give the records pinned in
    ``scripts/<name>.sha256``.
    """
    pinned_name = f"scripts/{name}.sha256"
    pinned = read_sums(ROOT / pinned_name)
    hash_seeds = [(f"PYTHONHASHSEED={s}", {"PYTHONHASHSEED": s}, ROOT) for s in ("1", "2")]
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, env, cwd in hash_seeds + list(variants):
            out = Path(tmp) / str(len(runs))
            run(cmd + ["--out", str(out)], env=env, cwd=cwd, quiet=True)
            runs[label] = records_map(out)
    problems = records_problems(runs, pinned, pinned_name)
    if problems:
        raise ContractError("\n".join(problems))
    print(f"{name}: {len(pinned)} records.jsonl match {pinned_name} under {', '.join(runs)}")


def check_desk_quick():
    # A run under OpenBLAS's Prescott kernel (no fused multiply-add) must
    # match too, so records do not depend on the BLAS kernel. The LP
    # objective's bit test runs under that kernel as well: it keeps the dot
    # over all columns, whose bits a compacted dot would not keep.
    prescott = {"OPENBLAS_CORETYPE": "Prescott"}
    check_records("desk_quick", PYTHON_W + ["scripts/run_desk_experiments.py", "--quick"],
                  [("OPENBLAS_CORETYPE=Prescott", prescott, ROOT)])
    run(PYTEST_W + ["tests/test_lp.py::test_solution_is_the_simplex_array_and_keeps_the_full_dot"],
        env=prescott)


def check_float_weights():
    # Desk records have int weights only. A small float-weighted edge list
    # pins the other side: float graphs rank without the spur-search cutoff
    # and the exact distance bound, but the oracle's first search is capped
    # at len(p*) for them too, and their records must not move either.
    # The same file with its lines reversed must give the same bytes: a
    # graph's edge order is fixed when it is built, not by the file. Records
    # name the edge list by the path given, so the reversed copy is read by
    # the same relative path from another directory.
    edges = "scripts/float_weights.edges"
    with tempfile.TemporaryDirectory() as rev:
        (Path(rev) / "scripts").mkdir()
        lines = (ROOT / edges).read_bytes().splitlines(keepends=True)
        (Path(rev) / edges).write_bytes(b"".join(reversed(lines)))
        check_records("float_weights",
                      PYTHON_W + ["-m", "pathcut.cli", "experiment", "--edge-list", edges,
                                  "--ranks", "2,5,20", "--reps", "6"],
                      [("line-reversed edge list", {}, rev)])


def check_ba5000():
    # Desk graphs stop at 500 nodes. A BA graph with 5,000 nodes and 25,000
    # edges pins records where a search's per-node state is large.
    check_records("ba5000",
                  PYTHON_W + ["-m", "pathcut.cli", "experiment", "--family", "ba", "--n", "5000",
                              "--m", "5", "--weights", "poisson", "--ranks", "50", "--reps", "10",
                              "--master-seed", "1"])


STEPS = {
    # Cold cut-LP builds on BA graphs of 25,000 and 250,000 edges: prints
    # the seconds per build and exits 1 on an LP that differs from the
    # reference build of tests/helpers.py.
    "cover-columns": lambda: run(PYTHON_W + ["scripts/time_cover_columns.py"]),
    # The simplex on the seed-0 workloads' cover LPs: prints the cold
    # solves' pivots and flips, the run's own, and seconds per workload, and
    # exits 1 on a run solution that differs from its cold solve, a result
    # that differs from the reference loop of tests/helpers.py, or on moved
    # counts. Then the greedy cover on the same instances: prints the rows
    # the run's block greedy re-covered, and exits 1 on a cover that differs
    # from the cold greedy of tests/helpers.py, or on moved counts.
    "simplex": lambda: run(PYTHON_W + ["scripts/time_simplex.py"]),
    "bench-tests": lambda: run(PYTEST_W + ["bench/test_bench.py"]),
    # Each row of scripts/mutants.py, applied to a copy of src/, must fail
    # its named tests (run with the tier-1 warning filters).
    "mutants": lambda: run(PYTHON_W + ["scripts/mutants.py"]),
    "trace-counts": check_trace_counts,
    "desk_quick": check_desk_quick,
    "float_weights": check_float_weights,
    "ba5000": check_ba5000,
}


def main(argv):
    unknown = [name for name in argv if name not in STEPS]
    if unknown:
        print(f"unknown step {', '.join(unknown)}; steps: {' '.join(STEPS)}", file=sys.stderr)
        return 2
    failed = []
    for name in argv or STEPS:
        print(f"== {name}")
        try:
            STEPS[name]()
            continue
        except (ContractError, subprocess.CalledProcessError) as exc:
            print(exc)
        except Exception:  # a crash fails its own step only; the others still run
            traceback.print_exc(file=sys.stdout)
        print(f"{name} FAILED")
        failed.append(name)
    print("contract:", f"FAILED {' '.join(failed)}" if failed else "all steps passed")
    return 1 if failed else 0


if __name__ == "__main__":
    # Child processes write to the same stdout; keep the lines in order.
    sys.stdout.reconfigure(line_buffering=True)
    sys.exit(main(sys.argv[1:]))
