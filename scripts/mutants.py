#!/usr/bin/env python3
"""The mutant ledger: defects the tests were shown to catch, re-checked.

    PYTHONPATH=src python scripts/mutants.py

Each row of ``MUTANTS`` names a file under ``src/``, an exact text in it,
the text that replaces it, and the tests expected to catch the change. For
each row the script copies ``src/`` to a temporary directory, applies the
edit there, and runs the named tests against the copy with ``pytest -x``.
A mutant is killed when pytest reports one of its named tests as failed;
the exit code alone is not enough, since a crash of the session is no
proof that a test caught the defect. The script exits 1 if a mutant
survives, or if a row's old text is not in its file exactly once, so the
table is edited together with the code.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: The tier-1 warning filters, as in check_contract.PYTEST_W.
PYTEST_W = ["-W", "error", "-W", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"]

#: (file under src/, old text, new text, tests expected to fail).
MUTANTS = (
    # The attack loop caps its oracle one below len(p*): ties go uncut.
    ("pathcut/attack.py",
     "max_length=p_len)",
     "max_length=p_len - 1)",
     ["tests/test_attack.py::test_feasibility_and_protection_on_random_instances"]),
    # The spur skip applies only under the full list's cutoff, not under
    # the cap alone: the same answers from more searches.
    ("pathcut/paths.py",
     "            if limit is not None:\n",
     "            if limit is not None and len(candidates) == left:\n",
     ["tests/test_paths.py::test_capped_oracle_runs_fewer_spur_searches"]),
    # The spur skip without its mask term: searches that return None.
    ("pathcut/paths.py",
     " not in banned\n                            and (allowed is None or v in allowed)):",
     " not in banned):",
     ["tests/test_paths.py::test_lawler_ranking_runs_fewer_spur_searches"]),
    # The oracle applies max_length to float weights, whose spur sums
    # round in another order than path_length.
    ("pathcut/paths.py",
     "cap = max_length if max_length is not None and g._int_weights else math.inf",
     "cap = max_length if max_length is not None else math.inf",
     ["tests/test_paths.py::test_float_weights_ignore_the_oracle_cap"]),
    # Bland's rule: a bound flip leaves its column enterable.
    ("pathcut/lp.py",
     "mask &= mask - 1",
     "pass",
     ["tests/test_lp.py"]),
    # A sparse pivot that leaves the mask unchanged: the entering column
    # stays eligible, and columns the pivot made eligible are not.
    ("pathcut/lp.py",
     "                if (r > tol) if at_upper[k] else (r < -tol):\n"
     "                    mask |= 1 << k\n"
     "                else:\n"
     "                    mask &= ~(1 << k)\n",
     "                pass\n",
     ["tests/test_lp.py::test_simplex_enters_a_smaller_column_that_a_pivot_made_eligible"]),
    # A sparse pivot that updates the bits of the entering and the leaving
    # column only, though it moves the reduced costs of its whole row.
    ("pathcut/lp.py",
     "                if (r > tol) if at_upper[k] else (r < -tol):\n",
     "                if k != j and k != leaving:\n"
     "                    pass\n"
     "                elif (r > tol) if at_upper[k] else (r < -tol):\n",
     ["tests/test_lp.py::test_simplex_enters_a_smaller_column_that_a_pivot_made_eligible"]),
    # A simplex that never re-prices after a sparse pivot.
    ("pathcut/lp.py",
     "r = rc[k] = rc[k] - f * r",
     "r = rc[k]",
     ["tests/test_lp.py::test_simplex_bit_identical_to_numpy_loop_on_random_lps"]),
    # A merge that keeps the merged block's old solve: the new row's block
    # reuses the solve of the rows it held before.
    ("pathcut/lp.py",
     "block.picks = block.solve = None",
     "block.picks = None",
     ["tests/test_lp.py::test_every_solve_of_a_run_equals_a_cold_solve"]),
    # A merge that keeps the merged block's old picks: the greedy cover
    # misses the new row.
    ("pathcut/lp.py",
     "block.picks = block.solve = None",
     "block.solve = None",
     ["tests/test_lp.py::test_every_greedy_cover_of_a_run_equals_a_cold_cover"]),
    # A greedy cover that leaves out the blocks whose picks it kept.
    ("pathcut/cover.py",
     "            block.picks = _block_cover(cut, block)\n"
     "        chosen += block.picks\n",
     "            block.picks = _block_cover(cut, block)\n"
     "            chosen += block.picks\n",
     ["tests/test_lp.py::test_every_greedy_cover_of_a_run_equals_a_cold_cover"]),
    # Solution counts that omit the reused blocks' pivots and flips (the
    # cap then misses them too).
    ("pathcut/lp.py",
     "        values[active] = x\n        pivots += p\n        flips += f\n    cap = ",
     "        values[active] = x\n    cap = ",
     ["tests/test_lp.py::test_every_solve_of_a_run_equals_a_cold_solve",
      "tests/test_lp.py::test_simplex_bit_identical_to_numpy_loop_on_dense_ties"]),
    # A step cap that ignores the reused blocks' steps.
    ("pathcut/lp.py",
     "cap = _step_cap(len(lp.rows), width) - pivots - flips",
     "cap = _step_cap(len(lp.rows), width)",
     ["tests/test_lp.py::test_run_solve_hits_the_step_cap_where_a_cold_solve_does"]),
    # An older LP of a run solved on the run's live blocks: it reads rows
    # it does not hold, or the solves of rows it does not hold.
    ("pathcut/lp.py",
     "len(lp.rows) == len(run.rows)",
     "True",
     ["tests/test_lp.py::test_an_older_lp_of_a_run_is_solved_cold_and_keeps_nothing"]),
    # Lengths compared in float only: ints above 2**53 tie apart, and
    # p* = 0-1-2 counts as strictly shorter than its tie 0-3-2.
    ("pathcut/graphs.py",
     "    if type(a) is int and type(b) is int:\n        return a > b\n",
     "",
     ["tests/test_attack.py::test_an_int_tie_above_2_to_the_53_is_cut"]),
    # Greedy eigenscore's old tie rule, min(-ratio, key): ratios a few units
    # in the last place apart decide, so plans follow the summation order.
    ("pathcut/attack.py",
     "return min(e for e, r in zip(candidates, ratios) if r >= floor)",
     "return min(candidates, key=lambda e: (-ratio(e), e))",
     ["tests/test_attack.py::test_eigenscore_ties_within_the_relative_tolerance_go_to_the_smallest_key"]),
    # A p*-first hint that trusts p*: the oracle ranks from a p* that is no
    # path of the graph minus the bans.
    ("pathcut/paths.py",
     "if p_star_first and not live:",
     "if False:",
     ["tests/test_paths.py::test_oracle_rejects_a_hint_that_is_no_path_of_the_graph_minus_its_bans"]),
    # The first search capped at len(p*) whenever p*'s edges exist, bans
    # ignored: for a p* through a banned edge it can return None where a
    # longer competitor exists.
    ("pathcut/paths.py",
     "max_length=min(path_length(g, p_star), cap) if live\n",
     "max_length=min(path_length(g, p_star), cap)\n"
     "                              if all(map(g._weights.__contains__, p_star.edges))\n",
     ["tests/test_paths.py::test_oracle_agrees_with_unbounded_iterator"]),
    # The target check without its edge test: p*'s missing edge is reported
    # by path_length, with another message.
    ("pathcut/graphs.py",
     "if not g.has_edge(u, v):",
     "if False:",
     ["tests/test_attack.py::test_run_attack_rejects_a_target_path_without_edges_or_off_the_graph"]),
    # The cut LP without its cost-sum check: PATHATTACK-LP's objective
    # overflows to inf.
    ("pathcut/lp.py",
     "if total > sys.float_info.max:",
     "if False:",
     ["tests/test_attack.py::test_lp_costs_beyond_the_float_range_are_an_input_error"]),
    # The power iteration's skip band set to 0: a step that could pass the
    # residual test is skipped, and the iteration stops later.
    ("pathcut/attack.py",
     "band = 16 * (n + 2) * 2.0**-53",
     "band = 0",
     ["tests/test_attack.py::test_eigenvector_bit_identical_to_three_product_loop",
      "tests/test_attack.py::test_eigenvector_stops_at_the_three_product_loops_step"]),
)


def failed_tests(output):
    """The node ids pytest's ``-rf`` summary reports as failed."""
    return [line.split()[1] for line in output.splitlines() if line.startswith("FAILED ")]


def caught(failed, tests):
    """Whether a failed node id is one of ``tests``, or inside one of them
    (a parametrized case, or a test of a named file)."""
    return any(f == t or f.startswith(t + "[") or f.startswith(t + "::")
               for f in failed for t in tests)


def run_mutant(path, old, new, tests):
    """``(verdict, seconds)`` for one row: killed, survived or stale."""
    source = (ROOT / "src" / path).read_text(encoding="utf-8")
    if source.count(old) != 1:
        return f"stale: the old text occurs {source.count(old)} times in src/{path}", 0.0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / path).write_text(source.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import pathcut; print(pathcut.__file__)"],
                               cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE,
                               text=True).stdout.strip()
        if not Path(where).is_relative_to(src):
            return f"not run: pathcut imports from {where}, not the mutated copy", 0.0
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pytest", *PYTEST_W, "-x", "-q", "-rf", "-p", "no:cacheprovider",
             *tests],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        seconds = time.perf_counter() - start
    if caught(failed_tests(result.stdout), tests):
        return "killed", seconds
    return f"survived (pytest exit {result.returncode})", seconds


def main():
    bad = 0
    for path, old, new, tests in MUTANTS:
        verdict, seconds = run_mutant(path, old, new, tests)
        print(f"{verdict:<10} {seconds:5.1f} s  src/{path}: {old.strip()!r} -> {new.strip()!r}")
        bad += verdict != "killed"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.stdout.reconfigure(line_buffering=True)
    sys.exit(main())
