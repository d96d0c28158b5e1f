"""Record the reference deterministic fields of every workload.

    python3 bench/make_reference.py

Runs one checked pass of each workload at ``run.REFERENCE_SEED`` and
writes ``reference.json`` beside this file: per workload, per instance,
per method, the plan's cost, removed edges, constraint and iteration
counts, LP integrality and rounding retries. Re-record only when a
workload's definition changes. A change to the library must reproduce
the file, not rewrite it.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS, instance_seeds


def main() -> int:
    lines = ["{", f'"seed": {run.REFERENCE_SEED},', '"workloads": {']
    for n, (name, w) in enumerate(WORKLOADS.items()):
        checked = run.run_pass(w, instance_seeds(w, run.REFERENCE_SEED), True, run.Clock())
        bad = run.failures(checked, [], None)
        if bad:
            print("\n".join(bad), file=sys.stderr)
            print(f"{name}: {len(bad)} attacks failed; reference not written", file=sys.stderr)
            return 1
        rows = [json.dumps(row, separators=(",", ":"))
                for row in checked.outcomes]
        lines.append(f"{json.dumps(name)}: [")
        lines.append(",\n".join(rows))
        lines.append("]" + ("," if n + 1 < len(WORKLOADS) else ""))
    lines += ["}", "}"]
    run.REFERENCE_FILE.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {run.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
