"""Outside-in layer trace: spans and counts recorded around public
functions of the library, patched at the sites they are looked up from.

Nothing in the library changes. ``Tracer.install`` replaces module
attributes (and ``Graph.remove_edges`` on the class) with wrappers for the
duration of a ``with`` block and restores them afterwards. Each wrapper
records a span (name, start, end, parent) in memory; a span's self time
is its duration minus the durations of its child spans. The run is a
single thread, so child spans never overlap.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from typing import Callable, Optional

from pathcut import attack, cover, generators, harness, lp, paths
from pathcut.graphs import Graph


#: (owner, attribute, span name) of every traced call site.
SITES = (
    (generators, "generate", "generators.generate"),
    (generators, "assign_weights", "generators.assign_weights"),
    (harness, "select_terminals", "harness.select_terminals"),
    (harness, "select_p_star", "harness.select_p_star"),
    (paths, "shortest_path", "paths.shortest_path"),
    (attack, "next_shortest_excluding", "paths.next_shortest_excluding"),
    (attack, "lp_path_cover", "cover.lp_path_cover"),
    (cover, "build_cover_lp", "lp.build_cover_lp"),
    (attack, "greedy_path_cover", "cover.greedy_path_cover"),
    (attack, "principal_eigenvector", "attack.principal_eigenvector"),
    (attack, "run_attack", "attack.run_attack"),
    (Graph, "remove_edges", "graphs.remove_edges"),
)
#: The solver is wrapped inside lp_path_cover's span, not at a site.
SOLVER_SPAN = "lp.solve_relaxed"
COUNTERS = (
    "lp.build_cover_lp.rows_total",
    "lp.build_cover_lp.active_cols_max",
    "cover.rounding_retries",
    "graphs.remove_edges.edges_copied",
)


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index or -1], in start order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch every traced call site; undo the patches on exit."""
        traced_solver = self.wrap(SOLVER_SPAN, lp.solve_relaxed)
        lp_path_cover = attack.lp_path_cover

        def lp_cover_with_traced_solver(*args, **kwargs):
            # lp_path_cover binds solve_relaxed as a default argument, so
            # the solve is timed through its documented solver= seam.
            kwargs.setdefault("solver", traced_solver)
            return lp_path_cover(*args, **kwargs)

        def count_lp(built):
            self.counts["lp.build_cover_lp.rows_total"] += len(built.rows)
            active = len({j for row in built.rows for j in row})
            key = "lp.build_cover_lp.active_cols_max"
            self.counts[key] = max(self.counts[key], active)

        def count_retries(result):
            self.counts["cover.rounding_retries"] += result.retries

        def count_copied(residual):
            self.counts["graphs.remove_edges.edges_copied"] += residual.edge_count

        counters = {
            "lp.build_cover_lp": count_lp,
            "cover.lp_path_cover": count_retries,
            "graphs.remove_edges": count_copied,
        }
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in SITES]
        try:
            for owner, attr, name in SITES:
                fn = getattr(owner, attr)
                if fn is lp_path_cover:
                    fn = lp_cover_with_traced_solver
                setattr(owner, attr, self.wrap(name, fn, counters.get(name)))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def layer_totals(self) -> dict[str, float]:
        """``<name>.s`` (self seconds) and ``<name>.calls`` per span name,
        plus the counters recorded at the wrappers; 0 for a layer never
        entered."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names = [name for _, _, name in SITES] + [SOLVER_SPAN]
        out: dict[str, float] = {f"{n}.{k}": 0 for n in names for k in ("s", "calls")}
        out.update({c: 0 for c in COUNTERS})
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.s"] += end - start - child[i]
            out[f"{name}.calls"] += 1
        out.update(self.counts)
        return out

    def write_spans(self, path) -> None:
        """One JSON array ``[name, start, end, parent]`` per line."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
