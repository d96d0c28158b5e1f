"""Force a chosen path to become the exclusive shortest path by removing
a minimum-cost set of edges.

Public surface: graph/path primitives, the path-ranking iterator and its
constraint oracle, the relaxed-LP engine, the two covering subroutines,
the attack driver, the hardness transformation with exact desk-scale
oracles, synthetic generators, and the experiment harness.
"""

from .attack import (
    METHODS,
    AttackConfig,
    principal_eigenvector,
    run_attack,
)
from .cover import LPCoverResult, greedy_path_cover, lp_path_cover
from .errors import (
    ConvergenceError,
    InfeasibleError,
    InputError,
    InstanceSkip,
    IterationLimitError,
    MismatchError,
    PathCutError,
    RoundingFailureError,
    SizeError,
)
from .generators import GeneratorSpec, WeightScheme, assign_weights, generate
from .graphs import (
    LENGTH_TOL,
    CutPlan,
    Graph,
    Path,
    bfs_hops,
    edge_key,
    make_cut_plan,
    path_length,
    shortest_path,
    strictly_longer,
)
from .harness import (
    ExperimentConfig,
    ExperimentRecord,
    LoadedGraph,
    load_edge_list,
    run_experiments,
    save_edge_list,
    select_p_star,
    select_terminals,
    summarize,
)
from .lp import (
    CutRows,
    LPSolution,
    RelaxedCutLP,
    build_cover_lp,
    is_integral,
    solve_relaxed,
)
from .paths import PathIterator, k_shortest_paths, next_shortest_excluding
from .reduction import (
    ForcePathInstance,
    TerminalCutInstance,
    brute_force_3tc,
    brute_force_force_path_cut,
    create_force_path_input,
    enumerate_simple_paths,
    solve_3tc_via_fpc,
)

__version__ = "0.1.0"
