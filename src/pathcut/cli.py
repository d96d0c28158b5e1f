"""Command-line interface.

Verbs: ``generate`` (write a synthetic graph as an edge list), ``attack``
(run one method on one instance), ``experiment`` (seeded batch with
records/timings/summary output), ``reduce-check`` (verify the 3-terminal
transformation against direct brute force), ``brute-force`` (exact
optimum on a small instance). Failures print a JSON error object to
stderr and exit with the category's code (see :mod:`pathcut.errors`).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import reduction
from .attack import METHODS, AttackConfig, run_attack
from .errors import InputError, PathCutError, exit_code_for
from .generators import FAMILIES, WEIGHT_KINDS, GeneratorSpec, WeightScheme, assign_weights, generate
from .graphs import Path, path_length, strictly_longer
from .harness import (
    ExperimentConfig,
    load_edge_list,
    neighborhood_mask,
    read_ascii,
    run_experiments,
    save_edge_list,
    select_p_star,
    summarize,
)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _p_star(text: str) -> Path:
    # Not an argparse type= (which would exit with a usage message): a bad
    # node id is an input error, reported as JSON like the others.
    try:
        return Path(_int_list(text))
    except ValueError as exc:
        raise InputError(f"--p-star {text!r}: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pathcut")
    top.add_argument("-v", "--verbose", action="store_true")
    sub = top.add_subparsers(dest="verb", required=True)

    # Generator and weight-scheme arguments of generate and experiment.
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--n", type=int)
    graph.add_argument("--p", type=float)
    graph.add_argument("--m", type=int)
    graph.add_argument("--iterations", type=int)
    graph.add_argument("--density", type=float)
    graph.add_argument("--rows", type=int)
    graph.add_argument("--cols", type=int)
    graph.add_argument("--weights", choices=WEIGHT_KINDS)
    graph.add_argument("--rate", type=float, default=20.0)
    graph.add_argument("--upper", type=int, default=41)
    graph.add_argument("--value", type=int, default=1)

    gen = sub.add_parser("generate", parents=[graph], help="write a synthetic graph edge list")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--weight-seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    atk = sub.add_parser("attack", help="run one attack on one instance")
    atk.add_argument("--graph", required=True)
    atk.add_argument("--method", default="pathattack-lp", choices=METHODS)
    group = atk.add_mutually_exclusive_group(required=True)
    group.add_argument("--p-star", help="comma-separated node ids of the target path")
    group.add_argument("--rank", type=int, help="use the k-th shortest s-t path as the target")
    atk.add_argument("--source", type=int)
    atk.add_argument("--target", type=int)
    atk.add_argument("--neighborhood-cap", type=int)
    atk.add_argument("--seed", type=int, default=0)
    atk.add_argument("--budget", type=float)
    atk.add_argument("--iteration-cap", type=int)

    exp = sub.add_parser("experiment", parents=[graph], help="run a seeded experiment batch")
    exp.add_argument("--config", help="JSON file with an ExperimentConfig")
    exp.add_argument("--family", choices=FAMILIES)
    exp.add_argument("--edge-list")
    exp.add_argument("--terminal-mode", choices=("uniform", "hop"), default="uniform")
    exp.add_argument("--hop-distance", type=int, default=50)
    exp.add_argument("--neighborhood-cap", type=int, default=60)
    exp.add_argument("--ranks", type=_int_list, default=[5, 20, 50])
    exp.add_argument("--methods", default=",".join(METHODS))
    exp.add_argument("--reps", type=int, default=20)
    exp.add_argument("--master-seed", type=int, default=0)
    exp.add_argument("--out", required=True)

    red = sub.add_parser("reduce-check", help="verify the terminal-cut transformation")
    red.add_argument("--max-nodes", type=int, default=4)
    red.add_argument("--random-instances", type=int, default=50)
    red.add_argument("--random-nodes", type=int, default=6)
    red.add_argument("--eps", type=lambda s: [float(x) for x in s.split(",")],
                     default=[0.5, 1.0, 10.0])
    red.add_argument("--seed", type=int, default=0)

    bru = sub.add_parser("brute-force", help="exact optimum on a small instance")
    bru.add_argument("--graph", required=True)
    bru.add_argument("--p-star", required=True, help="comma-separated node ids")
    bru.add_argument("--max-cuttable", type=int, default=reduction.MAX_BRUTE_EDGES)

    return top


def _generator_spec(args) -> GeneratorSpec:
    return GeneratorSpec(
        family=args.family, n=args.n, p=args.p, m=args.m,
        iterations=args.iterations, density=args.density,
        rows=args.rows, cols=args.cols, seed=getattr(args, "seed", 0),
    )


def _weight_scheme(args) -> WeightScheme | None:
    if args.weights is None:
        return None
    return WeightScheme(kind=args.weights, rate=args.rate, upper=args.upper,
                        value=args.value, seed=getattr(args, "weight_seed", 0))


def _cmd_generate(args) -> dict:
    g = generate(_generator_spec(args))
    scheme = _weight_scheme(args)
    if scheme is not None:
        g = assign_weights(g, scheme)
    save_edge_list(args.out, g)
    return {"nodes": g.node_count, "edges": g.edge_count, "out": args.out}


def _plan_dict(plan, budget=None) -> dict:
    d = {
        "method": plan.method_tag,
        "total_cost": plan.total_cost,
        "removed_edges": [list(e) for e in sorted(plan.removed_edges)],
        "iterations": plan.iterations,
        "constraints_generated": plan.constraints_generated,
        "rounding_retries": plan.rounding_retries,
        "lp_objective": plan.lp_objective,
        "lp_integral": plan.lp_integral,
        "rng_seed": plan.rng_seed,
    }
    if budget is not None:
        d["budget"] = budget
        d["within_budget"] = plan.total_cost <= budget
    if plan.certificate is not None:
        competitor, length, target_len = plan.certificate
        d["target_length"] = target_len
        d["next_competitor_length"] = length
        d["exclusive"] = length is None or strictly_longer(length, target_len)
    return d


def _cmd_attack(args) -> dict:
    g = load_edge_list(args.graph).graph
    if args.p_star:
        p_star = _p_star(args.p_star)
    else:
        if args.source is None or args.target is None:
            raise InputError("--rank needs --source and --target")
        mask = neighborhood_mask(g, args.source, args.neighborhood_cap)
        p_star = select_p_star(g, args.source, args.target, args.rank, allowed_nodes=mask)
    cfg = AttackConfig(method=args.method, rng_seed=args.seed,
                       iteration_cap=args.iteration_cap)
    plan = run_attack(g, p_star, cfg)
    out = _plan_dict(plan, budget=args.budget)
    out["p_star"] = list(p_star.nodes)
    out["p_star_length"] = path_length(g, p_star)
    return out


def _cmd_experiment(args) -> dict:
    if args.config:
        try:
            data = json.loads(read_ascii(args.config))
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.config}: not a JSON document: {exc}") from None
        cfg = ExperimentConfig.from_dict(data)
    else:
        generator = _generator_spec(args) if args.family else None
        cfg = ExperimentConfig(
            generator=generator,
            edge_list=args.edge_list,
            weight_scheme=_weight_scheme(args),
            terminal_mode=args.terminal_mode,
            hop_distance=args.hop_distance,
            neighborhood_cap=args.neighborhood_cap,
            p_star_ranks=tuple(args.ranks),
            methods=tuple(args.methods.split(",")),
            repetitions=args.reps,
            master_seed=args.master_seed,
        )
    records = run_experiments(cfg, output_dir=args.out)
    print(summarize(records), file=sys.stderr)
    ok = sum(1 for r in records if r.status == "ok")
    return {"records": len(records), "ok": ok, "out": args.out}


def _cmd_reduce_check(args) -> dict:
    from .sweeps import reduction_equivalence_sweep

    checked, disagreements = reduction_equivalence_sweep(
        max_nodes=args.max_nodes,
        random_instances=args.random_instances,
        random_nodes=args.random_nodes,
        eps_values=tuple(args.eps),
        seed=args.seed,
    )
    result = {"checked": checked, "disagreements": disagreements}
    if disagreements:
        err = PathCutError(f"{disagreements} disagreement(s) in {checked} checks")
        err.category = "mismatch"
        raise err
    return result


def _cmd_brute_force(args) -> dict:
    g = load_edge_list(args.graph).graph
    p_star = _p_star(args.p_star)
    plan = reduction.brute_force_force_path_cut(g, p_star, max_cuttable=args.max_cuttable)
    out = _plan_dict(plan)
    out["p_star"] = list(p_star.nodes)
    return out


_COMMANDS = {
    "generate": _cmd_generate,
    "attack": _cmd_attack,
    "experiment": _cmd_experiment,
    "reduce-check": _cmd_reduce_check,
    "brute-force": _cmd_brute_force,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        result = _COMMANDS[args.verb](args)
    except PathCutError as exc:
        json.dump({"error": exc.category, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return exit_code_for(exc)
    json.dump(result, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
