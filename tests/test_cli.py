import json
import math

import pytest

import pathcut.sweeps
from pathcut import Graph, MismatchError, errors
from pathcut.attack import METHODS
from pathcut.cli import main
from pathcut.harness import save_edge_list
from pathcut.sweeps import clique_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_generate_then_attack_and_brute_force(tmp_path, capsys):
    out_file = str(tmp_path / "g.edges")
    code, out, _ = run_cli(
        capsys, "generate", "--family", "er", "--n", "10", "--p", "0.3",
        "--seed", "1", "--weights", "uniform", "--upper", "6",
        "--weight-seed", "1", "--out", out_file,
    )
    assert code == 0
    info = json.loads(out)
    assert info["nodes"] == 10

    code, out, _ = run_cli(
        capsys, "attack", "--graph", out_file, "--method", "pathattack-lp",
        "--source", "0", "--target", "5", "--rank", "3", "--seed", "1",
    )
    assert code == 0
    plan = json.loads(out)
    assert plan["exclusive"] is True
    assert plan["method"] == "pathattack-lp"

    p_star = ",".join(str(x) for x in plan["p_star"])
    code, out, _ = run_cli(capsys, "brute-force", "--graph", out_file, "--p-star", p_star)
    assert code == 0
    best = json.loads(out)
    assert best["total_cost"] <= plan["total_cost"]


def test_attack_with_budget_reports_within_budget(tmp_path, capsys):
    f = tmp_path / "tri.edges"
    f.write_text("0 1 1 1\n1 2 1 1\n0 2 1 5\n", encoding="ascii")
    code, out, _ = run_cli(
        capsys, "attack", "--graph", str(f), "--method", "greedy-cost",
        "--p-star", "0,1,2", "--budget", "2",
    )
    assert code == 0
    plan = json.loads(out)
    assert plan["total_cost"] == 5
    assert plan["within_budget"] is False


def _certificate(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    plan = json.loads(out)
    return plan["target_length"], plan["next_competitor_length"], plan["exclusive"]


def test_certificate_fields_for_attack_and_brute_force(tmp_path, capsys):
    # The CLI prints the shortest competitor left in the residual graph:
    # the triangle is exclusive as given (runner-up 0-2, length 4); the
    # square's tie 0-2 is cut and 0-3-2 (length 3) is left; after the
    # cuts on K5 and on the separated chain no competitor is left at all.
    cases = {
        "triangle": (Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 4)]), "0,1,2", (2, 4, True)),
        "square": (Graph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 2), (0, 3, 1), (2, 3, 2)]), "0,1,2",
                   (2, 3, True)),
        "K5": (clique_instance(5)[0], "0,1", (5, None, True)),
        "chain": (Graph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)]), "0,1,3", (2, None, True)),
    }
    for name, (g, p_star, expect) in cases.items():
        f = str(tmp_path / f"{name}.edges")
        save_edge_list(f, g)
        for method in METHODS:
            got = _certificate(capsys, "attack", "--graph", f, "--method", method,
                               "--p-star", p_star)
            assert got == expect, (name, method)
        assert _certificate(capsys, "brute-force", "--graph", f, "--p-star", p_star) == expect, name


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_attack_rejects_a_budget_that_is_not_finite(tmp_path, capsys, budget):
    f = tmp_path / "tri.edges"
    f.write_text("0 1 1 1\n1 2 1 1\n0 2 1 5\n", encoding="ascii")
    code, out, err = run_cli(capsys, "attack", "--graph", str(f), "--p-star", "0,1,2",
                             "--budget", budget)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input",
                               "message": f"--budget must be finite, got {budget}"}


def test_output_is_strict_json(capsys, monkeypatch):
    # No verb can print NaN or Infinity: main fails before it writes.
    monkeypatch.setattr(pathcut.sweeps, "reduction_equivalence_sweep",
                        lambda **kwargs: (math.nan, 0))
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        main(["reduce-check"])
    assert capsys.readouterr().out == ""


def test_input_error_exit_code_and_category(tmp_path, capsys):
    f = tmp_path / "tiny.edges"
    f.write_text("0 1 1\n", encoding="ascii")
    code, _, err = run_cli(capsys, "brute-force", "--graph", str(f), "--p-star", "0,2")
    assert code == 2
    assert json.loads(err)["error"] == "input"


def test_iteration_limit_exit_code(tmp_path, capsys):
    g, _ = clique_instance(6)
    f = str(tmp_path / "k6.edges")
    save_edge_list(f, g)
    code, _, err = run_cli(capsys, "attack", "--graph", f, "--p-star", "0,1",
                           "--iteration-cap", "1")
    assert code == 6
    assert json.loads(err)["error"] == "iteration-limit"


def test_size_error_exit_code(tmp_path, capsys):
    lines = [f"{u} {v} 1" for u in range(9) for v in range(u + 1, 9)]
    f = tmp_path / "k9.edges"
    f.write_text("\n".join(lines) + "\n", encoding="ascii")
    code, _, err = run_cli(capsys, "brute-force", "--graph", str(f), "--p-star", "0,1")
    assert code == 3
    assert json.loads(err)["error"] == "size"


def test_experiment_verb_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code, out, _ = run_cli(
        capsys, "experiment", "--family", "complete", "--n", "10",
        "--weights", "equal", "--ranks", "3", "--reps", "2",
        "--master-seed", "9", "--out", str(out_dir),
    )
    assert code == 0
    assert json.loads(out)["ok"] == 8
    assert (out_dir / "records.jsonl").exists()
    assert (out_dir / "summary.txt").exists()


def test_experiment_flags_take_the_config_defaults(tmp_path, capsys):
    # Flags not given fall back to ExperimentConfig's own defaults, so the
    # bare flags and a config file holding only the generator agree.
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"generator": {"family": "complete", "n": 5}}), encoding="ascii")
    by_flags, by_file = tmp_path / "flags", tmp_path / "file"
    assert run_cli(capsys, "experiment", "--family", "complete", "--n", "5",
                   "--out", str(by_flags))[0] == 0
    assert run_cli(capsys, "experiment", "--config", str(cfg_file), "--out", str(by_file))[0] == 0
    records = (by_flags / "records.jsonl").read_bytes()
    assert records == (by_file / "records.jsonl").read_bytes()
    assert len(records.splitlines()) == 20 * 3 * 4  # repetitions x ranks x methods


def test_experiment_verb_accepts_config_file(tmp_path, capsys):
    cfg = {
        "generator": {"family": "complete", "n": 8, "seed": 0},
        "weight_scheme": {"kind": "equal", "seed": 0},
        "p_star_ranks": [2],
        "methods": ["greedy-cost"],
        "repetitions": 1,
        "master_seed": 4,
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg), encoding="ascii")
    code, out, _ = run_cli(
        capsys, "experiment", "--config", str(cfg_file), "--out", str(tmp_path / "r"),
    )
    assert code == 0
    assert json.loads(out)["records"] == 1


def test_experiment_config_file_rejects_float_repetitions(tmp_path, capsys):
    cfg = {"generator": {"family": "complete", "n": 8, "seed": 0}, "repetitions": 2.5}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg), encoding="ascii")
    code, _, err = run_cli(
        capsys, "experiment", "--config", str(cfg_file), "--out", str(tmp_path / "r"),
    )
    assert code == 2
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("key, value", [("p_star_ranks", 5), ("methods", "greedy-cost")])
def test_experiment_config_file_rejects_non_list_sequences(tmp_path, capsys, key, value):
    cfg = {"generator": {"family": "complete", "n": 8, "seed": 0}, key: value}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg), encoding="ascii")
    code, _, err = run_cli(
        capsys, "experiment", "--config", str(cfg_file), "--out", str(tmp_path / "r"),
    )
    assert code == 2
    assert json.loads(err)["error"] == "input"


def test_reduce_check_verb(capsys):
    code, out, _ = run_cli(
        capsys, "reduce-check", "--max-nodes", "3", "--random-instances", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["disagreements"] == 0 and report["checked"] > 100


def _bad_inputs(tmp_path):
    good = tmp_path / "path.edges"
    good.write_text("0 1 1\n1 2 1\n", encoding="ascii")
    latin = tmp_path / "latin.edges"
    latin.write_bytes(b"0 1 1\n1 2 \xe9\n")
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"repetitions": 1,', encoding="ascii")
    array = tmp_path / "array.json"
    array.write_text("[1, 2]", encoding="ascii")
    # A triangle whose 401-digit costs no float sum could hold.
    huge = tmp_path / "huge.edges"
    huge.write_text(f"0 1 1 {10**400}\n1 2 1 {10**400}\n0 2 5 {10**400}\n", encoding="ascii")
    configs = {}
    kronecker = {"family": "kronecker", "iterations": 3, "density": 0.3}
    for name, cfg in (("gen-int", {"generator": 5}),
                      ("gen-str-n", {"generator": {"family": "complete", "n": "5"}}),
                      ("edges-int", {"edge_list": 3}),
                      ("ragged", {"generator": {**kronecker, "initiator": [[1, 2], [3]]}}),
                      ("letters", {"generator": {**kronecker, "initiator": [["a", "b"], [1, 2]]}}),
                      ("zeros", {"generator": {**kronecker, "initiator": [[0, 0], [0, 0]]}}),
                      ("density-inf", {"generator": {**kronecker, "density": math.inf}}),
                      ("density-2", {"generator": {**kronecker, "density": 2.0}}),
                      ("rate-1e400", {"generator": {"family": "complete", "n": 5},
                                      "weight_scheme": {"kind": "poisson", "rate": 1e400}}),
                      ("rate-1e19", {"generator": {"family": "complete", "n": 5},
                                     "weight_scheme": {"kind": "poisson", "rate": 1e19}}),
                      ("upper-1e30", {"generator": {"family": "complete", "n": 5},
                                      "weight_scheme": {"kind": "uniform", "upper": 10**30}})):
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(json.dumps(cfg), encoding="ascii")
    out = str(tmp_path / "r")
    return {
        "bad node id": (["attack", "--graph", str(good), "--p-star", "0,x"], "'x'"),
        "costs beyond the float range": (["attack", "--graph", str(huge), "--p-star", "0,2"],
                                         "weight or cost is negative or not finite"),
        "edge list beyond the float range": (["experiment", "--edge-list", str(huge), "--ranks", "1",
                                              "--reps", "1", "--out", out],
                                             "weight or cost is negative or not finite"),
        "bad brute-force node id": (["brute-force", "--graph", str(good), "--p-star", "0,y"], "'y'"),
        "missing graph": (["attack", "--graph", str(tmp_path / "none.edges"), "--p-star", "0,1"],
                          "none.edges: cannot read"),
        "non-ASCII graph": (["attack", "--graph", str(latin), "--p-star", "0,1"],
                            "latin.edges: non-ASCII byte 0xe9"),
        "malformed config": (["experiment", "--config", str(truncated), "--out", out],
                             "truncated.json: not a JSON document"),
        "config not an object": (["experiment", "--config", str(array), "--out", out],
                                 "experiment config must be an object"),
        "generator not an object": (["experiment", "--config", str(configs["gen-int"]), "--out", out],
                                    "generator spec must be an object, got 5"),
        "generator n not an integer": (
            ["experiment", "--config", str(configs["gen-str-n"]), "--out", out],
            "n must be an integer, got '5'"),
        "edge_list not a string": (["experiment", "--config", str(configs["edges-int"]), "--out", out],
                                   "edge_list must be a string, got 3"),
        "ragged initiator": (["experiment", "--config", str(configs["ragged"]), "--out", out],
                             "initiator must be a 2x2 matrix of numbers"),
        "non-numeric initiator": (["experiment", "--config", str(configs["letters"]), "--out", out],
                                  "initiator must be a 2x2 matrix of numbers"),
        "zero initiator": (["experiment", "--config", str(configs["zeros"]), "--out", out],
                           "with a positive finite sum"),
        "infinite kronecker density": (["experiment", "--config", str(configs["density-inf"]),
                                        "--out", out], "kronecker needs 0 < density <= 1"),
        "kronecker density above one": (["experiment", "--config", str(configs["density-2"]),
                                         "--out", out], "kronecker needs 0 < density <= 1"),
        "infinite poisson rate": (["experiment", "--config", str(configs["rate-1e400"]), "--out", out],
                                  "lam value too large"),
        "poisson rate too large": (["experiment", "--config", str(configs["rate-1e19"]), "--out", out],
                                   "lam value too large"),
        "uniform upper beyond int64": (["experiment", "--config", str(configs["upper-1e30"]),
                                        "--out", out], "uniform scheme needs 1 <= upper < 2**63"),
        "negative generator seed": (["generate", "--family", "er", "--n", "10", "--p", "0.5",
                                     "--seed", "-1", "--out", out], "seed must be >= 0, got -1"),
        "negative weight seed": (["generate", "--family", "er", "--n", "10", "--p", "0.5",
                                  "--weights", "poisson", "--weight-seed", "-1", "--out", out],
                                 "weight seed must be >= 0, got -1"),
        "negative neighborhood cap": (["attack", "--graph", str(good), "--rank", "1", "--source", "0",
                                       "--target", "2", "--neighborhood-cap", "-1"],
                                      "neighborhood_cap must be >= 0, got -1"),
        **{f"{n} random nodes": (["reduce-check", "--random-nodes", str(n)],
                                 f"random_nodes must be >= 3, got {n}") for n in (0, 1, 2)},
        **{f"{n} max nodes": (["reduce-check", "--max-nodes", str(n), "--random-instances", "0"],
                              f"max_nodes must be >= 3, got {n}") for n in (-5, 2)},
        **{f"eps {e}": (["reduce-check", "--max-nodes", "3", "--random-instances", "0", "--eps", e],
                        f"eps must be positive and finite, got {e}") for e in ("nan", "inf")},
        "negative brute-force cap": (["brute-force", "--graph", str(good), "--p-star", "0,1,2",
                                      "--max-cuttable", "-1"], "max_cuttable must be >= 0, got -1"),
        "brute-force p* without edges": (["brute-force", "--graph", str(good), "--p-star", "1"],
                                         "target path must have at least one edge"),
    }


@pytest.mark.parametrize("case", [
    "bad node id", "bad brute-force node id", "missing graph", "non-ASCII graph",
    "malformed config", "config not an object", "generator not an object",
    "generator n not an integer", "edge_list not a string", "ragged initiator",
    "non-numeric initiator", "zero initiator", "infinite kronecker density",
    "kronecker density above one", "infinite poisson rate", "poisson rate too large",
    "uniform upper beyond int64", "negative generator seed", "negative weight seed",
    "negative neighborhood cap", "0 random nodes", "1 random nodes", "2 random nodes",
    "-5 max nodes", "2 max nodes", "eps nan", "eps inf", "negative brute-force cap",
    "brute-force p* without edges", "costs beyond the float range",
    "edge list beyond the float range",
])
def test_malformed_outside_input_exits_2_with_input_error(tmp_path, capsys, case):
    argv, named = _bad_inputs(tmp_path)[case]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "input"
    assert named in report["message"]


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "rng_seed must be >= 0, got -1"),
    (["--iteration-cap", "-1"], "iteration_cap must be >= 0, got -1"),
])
def test_attack_rejects_negative_seed_and_cap(tmp_path, capsys, flags, message):
    g, _ = clique_instance(4)
    f = str(tmp_path / "k4.edges")
    save_edge_list(f, g)
    code, _, err = run_cli(capsys, "attack", "--graph", f, "--p-star", "0,1", *flags)
    assert code == 2
    assert json.loads(err) == {"error": "input", "message": message}


def test_experiment_rejects_negative_master_seed(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "experiment", "--family", "complete", "--n", "5", "--master-seed", "-3",
        "--out", str(tmp_path / "r"),
    )
    assert code == 2
    assert json.loads(err) == {"error": "input", "message": "master_seed must be >= 0, got -3"}


def test_bad_ranks_keep_argparse_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--family", "complete", "--ranks", "1,x", "--out", "unused"])
    assert exc.value.code == 2
    assert "argument --ranks: invalid _int_list value: '1,x'" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--source", "0"], ["--target", "2"]])
def test_attack_rank_needs_source_and_target(tmp_path, capsys, flags):
    f = tmp_path / "path.edges"
    f.write_text("0 1 1\n1 2 1\n", encoding="ascii")
    code, out, err = run_cli(capsys, "attack", "--graph", str(f), "--rank", "1", *flags)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input", "message": "--rank needs --source and --target"}


@pytest.mark.parametrize("flag", ["--source", "--target", "--neighborhood-cap"])
def test_attack_p_star_takes_no_rank_flags(tmp_path, capsys, flag):
    # --p-star names the path itself; a flag that only --rank reads would
    # be silently ignored, so it is an input error.
    f = tmp_path / "path.edges"
    f.write_text("0 1 1\n1 2 1\n0 2 3\n", encoding="ascii")
    code, out, err = run_cli(capsys, "attack", "--graph", str(f), "--p-star", "0,2", flag, "1")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input", "message": (
        "--source, --target and --neighborhood-cap go only with --rank")}


def test_reduce_check_disagreement_exits_9_with_a_mismatch_error(capsys, monkeypatch):
    monkeypatch.setattr(pathcut.sweeps, "reduction_equivalence_sweep", lambda **kwargs: (12, 3))
    code, out, err = run_cli(capsys, "reduce-check")
    assert (code, out) == (9, "")
    assert json.loads(err) == {"error": "mismatch", "message": "3 disagreement(s) in 12 checks"}


@pytest.mark.parametrize("cls, category, code", [
    (errors.InputError, "input", 2),
    (errors.SizeError, "size", 3),
    (errors.InfeasibleError, "infeasible", 4),
    (errors.ConvergenceError, "convergence", 5),
    (errors.IterationLimitError, "iteration-limit", 6),
    (errors.RoundingFailureError, "rounding", 7),
    (errors.InstanceSkip, "skip", 8),
    (MismatchError, "mismatch", 9),
    (errors.PathCutError, "internal", 70),
])
def test_each_error_class_carries_its_category_and_exit_code(capsys, monkeypatch, cls, category,
                                                             code):
    def fail(**kwargs):
        raise cls("boom")

    monkeypatch.setattr(pathcut.sweeps, "reduction_equivalence_sweep", fail)
    assert run_cli(capsys, "reduce-check") == (code, "", json.dumps(
        {"error": category, "message": "boom"}) + "\n")
