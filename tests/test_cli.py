import json

import pytest

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
    out = str(tmp_path / "r")
    return {
        "bad node id": (["attack", "--graph", str(good), "--p-star", "0,x"], "'x'"),
        "bad brute-force node id": (["brute-force", "--graph", str(good), "--p-star", "0,y"], "'y'"),
        "missing graph": (["attack", "--graph", str(tmp_path / "none.edges"), "--p-star", "0,1"],
                          "none.edges: cannot read"),
        "non-ASCII graph": (["attack", "--graph", str(latin), "--p-star", "0,1"],
                            "latin.edges: non-ASCII byte 0xe9"),
        "malformed config": (["experiment", "--config", str(truncated), "--out", out],
                             "truncated.json: not a JSON document"),
        "config not an object": (["experiment", "--config", str(array), "--out", out],
                                 "experiment config must be an object"),
    }


@pytest.mark.parametrize("case", [
    "bad node id", "bad brute-force node id", "missing graph", "non-ASCII graph",
    "malformed config", "config not an object",
])
def test_malformed_outside_input_exits_2_with_input_error(tmp_path, capsys, case):
    argv, named = _bad_inputs(tmp_path)[case]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "input"
    assert named in report["message"]


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "rng_seed must be a nonnegative integer, got -1"),
    (["--iteration-cap", "-1"], "iteration_cap must be a nonnegative integer, got -1"),
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
