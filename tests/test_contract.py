"""The comparisons and the step handling of scripts/check_contract.py, on fabricated runs."""

import hashlib
import importlib.util
import subprocess
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


contract = _load("check_contract")
mutants = _load("mutants")

BLOCKS = {"a/records.jsonl": b'{"x": 1}\n', "b/records.jsonl": b'{"x": 2}\n'}


def fake_run(root, files):
    root.mkdir()
    (root / "timings.jsonl").write_bytes(b"not a record\n")
    for rel, data in files.items():
        (root / rel).parent.mkdir(exist_ok=True)
        (root / rel).write_bytes(data)
    return contract.records_map(root)


def write_sums(path, files):
    path.write_text("".join(f"{hashlib.sha256(data).hexdigest()}  {rel}\n"
                            for rel, data in files.items()), encoding="ascii")
    return contract.read_sums(path)


def problems(tmp_path, *runs, sums=BLOCKS):
    maps = {f"run{i}": fake_run(tmp_path / f"run{i}", files) for i, files in enumerate(runs)}
    return contract.records_problems(maps, write_sums(tmp_path / "set.sha256", sums), "set.sha256")


def test_equal_runs_match_the_sums(tmp_path):
    assert problems(tmp_path, BLOCKS, BLOCKS, BLOCKS) == []


@pytest.mark.parametrize("runs, sums, expected", [
    # a changed digest
    ((BLOCKS, BLOCKS), {**BLOCKS, "b/records.jsonl": b'{"x": 3}\n'},
     ["run0: b/records.jsonl differs from set.sha256"]),
    # a missing block
    (({"a/records.jsonl": BLOCKS["a/records.jsonl"]},) * 2, BLOCKS,
     ["run0: b/records.jsonl missing (in set.sha256)"]),
    # an extra block
    (({**BLOCKS, "c/records.jsonl": b"{}\n"},) * 2, BLOCKS,
     ["run0: c/records.jsonl not in set.sha256"]),
    # two hash-seed runs that differ, the first matching the sums
    ((BLOCKS, {**BLOCKS, "a/records.jsonl": b'{"x": 0}\n'}), BLOCKS,
     ["run1: a/records.jsonl differs from run0"]),
    # a variant that differs from both hash-seed runs
    ((BLOCKS, BLOCKS, {"b/records.jsonl": BLOCKS["b/records.jsonl"]}), BLOCKS,
     ["run2: a/records.jsonl missing (in run0)"]),
    # no records at all, against empty sums
    (({}, {}), {}, ["run0: no records.jsonl"]),
])
def test_records_comparison_names_each_difference(tmp_path, runs, sums, expected):
    assert problems(tmp_path, *runs, sums=sums) == expected


@pytest.mark.parametrize("text, line", [
    ("0" * 63 + "  records.jsonl\n", 1),
    ("0" * 64 + " records.jsonl\n", 1),
    (f"{'0' * 64}  records.jsonl\n{'1' * 64}  records.jsonl\n", 2),
])
def test_read_sums_rejects_a_malformed_line_or_a_repeated_file(tmp_path, text, line):
    (tmp_path / "bad.sha256").write_text(text, encoding="ascii")
    with pytest.raises(contract.ContractError, match=f"bad.sha256:{line}:"):
        contract.read_sums(tmp_path / "bad.sha256")


def trace_result(workload, correct=True, failed=0, moved=()):
    counts = {**dict(zip(contract.TRACE_NAMES, contract.TRACE_COUNTS[workload])), **dict(moved)}
    return {"correct": correct, "failed": failed,
            "metrics": {name: {"value": value} for name, value in counts.items()}}


def test_trace_counts_pin_every_name_on_every_workload():
    assert set(contract.TRACE_COUNTS) == {"sparse-weighted", "dense-ties", "lattice-hop"}
    assert all(len(counts) == len(contract.TRACE_NAMES) == 11
               for counts in contract.TRACE_COUNTS.values())
    for workload in contract.TRACE_COUNTS:
        assert contract.trace_problems(workload, trace_result(workload)) == []


def test_trace_comparison_names_the_metric_that_moved():
    result = trace_result("lattice-hop", moved={"attack.constraints_total": 438})
    assert contract.trace_problems("lattice-hop", result) == [
        "lattice-hop: attack.constraints_total = 438, expected 439"]


@pytest.mark.parametrize("correct", [False, None, 1])
def test_trace_comparison_fails_unless_correct_is_true(correct):
    result = trace_result("dense-ties", correct=correct, failed=60)
    assert contract.trace_problems("dense-ties", result) == [
        f"dense-ties: correct is {correct!r}, failed: 60"]


def fake_steps(monkeypatch, **raises):
    """Replace ``STEPS`` with steps that record their runs and raise the
    exception given for their name; returns the list of runs."""
    ran = []

    def step(name):
        def body():
            ran.append(name)
            if name in raises:
                raise raises[name]
        return body

    monkeypatch.setattr(contract, "STEPS", {name: step(name) for name in ("a", "b", "c", "d")})
    return ran


def test_main_rejects_an_unknown_step_and_runs_nothing(monkeypatch, capsys):
    ran = fake_steps(monkeypatch)
    assert contract.main(["a", "nope"]) == 2
    assert ran == []
    assert capsys.readouterr().err == "unknown step nope; steps: a b c d\n"


def test_main_names_each_failed_step_and_still_runs_the_rest(monkeypatch, capsys):
    ran = fake_steps(monkeypatch, a=contract.ContractError("a count moved"),
                     b=subprocess.CalledProcessError(1, ["cmd"]), c=ZeroDivisionError("crash"))
    assert contract.main([]) == 1
    assert ran == ["a", "b", "c", "d"]
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.endswith(" FAILED")] == [
        "a FAILED", "b FAILED", "c FAILED"]
    assert "a count moved" in out and "ZeroDivisionError: crash" in out
    assert out.splitlines()[-1] == "contract: FAILED a b c"


def test_main_runs_named_steps_alone_in_the_order_given(monkeypatch, capsys):
    ran = fake_steps(monkeypatch)
    assert contract.main(["c", "a"]) == 0
    assert ran == ["c", "a"]
    assert capsys.readouterr().out == "== c\n== a\ncontract: all steps passed\n"


def test_every_mutant_edits_one_place_in_the_source():
    # A row whose old text left the source, or now occurs twice, would
    # test nothing or the wrong place; the mutants step also reports it.
    src = _SCRIPTS.parent / "src"
    for path, old, new, tests in mutants.MUTANTS:
        assert (src / path).read_text(encoding="utf-8").count(old) == 1, (path, old)
        assert old != new and tests, (path, old)
        for test in tests:
            assert (_SCRIPTS.parent / test.split("::")[0]).is_file(), test


def test_a_mutant_is_caught_only_by_a_named_test_failing():
    out = ("..F\nINTERNALERROR> boom\n"
           "FAILED tests/test_lp.py::test_pivots[dense] - AssertionError\n"
           "FAILED tests/test_paths.py::test_skip - assert 1 == 2\n1 failed\n")
    failed = mutants.failed_tests(out)
    assert failed == ["tests/test_lp.py::test_pivots[dense]", "tests/test_paths.py::test_skip"]
    assert mutants.caught(failed, ["tests/test_lp.py::test_pivots"])
    assert mutants.caught(failed, ["tests/test_lp.py"])
    assert mutants.caught(failed, ["tests/test_paths.py::test_skip"])
    assert not mutants.caught(failed, ["tests/test_paths.py::test_ski"])
    assert not mutants.caught(failed, ["tests/test_cli.py"])
    assert not mutants.caught(mutants.failed_tests("INTERNALERROR> boom\n"), ["tests/test_lp.py"])


def test_a_stale_mutant_row_fails_without_running_tests():
    row = ("pathcut/lp.py", "no such text", "x", ["tests/test_lp.py"])
    assert mutants.run_mutant(*row) == (
        "stale: the old text occurs 0 times in src/pathcut/lp.py", 0.0)
