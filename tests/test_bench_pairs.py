import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("held", [("base",), ("change",), ("base", "change")])
def test_refuses_a_workdir_that_holds_a_tree(bench_pairs, tmp_path, held):
    for side in held:
        (tmp_path / side).mkdir()
    argv = ["--base", "HEAD", "--change", "HEAD", "--pairs", "horns=1", "--seconds", "1",
            "--workdir", str(tmp_path), "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    taken = " and ".join(str(tmp_path / side) for side in held)
    assert exc.value.code == f"--workdir already holds {taken}; give an empty or absent one"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(held)


NOT_A_COUNT = "is not workload=count with a count of 2 or more"
REFUSED_PAIRS = [
    ("horns=1", f"'horns=1' {NOT_A_COUNT}"),
    ("horns=0", f"'horns=0' {NOT_A_COUNT}"),
    ("horns", f"'horns' {NOT_A_COUNT}"),
    ("horns=x", f"'horns=x' {NOT_A_COUNT}"),
    ("=3", f"'=3' {NOT_A_COUNT}"),
    ("horns=3,fibrancy=1", f"'fibrancy=1' {NOT_A_COUNT}"),
    ("horns=3,horns=3", "'horns=3' repeats the workload 'horns'"),
    ("horns=3,graphs=3",
     "'graphs=3' names no workload of BENCHMARK.json: fibrancy, horns, algebra"),
]


@pytest.mark.parametrize("pairs, message", REFUSED_PAIRS, ids=[p for p, _ in REFUSED_PAIRS])
def test_refuses_pairs_it_cannot_summarize(bench_pairs, tmp_path, capsys, pairs, message):
    argv = ["--base", "HEAD", "--change", "HEAD", "--pairs", pairs, "--seconds", "1",
            "--workdir", str(tmp_path), "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == f"--pairs item {message}"
    assert list(tmp_path.iterdir()) == []


def test_runs_write_no_bytecode(bench_pairs, tmp_path, monkeypatch):
    seen = {}

    def fake_run(argv, cwd, env, capture_output, text):
        seen.update(env=env, cwd=cwd)
        return subprocess.CompletedProcess(argv, 0, json.dumps({"metrics": {}}) + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run(tmp_path, "horns", 1, 1) == {"metrics": {}}
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1" and seen["cwd"] == tmp_path


def test_summary_counts_incorrect_runs_and_failed_operations(bench_pairs):
    def result(correct, failed, attempted, wall):
        return {"correct": correct, "failed": failed, "attempted": attempted,
                "metrics": {"wall_s": {"value": wall}}}

    runs = [
        {"workload": "horns", "pair": 0, "side": "base", "result": result(True, 0, 10, 1.0)},
        {"workload": "horns", "pair": 0, "side": "change", "result": result(False, 2, 10, 0.9)},
        {"workload": "horns", "pair": 1, "side": "change", "result": result(True, 1, 12, 0.8)},
        {"workload": "horns", "pair": 1, "side": "base", "result": result(True, 0, 11, 1.1)},
    ]
    summary = bench_pairs.summarize(runs, [("wall_s", "lower", 0.25)])
    assert summary["horns"]["operations"] == {
        "base": {"incorrect_runs": 0, "failed": 0, "attempted": 21},
        "change": {"incorrect_runs": 1, "failed": 3, "attempted": 22},
    }
    assert summary["horns"]["wall_s"]["change_better_pairs"] == "2/2"
