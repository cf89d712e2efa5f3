"""scripts/bench_ab.py on the smallest run it takes: one pair of the repository
against itself, `--seconds 0`, the full-rfh workload."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_ab_writes_each_metric_of_one_pair(tmp_path):
    out = tmp_path / "bench.json"
    run = subprocess.run([sys.executable, "scripts/bench_ab.py", ROOT, ROOT, "--pairs", "1",
                          "--seconds", "0", "--workloads", "full-rfh", "--seed", "5",
                          "--write", str(out)], cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    result = json.loads(out.read_text())
    assert set(result) == {"command", "design", "python", "cpu_count", "pairs", "seeds", "units",
                           "trees", "all_correct", "workloads"}
    assert result["all_correct"] is True and result["pairs"] == 1 and result["seeds"] == [5]
    for tree in result["trees"].values():
        assert set(tree) == {"rev", "src_lines", "engine_lines", "files"}
        assert 0 < tree["engine_lines"] < tree["src_lines"] == sum(tree["files"].values())
    assert result["trees"]["parent"] == result["trees"]["change"]
    workload = result["workloads"]["full-rfh"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert list(workload["metrics"]) == list(result["units"]) == names
    for metric in workload["metrics"].values():
        assert set(metric) == {"parent", "change", "change_pct", "change_wins", "parent_wins",
                               "gain_shown"}
        for side in ("parent", "change"):
            assert set(metric[side]) == {"median", "q1", "q3"}
        assert metric["change_wins"] + metric["parent_wins"] <= 1
    [pair] = workload["runs"]
    assert pair["seed"] == 5 and pair["first"] == "parent"
    for side in ("parent", "change"):
        assert set(pair[side]) == {"correct", "attempted", "failed", *names}
        assert pair[side]["correct"] is True and pair[side]["failed"] == 0


def test_bench_ab_exits_1_on_a_run_without_result(tmp_path):
    """A tree without `bench/run.py` prints no result: the file is written,
    with the error, and the exit status is 1."""
    out = tmp_path / "bench.json"
    run = subprocess.run([sys.executable, "scripts/bench_ab.py", ROOT, str(tmp_path), "--pairs",
                          "1", "--seconds", "0", "--workloads", "full-rfh", "--write", str(out)],
                         cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 1, run.stderr
    result = json.loads(out.read_text())
    [pair] = result["workloads"]["full-rfh"]["runs"]
    assert result["all_correct"] is False and pair["parent"]["correct"] is True
    assert list(pair["change"]) == ["error"]
    assert result["workloads"]["full-rfh"]["metrics"] == {}
