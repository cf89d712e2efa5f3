#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark on two source trees, written as one
JSON file:

    python3 scripts/bench_ab.py PARENT CHANGE --pairs N --seconds S \\
        [--workloads W ...] [--seed K] --write FILE

Pair i of a workload runs `bench/run.py --workload W --seed K+i --seconds S
--trace 0` once in each tree, as a child process with the tree as its
working directory, PYTHONDONTWRITEBYTECODE=1 and no PYTHONPATH, so each run
imports its own tree's engine and neither leaves bytecode for the next.
Both sides of a pair share its seed; the parent runs first in even pairs
and the change in odd ones.  The workloads (all by default) and whether
each end-to-end metric is better lower or higher are read from the parent's
BENCHMARK.json; nothing is imported from bench/.

Per workload and metric the file holds each side's median and inclusive
quartiles, the change of the median in percent, the pairs each side won
(ties count for neither), and `gain_shown`: the change won at least nine
tenths of the pairs and the medians differ by more than the parent's
quartile distance.  It also holds every run, and the line counts of src/
and of the engine (src/ without oracles.py and selftest.py) in both trees.

The file is written in any case; the exit status is 1 when a run printed
no result, was not correct or had a failed operation, and 0 otherwise.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
NOT_ENGINE = ("oracles.py", "selftest.py")


def run_bench(tree, workload, seed, seconds):
    """`correct`, `attempted`, `failed` and the value of each metric from the
    JSON object that `bench/run.py` prints last, or {"error": ...}."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                          str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, env=dict(env, PYTHONDONTWRITEBYTECODE="1"),
                         capture_output=True, text=True)
    try:
        result = json.loads(run.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {run.returncode}: {run.stderr[-400:]}"}
    return {**{key: result.get(key) for key in ("correct", "attempted", "failed")},
            **{name: metric["value"] for name, metric in result.get("metrics", {}).items()}}


def ok(result):
    return result.get("correct") is True and result.get("failed") == 0


def tree_info(tree):
    counts = {str(p.relative_to(tree)): p.read_bytes().count(b"\n")
              for p in sorted(Path(tree, "src").rglob("*.py"))}
    git = subprocess.run(["git", "-C", tree, "describe", "--always", "--dirty"],
                         capture_output=True, text=True) if Path(tree, ".git").exists() else None
    return {"rev": (git.stdout.strip() or None) if git else None,
            "src_lines": sum(counts.values()),
            "engine_lines": sum(n for name, n in counts.items()
                                if Path(name).name not in NOT_ENGINE),
            "files": counts}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(runs, name, better):
    """Medians, quartiles, change and wins of one metric over the pairs."""
    values = {side: [run[side][name] for run in runs] for side in SIDES}
    out = {}
    for side in SIDES:
        q1, q3 = quartiles(values[side])
        out[side] = {"median": statistics.median(values[side]), "q1": q1, "q3": q3}
    parent, change = out["parent"]["median"], out["change"]["median"]
    sign = 1 if better == "lower" else -1       # sign * (parent - change) > 0: the change is better
    gains = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
    out["change_pct"] = round(100 * (change / parent - 1), 2) if parent else None
    out["change_wins"] = sum(g > 0 for g in gains)
    out["parent_wins"] = sum(g < 0 for g in gains)
    out["gain_shown"] = (out["change_wins"] >= 0.9 * len(runs)
                         and sign * (parent - change) > out["parent"]["q3"] - out["parent"]["q1"])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--write", required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    bench = json.loads(Path(args.parent, "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = [args.seed + i for i in range(args.pairs)]
    out = {
        "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {args.seconds:g} "
                   "--trace 0",
        "design": "alternating pairs, each side run from its own tree with "
                  "PYTHONDONTWRITEBYTECODE=1; the parent runs first in even pairs; both sides "
                  "of a pair share its seed; median and inclusive quartiles over the runs",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "pairs": args.pairs,
        "seeds": seeds,
        "units": units,
        "trees": {side: tree_info(tree) for side, tree in trees.items()},
        "all_correct": True,
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_bench(trees[side], workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"{'ok' if ok(run[side]) else 'FAILED'}", file=sys.stderr, flush=True)
            runs.append(run)
        good = [run for run in runs if all(ok(run[side]) for side in SIDES)]
        out["all_correct"] &= len(good) == len(runs)
        names = [name for name in better if good and name in good[0]["parent"]]
        out["workloads"][workload] = {
            "metrics": {name: summary(good, name, better[name]) for name in names},
            "runs": runs,
        }
    Path(args.write).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if out["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
