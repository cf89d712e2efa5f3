#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload once at a tiny size,
untraced and traced.  Each run must be correct, report exactly the metrics
BENCHMARK.json declares, and have no failed operation.

    python3 bench/smoke.py
"""

import json
import os
import sys

import run


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            res = run.run(workload, seed=1, seconds=0, trace=trace, tiny=True)
            where = f"{workload} trace={int(trace)}"
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(declared[trace]))} "
                                "differ from BENCHMARK.json")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: {res['failed']} of {res['attempted']} failed")
            if not trace and res["metrics"]["ops_ok_frac"]["value"] != 1:
                problems.append(f"{where}: ops_ok_frac is not 1")
            print(f"{where}: {res['attempted']} operations ok", flush=True)
    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
