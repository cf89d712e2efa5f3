#!/usr/bin/env python3
"""Benchmark of the exact engine: four workloads, one process, one thread.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the engine is imported from
`src/rfhomology` next to this directory, never from an installed copy, and
the run fails without printing a result when that tree is missing.

Load model: a closed loop with one client.  Each operation (one engine
call, or one `cli.main` call, with its correctness check) starts when the
previous one has finished.  A pass runs the workload's operation list once,
in a seeded order.

Set-up (imports, model construction, seeded input generation, writing the
`file:` models) is repeated SETUPS times, each time on a freshly imported
engine; `setup_s` is the median.  The first repetition is timed from the
start of this script.  Then passes run until the next one would overrun
`--seconds` (at least MIN_PASSES of them, or MIN_TRACED_PAIRS pairs of an
untraced and a traced pass).

Every reported time is rescaled to a reference host speed, the speed at
which `calibrate()` takes CAL_REF_S seconds (see `HostSpeed`); the raw
times of one run would otherwise mostly measure the host's current mode.

`--trace 0` prints the end-to-end metrics, measured with tracing off:
`wall_s` is the median pass (the sum of its operations' latencies),
`op_p50_ms` and `op_p90_ms` are quantiles of
the latencies of every operation of every pass (a pass has more than a
hundred operations, so at least ten lie beyond the 90th percentile of each
pass), `peak_rss_mb` is `ru_maxrss` of this process.
`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics: self times and call counts per layer and function (medians over
the traced passes), counters derived from arguments and results, the
tracing overhead, and static source line counts.  The spans of the last
traced pass are written to `.bench_run/spans-<workload>.jsonl`, one JSON
array `[name, start, end, parent span, operation]` per line.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import time

_T0 = time.perf_counter()

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import traceback
import types

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_run")
PACKAGE = tracer.PACKAGE
MODULES = tracer.LAYERS + ("selftest",)

SETUPS = 5
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
MAX_REPORTED_FAILURES = 5
CAL_REF_S = 0.003      # one calibration run at the reference host speed
CAL_RUNS = 5
CAL_EVERY_S = 0.1      # interval of single calibration runs inside a pass

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ops_ok_frac": "frac", "peak_rss_mb": "MB",
}

# function -> per-layer metric suffixes taken from its spans
FUNCTION_METRICS = {
    "exactlin.smith_normal_form": ("calls", "self_s"),
    "exactlin.solve": ("calls", "self_s"),
    "exactlin.solve_matrix": ("calls",),
    "exactlin.kernel_basis": ("calls",),
    "chaincplx.exact_at": ("calls", "self_s"),
    "chaincplx.homology_basis": ("self_s",),
    "chaincplx.induced_matrix": ("self_s",),
    "chaincplx.mapping_cone": ("self_s",),
    "chaincplx.cone_les": ("self_s",),
    "basemodel.build_fc": ("calls", "self_s"),
    "basemodel.cap_map": ("calls", "self_s"),
    "basemodel.cap_lambda_matrix": ("calls",),
    "rfh.full_rfh": ("self_s",),
    "rfh.delta_injectivity": ("self_s",),
    "rfh.rfc_w0": ("self_s",),
    "rfh.enumerate_generators": ("calls", "self_s"),
    "rfh.boundary_full": ("calls", "self_s"),
    "cli.main": ("calls",),
}
MOD_P = ("exactlin.rank_mod_p", "exactlin.kernel_basis_mod_p")
COUNTER_METRICS = {
    "exactlin.snf_input_density": "frac",
    "exactlin.snf_max_dim": "rows",
    "exactlin.snf_repeat_frac": "frac",
    "exactlin.snf_trivial_frac": "frac",
    "exactlin.max_entry_bits": "bits",
    "chaincplx.homology_basis_repeat_frac": "frac",
    "basemodel.cap_lambda_matrix_repeat_frac": "frac",
    "rfh.generators_out": "count",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.self_s": "s" for layer in tracer.LAYERS}
    for fn, kinds in FUNCTION_METRICS.items():
        for kind in kinds:
            units[f"{fn}.{kind}"] = "count" if kind == "calls" else "s"
    units["exactlin.mod_p.calls"] = "count"
    units["exactlin.mod_p.self_s"] = "s"
    units["novikov.calls"] = "count"
    units.update(COUNTER_METRICS)
    units["trace.overhead_frac"] = "frac"
    units.update({f"{layer}.src_lines": "lines" for layer in tracer.LAYERS + ("src",)})
    return units


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

def calibrate(runs: int = CAL_RUNS) -> float:
    """Seconds that a fixed piece of pure-Python integer work takes now:
    elimination of a fixed 40 x 40 matrix modulo 10007, median of `runs`
    runs.  It shares no code with the engine, so only the speed of the host
    moves it."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        rng = random.Random(0)
        p, n = 10007, 40
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        for c in range(n):
            piv = next((i for i in range(c, n) if rows[i][c]), None)
            if piv is None:
                continue
            rows[c], rows[piv] = rows[piv], rows[c]
            inv = pow(rows[c][c], -1, p)
            rows[c] = pivot = [(x * inv) % p for x in rows[c]]
            for i in range(c + 1, n):
                f = rows[i][c]
                if f:
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], pivot)]
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Factors that rescale measured times to the reference host speed.

    The host's speed drifts: on a shared 2-CPU machine the same pass took
    from 0.9 s to 1.5 s within minutes, and calibrate() moved with it, so
    raw medians of two sets of runs could differ by a third.  A pass is
    bracketed by calibrations and sampled by single calibration runs
    between its operations; its factor is CAL_REF_S over their median."""

    def __init__(self):
        self.samples = [calibrate()]

    def sample(self) -> None:
        self.samples.append(calibrate(1))

    def factor(self) -> float:
        """The factor for the work since the previous call."""
        now = calibrate()
        k = CAL_REF_S / statistics.median(self.samples + [now])
        self.samples = [now]
        return k


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def load_engine() -> types.SimpleNamespace:
    """Import a fresh copy of the engine from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        raise SystemExit(f"bench: no engine sources under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported {PACKAGE} from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES})


def set_up(workload: str, seed: int, tiny: bool):
    E = load_engine()
    os.makedirs(WORKDIR, exist_ok=True)
    rng = random.Random(seed)
    ops = workloads.BUILDERS[workload](E, rng, WORKDIR, tiny)
    # large and small operations interleave, so that a pass's host-speed
    # factor applies alike to both
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def fail(self, op, detail: str) -> None:
        self.failed += 1
        if self.reported < MAX_REPORTED_FAILURES:
            self.reported += 1
            print(f"bench: operation {op.name!r} failed: {detail}", file=sys.stderr)


def run_pass(ops, outcome: Outcome, host: HostSpeed,
             trace=None) -> tuple[float, list[float]]:
    """One pass over the operation list; returns its time, the sum of the
    operations' latencies, and the latencies, all in raw seconds."""
    gc.collect()
    clock = time.perf_counter
    latencies = []
    sampled = clock()
    for i, op in enumerate(ops):
        if clock() - sampled > CAL_EVERY_S:
            host.sample()
            sampled = clock()
        if trace is not None:
            trace.op = i
        t0 = clock()
        try:
            ok = op.run()
            detail = "wrong answer"
        except Exception:
            ok = False
            detail = traceback.format_exc(limit=3)
        latencies.append(clock() - t0)
        outcome.attempted += 1
        if not ok:
            outcome.fail(op, detail)
    return sum(latencies), latencies


def traced_pass(ops, outcome: Outcome, host: HostSpeed, trace: tracer.Tracer) -> float:
    """One pass with the layers wrapped; returns its raw time."""
    trace.begin_pass()
    trace.install()
    try:
        return run_pass(ops, outcome, host, trace)[0]
    finally:
        trace.uninstall()


def layer_metrics(self_s: dict, calls: dict, c: tracer.Counters) -> dict:
    def frac(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in tracer.LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                     if k.startswith(layer + "."))
    for fn, kinds in FUNCTION_METRICS.items():
        for kind in kinds:
            out[f"{fn}.{kind}"] = calls.get(fn, 0) if kind == "calls" else self_s.get(fn, 0.0)
    out["exactlin.mod_p.calls"] = sum(calls.get(fn, 0) for fn in MOD_P)
    out["exactlin.mod_p.self_s"] = sum(self_s.get(fn, 0.0) for fn in MOD_P)
    out["novikov.calls"] = sum(v for k, v in calls.items() if k.startswith("novikov."))
    out["exactlin.snf_input_density"] = frac(c.snf_nonzero, c.snf_entries)
    out["exactlin.snf_max_dim"] = c.snf_max_dim
    out["exactlin.snf_repeat_frac"] = frac(c.snf_repeats, c.snf_calls)
    out["exactlin.snf_trivial_frac"] = frac(c.snf_trivial, c.snf_calls)
    out["exactlin.max_entry_bits"] = c.max_entry_bits
    out["chaincplx.homology_basis_repeat_frac"] = frac(c.hb_repeats, c.hb_calls)
    out["basemodel.cap_lambda_matrix_repeat_frac"] = frac(c.cap_repeats, c.cap_calls)
    out["rfh.generators_out"] = c.generators_out
    return out


def src_lines() -> dict:
    """Line counts of each layer module and of the whole package."""
    counts = {}
    pkg = os.path.join(SRC, PACKAGE)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                counts[name[:-3]] = sum(1 for _ in fh)
    out = {f"{layer}.src_lines": counts[layer] for layer in tracer.LAYERS}
    out["src.src_lines"] = sum(counts.values())
    return out


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """Set up, measure for `seconds`, and return the result object."""
    setups = []
    t0 = _T0
    for _ in range(1 if tiny else SETUPS):
        ops = set_up(workload, seed, tiny)
        setups.append((time.perf_counter() - t0) * CAL_REF_S / calibrate())
        t0 = time.perf_counter()
    outcome = Outcome()
    host = HostSpeed()
    clock = time.perf_counter
    begin = clock()
    if not trace:
        walls, latencies = [], []
        while True:
            wall, lat = run_pass(ops, outcome, host)
            k = host.factor()
            walls.append(wall * k)
            latencies += [x * k for x in lat]
            if len(walls) >= MIN_PASSES and clock() - begin + wall > seconds:
                break
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
            "ops_ok_frac": 1 - outcome.failed / outcome.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        recorder = tracer.Tracer()
        plain, traced, per_pass = [], [], []
        while True:
            plain_wall = run_pass(ops, outcome, host)[0]
            plain.append(plain_wall * host.factor())
            wall = traced_pass(ops, outcome, host, recorder)
            k = host.factor()
            traced.append(wall * k)
            self_s, calls = recorder.self_times()
            per_pass.append(layer_metrics({n: v * k for n, v in self_s.items()},
                                          calls, recorder.counters))
            if len(traced) >= MIN_TRACED_PAIRS and \
                    clock() - begin + plain_wall + wall > seconds:
                break
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_frac"] = \
            statistics.median(traced) / statistics.median(plain) - 1
        metrics.update(src_lines())
        units = per_layer_units()
        recorder.write(os.path.join(WORKDIR, f"spans-{workload}.jsonl"))
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
