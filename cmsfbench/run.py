#!/usr/bin/env python3
"""Builds and runs one workload of the CMSF benchmark, then prints one JSON
result object as the last line of stdout:

  {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

  python3 cmsfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is compiled from source into
$CARGO_TARGET_DIR/cmsfbench (default .bench_build/cmsfbench) on first use.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, taken from the binary's counters
and from a rollup of the spans it records (trace_rollup.py).

Exit codes: 0 = ran and every output check held; 1 = build failure, crash,
timeout or a failed check (the JSON is still printed when the binary got
as far as reporting); 2 = bad command line.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import trace_rollup  # noqa: E402

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Per-layer metrics derived from spans: name -> (phase window, span names,
# statistic, normalisation count, scale). The window span names the phase
# whose trace file is read. "self" subtracts child spans, "incl" does not;
# the count comes from the binary's "count" lines (or from the span itself
# when it names a span).
SPAN_METRICS = {
    "synth.generate_ms": ("bench.setup", ["bench.generate"], "incl", "setups", 1e-3),
    "urg.build_ms": ("bench.setup", ["bench.urg_build"], "incl", "setups", 1e-3),
    "io.save_ms": ("bench.setup", ["bench.save"], "incl", "setups", 1e-3),
    "io.load_ms": ("bench.setup", ["bench.load"], "incl", "setups", 1e-3),
    "infer.engine_build_ms": ("bench.setup", ["bench.engine_build"], "incl", "setups", 1e-3),
    "features.conv_ms": ("bench.measure", ["conv2d_fwd", "im2col"], "self", "ops", 1e-3),
    "tensor.gemm_ms": ("bench.measure", ["gemm"], "self", "ops", 1e-3),
    "tensor.gemm_calls": ("bench.measure", ["gemm"], "count", "ops", 1.0),
    "autograd.backward_ms": ("bench.measure", ["backward"], "self", "ops", 1e-3),
    "autograd.segment_ms": ("bench.measure", ["segment_softmax", "segment_weighted_sum", "segment_sum"], "self", "ops", 1e-3),
    "autograd.gather_scatter_ms": ("bench.measure", ["gather_rows", "scatter_add"], "self", "ops", 1e-3),
    "nn.maga_ms": ("bench.measure", ["maga_layer"], "incl", "ops", 1e-3),
    "nn.gscm_ms": ("bench.measure", ["gscm"], "incl", "ops", 1e-3),
    "nn.classifier_ms": ("bench.measure", ["classifier"], "incl", "ops", 1e-3),
    "nn.ms_gate_ms": ("bench.measure", ["ms_gate"], "incl", "ops", 1e-3),
    "core.step_other_ms": ("bench.measure", ["epoch"], "self", "ops", 1e-3),
    "core.freeze_ms": ("bench.measure", ["freeze_assignment"], "incl", "jobs", 1e-3),
    "core.slave_ms": ("bench.measure", ["train_slave"], "incl", "jobs", 1e-3),
    "core.score_ms": ("bench.measure", ["bench.score"], "incl", "score_calls", 1e-3),
    "infer.score_us_per_region": ("bench.measure", ["serve.score"], "incl", "regions", 1.0),
    "infer.dispatch_us": ("bench.measure", ["serve.dispatch"], "self", "batches", 1.0),
    "obs.feedback_us": ("bench.measure", ["bench.feedback"], "incl", "bench.feedback", 1.0),
}


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "cmsfbench")


def build(bdir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "cmsf_workload",
                  "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
    return os.path.join(bdir, "cmsf_workload")


def parse_output(text, workload):
    """Returns (metrics {name: (value, unit)}, counts {name: value}, result)."""
    metrics, counts, result = {}, {}, None
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "count":
            counts[parts[1]] = float(parts[2])
        elif len(parts) == 5 and parts[0] == "result" and parts[1] == workload:
            result = dict(p.split("=", 1) for p in parts[2:])
        elif len(parts) == 4 and parts[1] == workload:
            metrics[parts[0]] = (float(parts[2]), parts[3])
    return metrics, counts, result


def span_metrics(run_dir, workload, counts):
    """Per-layer metrics from the traces of the set-up and measured phases
    (<workload>.setup.trace.json and <workload>.measure.trace.json)."""
    tables = {}
    out = {}
    for name, (window, names, stat, base, scale) in SPAN_METRICS.items():
        if window not in tables:
            phase = window.split(".", 1)[1]
            spans = trace_rollup.load_spans(
                os.path.join(run_dir, f"{workload}.{phase}.trace.json"))
            tables[window] = trace_rollup.rollup(spans, window)
        table = tables[window]
        key = {"self": "self_us", "incl": "incl_us", "count": "count"}[stat]
        total = sum(table.get(n, {}).get(key, 0) for n in names)
        denom = (table.get(base, {}).get("count", 0) if base.startswith("bench.")
                 else counts.get(base, 0))
        out[name] = total * scale / denom if denom else 0.0
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "moves.json"), "r", encoding="utf-8") as f:
        moves = json.load(f)
    return spec, moves


def collect(binary, workload, seed, seconds, trace, run_dir, smoke=False):
    """Runs the binary once and returns the result object for the metric
    list BENCHMARK.json names for this mode (exits via fail() when the run
    produced no result or a metric is missing, mis-united or non-finite)."""
    spec, moves = load_spec()
    os.makedirs(run_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--dir", run_dir]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    measured, counts, result = parse_output(proc.stdout, workload)
    if result is None:
        fail(f"{workload} exited {proc.returncode} without a result")

    if trace:
        derived = span_metrics(run_dir, workload, counts)
        for name, value in derived.items():
            measured.setdefault(name, (value, None))
    metrics = {}
    for m in spec["per_layer"] if trace else spec["end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name not in measured:
            # A layer the workload does not exercise reads 0; one the
            # workload is declared to move must have been measured.
            if not trace or any(
                    mv["workload"] == workload
                    for mv in moves.get(name, {}).get("moves", [])):
                fail(f"{workload} did not report {name}")
            measured[name] = (0.0, None)
        value, got_unit = measured[name]
        if got_unit is not None and got_unit != unit:
            fail(f"{name}: unit {got_unit!r} != {unit!r}")
        if not math.isfinite(value):
            fail(f"{name}: non-finite value {value}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": result.get("correct") == "1" and proc.returncode == 0,
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    spec, _ = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    bdir = build_dir()
    binary = build(bdir)
    result = collect(binary, args.workload, args.seed, args.seconds,
                     args.trace == 1, os.path.join(bdir, "run"))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
