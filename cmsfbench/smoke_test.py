#!/usr/bin/env python3
"""Smoke test of the workload benchmark (registered with ctest by this
directory's CMakeLists.txt).

Runs every workload of BENCHMARK.json at --smoke size, untraced and
traced, and asserts that each metric the benchmark lists for that mode is
emitted, finite and in its unit (run.collect enforces those), that every
output check held and that no span was dropped. Then checks the trace
rollup's self-time math against a hand-computed fixture.

  smoke_test.py --binary PATH/cmsf_workload
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import trace_rollup  # noqa: E402


def check_rollup_fixture():
    data = os.path.join(HERE, "testdata")
    spans = trace_rollup.load_spans(os.path.join(data, "trace_fixture.json"))
    with open(os.path.join(data, "trace_fixture_expected.json"), "r",
              encoding="utf-8") as f:
        expected = json.load(f)
    for key, window in (("all", None), ("window:win", "win")):
        got = trace_rollup.rollup(spans, window)
        if got != expected[key]:
            return [f"rollup {key}: got {got}, expected {expected[key]}"]
    return []


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    args = parser.parse_args()
    spec, _ = run.load_spec()
    run_dir = os.path.join(os.getcwd(), "cmsfbench_smoke")
    errors = check_rollup_fixture()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result = run.collect(args.binary, workload, seed=2023, seconds=1,
                                 trace=trace, run_dir=run_dir, smoke=True)
            label = f"{workload} ({'traced' if trace else 'untraced'})"
            if not result["correct"] or result["failed"]:
                errors.append(f"{label}: output checks failed")
            if trace and result["metrics"]["bench.trace_dropped"]["value"]:
                errors.append(f"{label}: the tracer dropped spans")
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops")
    for e in errors:
        print(f"FAIL: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
