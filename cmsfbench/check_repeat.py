#!/usr/bin/env python3
"""Validates BENCHMARK.json and moves.json, then checks that the benchmark
repeats: it runs N sets of runs of every workload (a different seed per
run, the workload order alternating from run to run), prints each
end-to-end metric's median and quartiles per set, and exits 1 when

  * a metric's spread, (q3 - q1) / median, exceeds its bound in any set
    (setup_s is exempt), or
  * a later set's median is worse than the first set's by more than the
    metric's bound.

Spreads above a third of the bound are flagged as warnings.

  check_repeat.py [--schema-only] [--sets 2] [--runs 5] [--seconds S]
                  [--workload NAME ...]

Run from the repository root; every run goes through run.py, the command
BENCHMARK.json names.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
METRIC_KEYS = {"name", "unit", "better"}


def schema_errors(spec, moves):
    errors = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"}
    if set(spec) != expected:
        errors.append(f"top-level keys {sorted(spec)} != {sorted(expected)}")
    command = spec.get("command", [])
    if (not 1 <= len(command) <= 32
            or any(not isinstance(c, str) or len(c) > 200 or c.startswith("/")
                   or ".." in c.split("/") for c in command)):
        errors.append("command must be 1..32 relative strings of <= 200 chars")
    paths = spec.get("paths", [])
    if (not 1 <= len(paths) <= 16
            or any(not PATH.match(p) or ".." in p.split("/") for p in paths)):
        errors.append("paths must be 1..16 relative directory names")
    if not 2 <= len(spec.get("workloads", [])) <= 8:
        errors.append("need 2 to 8 workloads")
    if not 1 <= len(spec.get("end_to_end", [])) <= 16:
        errors.append("need 1 to 16 end_to_end metrics")
    if not 1 <= len(spec.get("per_layer", [])) <= 128:
        errors.append("need 1 to 128 per_layer metrics")
    run_seconds = spec.get("run_seconds")
    if not isinstance(run_seconds, int) or not 1 <= run_seconds <= 60:
        errors.append("run_seconds must be a whole number in 1..60")
    names = set()
    for w in spec.get("workloads", []):
        if set(w) != {"name", "why"}:
            errors.append(f"workload keys {sorted(w)}")
        if len(w.get("why", "")) > 200 or "\n" in w.get("why", ""):
            errors.append(f"workload {w.get('name')}: why is not one short line")
        names.add(w.get("name"))
    for group, keys in (("end_to_end", METRIC_KEYS | {"bound"}),
                        ("per_layer", METRIC_KEYS)):
        for m in spec.get(group, []):
            if set(m) != keys:
                errors.append(f"{group} {m.get('name')}: keys {sorted(m)}")
            if not UNIT.match(str(m.get("unit", ""))):
                errors.append(f"{m.get('name')}: bad unit {m.get('unit')!r}")
            if m.get("better") not in ("higher", "lower"):
                errors.append(f"{m.get('name')}: better must be higher|lower")
            if group == "end_to_end" and not 0 < m.get("bound", 0) <= 0.25:
                errors.append(f"{m.get('name')}: bound must be in (0, 0.25]")
            names_before = len(names)
            names.add(m.get("name"))
            if len(names) == names_before:
                errors.append(f"name {m.get('name')!r} used twice")
    for n in names:
        if not isinstance(n, str) or not NAME.match(n):
            errors.append(f"bad name {n!r}")
    setup = [m for m in spec.get("end_to_end", []) if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errors.append("setup_s must carry the largest bound")

    e2e = {m["name"] for m in spec.get("end_to_end", [])}
    workloads = {w["name"] for w in spec.get("workloads", [])}
    layers = {m["name"] for m in spec.get("per_layer", [])}
    if set(moves) != layers:
        errors.append(f"moves.json covers {sorted(set(moves) ^ layers)} "
                      "differently from per_layer")
    for layer, entry in moves.items():
        for mv in entry.get("moves", []):
            if mv.get("metric") not in e2e or mv.get("workload") not in workloads:
                errors.append(f"moves.json {layer}: {mv} names an unknown "
                              "metric or workload")
    return errors


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"check_repeat: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    return json.loads(lines[-1])["metrics"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--schema-only", action="store_true")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "moves.json"), "r", encoding="utf-8") as f:
        moves = json.load(f)
    errors = schema_errors(spec, moves)
    for e in errors:
        print(f"schema: {e}", file=sys.stderr)
    if errors or args.schema_only:
        return 1 if errors else 0

    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    # values[set][workload][metric] -> list of run values.
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(args.sets)]
    for s in range(args.sets):
        for r in range(args.runs):
            order = workloads if (s * args.runs + r) % 2 == 0 else workloads[::-1]
            for w in order:
                seed = 1000 * (s + 1) + r
                for name, m in run_once(w, seed, seconds).items():
                    values[s][w][name].append(m["value"])

    failures, warnings = [], []
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(args.sets):
                vals = values[s][w][name]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                print(f"{w:18} {name:16} set {s}: median {med:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f} "
                      f"(bound {bound})")
                if name != "setup_s" and spread > bound:
                    failures.append(f"{w}/{name} set {s}: spread {spread:.3f}")
                elif spread > bound / 3:
                    warnings.append(f"{w}/{name} set {s}: spread {spread:.3f} "
                                    f"> bound/3")
            for s in range(1, args.sets):
                change = (medians[s] - medians[0]) / medians[0]
                worse = change if m["better"] == "lower" else -change
                if worse > bound:
                    failures.append(f"{w}/{name}: set {s} median worse by "
                                    f"{worse:.3f}")
    for msg in warnings:
        print(f"warning: {msg}")
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
