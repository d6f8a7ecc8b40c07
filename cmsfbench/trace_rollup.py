#!/usr/bin/env python3
"""Rolls a Chrome trace-event file (as obs::StopTrace writes it) up per span
name: call count, inclusive time, self time and share of wall time.

A span's self time is its duration minus the part of that interval its
child spans cover, where a child is a span on the same thread that lies
wholly inside it and has no tighter enclosing span. Children that overlap
each other (retroactive spans such as serve.enqueue) are merged before
subtracting, so no interval is subtracted twice.

  trace_rollup.py TRACE [--window NAME]

--window keeps only spans that begin inside a span named NAME (on any
thread), e.g. the benchmark's bench.measure phase.
"""

import argparse
import json
import sys
from collections import defaultdict


def load_spans(path):
    """Returns [(tid, name, begin_us, end_us)] from balanced B/E pairs."""
    with open(path, "r", encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    open_spans = defaultdict(list)
    spans = []
    for ev in events:
        ph = ev.get("ph")
        if ph == "B":
            open_spans[(ev["tid"], ev["name"])].append(ev["ts"])
        elif ph == "E":
            stack = open_spans[(ev["tid"], ev["name"])]
            if not stack:
                raise ValueError(f"unbalanced E event for {ev['name']}")
            spans.append((ev["tid"], ev["name"], stack.pop(), ev["ts"]))
    return spans


def _union_length(intervals):
    total, cur_begin, cur_end = 0, None, None
    for begin, end in sorted(intervals):
        if cur_end is None or begin > cur_end:
            if cur_end is not None:
                total += cur_end - cur_begin
            cur_begin, cur_end = begin, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_begin
    return total


def self_times(spans):
    """Returns [(tid, name, begin, end, self_us)], one per input span."""
    by_tid = defaultdict(list)
    for span in spans:
        by_tid[span[0]].append(span)
    out = []
    for tid_spans in by_tid.values():
        # Parents sort before their children: earlier begin, then longer.
        ordered = sorted(tid_spans, key=lambda s: (s[2], -s[3]))
        children = [[] for _ in ordered]
        stack = []  # Indices of spans that may still enclose later ones.
        for i, (_, _, begin, end) in enumerate(ordered):
            while stack and ordered[stack[-1]][3] <= begin:
                stack.pop()
            for j in reversed(stack):
                if ordered[j][3] >= end:
                    children[j].append((begin, end))
                    break
            stack.append(i)
        for (tid, name, begin, end), kids in zip(ordered, children):
            out.append((tid, name, begin, end,
                        end - begin - _union_length(kids)))
    return out


def rollup(spans, window=None):
    """Per span name: {"count", "incl_us", "self_us"}; with `window`, only
    spans beginning inside a span of that name are counted."""
    timed = self_times(spans)
    windows = sorted((s[2], s[3]) for s in spans if s[1] == window)
    result = defaultdict(lambda: {"count": 0, "incl_us": 0, "self_us": 0})
    for _, name, begin, end, self_us in timed:
        if window is not None and not any(b <= begin < e for b, e in windows):
            continue
        entry = result[name]
        entry["count"] += 1
        entry["incl_us"] += end - begin
        entry["self_us"] += self_us
    return dict(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trace")
    parser.add_argument("--window", default=None)
    args = parser.parse_args()
    spans = load_spans(args.trace)
    if not spans:
        print("no spans", file=sys.stderr)
        return 1
    wall = max(s[3] for s in spans) - min(s[2] for s in spans)
    table = rollup(spans, args.window)
    print(f"{'span':28} {'count':>8} {'incl_ms':>12} {'self_ms':>12} "
          f"{'self_share':>10}")
    for name, e in sorted(table.items(), key=lambda kv: -kv[1]["self_us"]):
        print(f"{name:28} {e['count']:8d} {e['incl_us'] / 1e3:12.3f} "
              f"{e['self_us'] / 1e3:12.3f} {e['self_us'] / wall:10.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
