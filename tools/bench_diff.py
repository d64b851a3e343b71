#!/usr/bin/env python3
"""Diff an ncs-bench-v1 report against a recorded ncs-bench-baseline-v1.

The simulator is deterministic, so on identical code the numbers match to
the last digit; a tolerance (default 2%) absorbs intentional model tweaks
while still catching perf regressions and accidental behaviour changes.

Throughput fields (name ending in `_per_sec`, or containing `speedup`) are
wall-clock rates where higher is better: improvements never count as
drift, and regressions are judged against the looser --rate-tol (default
0.6, i.e. fail only when the current rate drops below 40% of baseline) so
hardware variance between the recording machine and CI does not trip the
gate, while an algorithmic regression in the event core still does.

Latency fields (name ending in `_p99`, `_p999`, `_p99_us`, `_p999_us` or
`_latency_us`) are lower-is-better tails over *simulated* time: getting
faster never counts as drift, while a rise beyond --lat-tol (default
0.25) fails the gate. The asymmetric tolerance exists because tail
quantiles snap between histogram buckets — a one-bucket wobble is noise,
a 25% p99.9 climb is a scheduling or queueing regression.

Usage:
    tools/bench_diff.py BASELINE.json CURRENT.json [--bench NAME]
                        [--tol 0.02] [--rate-tol 0.6] [--lat-tol 0.25]

BASELINE.json is either an ncs-bench-baseline-v1 document (its `benches`
map is searched for the bench named in CURRENT.json, or for --bench) or a
bare ncs-bench-v1 document. Exit status: 0 = within tolerance, 1 = drift,
2 = usage/schema error.
"""

import argparse
import json
import re
import sys

# Higher-is-better wall-clock rates: events_per_sec, msgs_per_sec,
# bcast_tree_speedup, ...
RATE_FIELD = re.compile(r"(_per_sec$|speedup)")

# Lower-is-better latency tails: e2e_p999_us, rma_p99_us, put_latency_us, ...
LAT_FIELD = re.compile(r"(_p99$|_p999$|_p99_us$|_p999_us$|_latency_us$)")


def fail(msg):
    print(f"bench_diff: {msg}", file=sys.stderr)
    sys.exit(2)


def pick_baseline(doc, bench_name):
    """Resolve a baseline document to the single-bench report to compare."""
    if not isinstance(doc, dict):
        fail(f"baseline is not a JSON object (got {type(doc).__name__})")
    schema = doc.get("schema", "")
    if schema == "ncs-bench-baseline-v1":
        benches = doc.get("benches")
        if not isinstance(benches, dict):
            fail("baseline has no 'benches' map (malformed "
                 "ncs-bench-baseline-v1 document)")
        if bench_name not in benches:
            fail(f"baseline has no bench {bench_name!r} "
                 f"(has: {', '.join(sorted(benches)) or 'none'})")
        entry = benches[bench_name]
        if not isinstance(entry, dict):
            fail(f"baseline entry for {bench_name!r} is not a bench report "
                 f"(got {type(entry).__name__})")
        return entry
    if schema == "ncs-bench-v1":
        recorded = doc.get("bench")
        if recorded != bench_name:
            fail(f"baseline is a bare report for bench {recorded!r}, but the "
                 f"current report is {bench_name!r} — wrong baseline file, "
                 "or pass --bench to override")
        return doc
    fail(f"unrecognised baseline schema {schema!r}")


def diff(path, base, cur, tol, rate_tol, lat_tol, drifts, key=None):
    """Structural diff: exact for strings/bools/shape, relative for numbers.

    `key` is the nearest enclosing dict key — what classifies a numeric
    leaf as a symmetric deterministic quantity, a higher-is-better rate,
    or a lower-is-better latency tail.
    """
    if isinstance(base, dict) and isinstance(cur, dict):
        for k in sorted(set(base) | set(cur)):
            if k not in cur:
                drifts.append(f"{path}.{k}: missing from current")
            elif k not in base:
                drifts.append(f"{path}.{k}: not in baseline (new field)")
            else:
                diff(f"{path}.{k}", base[k], cur[k], tol, rate_tol, lat_tol,
                     drifts, key=k)
    elif isinstance(base, list) and isinstance(cur, list):
        if len(base) != len(cur):
            drifts.append(f"{path}: length {len(base)} -> {len(cur)}")
        for i, (b, c) in enumerate(zip(base, cur)):
            diff(f"{path}[{i}]", b, c, tol, rate_tol, lat_tol, drifts, key=key)
    elif isinstance(base, bool) or isinstance(cur, bool):
        if base is not cur:
            drifts.append(f"{path}: {base} -> {cur}")
    elif isinstance(base, (int, float)) and isinstance(cur, (int, float)):
        if key is not None and RATE_FIELD.search(key):
            # Higher is better: only a regression beyond rate_tol drifts.
            if base > 0 and (base - cur) / base > rate_tol:
                pct = (cur - base) / base * 100.0
                drifts.append(f"{path}: rate {base:g} -> {cur:g} ({pct:+.2f}%)")
            return
        if key is not None and LAT_FIELD.search(key):
            # Lower is better: only a rise beyond lat_tol drifts.
            if base > 0 and (cur - base) / base > lat_tol:
                pct = (cur - base) / base * 100.0
                drifts.append(f"{path}: latency {base:g} -> {cur:g} "
                              f"({pct:+.2f}%)")
            return
        scale = max(abs(base), abs(cur))
        if scale > 0 and abs(cur - base) / scale > tol:
            pct = (cur - base) / scale * 100.0
            drifts.append(f"{path}: {base:g} -> {cur:g} ({pct:+.2f}%)")
    elif base != cur:
        drifts.append(f"{path}: {base!r} -> {cur!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--bench", help="bench name to pull from a baseline map "
                                    "(default: the current report's name)")
    ap.add_argument("--tol", type=float, default=0.02,
                    help="relative tolerance for numeric fields (default 0.02)")
    ap.add_argument("--rate-tol", type=float, default=0.6,
                    help="allowed relative drop for higher-is-better rate "
                         "fields (*_per_sec, speedup); improvements always "
                         "pass (default 0.6)")
    ap.add_argument("--lat-tol", type=float, default=0.25,
                    help="allowed relative rise for lower-is-better latency "
                         "tails (*_p99, *_p999, *_p99_us, *_p999_us, "
                         "*_latency_us); improvements always pass "
                         "(default 0.25)")
    args = ap.parse_args()

    try:
        with open(args.baseline) as f:
            base_doc = json.load(f)
        with open(args.current) as f:
            cur = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(str(e))

    if not isinstance(cur, dict):
        fail(f"current report is not a JSON object (got {type(cur).__name__})")
    if cur.get("schema") != "ncs-bench-v1":
        fail(f"current report schema is {cur.get('schema')!r}, "
             "expected ncs-bench-v1")
    bench_name = args.bench or cur.get("bench")
    if not bench_name:
        fail("current report has no bench name; pass --bench")
    base = pick_baseline(base_doc, bench_name)

    drifts = []
    diff(bench_name, base, cur, args.tol, args.rate_tol, args.lat_tol, drifts)
    if drifts:
        print(f"bench_diff: {bench_name}: {len(drifts)} field(s) drifted "
              f"beyond {args.tol:.0%}:")
        for d in drifts:
            print(f"  {d}")
        sys.exit(1)
    print(f"bench_diff: {bench_name}: within {args.tol:.0%} of baseline")


if __name__ == "__main__":
    main()
