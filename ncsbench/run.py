#!/usr/bin/env python3
"""ncsbench: the NCS simulator's host cost beside the modelled system's.

    python3 ncsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The first call
builds ncsbench/ (the repository's libraries plus the workload driver
ncsbench/workload.cpp) into .bench_build/ at the checkout root.

Each run of the workload is its own child process, so its peak RSS is its
own high-water mark and an NCS_ASSERT abort or a timeout is recorded as a
failed run (exit status, message, every operation counted as failed)
instead of killing the benchmark. Children are launched one after another
until --seconds have passed; host-time metrics are medians over them.

--trace 0 prints the end-to-end metrics, all from untraced children.
--trace 1 alternates untraced children with children that run with
ClusterConfig::profile on and record a span around every NCS API call
(written to .bench_build/spans/), and prints the per-layer metrics:
host-time legs from the untraced children, profiler and span legs from the
traced ones, and the cost of observing (traced / untraced run_s - 1).

Metric names starting with sim_ or prof., and units starting with sim_,
are simulated time: they repeat exactly for the same code and seed. Every
other time is host wall-clock. The seed derives the traffic; 1 is the
default and 2 is the seed held back for checking claims.

The last stdout line is one JSON object:
{"correct": bool, "attempted": ops, "failed": ops, "metrics": {...}}.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "ncsbench" / "ncs_workload"

# Workloads --workload accepts. planes_lan_16 aborts in the simulator at
# the time of writing (see test_ncsbench.py) and is kept runnable so the
# fix can be measured, but is not listed in BENCHMARK.json.
WORKLOADS = ("hosts_lan_512", "stream_wan_64", "mt_stream_lan_16", "planes_lan_16")

CHILD_TIMEOUT_S = 60.0

# Per-layer metrics: name -> (unit, source). "host": host time, median of
# the untraced children. "same": simulated or counted, identical in every
# child. "traced": simulated, from the profiler or the API-call spans of
# the traced children. A child reports only the layers its workload uses
# (rma.* only where one-sided ops run).
LAYERS = {
    "cluster.build_s": ("s", "host"),
    "cluster.build_us_per_host": ("us", "host"),
    "cluster.init_s": ("s", "host"),
    "cluster.teardown_s": ("s", "host"),
    "mts.spawns": ("count", "same"),
    "mts.host_us_per_spawn": ("us", "host"),
    "sim.events": ("count", "same"),
    "sim.host_ns_per_event": ("ns", "host"),
    "sim.peak_pending": ("count", "same"),
    "atm.nic_tx_cells": ("count", "same"),
    "atm.switch_cells": ("count", "same"),
    "atm.switch_port_drops": ("count", "same"),
    "prof.nic_dma.p50_us": ("sim_us", "traced"),
    "prof.nic_sar.p50_us": ("sim_us", "traced"),
    "prof.wire.p50_us": ("sim_us", "traced"),
    "mps.sends": ("count", "same"),
    "mps.acks_sent": ("count", "same"),
    "mps.window_stalls": ("count", "same"),
    "mps.retransmits": ("count", "same"),
    "mps.send_call_p50_us": ("sim_us", "traced"),
    "mps.send_call_p99_us": ("sim_us", "traced"),
    "prof.flow_control.p99_us": ("sim_us", "traced"),
    "prof.send_queue.p99_us": ("sim_us", "traced"),
    "prof.mailbox.p99_us": ("sim_us", "traced"),
    "proto.eager_msgs_per_frame": ("msgs/frame", "same"),
    "proto.rndv_completed": ("count", "same"),
    "prof.proto.p99_us": ("sim_us", "traced"),
    "mts.dispatches": ("count", "same"),
    "mts.steals": ("count", "same"),
    "prof.sched_dispatch.p99_us": ("sim_us", "traced"),
    "coll.allreduce_call_p50_us": ("sim_us", "traced"),
    "coll.allreduce_call_p99_us": ("sim_us", "traced"),
    "nic_coll.combines": ("count", "same"),
    "nic_coll.fallbacks": ("count", "same"),
    "prof.nic_coll.p99_us": ("sim_us", "traced"),
    "rma.op_p50_us": ("sim_us", "same"),
    "rma.op_p99_us": ("sim_us", "same"),
    "rma.completions": ("count", "same"),
    "rma.retransmits": ("count", "same"),
    "rma.error_completions": ("count", "same"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and (re)builds the workload driver; returns its path."""
    if not (ROOT / "src" / "cluster" / "cluster.hpp").is_file():
        log(f"ncsbench: no NCS sources beside {HERE.name}/ (expected {ROOT / 'src'})")
        sys.exit(2)
    bdir = BINARY.parent
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "ncs_workload", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
        except FileNotFoundError:
            log("ncsbench: cmake not found")
            sys.exit(2)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"ncsbench: build step failed: {' '.join(cmd)}")
            sys.exit(2)
    return BINARY


def run_child(binary, workload, seed, profile, spans_path=None):
    """One run in its own process. Returns a dict with the child's result
    (or its failure), its plan and its own peak RSS."""
    out_path = BUILD / "child.out"
    err_path = BUILD / "child.err"
    argv = [str(binary), "--workload", workload, "--seed", str(seed)]
    if profile:
        argv.append("--profile")
        if spans_path is not None:
            argv += ["--spans", str(spans_path)]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ])
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    timed_out = False
    while True:
        wpid, status, usage = os.wait4(pid, os.WNOHANG)
        if wpid == pid:
            break
        if not timed_out and time.monotonic() > deadline:
            timed_out = True
            os.kill(pid, signal.SIGKILL)
        time.sleep(0.002)
    lines = out_path.read_text(errors="replace").splitlines()
    err = err_path.read_text(errors="replace")
    child = {"profile": profile, "rss_mb": usage.ru_maxrss / 1024.0, "attempted": 0}
    for line in lines:
        if line.startswith('{"plan"'):
            child["attempted"] = json.loads(line)["plan"]["attempted"]
    code = os.waitstatus_to_exitcode(status)
    if timed_out:
        child["failure"] = f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    elif code != 0:
        how = f"signal {-code} ({signal.Signals(-code).name})" if code < 0 else f"exit {code}"
        msg = " | ".join(l.strip() for l in err.strip().splitlines()[-3:])
        child["failure"] = f"{how}: {msg}"
    else:
        try:
            child["result"] = json.loads(lines[-1])
        except (IndexError, ValueError):
            child["failure"] = "no result line"
    return child


def metric(value, unit):
    return {"value": value, "unit": unit}


def fold(trace, children):
    """Folds the children of one run into (correct, attempted, failed,
    metrics, notes)."""
    attempted = sum(c["attempted"] for c in children)
    ok = sum(c["result"]["ok"] for c in children if "result" in c)
    notes = [c["failure"] for c in children if "failure" in c]
    good = [c["result"] for c in children if "result" in c]
    for r in good:
        notes += r["errors"]
    # Same code, same seed: digest, simulated metrics and counters repeat.
    ref = good[0] if good else None
    for r in good[1:]:
        if r["digest"] != ref["digest"] or r["sim"] != ref["sim"] or any(
                r["layers"][k] != ref["layers"][k]
                for k in ref["layers"] if LAYERS.get(k, ("", ""))[1] == "same"):
            notes.append(f"nondeterministic: digest {r['digest']} vs {ref['digest']}")
    correct = not notes and ok == attempted and attempted > 0
    untraced = [c["result"] for c in children if "result" in c and not c["profile"]]
    traced = [c["result"] for c in children if "result" in c and c["profile"]]

    metrics = {}
    if not trace:
        if untraced:
            for name in ("setup_s", "run_s", "wall_s"):
                metrics[name] = metric(median([r["host"][name] for r in untraced]), "s")
        metrics["peak_rss_mb"] = metric(median([c["rss_mb"] for c in children]), "MiB")
        if ref is not None:
            sim = ref["sim"]
            metrics["sim_makespan_s"] = metric(sim["makespan_s"], "sim_s")
            metrics["sim_ops_per_s"] = metric(sim["ops_per_s"], "1/sim_s")
            metrics["sim_lat_p50_us"] = metric(sim["lat_p50_us"], "sim_us")
            metrics["sim_lat_p99_us"] = metric(sim["lat_p99_us"], "sim_us")
        metrics["ok_share"] = metric(ok / attempted if attempted else 0.0, "share")
        return correct, attempted, attempted - ok, metrics, notes

    pools = {"host": untraced, "same": good[:1], "traced": traced}
    for name, (unit, source) in LAYERS.items():
        values = [r["layers"][name] for r in pools[source] if name in r["layers"]]
        if values:
            metrics[name] = metric(median(values), unit)
    if untraced and traced:
        traced_run = median([r["host"]["run_s"] for r in traced])
        metrics["obs.traced_run_s"] = metric(traced_run, "s")
        metrics["obs.profile_overhead"] = metric(
            traced_run / median([r["host"]["run_s"] for r in untraced]) - 1.0, "ratio")
    if ref is not None:
        metrics["lat_samples"] = metric(ref["sim"]["lat_samples"], "count")
    return correct, attempted, attempted - ok, metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")

    binary = build()
    spans_dir = BUILD / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{args.workload}-seed{args.seed}.json"

    children = []
    start = time.monotonic()
    while True:
        # Traced runs alternate with untraced ones so both see the same
        # machine state; the first child of a run is always untraced.
        profile = bool(args.trace) and len(children) % 2 == 1
        child = run_child(binary, args.workload, args.seed, profile, spans_path)
        children.append(child)
        if "failure" in child:
            break  # the simulator is deterministic: a failed run fails again
        enough = not args.trace or any(c["profile"] for c in children)
        if enough and time.monotonic() - start >= args.seconds:
            break

    correct, attempted, failed, metrics, notes = fold(args.trace, children)
    first = next((c["result"] for c in children if "result" in c), None)
    print(f"ncsbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(children)} runs, {attempted} ops, {failed} failed"
          + (f", digest {first['digest']}" if first else ""))
    for note in notes[:8]:
        print(f"  FAILED: {note}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'failed_share':32s} {failed / attempted if attempted else 1.0:.6g} share")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
