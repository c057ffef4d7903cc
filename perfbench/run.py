#!/usr/bin/env python3
"""memscale's benchmark: host cost and simulated latency of the paper's
random-read and b-tree-index workloads, borrowed region vs. remote swap.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/memscale_bench together with the memscale library from
src/ into .bench_build/ at the root of the checkout, then runs one process
per repetition of the workload until --seconds have passed (at least
MIN_REPS of them). It prints one line per repetition and, last, one JSON
object {"correct", "attempted", "failed", "metrics"}:

  --trace 0  the end-to-end metrics of BENCHMARK.json: setup_s and
             peak_rss_mb are medians over the repetitions; run_s and
             accesses_per_s come from the 10th-percentile host cost per
             access over the slices of every measured phase (see
             cost_per_access); sim_us_per_op is exact for a seed;
  --trace 1  its per-layer metrics, from traced repetitions alternating
             with untraced ones; trace.overhead is the ratio of their
             host cost per access.

A run is correct when no op failed and every repetition, traced or not,
simulated the identical model (same digest of the simulated statistics).
Exits 1 without a result line when the build or a repetition fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BINARY = BUILD / "memscale_bench"
WORKLOADS = ("region_random", "index_region", "index_swap")
MIN_REPS = 3  # of each kind of repetition a run makes
REP_TIMEOUT_S = 150


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(1)


def build():
    """Configures once; the build tool then decides what is stale."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "memscale_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    log = BUILD / "build.log"
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log.read_text()[-6000:])
                fail("build failed: " + " ".join(cmd))


def rep(workload, seed, trace, extra=()):
    """One repetition in its own process; returns its JSON result."""
    cmd = [str(BINARY), f"workload={workload}", f"seed={seed}",
           f"trace={int(trace)}", *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("repetition timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("repetition failed: " + " ".join(cmd))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def show(r):
    print(f"{r['workload']} seed={r['seed']} trace={r['trace']}: "
          f"setup_s={r['setup_s']:.4f} run_s={r['run_s']:.4f} "
          f"accesses={r['accesses']} sim_us_per_op={r['sim_us_per_op']:.6f} "
          f"peak_rss_mb={r['peak_rss_mb']:.1f} "
          f"failed={r['failed']}/{r['attempted']} digest={r['digest']}",
          flush=True)


def median(reps, key):
    return statistics.median(r[key] for r in reps)


def cost_per_access(reps):
    """Host seconds per simulated access: the 10th percentile over every
    slice of every repetition. Other tenants of a shared host only ever add
    time, and their load drifts by a fifth over minutes, which moves a
    median with it; the fast slices estimate the uncontended cost."""
    costs = [h / a for r in reps for h, a in r["slices"] if a > 0]
    return statistics.quantiles(costs, n=10)[0]


def declared(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def end_to_end(plain):
    cost = cost_per_access(plain)
    return {
        "setup_s": median(plain, "setup_s"),
        "run_s": median(plain, "accesses") * cost,
        "accesses_per_s": 1.0 / cost,
        "peak_rss_mb": median(plain, "peak_rss_mb"),
        "sim_us_per_op": plain[0]["sim_us_per_op"],
    }


def per_layer(plain, traced):
    # Counted and simulated metrics repeat exactly; host times take medians.
    values = dict(traced[0]["sim_layers"])
    for name in traced[0]["host_layers"]:
        values[name] = statistics.median(r["host_layers"][name] for r in traced)
    values["trace.overhead"] = cost_per_access(traced) / cost_per_access(plain)
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    span_file = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
    span_file.parent.mkdir(exist_ok=True)

    plain, traced = [], []
    deadline = time.monotonic() + args.seconds
    while len(plain) < MIN_REPS or time.monotonic() < deadline:
        plain.append(rep(args.workload, args.seed, False))
        show(plain[-1])
        if args.trace:
            traced.append(rep(args.workload, args.seed, True,
                              [f"spans={span_file}"]))
            show(traced[-1])

    reps = plain + traced
    digests = sorted({r["digest"] for r in reps})
    print(f"model digest: {' '.join(digests)} "
          f"(sim_elapsed_ps={reps[0]['sim_elapsed_ps']})")
    same_model = len(digests) == 1
    if args.trace:
        print(f"spans of the last traced repetition: {span_file}")
        values = per_layer(plain, traced)
        same_model &= all(r["sim_layers"] == traced[0]["sim_layers"]
                          for r in traced)
        units = declared("per_layer")
    else:
        values = end_to_end(plain)
        units = declared("end_to_end")
    missing = sorted(set(units) - set(values))
    if missing:
        fail(f"metrics missing from the run: {missing}")
    failed = sum(r["failed"] for r in reps)
    print(json.dumps({
        "correct": failed == 0 and same_model,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
