#!/usr/bin/env python3
"""Self-test of memscale's benchmark.

    python3 perfbench/selftest.py

Builds the benchmark like run.py does, then checks:
  1. two runs with the same seed, traced or not, give identical model
     digests and identical simulated metrics, on every workload, with no
     failed op;
  2. a different seed changes the op stream, hence the digest;
  3. region_random at Fig. 7's size (4000 reads) and seed (1) reproduces
     sweep/goldens/fig7.json scenario=4 time_ms exactly, so the benchmark
     drives the same model as the figure;
  4. index_swap's sim_us_per_op is at least 10x index_region's: Fig. 10's
     region-vs-swap gap past the spill point.
Exits 1 at the first failed check.
"""
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def main():
    run.build()
    sim_us = {}
    for workload in run.WORKLOADS:
        traced = [run.rep(workload, 1, True) for _ in range(2)]
        plain = run.rep(workload, 1, False)
        same = (traced[0]["digest"] == traced[1]["digest"] == plain["digest"]
                and traced[0]["sim_layers"] == traced[1]["sim_layers"]
                and traced[0]["sim_us_per_op"] == plain["sim_us_per_op"])
        check(same, f"{workload}: same seed, same model "
                    f"(digest {plain['digest']})")
        check(all(r["failed"] == 0 for r in traced + [plain]),
              f"{workload}: no failed op in {plain['attempted']}")
        other = run.rep(workload, 2, False)
        check(other["digest"] != plain["digest"],
              f"{workload}: seed 2 changes the op stream")
        sim_us[workload] = plain["sim_us_per_op"]

    golden = json.loads((run.ROOT / "sweep/goldens/fig7.json").read_text())
    cell = next(c for c in golden["cells"] if c["key"] == "scenario=4")
    want = cell["metrics"]["time_ms"]["median"]
    got = run.rep("region_random", 1, False, ["ops=4000"])["sim_ms"]
    check(got == want, f"region_random at fig7 size: {got} ms == golden {want} ms")

    ratio = sim_us["index_swap"] / sim_us["index_region"]
    check(ratio >= 10,
          f"index_swap / index_region sim_us_per_op = {ratio:.1f} >= 10")


if __name__ == "__main__":
    main()
