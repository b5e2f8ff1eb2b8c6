#!/usr/bin/env python3
"""Run the benchmark on several seeds and print, per workload and
end-to-end metric, the median, the quartiles and the interquartile range
as a share of the median (statistics.quantiles(values, n=4)), with the
bound BENCHMARK.json fixes for it, the same spread of the uncalibrated
(raw) twin where there is one, and the runs' machine factors.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1]
        [--workload NAME ...]

Run from the root of a checkout.  Each run's result line is also appended
to perfbench/out/spread.jsonl.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    factor, raw = None, {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 2 and parts[0] == "bench.machine_factor":
            factor = float(parts[1])
        m = re.match(r"\s*(\S+)\s.*\(raw ([-\d.]+)\)", line)
        if m:
            raw[m.group(1)] = float(m.group(2))
    return json.loads(lines[-1]), factor, raw


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs("perfbench/out", exist_ok=True)
    log = open("perfbench/out/spread.jsonl", "a")
    worst = 0.0
    for w in workloads:
        results, factors, raws = [], [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res, factor, raw = run(w, seed, bench["run_seconds"])
            log.write(json.dumps({"workload": w, "seed": seed, "machine_factor": factor,
                                  "raw": raw, **res}) + "\n")
            log.flush()
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
            results.append(res)
            factors.append(factor)
            raws.append(raw)
        print(f"== {w}: {len(results)} seeds, machine factor "
              + " ".join(f"{f:.3f}" for f in factors if f is not None))
        print(f"   {'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}"
              f" {'raw iqr/med':>11}")
        for name in results[0]["metrics"]:
            q1, med, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in results], n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            raw_spread = ""
            if all(name in r for r in raws):
                r1, rmed, r3 = statistics.quantiles([r[name] for r in raws], n=4)
                raw_spread = f"{(r3 - r1) / rmed:.4f}"
            print(f"   {name:<22} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6} {raw_spread:>11}")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    sys.exit(main())
