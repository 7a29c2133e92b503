#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

The spread of a metric is the distance between the first and third
quartile of its values across runs (statistics.quantiles(values, n=4)),
as a share of their median. Run from the repository root:

    python3 perfbench/spread.py --workload kv-read --runs 10 --seconds 15
    python3 perfbench/spread.py --workload all --runs 10 --out perfbench/steadiness.json

With --out, the per-workload values, medians and spreads are merged into
that JSON file under the workload's name, with the host's CPU count.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

def bench_json():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, logs=None):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    if logs:
        os.makedirs(logs, exist_ok=True)
        with open(os.path.join(logs, f"{workload}-{seed}.txt"), "w") as f:
            f.write(out.stdout)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {out.returncode}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: checks failed:\n{out.stdout}")
    return res, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--out", default=None)
    ap.add_argument("--logs", default=None, help="directory to keep each run's report in")
    args = ap.parse_args()

    bench = bench_json()
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]] if args.workload == "all" else args.workload.split(",")
    record = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    for w in workloads:
        values, walls = {}, []
        for i in range(args.runs):
            seed = args.first_seed + i
            res, wall = run_once(w, seed, seconds, 0, args.logs)
            walls.append(wall)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in sorted(values.items())) +
                  f" (wall {wall:.1f}s)", flush=True)
        entry = {"seconds": seconds, "seeds": [args.first_seed + i for i in range(args.runs)],
                 "cpus": os.cpu_count(), "wall_s_max": round(max(walls), 1), "metrics": {}}
        for name, vals in sorted(values.items()):
            s, med = spread(vals)
            b = bounds.get(name)
            flag = "" if b is None or s < b / 3 else "  <-- above bound/3"
            print(f"  {w:10s} {name:12s} median {med:14.6g}  spread {s:7.4f}  bound {b}{flag}")
            entry["metrics"][name] = {"median": med, "spread": round(s, 5), "values": vals}
        record[w] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
