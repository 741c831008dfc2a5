#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

For every workload and metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Run it from the repository root:

    python3 perfbench/sweep.py --workloads mine-pokec --seeds 1-5
    python3 perfbench/sweep.py --seeds 1-10 --json sweep.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = {}
    ok = True
    for wl in args.workloads.split(","):
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            runs.setdefault(wl, []).append({"seed": seed, "wall_s": wall, **res})
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()))
            print(f"{wl} seed {seed} ({wall:.1f} s) correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)
            ok = ok and res["correct"] and res["failed"] == 0

    print()
    print(f"{'workload':14} {'metric':24} {'median':>14} {'IQR/median':>11} {'bound':>6}")
    for wl, rs in runs.items():
        for name in sorted(rs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            spread = float("nan")
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
            print(f"{wl:14} {name:24} {med:14.6g} {spread:11.4f} {bound if bound is not None else '':>6}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
