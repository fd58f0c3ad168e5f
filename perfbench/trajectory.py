#!/usr/bin/env python3
"""Repeats perfbench/run.py and summarises the runs as one trajectory point.

    python3 perfbench/trajectory.py --runs 10 --out perfbench/trajectory/BENCH_0.json

Each workload runs --runs times, run i with seed --first-seed + i, one run at a
time. For every metric the point records the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (interquartile
distance over the median) and, for end-to-end metrics, the bound from
BENCHMARK.json and whether the spread stays below a third of it. The
descriptor of the first run (machine, compiler, build type, git describe) is
stored with the point.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"trajectory: {' '.join(cmd)} exited {r.returncode}")
    desc = next((json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("descriptor ")),
                None)
    return desc, json.loads(lines[-1])


def summarise(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread < bound / 3
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    point = {"descriptor": None, "runs": args.runs, "first_seed": args.first_seed,
             "run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in names:
        samples, all_correct = {}, True
        for i in range(args.runs):
            desc, result = run_once(workload, args.first_seed + i, bench["run_seconds"],
                                    args.trace)
            point["descriptor"] = point["descriptor"] or desc
            all_correct &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            print(f"{workload} run {i + 1}/{args.runs}: correct={result['correct']}",
                  file=sys.stderr, flush=True)
        point["workloads"][workload] = {
            "all_correct": all_correct,
            "metrics": {n: summarise(v, bounds.get(n) if args.trace == 0 else None)
                        for n, v in samples.items()},
        }
        for n, s in point["workloads"][workload]["metrics"].items():
            flag = "" if s.get("steady", True) else "  <- spread above bound/3"
            print(f"{workload:<14} {n:<34} median {s['median']:.6g} spread {s['spread']:.4f}{flag}",
                  flush=True)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
