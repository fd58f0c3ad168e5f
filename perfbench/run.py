#!/usr/bin/env python3
"""The simulator benchmark: builds perfbench_sim from source and reports the
end-to-end (--trace 0) or per-layer (--trace 1) metrics of one workload.

    python3 perfbench/run.py --workload single-sweep --seed 42 --seconds 20 --trace 0

Run it from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Every earlier line is a
human-readable account: the machine/build descriptor, each metric with its
unit, and the correctness checks. See perfbench/README.md.

Maintenance:
    --repin   write this run's per-cell digests into perfbench/pins.json (only
              after a deliberate model change, as its own change)
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS = BENCH_DIR / "pins.json"
WORKLOADS = ("single-sweep", "dual-sweep", "sampled-paper")
# Start-up samples per run: this many setup-only processes plus the measuring
# process itself; setup_s is their median.
SETUP_SPAWNS = 8
# Percentiles considered for the tail metric, highest first.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 80, 75, 50)


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(2)


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds perfbench_sim; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_sim",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    binary = out / "perfbench_sim"
    if not binary.is_file():
        fail(f"{binary} was not built")
    return binary


def call(binary, *args):
    """Runs the binary; returns its last stdout line parsed as JSON."""
    r = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"perfbench_sim {' '.join(args)} exited {r.returncode}")
    return json.loads(lines[-1])


def descriptor(binary):
    build_info = call(binary, "describe")
    cpu = platform.processor() or "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        describe = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--tags"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10).stdout.strip() or "none (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        describe = "none (git unavailable)"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "git_describe": describe,
    }


def tail(values):
    """Highest percentile in TAIL_PERCENTILES with at least 10 samples beyond
    it (the median when there are too few), as (percentile, value)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10 or p == 50:
            k = min(n - 1, max(0, round(p / 100 * (n - 1))))
            return p, ordered[k]
    raise AssertionError("unreachable")


def load_pins():
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def check_digests(workload, seed, digests):
    """Returns (pinned?, mismatching cells) against perfbench/pins.json."""
    pinned = load_pins().get(workload, {}).get(str(seed))
    if pinned is None:
        return False, []
    cells = sorted(set(pinned) | set(digests))
    return True, [c for c in cells if pinned.get(c) != digests.get(c)]


def repin(workload, seed, digests):
    pins = load_pins()
    pins.setdefault(workload, {})[str(seed)] = dict(sorted(digests.items()))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    log(f"pinned {len(digests)} cell digests for {workload} seed {seed}")


def accuracy_lines(report):
    gap = abs(report["esteem_saving_pct"] - report["paper_saving_pct"])
    log(f"  paper_gap_pp        {gap:.6f} pp  (mean ESTEEM saving "
        f"{report['esteem_saving_pct']:.4f}% vs paper {report['paper_saving_pct']}%)")
    log(f"  ci_halfwidth_pp     {report['ci_halfwidth_pp']:.6f} pp  "
        "(mean 95% CI half-width of the ESTEEM saving; 0 = exhaustive)")


def gate(report, workload, seed, args, sweeps=1):
    """Correctness: run errors, invariants, and the pinned per-cell digests.
    Returns (correct, attempted, failed)."""
    cells = report["cells"]
    pinned, mismatched = check_digests(workload, seed, report["digests"])
    if args.repin:
        repin(workload, seed, report["digests"])
        pinned, mismatched = True, []
    failed_cells = report["failed_cells"] + len(mismatched)
    attempted = cells * sweeps
    failed = failed_cells * sweeps
    problems = list(report["problems"])
    if mismatched:
        problems.append(f"{len(mismatched)} cell(s) differ from the pinned digests, "
                        f"e.g. {', '.join(mismatched[:4])}")
    log(f"  failed_runs         {failed / attempted:.6f} share  "
        f"({failed} of {attempted} cells)")
    log(f"  digests             {'checked against ' + str(PINS.name) if pinned else 'no pins for this seed (invariants and recompute only)'}")
    for p in problems:
        log(f"  PROBLEM: {p}")
    return not problems and failed == 0, attempted, failed


def measure(binary, args):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    starts = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.monotonic_ns()
        starts.append((call(binary, "setup", *common)["dispatch_mono_ns"] - t0) * 1e-9)
    t0 = time.monotonic_ns()
    report = call(binary, "run", *common, "--seconds", str(args.seconds))
    starts.append((report["dispatch_mono_ns"] - t0) * 1e-9)

    sweeps = report["sweeps"]
    cold = all(s["memo_before"]["disk_dir"] == "" and s["memo_before"]["entries"] == 0
               and s["memo_disk_hits"] == 0 and s["memo_hits"] == 0 for s in sweeps)
    cells = [c for s in sweeps for c in s["cell_s"]]
    metrics = {
        "setup_s": (statistics.median(starts), "s"),
        "minstr_per_s": (statistics.median(report["nominal_instr"] / 1e6 / s["wall_s"]
                                           for s in sweeps), "Minstr/s"),
        "cpu_s": (statistics.median(s["cpu_s"] for s in sweeps), "s"),
        "cell_p50_s": (statistics.median(cells), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    log(f"workload {args.workload}: {report['cells']} cells x {len(sweeps)} cold sweep(s), "
        f"{report['threads']} worker thread(s), seed {args.seed}")
    for name, (value, unit) in metrics.items():
        log(f"  {name:<19} {value:.6f} {unit}")
    walls = ", ".join(f"{s['wall_s']:.3f}" for s in sweeps)
    log(f"  (cell_p50_s over {len(cells)} cells; setup_s median of {len(starts)} starts; "
        f"sweep walls {walls} s)")
    accuracy_lines(report)
    log(f"  memo                cold before every sweep: disk dir disabled, entries "
        f"cleared, 0 disk hits -> {'proven' if cold else 'NOT PROVEN'}")
    log(f"  recompute           {report['recheck_cell']} uncached: "
        f"{'identical' if report['recheck_ok'] else 'DIFFERS'}")
    correct, attempted, failed = gate(report, args.workload, args.seed, args, len(sweeps))
    return correct and cold and report["recheck_ok"], attempted, failed, metrics


def self_times(spans):
    """Seconds of each cell-task span minus the task spans nested in it (a
    single-worker pool runs a workload's technique tasks inside its baseline
    task)."""
    out = []
    by_tid = {}
    for e in spans:
        by_tid.setdefault(e["tid"], []).append(e)
    for group in by_tid.values():
        group.sort(key=lambda e: (e["ts"], -e["dur"]))
        self_us = [e["dur"] for e in group]
        stack = []  # indices of the open enclosing spans
        for i, e in enumerate(group):
            while stack and group[stack[-1]]["ts"] + group[stack[-1]]["dur"] <= e["ts"]:
                stack.pop()
            if stack:
                self_us[stack[-1]] -= e["dur"]
            stack.append(i)
        out.extend(us * 1e-6 for us in self_us)
    return out


def sim_metrics(report):
    """sim.* metrics from the traced sweep's wall-clock task spans."""
    path = pathlib.Path(report["sweep_trace"])
    events = json.loads(path.read_text())
    events = events.get("traceEvents", events) if isinstance(events, dict) else events
    spans = [e for e in events
             if e.get("ph") == "X" and e.get("pid") == 2 and ":" in e.get("name", "")
             and not e["name"].startswith("simulate ")]
    path.unlink()
    tasks = self_times(spans)
    if len(tasks) != report["cells"]:
        fail(f"expected {report['cells']} cell spans in the sweep trace, found {len(tasks)}")
    busy = sum(tasks)
    pct, tail_s = tail(tasks)
    return {
        "sim.run_overhead_ms": ((busy - report["simulate_s"]) / len(tasks) * 1e3, "ms"),
        "sim.cell_tail_s": (tail_s, "s"),
        "sim.pool_idle_pct": (100.0 * max(0.0, 1 - busy / (report["threads"] * report["sweep_wall_s"])), "%"),
    }, pct


PER_LAYER_UNITS = {
    "trace.gen_ns_per_ref": "ns", "trace.skip_ns_per_minstr": "ns",
    "trace.refs_per_cell": "count", "cpu.hierarchy_ns_per_ref": "ns",
    "cache.l1_ns_per_ref": "ns", "cache.l1_miss_ratio": "ratio",
    "cache.l2_ns_per_access": "ns", "cache.l2_miss_ratio": "ratio",
    "cache.l2_accesses_per_kref": "count", "cache.bank_ns_per_access": "ns",
    "cache.bank_wait_cycles_per_access": "cycles", "edram.refresh_ns_per_kref": "ns",
    "edram.refreshes_per_kinstr": "count", "profiler.ns_per_l2_access": "ns",
    "core.ns_per_interval": "ns", "core.transitions": "count",
    "mem.ns_per_access": "ns", "mem.accesses_per_kinstr": "count",
    "energy.ns_per_eval": "ns", "sampling.executed_instr_pct": "%",
    "sampling.windows": "count", "sampling.ci_halfwidth_pp": "pp",
    "layers.coverage_pct": "%",
}


def measure_traced(binary, args):
    scratch = build_dir() / "perfbench-scratch"
    report = call(binary, "traced", "--workload", args.workload, "--seed", str(args.seed),
                  "--scratch", str(scratch))
    metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in report["metrics"].items()}
    sim, pct = sim_metrics(report)
    metrics.update(sim)
    gap = abs(report["esteem_saving_pct"] - report["paper_saving_pct"])
    metrics["sim.paper_gap_pp"] = (gap, "pp")
    log(f"workload {args.workload} (traced): {report['cells']} cells, "
        f"{report['threads']} worker thread(s), seed {args.seed}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        log(f"  {name:<34} {value:.6f} {unit}")
    log(f"  (sim.cell_tail_s is p{pct:g} of {report['cells']} cells; "
        f"end-to-end {report['e2e_ns_per_ref']:.2f} ns/ref; peak RSS {report['peak_rss_mb']:.1f} MB)")
    log(f"  fidelity            trace: replay through cpu::System exact in "
        f"{report['replay_exact']}/{report['replay_cells']} cells; replica exact in "
        f"{report['replica_exact_cells']} cells; L1->L2 counts checked in "
        f"{report['l1_l2_checked_cells']} cells")
    fidelity = report["replay_exact"] == report["replay_cells"] > 0
    correct, attempted, failed = gate(report, args.workload, args.seed, args)
    return correct and fidelity, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repin", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    desc = descriptor(binary)
    log("descriptor " + json.dumps(desc, sort_keys=True))
    if desc["build_type"] != "Release":
        fail(f"refusing a {desc['build_type']} build")

    run = measure_traced if args.trace else measure
    correct, attempted, failed, metrics = run(binary, args)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


if __name__ == "__main__":
    main()
