#!/usr/bin/env python3
"""Repository benchmark for the SKYPEER library.

Usage (from the repository root):

    python3 perfbench/run.py --workload uniform_static --seed 1 \
        --seconds 30 --trace 0

Builds the library and the benchmark program (skypeer_perfbench.cc) from
source into .bench_build/, runs the workload's phases, each in a fresh
process, checks every answer, prints a report and, as the last line, one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run. Exits nonzero when any answer
is wrong or a phase fails.

    python3 perfbench/run.py --workload uniform_static --repeat 10

runs the benchmark on ten seeds and prints each metric's median, quartiles
and quartile spread, which is how the bounds in BENCHMARK.json were set.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "skypeer_perfbench")

WORKLOADS = ("uniform_static", "uniform_churn_paged_lossy")

# End-to-end metrics: name, unit and the phase that measures them.
END_TO_END = (
    ("setup_s", "s", "throughput"),
    ("query_p50_ms", "ms", "latency"),
    ("query_tail_ms", "ms", "latency"),
    ("queries_per_s", "1/s", "throughput"),
    ("update_p50_ms", "ms", "latency"),
    ("update_tail_ms", "ms", "latency"),
    ("peak_rss_mb", "MB", None),
    ("kb_per_query", "KB", "latency"),
)

# At --seconds 30 a run must end within 180 s once the program is built.
# A run does fixed work that grows with --seconds, and so does its budget.
RUN_BUDGET_S = 170
BUDGET_SECONDS = 30.0
# Largest --seconds: the program's task list holds no more queries.
MAX_SECONDS = 600.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark program; returns False
    on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(os.cpu_count() or 1)])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT)
        if result.returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def run_phase(mode, args, deadline, extra=()):
    """Runs one phase of the benchmark program in its own process; returns its
    JSON report, or None when the process failed or ran past `deadline`."""
    cmd = [BINARY, "--workload", args.workload, "--mode", mode,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += [str(x) for x in extra]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE,
                                stderr=sys.stderr, cwd=ROOT, text=True,
                                timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{mode} phase timed out")
        return None
    if result.returncode != 0:
        log(f"{mode} phase exited with code {result.returncode}")
        return None
    lines = result.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{mode} phase printed no report")
        return None


def commit_id():
    """The checkout's git commit, or "unknown" when the checkout is not a
    git repository (git is not asked to look above the checkout)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (identifies the code
    when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        walk = sorted(os.walk(os.path.join(ROOT, top)))
        for dirpath, _, filenames in walk:
            if "__pycache__" in dirpath:
                continue
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(latency, throughput):
    phases = {"latency": latency, "throughput": throughput}
    metrics = {}
    for name, unit, phase in END_TO_END:
        if phase is None:  # peak_rss_mb: the larger of the two processes
            value = max(latency["metrics"][name]["value"],
                        throughput["metrics"][name]["value"])
        else:
            value = phases[phase]["metrics"][name]["value"]
        metrics[name] = metric(value, unit)
    return metrics


def print_report(args, phases, metrics, attempted, failed):
    props = {}
    for report in phases.values():
        if report is not None:
            props.update(report.get("properties", {}))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print(f"commit {commit_id()}  source {source_digest()}  "
          f"nproc {os.cpu_count()}  kernel {props.get('kernel_mode', '?')}")
    keys = ("total_points", "store_points", "sel_p", "sel_sp", "store_pages",
            "pool_pages", "store_to_pool_ratio", "subspace_repeat_share",
            "churn_events_per_query", "queries", "batch_queries", "threads",
            "batch_wall_s", "batch_stolen_s")
    print("properties: " + ", ".join(
        f"{k}={props[k]:.4g}" for k in keys if k in props))
    if "query_tail_percentile" in props:
        print(f"query_tail_ms is p{props['query_tail_percentile']:.1f} of "
              f"{props['query_samples']:.0f} samples; update_tail_ms is "
              f"p{props['update_tail_percentile']:.1f} of "
              f"{props['update_samples']:.0f} samples")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.4f} {m['unit']}")
    share = failed / attempted if attempted else 1.0
    print(f"failed_query_share {share:.4f} ({failed} of {attempted})")
    if "fidelity_layers" in props:
        print("cost-model fidelity (host ms vs CostModel::Calibrated ms):")
        for row in props["fidelity_layers"]:
            print(f"  {row['layer']:<16} host {row['host_ms']:>12.2f}"
                  f"  model {row['model_ms']:>12.2f}")
        for row in props["fidelity_variants"]:
            print(f"  {row['variant']:<16} host {row['host_ms']:>12.2f}"
                  f"  model {row['model_ms']:>12.2f}  (mean per query)")
        print(f"  host ranking : {props['host_ranking']}")
        print(f"  model ranking: {props['model_ranking']}"
              f"  (agree: {props['rankings_agree']})")
    for report in phases.values():
        for message in (report or {}).get("failures", []):
            print("FAILED: " + message)


def run_once(args):
    if not build():
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S * max(
        1.0, args.seconds / BUDGET_SECONDS)
    phases = {}
    if args.trace:
        spans = os.path.join(BUILD_DIR,
                             f"spans-{args.workload}-{args.seed}.jsonl")
        phases["trace"] = run_phase("trace", args, deadline,
                                    ["--spans", spans])
        checked = phases["trace"]
    else:
        extra = []
        if args.corrupt_answer is not None:
            extra = ["--corrupt-answer", args.corrupt_answer]
        latency = run_phase("latency", args, deadline, extra)
        phases["latency"] = latency
        phases["throughput"] = latency and run_phase(
            "throughput", args, deadline,
            ["--events", int(latency["properties"]["loop_events"])])
        checked = latency
    # The truth phase replays the membership events of the checked loop.
    phases["truth"] = checked and run_phase(
        "truth", args, deadline,
        ["--events", int(checked["properties"]["loop_events"])])

    if any(report is None for report in phases.values()):
        log("a phase failed; no result")
        return 1
    attempted = sum(int(r["attempted"]) for r in phases.values())
    failed = sum(int(r["failed"]) for r in phases.values())
    if args.trace:
        metrics = phases["trace"]["metrics"]
    else:
        metrics = end_to_end(phases["latency"], phases["throughput"])
    print_report(args, phases, metrics, attempted, failed)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


def run_repeat(args):
    """Runs the benchmark on --repeat consecutive seeds, each in its own
    process, and prints each metric's median, quartiles and spread."""
    values = {}
    units = {}
    for i in range(args.repeat):
        seed = args.seed + i
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = subprocess.run(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                cwd=ROOT)
        if result.returncode != 0:
            log(f"seed {seed}: benchmark failed")
            return 1
        report = json.loads(result.stdout.strip().splitlines()[-1])
        for name, m in report["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        log(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in report["metrics"].items()))
    summary = {}
    print(f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0], None, vals[0])
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "unit": units[name],
                         "values": vals}
        print(f"{name:<44} {median:>12.4f} {q1:>12.4f} {q3:>12.4f}"
              f" {spread:>8.3f}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "summary": summary}))
    return 0


def main():
    # A SIGTERM becomes SystemExit, on which subprocess.run kills and waits
    # for the phase it is running, so no phase outlives the benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run on this many consecutive seeds and "
                             "report medians and quartiles")
    parser.add_argument("--corrupt-answer", type=int, default=None,
                        help="self-test: corrupt the answer of this query "
                             "index; the run must then fail")
    args = parser.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS or args.seed < 0:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS:g}] and --seed "
                     "non-negative")
    if args.repeat:
        return run_repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
