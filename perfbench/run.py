#!/usr/bin/env python3
"""End-to-end benchmark of AnECI training.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script builds the benchmark
binary from source (perfbench/CMakeLists.txt, into .bench_build/), runs one
workload (or, with --workload all, every workload in turn) with the
parameters pinned in perfbench/config.json, checks the outputs, and prints a
report whose last line is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the span file is written
to .bench_build/perfbench/traces/. The line above it stamps the run with the kernel
backend, pool width, nproc, seed and source identity: results that differ in
any of those must not be compared. The exit code is non-zero when the build,
the run or any correctness check fails. perfbench/README.md documents every
workload and metric.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, ".bench_build", "perfbench")


def local_env(out_dir):
    """Environment that keeps compiler and program temporaries inside the
    build directory."""
    return dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))


def build(out_dir):
    """Configures once, then rebuilds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(os.path.join(out_dir, "tmp"), exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(os.path.join(out_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               env=local_env(out_dir)) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(out_dir, "perfbench")


def source_digest():
    """SHA-256 over src/ and perfbench/ file contents: identifies the code
    under test in checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or "none" when it is not a git work tree of its
    own (an enclosing repository's HEAD would name other code)."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def run_workload(name, args, config, bench, binary, out_dir):
    """Runs one workload, prints its report and stamp, returns its result."""
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}
    trace_out = os.path.join(out_dir, "traces", f"{name}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--trace-out={trace_out}"]
    cmd += [f"--{k}={v}" for k, v in config["workloads"][name].items()]
    env = dict(local_env(out_dir), ANECI_THREADS=str(config["pool_threads"]))
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"{name}: benchmark binary exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    # The binary reports everything it measured; the manifest's list decides
    # which values enter the result, the rest are printed as info.
    problems = list(raw["failures"])
    metrics = {}
    for metric, m in raw["metrics"].items():
        value = m["value"]
        if metric not in declared:
            raw["info"][metric] = f"{value:.6g} {m['unit']} (not gated)"
            continue
        if declared[metric] != m["unit"]:
            problems.append(f"metric {metric} is in {m['unit']}, "
                            f"BENCHMARK.json says {declared[metric]}")
        elif value is None or not math.isfinite(value):
            problems.append(f"metric {metric} is not a finite number")
        elif not args.trace and value <= 0:
            problems.append(f"metric {metric} is {value}, expected > 0")
        metrics[metric] = {"value": value, "unit": m["unit"]}
    missing = [n for n in declared if n not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")

    stamp = {
        "workload": name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "kernel_backend": raw["info"].get("kernel_backend"),
        "aneci_threads": config["pool_threads"],
        "pool_threads": raw["info"].get("pool_threads"),
        "nproc": os.cpu_count(), "git_commit": git_commit(),
        "source_digest": source_digest(),
        "wall_s": round(time.monotonic() - started, 3),
    }
    print(f"perfbench {name} seed={args.seed} "
          f"{'traced' if args.trace else 'untraced'}")
    for metric, m in metrics.items():
        print(f"  {metric:32s} {m['value']:>16.6g} {m['unit']}")
    for key, value in sorted(raw["info"].items()):
        print(f"  info {key} = {value}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    if args.trace:
        print(f"  spans: {os.path.relpath(trace_out, ROOT)}")
    print(json.dumps({"stamp": stamp}))
    return {"correct": raw["failed"] == 0 and not problems,
            "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run every one")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = list(config["workloads"]) if args.workload == "all" \
        else [args.workload]
    for name in names:
        if name not in config["workloads"]:
            fail(f"unknown workload {name!r}; "
                 f"known: all, {', '.join(config['workloads'])}")

    out_dir = build_dir()
    binary = build(out_dir)
    results = {name: run_workload(name, args, config, bench, binary, out_dir)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        # One line for the whole suite; metric names gain a workload prefix.
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{metric}": m
                             for name, r in results.items()
                             for metric, m in r["metrics"].items()}}
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
