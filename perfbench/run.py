#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is raw_bulk, soa_cert, gate_sim, or `all` for every
workload in turn.  The first run configures and compiles the library and
the benchmark into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench under the repository root); later runs rebuild
only what changed.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Build output goes to
stderr only on failure, in which case the exit code is non-zero and no
result line is printed.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["raw_bulk", "soa_cert", "gate_sim"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
    return proc.returncode == 0


def build(bdir):
    """Configure once, then build incrementally; returns the binary path."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if not run_logged(cmd, log_path, BUILD_TIMEOUT_S):
                log = tail(log_path)
                shutil.rmtree(bdir, ignore_errors=True)
                fail("configure failed:\n" + log)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if not run_logged(["cmake", "--build", bdir, "-j", jobs], log_path,
                          BUILD_TIMEOUT_S):
            fail("build failed:\n" + tail(log_path))
    return os.path.join(bdir, "perfbench")


def tail(path, lines=40):
    try:
        with open(path) as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def run_one(binary, workload, args, trace_dir):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + ": timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("%s: exited with code %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(workload + ": no result line")
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    bdir = build_dir()
    binary = build(bdir)
    trace_dir = os.path.join(bdir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    if args.workload != "all":
        lines, _ = run_one(binary, args.workload, args, trace_dir)
        sys.stdout.write("\n".join(lines) + "\n")
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result = run_one(binary, workload, args, trace_dir)
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(workload + ": " + lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
