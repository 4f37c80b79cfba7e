#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test        # build and run the benchmark's tests

Run it from the repository root. The library and the benchmark are built
from source with CMake into the build directory (CARGO_TARGET_DIR when set,
else .bench_build), in Release mode. Build output goes to stderr; stdout
carries the benchmark's table, a `record:` line per workload with its
provenance, checks and metrics, and as its last line the result object
{"correct", "attempted", "failed", "metrics"} with the metrics
BENCHMARK.json lists for the mode. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-sweep", "fleet-1024", "fleet-brownout-256", "all")
# The benchmark must end within 180 s; the program stops itself well before.
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_quiet(cmd):
    """Runs a build step with its output sent to stderr."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    return out


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def listed_metrics(trace):
    """The metrics BENCHMARK.json lists for the mode: (name, unit) pairs."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        listed = bench["per_layer" if trace else "end_to_end"]
        return [(m["name"], m["unit"]) for m in listed]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def result_line(records, listed):
    """Builds the result object from the workloads' records. A listed
    metric that a record lacks, or reports in another unit or as a
    non-finite value (null), makes the run incorrect. With several
    workloads each key is prefixed with its workload's name."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for record in records:
        result["correct"] = result["correct"] and record["correct"]
        result["attempted"] += record["attempted"]
        result["failed"] += record["failed"]
        for name, unit in listed:
            measured = record["metrics"].get(name)
            problem = ("missing" if measured is None
                       else "in " + measured["unit"] + ", not " + unit
                       if measured["unit"] != unit
                       else "not finite" if measured["value"] is None
                       else None)
            if problem is not None:
                print("perfbench: %s: %s is %s"
                      % (record["workload"], name, problem), file=sys.stderr)
                result["correct"] = False
                measured = {"value": 0.0}
            key = name if len(records) == 1 else record["workload"] + "." + name
            result["metrics"][key] = {"value": measured["value"], "unit": unit}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's tests")
    args = parser.parse_args()

    if args.test:
        out = build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_tests")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    listed = listed_metrics(args.trace)
    out = build(["perfbench"])
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--git-rev", git_rev()]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, "spans-%s.csv" % args.workload)]

    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    prefix = "record: "
    try:
        records = [json.loads(line[len(prefix):])
                   for line in stdout.split("\n") if line.startswith(prefix)]
    except json.JSONDecodeError:
        records = []
    if proc.returncode != 0 or not records:
        sys.stderr.write(stdout)
        fail("benchmark exited with %d and no record" % proc.returncode)
    sys.stdout.write(stdout)
    print(json.dumps(result_line(records, listed)))


if __name__ == "__main__":
    main()
