#!/usr/bin/env python3
"""Build and run the PowerMove whole-request benchmark.

    python3 perfbench/run.py --workload table2|scale|service-mix|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first call configures and builds
perfbench/ (and the library it pulls in from src/) in Release mode under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild only what changed. Build output goes to stderr.

The benchmark's report goes to stdout; its last line is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 1 the
spans of the run are also written to <build dir>/traces/. The exit code
is nonzero if the build fails, if any request failed or produced an
invalid or changed schedule, or if the result line is malformed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table2", "scale", "service-mix")
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def parse_result(stdout):
    """The JSON object on the last line of @stdout, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.spans.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, "", None
    return proc.returncode, proc.stdout, parse_result(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    status = 0
    for workload in workloads:
        code, stdout, result = run_one(binary, workload, args.seed,
                                       args.seconds, args.trace)
        if args.workload != "all":
            sys.stdout.write(stdout)
            if result is None:
                print("perfbench: no result line", file=sys.stderr)
                return 1
            return code
        # All workloads: each report without its JSON line, then one summary.
        sys.stdout.write("\n".join(stdout.strip().splitlines()[:-1]) + "\n\n")
        if result is None or code != 0:
            status = 1
            summary["correct"] = False
        if result is not None:
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["workloads"][workload] = result["metrics"]
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
