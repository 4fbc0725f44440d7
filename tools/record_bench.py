#!/usr/bin/env python3
"""Append one whole-request benchmark entry to BENCH_e2e.json.

    python3 tools/record_bench.py [--note TEXT] [--out PATH]

Runs `python3 perfbench/run.py --workload all --seed 0` from the root of
the repository this script lives in, and appends one entry to PATH
(default: BENCH_e2e.json at that root; a missing file starts an empty
list). The entry holds the measured commit, the seed, the end-to-end
metrics that BENCHMARK.json declares for each workload, and the `digest`
lines the benchmark prints (the FNV-1a of every emitted ISA JSON).
Nothing is appended if the benchmark fails. Stdlib only.

Every entry is at seed 0, so the digests of any two entries compare.
One entry per change makes the file the checked-in performance
trajectory; timings in one entry come from a single run, so compare
entries with the host noise (about 10%) in mind.

Record a change's entry last, on the change's final code. If tracked
files differ from HEAD, the measured code is not a commit yet: the entry
gets "commit": null, and a later run fills it in with the commit that
added the entry to PATH, which is the change it measured.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--note", default="")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["end_to_end"]]

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("record_bench: perfbench/run.py failed (exit %d)"
                 % proc.returncode)
    summary = json.loads(lines[-1])
    if not summary.get("correct"):
        sys.exit("record_bench: the benchmark reported incorrect results")

    clean = not git("status", "--porcelain", "--untracked-files=no")
    entry = {
        "commit": git("rev-parse", "--short", "HEAD") if clean else None,
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seed": 0,
        "note": args.note,
        "workloads": {
            workload: {name: metrics[name]["value"] for name in names}
            for workload, metrics in summary["workloads"].items()
        },
        "digests": [line for line in lines if line.startswith("digest ")],
    }

    history = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            history = json.load(f)
    for old in history:
        if old["commit"] is None:
            old["commit"] = git(
                "log", "--reverse", "--format=%h", "-S", old["date"], "--",
                os.path.relpath(args.out, ROOT)).split("\n")[0] or None
    history.append(entry)
    with open(args.out, "w") as f:
        json.dump(history, f, indent=2)
        f.write("\n")
    print("record_bench: appended entry %d (%s) to %s"
          % (len(history), entry["commit"] or "uncommitted", args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
