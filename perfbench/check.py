#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 perfbench/check.py self-test
        Runs each workload briefly on seed 0, twice untraced and once
        traced. Fails unless every metric BENCHMARK.json names is present,
        finite and in its unit, and the quality metrics and ISA JSON
        digest of the two untraced runs are identical.

    python3 perfbench/check.py steadiness [--runs 10] [--sets 1]
            [--workloads a,b]
        Runs each workload --runs times per set on seeds 1..runs, each run
        as long as BENCHMARK.json's run_seconds. For every end-to-end
        metric it prints the median, the quartile spread as a share of
        the median (statistics.quantiles, n=4) and the bound. With
        --sets 2 it repeats the runs, prints the second set's spread too,
        and how far the second median moved from the first, as a share
        of the first, with + meaning worse. It fails unless every spread
        of every set, setup_s's too, is within its bound and no median
        got worse by more than its bound. The "aim" column says whether
        every spread is below a third of its bound, the margin a
        benchmark should keep; it does not decide the verdict.

    python3 perfbench/check.py overhead
        Runs each workload untraced and traced on seed 0, each run as
        long as run_seconds, prints the traced run's report (per-row
        layer times and per-layer metrics) and the tracing overhead on
        throughput and latency.

Run from the repository root.
"""

import argparse
import json
import math
import os
import statistics
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Seed of the self-test and overhead runs: the library's own circuits.
SEED = 0
QUALITY = ("fidelity_neglog10_mean", "exec_time_us_geomean", "isa_json_kb_mean")
# Short runs still collect at least 200 latency samples on every workload.
SHORT_SECONDS = {"table2": 1, "scale": 5, "service-mix": 1}


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def digest_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("digest "):
            return line
    return None


def one(binary, workload, seed, seconds, trace):
    code, stdout, result = run.run_one(binary, workload, seed, seconds, trace)
    if code != 0 or result is None or not result["correct"]:
        sys.exit("%s seed %s trace %s failed (exit %s)" % (workload, seed, trace, code))
    return stdout, result


def check_metrics(result, wanted, where):
    got = result["metrics"]
    errors = []
    if set(got) != {m["name"] for m in wanted}:
        errors.append("%s: metric names differ from BENCHMARK.json: %s" % (
            where, sorted(set(got) ^ {m["name"] for m in wanted})))
    for m in wanted:
        value = got.get(m["name"])
        if value is None:
            continue
        if not isinstance(value.get("value"), (int, float)) or not math.isfinite(value["value"]):
            errors.append("%s: %s is not a finite number" % (where, m["name"]))
        if value.get("unit") != m["unit"]:
            errors.append("%s: %s has unit %r, not %r" % (
                where, m["name"], value.get("unit"), m["unit"]))
    return errors


def self_test(args):
    bench = spec()
    binary = run.build()
    errors = []
    for workload in run.WORKLOADS:
        seconds = SHORT_SECONDS[workload]
        first_out, first = one(binary, workload, SEED, seconds, 0)
        second_out, second = one(binary, workload, SEED, seconds, 0)
        _, traced = one(binary, workload, SEED, seconds, 1)
        for result, where in ((first, "run 1"), (second, "run 2")):
            errors += check_metrics(result, bench["end_to_end"], workload + " " + where)
        errors += check_metrics(traced, bench["per_layer"], workload + " traced")
        for name in QUALITY:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                errors.append("%s: %s differs between runs: %r vs %r" % (workload, name, a, b))
        if digest_line(first_out) is None or digest_line(first_out) != digest_line(second_out):
            errors.append("%s: ISA JSON digest differs between runs" % workload)
        print("%-12s ok=%s  %s" % (workload, not errors, digest_line(first_out)))
    for error in errors:
        print("FAIL " + error)
    print("self-test %s" % ("passed" if not errors else "FAILED"))
    return 1 if errors else 0


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / abs(statistics.median(values))


def steadiness(args):
    bench = spec()
    binary = run.build()
    workloads = args.workloads.split(",") if args.workloads else run.WORKLOADS
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    failures = []
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for seed in range(1, args.runs + 1):
                _, result = one(binary, workload, seed, seconds, 0)
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        print("%s: %d run(s) x %d set(s), seeds 1..%d, %g s each" % (
            workload, args.runs, args.sets, args.runs, seconds))
        print("  %-24s %14s %s %7s %5s %8s" % (
            "metric", "median",
            " ".join("%8s" % ("spread%d" % (i + 1)) for i in range(len(sets))),
            "bound", "aim", "drift"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med = statistics.median(sets[0][name])
            spreads = [spread(values[name])[1] for values in sets]
            for i, sp in enumerate(spreads):
                if sp > bound:
                    failures.append("%s %s: set %d spread %.4f above bound %.2f" % (
                        workload, name, i + 1, sp, bound))
            drift = ""
            if len(sets) > 1:
                worse = (statistics.median(sets[1][name]) - med) / abs(med)
                if m["better"] == "higher":
                    worse = -worse
                drift = "%+.4f" % worse
                if worse > bound:
                    failures.append("%s %s: second median worse by %.4f, above bound %.2f" % (
                        workload, name, worse, bound))
            print("  %-24s %14.6g %s %7.2f %5s %8s" % (
                name, med, " ".join("%8.4f" % sp for sp in spreads), bound,
                "yes" if max(spreads) < bound / 3 else "no", drift))
    for failure in failures:
        print("FAIL " + failure)
    print("steadiness %s" % ("passed" if not failures else "FAILED"))
    return 1 if failures else 0


def overhead(args):
    binary = run.build()
    seconds = spec()["run_seconds"]
    for workload in run.WORKLOADS:
        _, plain = one(binary, workload, SEED, seconds, 0)
        traced_out, traced = one(binary, workload, SEED, seconds, 1)
        print("\n".join(traced_out.strip().splitlines()[:-1]))
        parts = []
        for name in ("throughput_rps", "latency_p50_ms", "latency_p90_ms"):
            a = plain["metrics"][name]["value"]
            b = traced["metrics"]["trace." + name]["value"]
            parts.append("%s %.4g -> %.4g (%+.1f%%)" % (name, a, b, 100 * (b / a - 1)))
        coverage = traced["metrics"]["client.coverage_pct"]["value"]
        print("%-12s %s; span coverage %.2f%%" % (workload, "; ".join(parts), coverage))
    return 0


def main():
    parser = argparse.ArgumentParser(description="Checks of the benchmark itself.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("self-test")
    p = sub.add_parser("steadiness")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--workloads", default="")
    sub.add_parser("overhead")
    args = parser.parse_args()
    return {"self-test": self_test, "steadiness": steadiness,
            "overhead": overhead}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
