#!/usr/bin/env python3
"""Run bvbench at --smoke size and check its output contract.

    check_output.py run --bin BUILD/bvbench --dir OUT
        Runs every workload named in BENCHMARK.json at --smoke size, once
        untraced (--trace 0) and once traced (--trace 1), saving each
        stdout as OUT/<workload>.trace<k>.jsonl. Also checks that an
        unknown argument is rejected with a usage error and no result.
        Fails if any run exits nonzero.

    check_output.py check --dir OUT
        Checks the saved outputs: every workload and metric BENCHMARK.json
        names is emitted with its unit and no other metric is; every value
        is finite; the summary line has exactly the contract's keys and
        says correct; the seed-0 digest equals expected_digests.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")
EXPECTED = os.path.join(HERE, "expected_digests.json")


def load(path):
    with open(path) as f:
        return json.load(f)


def output_path(directory, workload, trace):
    return os.path.join(directory, "%s.trace%d.jsonl" % (workload, trace))


def run(args):
    bench = load(BENCHMARK)
    os.makedirs(args.dir, exist_ok=True)
    failures = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [args.bin, "--workload", w["name"], "--seed", "0",
                   "--seconds", "0.01", "--trace", str(trace), "--smoke",
                   "--out", os.path.join(args.dir, "out")]
            p = subprocess.run(cmd, capture_output=True, text=True)
            with open(output_path(args.dir, w["name"], trace), "w") as f:
                f.write(p.stdout)
            if p.returncode != 0:
                failures.append("%s exited %d: %s" % (
                    " ".join(cmd), p.returncode, p.stderr.strip()))
    # A mistyped flag must be a usage error, not a silently ignored one.
    p = subprocess.run([args.bin, "--workload", "bv_llc_bound", "--smok"],
                       capture_output=True, text=True)
    if p.returncode != 2 or p.stdout or "unknown argument" not in p.stderr:
        failures.append("an unknown argument was not rejected (exit %d)"
                        % p.returncode)
    return failures


def finite_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def check_run(path, workload, trace, wanted, expected_digest):
    errors = []
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    if len(lines) < 2:
        return ["%s: fewer than two JSON lines" % path]
    summary, digest_line, metric_lines = lines[-1], lines[-2], lines[:-2]

    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("summary keys are %s" % sorted(summary))
    if summary.get("correct") is not True:
        errors.append("summary says correct=%r" % summary.get("correct"))
    attempted, failed = summary.get("attempted"), summary.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        errors.append("attempted=%r is not a positive integer" % attempted)
    if failed != 0:
        errors.append("failed=%r" % failed)

    metrics = summary.get("metrics", {})
    for name, unit in wanted.items():
        if name not in metrics:
            errors.append("metric %s missing" % name)
        elif metrics[name].get("unit") != unit:
            errors.append("metric %s has unit %r, BENCHMARK.json says %r"
                          % (name, metrics[name].get("unit"), unit))
    for name, entry in metrics.items():
        if name not in wanted:
            errors.append("metric %s is not named in BENCHMARK.json" % name)
        if not finite_number(entry.get("value")):
            errors.append("metric %s value %r is not finite"
                          % (name, entry.get("value")))

    kind = "layer" if trace else "e2e"
    emitted = {}
    for line in metric_lines:
        if line.get("workload") != workload or line.get("kind") != kind:
            errors.append("metric line %r has the wrong workload or kind"
                          % line)
        emitted[line.get("metric")] = (line.get("value"), line.get("unit"))
    summarized = {n: (e.get("value"), e.get("unit"))
                  for n, e in metrics.items()}
    if emitted != summarized:
        errors.append("metric lines and the summary line disagree")

    if digest_line.get("digest") != expected_digest:
        errors.append("digest %r, expected_digests.json has %r"
                      % (digest_line.get("digest"), expected_digest))
    return ["%s: %s" % (path, e) for e in errors]


def check(args):
    bench = load(BENCHMARK)
    expected = load(EXPECTED)["smoke"]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    for w in bench["workloads"]:
        for trace, wanted in ((0, e2e), (1, layer)):
            errors += check_run(output_path(args.dir, w["name"], trace),
                                w["name"], trace, wanted,
                                expected.get(w["name"]))
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("--bin", required=True)
    r.add_argument("--dir", required=True)
    c = sub.add_parser("check")
    c.add_argument("--dir", required=True)
    args = parser.parse_args()
    problems = run(args) if args.mode == "run" else check(args)
    for p in problems:
        print("FAIL:", p)
    print("%s: %s" % (args.mode, "ok" if not problems else
                      "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
