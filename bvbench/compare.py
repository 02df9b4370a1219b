#!/usr/bin/env python3
"""Compare two sets of bvbench runs: a parent commit and a change.

    compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per untraced run (--trace 0): the run's
stdout, of which the digest line and the summary line are read. Runs of
one workload are paired in start order, parent with change; the rules
are those for claiming a gain in a small sandbox:

  - at least 10 pairs per workload, alternating which side ran first,
    each pair run with the same seed;
  - per metric, each side's median and quartiles are reported;
  - "gain": the change wins at least 9 in 10 pairs (ties count for
    neither) and the medians differ by more than the parent's
    interquartile range;
  - "unresolved": either side's spread (IQR / median) exceeds the
    metric's bound, unless every change run beats every parent run;
  - "regression": the change median is worse than the parent median by
    more than the bound; otherwise "no regression".

Pairs whose statistics digests differ are listed: a change meant only
to speed up the simulator must leave every simulated statistic
identical. Exits 1 on a regression or an invalid comparison.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10


def load_runs(directory):
    """workload -> runs sorted by start time, from every file in dir."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*"))):
        with open(path) as f:
            lines = [json.loads(line) for line in f
                     if line.strip().startswith("{")]
        if len(lines) < 2 or "digest" not in lines[-2]:
            raise ValueError("%s is not a bvbench run's output" % path)
        head, summary = lines[-2], lines[-1]
        if head.get("trace") != 0:
            raise ValueError("%s is a traced run; compare untraced runs"
                             % path)
        runs.setdefault(head["workload"], []).append({
            "path": path,
            "started": head["started_unix"],
            "seed": head["seed"],
            "digest": head["digest"],
            "correct": summary["correct"],
            "metrics": {k: v["value"]
                        for k, v in summary["metrics"].items()},
        })
    for workload_runs in runs.values():
        workload_runs.sort(key=lambda r: r["started"])
    return runs


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True if value a is better than value b."""
    return a > b if direction == "higher" else a < b


def judge(parent, change, direction, bound):
    """Verdict and statistics for one metric of one workload."""
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    n = len(parent)
    spread = max((p3 - p1) / abs(pmed) if pmed else float("inf"),
                 (c3 - c1) / abs(cmed) if cmed else float("inf"))
    worse_by = (pmed - cmed if direction == "higher" else cmed - pmed)
    worse_by /= abs(pmed) if pmed else 1.0
    if (wins >= 0.9 * n and abs(cmed - pmed) > p3 - p1
            and better(cmed, pmed, direction)):
        verdict = "gain"
    elif spread > bound:
        all_better = all(better(c, p, direction)
                         for c in change for p in parent)
        verdict = "better (spread > bound)" if all_better else "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "no regression"
    return {"parent": (p1, pmed, p3), "change": (c1, cmed, c3),
            "wins": wins, "pairs": n, "spread": spread,
            "verdict": verdict}


def compare(parent_runs, change_runs, end_to_end):
    """Return (rows, errors, digest_changes) for two loaded run sets."""
    rows, errors, digest_changes = [], [], []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        ps = parent_runs.get(workload, [])
        cs = change_runs.get(workload, [])
        if len(ps) != len(cs) or len(ps) < MIN_PAIRS:
            errors.append("%s: %d parent and %d change runs; need %d "
                          "pairs" % (workload, len(ps), len(cs), MIN_PAIRS))
            continue
        firsts = ["parent" if p["started"] <= c["started"] else "change"
                  for p, c in zip(ps, cs)]
        if any(a == b for a, b in zip(firsts, firsts[1:])):
            errors.append("%s: pairs do not alternate which side runs "
                          "first (%s)" % (workload, " ".join(firsts)))
        for i, (p, c) in enumerate(zip(ps, cs)):
            if p["seed"] != c["seed"]:
                errors.append("%s: pair %d ran seeds %s and %s"
                              % (workload, i, p["seed"], c["seed"]))
            if not (p["correct"] and c["correct"]):
                errors.append("%s: pair %d has an incorrect run"
                              % (workload, i))
            if p["digest"] != c["digest"]:
                digest_changes.append("%s: pair %d (seed %s) digest %s -> "
                                      "%s" % (workload, i, p["seed"],
                                              p["digest"], c["digest"]))
        for m in end_to_end:
            row = judge([p["metrics"][m["name"]] for p in ps],
                        [c["metrics"][m["name"]] for c in cs],
                        m["better"], m["bound"])
            row.update(workload=workload, metric=m["name"],
                       unit=m["unit"], bound=m["bound"])
            rows.append(row)
    return rows, errors, digest_changes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        end_to_end = json.load(f)["end_to_end"]
    rows, errors, digest_changes = compare(load_runs(args.parent),
                                           load_runs(args.change),
                                           end_to_end)
    fmt = "%-18s %-16s %-36s %-36s %7s  %s"
    print(fmt % ("workload", "metric", "parent median [q1, q3]",
                 "change median [q1, q3]", "wins", "verdict"))
    for r in rows:
        side = lambda q: "%.6g [%.6g, %.6g]" % (q[1], q[0], q[2])
        print(fmt % (r["workload"], r["metric"], side(r["parent"]),
                     side(r["change"]), "%d/%d" % (r["wins"], r["pairs"]),
                     r["verdict"]))
    for d in digest_changes:
        print("statistics changed:", d)
    for e in errors:
        print("ERROR:", e)
    regressed = any(r["verdict"] == "regression" for r in rows)
    return 1 if errors or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
