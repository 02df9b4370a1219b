#!/usr/bin/env python3
"""Self-test of compare.py on synthetic run sets."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SIM = {"name": "sim_instr_per_s", "unit": "instr/s", "better": "higher",
       "bound": 0.1}
RSS = {"name": "peak_rss_mib", "unit": "MiB", "better": "lower",
       "bound": 0.05}


def runs(values, start, step=2, metric="sim_instr_per_s", digest="d"):
    return [{"path": "", "started": start + i * step, "seed": i + 1,
             "digest": digest, "correct": True, "metrics": {metric: v}}
            for i, v in enumerate(values)]


def alternating(parent_values, change_values, **kw):
    """Pair i: the parent runs first in even pairs, the change in odd."""
    n = len(parent_values)
    p_starts = [10 * i + (0 if i % 2 == 0 else 1) for i in range(n)]
    c_starts = [10 * i + (1 if i % 2 == 0 else 0) for i in range(n)]
    ps = runs(parent_values, 0, **kw)
    cs = runs(change_values, 0, **kw)
    for r, s in zip(ps, p_starts):
        r["started"] = s
    for r, s in zip(cs, c_starts):
        r["started"] = s
    return {"w": ps}, {"w": cs}


class CompareTest(unittest.TestCase):
    PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def verdict(self, change, metric=SIM, parent=None):
        p, c = alternating(parent or self.PARENT, change,
                           metric=metric["name"])
        rows, errors, _ = compare.compare(p, c, [metric])
        self.assertEqual(errors, [])
        return rows[0]["verdict"]

    def test_consistent_speedup_is_a_gain(self):
        self.assertEqual(self.verdict([v * 1.08 for v in self.PARENT]),
                         "gain")

    def test_identical_runs_are_no_regression(self):
        self.assertEqual(self.verdict(list(self.PARENT)), "no regression")

    def test_slowdown_beyond_bound_is_a_regression(self):
        self.assertEqual(self.verdict([v * 0.85 for v in self.PARENT]),
                         "regression")

    def test_lower_is_better_direction(self):
        parent = [50.0] * 10
        self.assertEqual(self.verdict([40.0] * 10, RSS, parent), "gain")
        self.assertEqual(self.verdict([60.0] * 10, RSS, parent),
                         "regression")

    def test_gain_needs_nine_wins_in_ten(self):
        # Eight wins, two losses: a better median but not a gain.
        change = [v * 1.08 for v in self.PARENT[:8]] + [90, 90]
        self.assertEqual(self.verdict(change), "no regression")

    def test_gain_needs_gap_beyond_parent_iqr(self):
        change = [v + 0.5 for v in self.PARENT]  # wins all, tiny gap
        self.assertEqual(self.verdict(change), "no regression")

    def test_spread_beyond_bound_is_unresolved(self):
        noisy = [60, 140, 70, 130, 80, 120, 65, 135, 75, 125]
        self.assertEqual(self.verdict(noisy), "unresolved")

    def test_too_few_pairs_is_an_error(self):
        p, c = alternating(self.PARENT[:9], self.PARENT[:9])
        _, errors, _ = compare.compare(p, c, [SIM])
        self.assertTrue(any("need 10 pairs" in e for e in errors))

    def test_pairs_must_alternate(self):
        p = {"w": runs(self.PARENT, 0, step=10)}
        c = {"w": runs(self.PARENT, 5, step=10)}  # parent always first
        _, errors, _ = compare.compare(p, c, [SIM])
        self.assertTrue(any("alternate" in e for e in errors))

    def test_digest_change_is_reported(self):
        p, c = alternating(self.PARENT, self.PARENT)
        c["w"][3]["digest"] = "other"
        _, _, changes = compare.compare(p, c, [SIM])
        self.assertEqual(len(changes), 1)

    def test_load_runs_reads_bvbench_output(self):
        with tempfile.TemporaryDirectory(dir=os.getcwd()) as d:
            for i in range(2):
                with open(os.path.join(d, "run%d.jsonl" % i), "w") as f:
                    f.write(json.dumps({"workload": "w", "metric": "m",
                                        "value": 1, "unit": "s",
                                        "kind": "e2e"}) + "\n")
                    f.write(json.dumps({"workload": "w", "seed": i,
                                        "smoke": False, "trace": 0,
                                        "digest": "d",
                                        "started_unix": 9 - i}) + "\n")
                    f.write(json.dumps({"correct": True, "attempted": 1,
                                        "failed": 0, "metrics": {
                                            "m": {"value": i,
                                                  "unit": "s"}}}) + "\n")
            loaded = compare.load_runs(d)
        self.assertEqual([r["seed"] for r in loaded["w"]], [1, 0])


if __name__ == "__main__":
    unittest.main()
