#!/usr/bin/env python3
"""The benchmark's own test, on the reduced problem suite (--small).

- One seed gives bit-identical counts across two runs: matvecs (untraced),
  core.iterations and every coll.*.count / coll.*.bytes (traced).
- A tiny run emits every metric BENCHMARK.json names, with its unit, and no
  NaN, infinity or negative time.
- The result is refused while a CHASE_* policy variable is set.

Run from the root of the source tree: python3 perfbench/test_bench.py
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite-1x1", "suite-2x2", "dft-seq-2x2")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=5, env=None):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--small"],
        cwd=ROOT, capture_output=True, text=True, env=env)
    return out


def result(workload, trace, seed=5):
    out = run(workload, trace, seed)
    assert out.returncode == 0, out.stderr[-2000:]

    def no_constant(name):
        raise ValueError("non-finite number in result: " + name)

    return json.loads(out.stdout.strip().splitlines()[-1],
                      parse_constant=no_constant)


class BenchTest(unittest.TestCase):
    def check_metrics(self, res, wanted):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        got = res["metrics"]
        self.assertEqual(set(got), {m["name"] for m in wanted})
        for m in wanted:
            value = got[m["name"]]["value"]
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(value), m["name"])
            if m["unit"] in ("s", "us"):
                self.assertGreaterEqual(value, 0, m["name"])

    def test_counts_repeat_for_one_seed(self):
        for w in WORKLOADS:
            a, b = result(w, 0), result(w, 0)
            self.assertEqual(a["metrics"]["matvecs"], b["metrics"]["matvecs"], w)
            a, b = result(w, 1), result(w, 1)
            keys = [k for k in a["metrics"]
                    if k == "core.iterations" or (k.startswith("coll.") and
                                                  k.endswith((".count", ".bytes")))]
            self.assertEqual(len(keys), 9)
            for k in keys:
                self.assertEqual(a["metrics"][k], b["metrics"][k], (w, k))

    def test_every_metric_with_unit(self):
        s = spec()
        for w in WORKLOADS:
            self.check_metrics(result(w, 0), s["end_to_end"])
            self.check_metrics(result(w, 1), s["per_layer"])

    def test_refuses_policy_variables(self):
        env = dict(os.environ, CHASE_GEMM_KERNEL="naive")
        out = run("suite-1x1", 0, env=env)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
