"""Tests of `run.py`: smoke runs of every workload, and the
counting of failed calls.

    python3 -m unittest discover -s perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SMOKE_N = 1000


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = lambda key: {m["name"]: m["unit"] for m in bench[key]}
    return bench, units("end_to_end"), units("per_layer")


def bench_run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--n", str(SMOKE_N)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class Smoke(unittest.TestCase):
    def test_every_workload_prints_every_metric(self):
        bench, e2e, layers = declared()
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual(e2e, run.E2E_UNITS)
        self.assertEqual(layers, run.LAYER_UNITS)
        for workload in run.WORKLOADS:
            for trace, units in ((0, e2e), (1, layers)):
                with self.subTest(workload=workload, trace=trace):
                    p = bench_run(workload, trace)
                    self.assertEqual(p.returncode, 0, p.stderr)
                    result = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], p.stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, units)
                    for name, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), name)
                    if trace == 0:
                        for name in e2e:
                            self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "target", "__pycache__"))
            p = bench_run(run.WORKLOADS[0], 0, cwd=tmp)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)


class Aggregate(unittest.TestCase):
    def rec(self, **kw):
        r = {"ok": True, "error": None, "setup_s": 0.1, "wall_s": 3.0, "cpu_s": 5.0,
             "peak_rss_mb": 500.0, "rounds": 1170, "messages": 11465088,
             "total_bits": 1, "stepped_nodes": 2, "palette": 65}
        r.update(kw)
        return r

    def test_a_failed_call_counts_and_does_not_stop_the_run(self):
        records = [self.rec(wall_s=2.0), self.rec(ok=False, error="not a complete distance-2 colouring"),
                   self.rec(wall_s=4.0)]
        metrics, attempted, failed, errors = run.aggregate(records)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertEqual(errors, ["not a complete distance-2 colouring"])
        self.assertAlmostEqual(metrics["success_rate"], 2 / 3)
        self.assertEqual(metrics["wall_s"], 3.0)
        self.assertEqual(metrics["rounds"], 1170)

    def test_a_call_whose_counts_differ_fails(self):
        metrics, attempted, failed, errors = run.aggregate(
            [self.rec(), self.rec(messages=11465089, wall_s=9.0), self.rec()])
        self.assertEqual((attempted, failed), (3, 1))
        self.assertEqual(errors, ["model counts differ from the other calls'"])
        self.assertAlmostEqual(metrics["success_rate"], 2 / 3)
        self.assertEqual((metrics["messages"], metrics["wall_s"]), (11465088, 3.0))


if __name__ == "__main__":
    unittest.main()
