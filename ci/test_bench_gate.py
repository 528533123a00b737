"""Unit tests for ci/bench_gate.py (run with: python3 -m unittest discover -s ci).

Table-driven: every rule kind has a passing and a failing document. The
last tests check that the checked-in BENCH.json passes its own gate for
every suite, and the command line's exit codes.
"""

import copy
import json
import os
import tempfile
import unittest

import bench_gate
from bench_gate import GateError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record(name, measured=None, **model):
    m = {
        "n": 100, "m": 400, "delta": 8, "rounds": 50, "messages": 1000,
        "total_bits": 9000, "stepped_nodes": 5000, "palette": 60,
        "budget": 65, "valid": True, "coloring": "00ff", "identical": None,
        "faults_dropped": 0, "faults_duplicated": 0, "crash_drops": 0,
        "crashed_rounds": 0, "respawned": False,
    }
    m.update(model)
    meas = {"build_ms": 1.0, "wall_ms": 100.0, "peak_rss_mb": 50.0,
            "rss_cumulative": False, "allocs_per_round": 10.0}
    meas.update(measured or {})
    return {"name": name, "model": m, "measured": meas}


A, B = record("a"), record("b")


def with_model(rec, **model):
    rec = copy.deepcopy(rec)
    rec["model"].update(model)
    return rec


def with_measured(rec, **measured):
    rec = copy.deepcopy(rec)
    rec["measured"].update(measured)
    return rec


def rule(kind, **fields):
    return {"suite": "smoke", "rule": kind, "why": kind, **fields}


RATIO = rule("ratio", num="b:model.stepped_nodes", den="a:model.stepped_nodes",
             op=">=", value=2.0)
OVERHEAD = rule("ratio", num="b:measured.wall_ms", den="a:measured.wall_ms",
                op="<=", value=2.5, vs_recorded=1.25, floor=20.0)
RSS = rule("ratio", num="pre_change.old_rss", den="a:measured.peak_rss_mb",
           op=">=", value=4.0, fresh_tolerance=1.15,
           skip_if="a:measured.rss_cumulative")
BOUND = rule("bound", cells="*", col="model.rounds", op="<", value=60)
ALLOCS = rule("bound", cells="a", col="measured.allocs_per_round",
              vs_recorded=[1.10, 16.0])
EQUAL = {**rule("equal", cells=["a", "b"]), "except": ["stepped_nodes"]}

# (case, recorded cells, fresh cells, invariants, expected error or None)
CASES = [
    ("model bit-exact", [A], [A], [], None),
    ("model drift", [A], [with_model(A, rounds=51)], [], "model drifted"),
    ("model column removed", [A],
     [{**A, "model": {k: v for k, v in A["model"].items() if k != "rounds"}}],
     [], "model drifted"),
    ("measured drift is not gated", [A], [with_measured(A, wall_ms=9.0)], [],
     None),
    ("missing cell", [A, B], [A], [], "missing ['b']"),
    ("extra cell", [A], [A, B], [], "extra ['b']"),
    ("duplicate cell", [A], [A, A], [], "duplicate cell 'a'"),
    ("ratio holds", [A, with_model(B, stepped_nodes=10_000)],
     [A, with_model(B, stepped_nodes=10_000)], [RATIO], None),
    ("ratio violated", [A, with_model(B, stepped_nodes=9_999)],
     [A, with_model(B, stepped_nodes=9_999)], [RATIO], "needs >= 2"),
    ("ratio within the recorded ratio",
     [A, with_measured(B, wall_ms=150.0)],
     [A, with_measured(B, wall_ms=185.0)], [OVERHEAD], None),
    ("ratio over the recorded ratio",
     [A, with_measured(B, wall_ms=150.0)],
     [A, with_measured(B, wall_ms=190.0)], [OVERHEAD], "over 1.25x"),
    ("ratio over the absolute cap",
     [A, with_measured(B, wall_ms=240.0)],
     [A, with_measured(B, wall_ms=260.0)], [OVERHEAD], "needs <= 2.5"),
    ("ratio under the noise floor is skipped",
     [with_measured(A, wall_ms=10.0), with_measured(B, wall_ms=15.0)],
     [with_measured(A, wall_ms=10.0), with_measured(B, wall_ms=90.0)],
     [OVERHEAD], None),
    ("ratio within the fresh tolerance",
     [with_measured(A, peak_rss_mb=200.0)],
     [with_measured(A, peak_rss_mb=260.0)], [RSS], None),
    ("ratio beyond the fresh tolerance",
     [with_measured(A, peak_rss_mb=200.0)],
     [with_measured(A, peak_rss_mb=300.0)], [RSS], "needs >= 3.478"),
    ("ratio skipped on a flagged fresh run",
     [with_measured(A, peak_rss_mb=200.0)],
     [with_measured(A, peak_rss_mb=900.0, rss_cumulative=True)], [RSS], None),
    ("ratio fails on a flagged recording",
     [with_measured(A, peak_rss_mb=200.0, rss_cumulative=True)],
     [with_measured(A, peak_rss_mb=200.0)], [RSS], "cannot evidence"),
    ("ratio on the recording alone",
     [with_measured(A, peak_rss_mb=300.0)],
     [with_measured(A, peak_rss_mb=300.0)], [{**RSS, "on": "recorded"}],
     "needs >= 4"),
    ("bound holds", [A, B], [A, B], [BOUND], None),
    ("bound violated", [A, with_model(B, rounds=60)],
     [A, with_model(B, rounds=60)], [BOUND], "needs < 60"),
    ("bound glob matches nothing", [A], [A], [{**BOUND, "cells": "z*"}],
     "matches no cell"),
    ("bound within the recorded value", [A],
     [with_measured(A, allocs_per_round=27.0)], [ALLOCS], None),
    ("bound over the recorded value", [A],
     [with_measured(A, allocs_per_round=27.5)], [ALLOCS], "exceeds"),
    ("bound on an unmeasured column", [A],
     [with_measured(A, allocs_per_round=-1.0)], [ALLOCS], "not measured"),
    ("equality holds", [A, with_model(B, stepped_nodes=1)],
     [A, with_model(B, stepped_nodes=1)], [EQUAL], None),
    ("equality broken", [A, with_model(B, coloring="beef")],
     [A, with_model(B, coloring="beef")], [EQUAL], "differ in coloring"),
    ("palette within budget", [with_model(A, palette=65)],
     [with_model(A, palette=65)], [], None),
    ("palette over budget", [with_model(A, palette=66)],
     [with_model(A, palette=66)], [], "exceeds the min(delta^2, n-1) + 1"),
    ("faulty record is exempt from the budget",
     [with_model(A, palette=90, valid=False, faults_dropped=3)],
     [with_model(A, palette=90, valid=False, faults_dropped=3)], [], None),
    ("invalid fault-free record", [with_model(A, valid=False)],
     [with_model(A, valid=False)], [], "invalid coloring"),
    ("netplane record diverged", [with_model(A, identical=False)],
     [with_model(A, identical=False)], [], "diverged"),
]


def bench(cells):
    return {"pre_change": {"old_rss": 1000.0}, "suites": {"smoke": cells}}


def fresh(cells):
    return {"suite": "smoke", "cells": cells}


class RuleTable(unittest.TestCase):
    def test_every_rule_kind_passes_and_fails(self):
        for case, recorded, new, rules, error in CASES:
            with self.subTest(case=case):
                run = lambda: bench_gate.gate(  # noqa: E731
                    "smoke", fresh(new), bench(recorded), rules,
                    log=lambda _: None)
                if error is None:
                    run()
                else:
                    with self.assertRaises(GateError) as ctx:
                        run()
                    self.assertIn(error, str(ctx.exception))

    def test_table_covers_pass_and_fail_for_every_kind(self):
        kinds = {}
        for case, _, _, rules, error in CASES:
            for r in rules or [{"rule": "records"}]:
                kinds.setdefault(r["rule"], set()).add(error is None)
        self.assertEqual(set(kinds), {"records", "ratio", "bound", "equal"})
        for kind, outcomes in kinds.items():
            self.assertEqual(outcomes, {True, False}, kind)

    def test_fresh_document_must_name_its_suite(self):
        with self.assertRaises(GateError):
            bench_gate.gate("smoke", {"suite": "net", "cells": [A]},
                            bench([A]), [], log=lambda _: None)


class RecordedBench(unittest.TestCase):
    def test_recording_passes_its_own_gate(self):
        with open(os.path.join(ROOT, "BENCH.json")) as f:
            recorded = json.load(f)
        for suite in bench_gate.SUITES:
            with self.subTest(suite=suite):
                doc = {"suite": suite, "cells": recorded["suites"][suite]}
                bench_gate.gate(suite, doc, recorded, log=lambda _: None)

    def test_every_invariant_belongs_to_a_suite(self):
        for r in bench_gate.INVARIANTS:
            self.assertIn(r["suite"], bench_gate.SUITES, r["why"])
            self.assertIn(r["rule"], bench_gate.RULES, r["why"])


class Cli(unittest.TestCase):
    def run_main(self, suite, cells):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "fresh.json")
            with open(path, "w") as f:
                json.dump({"suite": suite, "cells": cells}, f)
            return bench_gate.main(
                ["bench_gate.py", suite, path, os.path.join(ROOT, "BENCH.json")])

    def test_exit_codes(self):
        with open(os.path.join(ROOT, "BENCH.json")) as f:
            cells = json.load(f)["suites"]["net"]
        self.assertEqual(self.run_main("net", cells), 0)
        drifted = copy.deepcopy(cells)
        drifted[0]["model"]["rounds"] += 1
        self.assertEqual(self.run_main("net", drifted), 1)
        self.assertEqual(self.run_main("nope", cells), 2)
        self.assertEqual(bench_gate.main(["bench_gate.py"]), 2)


if __name__ == "__main__":
    unittest.main()
