#!/usr/bin/env python3
"""Benchmark gate: one recording, one record schema, one invariant table.

    python3 ci/bench_gate.py <smoke|scale|faults|net> <fresh.json> BENCH.json

``fresh.json`` is the output of ``harness suite <name> fresh.json``: one
record per registered cell, ``{"name", "model", "measured"}``.
``BENCH.json`` is the checked-in recording of all four suites plus the
``pre_change`` constants some bounds are stated against. The gate checks,
in order:

1. the fresh suite's cell names equal the recorded ones (no missing,
   extra or duplicate cell);
2. every ``model`` column equals the recording bit for bit — everything
   in it is a function of seeds, so any drift is an engine or protocol
   change;
3. every fault-free record is valid with ``palette <= budget`` (the
   ``min(∆², n-1) + 1`` bound of Theorems 1.1/1.2), and every record
   carrying a netplane identity flag is identical to its sequential
   reference;
4. every invariant of the suite in ``INVARIANTS`` holds.

Each bound is declared once, in ``INVARIANTS``. A column reference is
``"<cell name>:<model|measured>.<column>"`` or ``"pre_change.<key>"``.
Rule kinds:

* ``ratio``: ``prod(num) <op> value * prod(den)``. Options:
  ``vs_recorded`` (the fresh ``num/den`` may grow at most that factor
  over the recorded one), ``floor`` (skip when a denominator is below it
  in either document: noise), ``fresh_tolerance`` (divides a ``>=`` bound
  on the fresh run only), ``skip_if`` (a reference to a measured flag
  that skips the rule on a fresh run and fails it on the recording);
* ``bound``: every cell matching the ``cells`` glob has ``col <op>
  value``, or with ``vs_recorded: [factor, slack]``, a fresh value at
  most ``recorded * factor + slack``;
* ``equal``: two cells agree on every model column outside ``except``.

A rule runs on the fresh run and on the recording (``on: "both"``, the
default) or on the recording alone (``on: "recorded"``: acceptance
evidence measured on the recording host). A measured value below zero
means "not measured" and fails any rule that reads it.

Exit status: 0 pass, 1 gate failure, 2 usage error.
"""

from __future__ import annotations

import fnmatch
import json
import math
import operator
import sys

SUITES = ("smoke", "scale", "faults", "net")

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "==": operator.eq}

# Fault counters: a record with all of them zero is fault-free.
FAULT_COLS = ("faults_dropped", "faults_duplicated", "crash_drops",
              "crashed_rounds")
CHURN_COLS = ("churn_events", "repair_messages", "repair_valid",
              "churn_batches")
CHAOS_COLS = ("chaos_seed", "killed_shard", "kill_sync", "respawned")

# The workloads whose recorded wall clocks anchor the overhead rule.
OVERHEAD_GRAPHS = ("regular-n400-d8-g1", "gnp-n600-deg12-cap10-g2",
                   "torus-20x20")
PIPELINES = ("rand-improved", "det-small")

ALLOC_CELLS = (
    "det-small/gnp-n100000-deg12-cap16-g42/sequential",
    "rand-improved/gnp-n100000-deg12-cap16-g42/sequential",
    "rand-improved/regular-n100000-d16-g42/sequential/stressed",
    "det-small/regular-n1000000-d8-g42/sequential",
)
STRESSED = "rand-improved/regular-n100000-d16-g42/sequential/stressed"
SCALE_SMOKE_BUILD = "build/gnp-n1000000-deg20-cap32-g71"
DROP_GRAPH = "gnp-n2000-deg8-cap8-g42"
FRESH = "det-small/regular-n100000-d8-g42/sequential/churn"
FRESH_ALWAYS = "det-small/regular-n100000-d8-g42/sequential/always-step"
NET_CHAOS_PAIRS = (
    ("det-small/gnp-n200-deg5-cap5-g11/net-4",
     "det-small/gnp-n200-deg5-cap5-g11/net-4/chaos-29"),
    ("rand-improved/regular-n160-d6-g14/net-4",
     "rand-improved/regular-n160-d6-g14/net-4/chaos-29"),
    ("det-small/gnp-n150-deg5-cap5-g2/net-2",
     "det-small/gnp-n150-deg5-cap5-g2/net-4/chaos-29"),
)
NET_STRAGGLER = "det-small/gnp-n400-deg5-cap5-g21/net-4"

INVARIANTS = [
    # The single-barrier parallel engine: parallel-4 / sequential wall
    # against the recorded ratio; sequential sides under 20 ms are noise.
    *({"suite": "smoke", "rule": "ratio", "why": "parallel overhead",
       "num": f"{a}/{g}/parallel-4:measured.wall_ms",
       "den": f"{a}/{g}/sequential:measured.wall_ms",
       "op": "<=", "value": 2.5, "vs_recorded": 1.25, "floor": 20.0}
      for g in OVERHEAD_GRAPHS for a in PIPELINES),
    # The O(n+m) generators: a 10^6-node build inside 10 s, and the
    # scale-smoke graph has the shape its parameters promise.
    {"suite": "scale", "rule": "bound", "why": "10^6 build budget",
     "cells": "build/*", "col": "measured.build_ms", "op": "<",
     "value": 10_000.0},
    {"suite": "scale", "rule": "bound", "why": "scale-smoke edge count",
     "cells": SCALE_SMOKE_BUILD, "col": "model.m", "op": ">",
     "value": 8_000_000},
    {"suite": "scale", "rule": "bound", "why": "scale-smoke degree cap",
     "cells": SCALE_SMOKE_BUILD, "col": "model.delta", "op": "<=",
     "value": 32},
    {"suite": "scale", "rule": "ratio", "why": "scale-smoke mean degree >= 15",
     "num": f"{SCALE_SMOKE_BUILD}:model.m", "den": f"{SCALE_SMOKE_BUILD}:model.n",
     "op": ">=", "value": 7.5},
    {"suite": "scale", "rule": "ratio", "why": "scale-smoke mean degree <= 20",
     "num": f"{SCALE_SMOKE_BUILD}:model.m", "den": f"{SCALE_SMOKE_BUILD}:model.n",
     "op": "<=", "value": 10.0},
    # The zero-allocation message plane: allocations per round do not
    # regress, and the recording evidences the >= 10x alloc and >= 3x
    # rand gains over the plane it replaced.
    *({"suite": "scale", "rule": "bound", "why": "allocs/round",
       "cells": cell, "col": "measured.allocs_per_round",
       "vs_recorded": [1.10, 16.0]}
      for cell in ALLOC_CELLS),
    {"suite": "scale", "rule": "ratio", "on": "recorded",
     "why": ">= 10x fewer allocs/round than pre-change",
     "num": "pre_change.allocs_per_round_det_1e5",
     "den": f"{ALLOC_CELLS[0]}:measured.allocs_per_round",
     "op": ">=", "value": 10.0},
    {"suite": "scale", "rule": "ratio", "on": "recorded",
     "why": ">= 3x faster rand than pre-change",
     "num": "pre_change.rand_gnp_1e5_wall_ms",
     "den": f"{ALLOC_CELLS[1]}:measured.wall_ms",
     "op": ">=", "value": 3.0},
    # The streaming similarity fold keeps the stressed cell >= 4x below
    # its RSS under the buffered fold.
    {"suite": "scale", "rule": "ratio", "why": ">= 4x less RSS than buffered",
     "num": "pre_change.stressed_peak_rss_mb_buffered",
     "den": f"{STRESSED}:measured.peak_rss_mb",
     "op": ">=", "value": 4.0, "fresh_tolerance": 1.15,
     "skip_if": f"{STRESSED}:measured.rss_cumulative"},
    # The fault plane: the drop matrix is engine-identical and fires.
    *({"suite": "faults", "rule": "equal", "why": "engines identical",
       "cells": [f"{a}/{DROP_GRAPH}/sequential/drops-{ppm}",
                 f"{a}/{DROP_GRAPH}/parallel-4/drops-{ppm}"],
       "except": []}
      for a in PIPELINES for ppm in (1000, 10000, 50000)),
    {"suite": "faults", "rule": "bound", "why": "fault plane fires",
     "cells": "*/drops-*", "col": "model.faults_dropped", "op": ">",
     "value": 0},
    # Local repair: ~1% churn repaired for <= 1/10 of a fresh run.
    {"suite": "faults", "rule": "ratio", "why": "churn >= 0.9% of m",
     "num": f"{FRESH}:model.churn_events", "den": f"{FRESH}:model.m",
     "op": ">=", "value": 0.009},
    {"suite": "faults", "rule": "ratio", "why": "repair <= fresh / 10",
     "num": f"{FRESH}:model.messages", "den": f"{FRESH}:model.repair_messages",
     "op": ">=", "value": 10.0},
    {"suite": "faults", "rule": "bound", "why": "every repair valid",
     "cells": FRESH, "col": "model.repair_valid", "op": "==", "value": True},
    # The active-set engine parks the straggler without moving the model.
    {"suite": "faults", "rule": "equal", "why": "schedule-identical",
     "cells": [FRESH, FRESH_ALWAYS],
     "except": ["stepped_nodes", *CHURN_COLS]},
    {"suite": "faults", "rule": "ratio", "why": ">= 5x fewer steps",
     "num": f"{FRESH_ALWAYS}:model.stepped_nodes",
     "den": f"{FRESH}:model.stepped_nodes", "op": ">=", "value": 5.0},
    {"suite": "faults", "rule": "ratio", "why": "frontier <= 5% of n",
     "num": f"{FRESH}:model.stepped_nodes",
     "den": [f"{FRESH}:model.rounds", f"{FRESH}:model.n"],
     "op": "<=", "value": 0.05},
    # Netplane chaos: a shard kill is unobservable and actually happens.
    *({"suite": "net", "rule": "equal", "why": "chaos = control",
       "cells": [control, chaos], "except": list(CHAOS_COLS)}
      for control, chaos in NET_CHAOS_PAIRS),
    {"suite": "net", "rule": "bound", "why": "victim respawned",
     "cells": "*/chaos-*", "col": "model.respawned", "op": "==",
     "value": True},
    {"suite": "net", "rule": "bound", "why": "kill mid-phase",
     "cells": "*/chaos-*", "col": "model.kill_sync", "op": ">", "value": 0},
    {"suite": "net", "rule": "bound", "why": "victim in range",
     "cells": "*/net-4/*chaos-*", "col": "model.killed_shard", "op": "<",
     "value": 4},
    {"suite": "net", "rule": "bound", "why": "net drop plane fires",
     "cells": "*/drops-*", "col": "model.faults_dropped", "op": ">",
     "value": 0},
    # Active-set scheduling over the netplane parks >= 3x the steps.
    {"suite": "net", "rule": "equal", "why": "net schedule-identical",
     "cells": [NET_STRAGGLER, f"{NET_STRAGGLER}/active-set"],
     "except": ["stepped_nodes"]},
    {"suite": "net", "rule": "ratio", "why": "net >= 3x fewer steps",
     "num": f"{NET_STRAGGLER}:model.stepped_nodes",
     "den": f"{NET_STRAGGLER}/active-set:model.stepped_nodes",
     "op": ">=", "value": 3.0},
]


class GateError(AssertionError):
    """A benchmark gate violation."""


def require(cond, message):
    if not cond:
        raise GateError(message)


def by_name(cells, what):
    """Cells keyed by name; duplicates are a gate failure."""
    out = {}
    for c in cells:
        require(c["name"] not in out, f"{what}: duplicate cell {c['name']!r}")
        out[c["name"]] = c
    return out


def check_names(fresh, recorded):
    missing = sorted(recorded.keys() - fresh.keys())
    extra = sorted(fresh.keys() - recorded.keys())
    require(not missing and not extra,
            f"cell set differs from the recording: missing {missing}, "
            f"extra {extra}")


def check_model(fresh, recorded):
    for name, rec in recorded.items():
        got, want = fresh[name]["model"], rec["model"]
        drift = [f"{k}: {want.get(k)!r} -> {got.get(k)!r}"
                 for k in sorted(got.keys() | want.keys())
                 if got.get(k, "<absent>") != want.get(k, "<absent>")]
        require(not drift, f"{name}: model drifted from the recording: "
                f"{'; '.join(drift[:5])}")


def check_records(cells, what):
    """Fault-free records are valid within budget; netplane records are
    identical to their sequential reference."""
    for name, c in cells.items():
        m = c["model"]
        if all(m[k] == 0 for k in FAULT_COLS):
            require(m["valid"] is True, f"{what} {name}: invalid coloring")
            require(m["palette"] <= m["budget"],
                    f"{what} {name}: palette {m['palette']} exceeds the "
                    f"min(delta^2, n-1) + 1 budget {m['budget']}")
        require(m["identical"] in (None, True),
                f"{what} {name}: diverged from its sequential reference")


class Doc:
    """One side of the comparison: a suite's cells plus the constants."""

    def __init__(self, what, cells, pre_change):
        self.what, self.cells, self.pre_change = what, cells, pre_change

    def value(self, ref):
        if ref.startswith("pre_change."):
            key = ref[len("pre_change."):]
            require(key in self.pre_change, f"unknown constant {ref!r}")
            return self.pre_change[key]
        name, col = ref.rsplit(":", 1)
        require(name in self.cells, f"rule names unknown cell {name!r}")
        part, key = col.split(".", 1)
        v = self.cells[name][part][key]
        require(part != "measured" or v >= 0,
                f"{self.what} {name}: {key} was not measured")
        return v


def refs(x):
    return x if isinstance(x, list) else [x]


def product(doc, x):
    return math.prod(doc.value(r) for r in refs(x))


def eval_ratio(rule, doc, recorded, log):
    num, den = product(doc, rule["num"]), product(doc, rule["den"])
    label = f"{doc.what} {rule['why']}"
    if "floor" in rule:
        floor = rule["floor"]
        dens = [recorded.value(r) for r in refs(rule["den"])]
        dens += [doc.value(r) for r in refs(rule["den"])]
        if min(dens) < floor:
            log(f"skip {label}: a denominator is under {floor}")
            return
    if "skip_if" in rule:
        if doc.value(rule["skip_if"]):
            require(doc is not recorded,
                    f"{label}: the recording is flagged {rule['skip_if']} "
                    "and cannot evidence the bound")
            log(f"skip {label}: {rule['skip_if']} on this host")
            return
    value = rule["value"]
    if doc is not recorded and rule["op"] == ">=":
        value /= rule.get("fresh_tolerance", 1.0)
    ratio = num / den if den else math.inf
    require(OPS[rule["op"]](num, value * den),
            f"{label}: {rule['num']} / {rule['den']} = {ratio:.4g}, "
            f"needs {rule['op']} {value:.4g}")
    if "vs_recorded" in rule and doc is not recorded:
        old = product(recorded, rule["num"]) / product(recorded, rule["den"])
        require(ratio <= rule["vs_recorded"] * old,
                f"{label}: {ratio:.4g} is over {rule['vs_recorded']}x the "
                f"recorded {old:.4g}")
    log(f"ok   {label}: {ratio:.4g} {rule['op']} {value:.4g}")


def matching(rule, doc):
    names = sorted(fnmatch.filter(doc.cells, rule["cells"]))
    require(names, f"rule {rule['why']!r} matches no cell: {rule['cells']!r}")
    return names


def eval_bound(rule, doc, recorded, log):
    for name in matching(rule, doc):
        ref = f"{name}:{rule['col']}"
        got = doc.value(ref)
        label = f"{doc.what} {rule['why']} {name}"
        if "vs_recorded" in rule:
            factor, slack = rule["vs_recorded"]
            limit = recorded.value(ref) * factor + slack
            require(got <= limit, f"{label}: {rule['col']} {got} exceeds "
                    f"recorded x {factor} + {slack} = {limit:.4g}")
            log(f"ok   {label}: {got} <= {limit:.4g}")
        else:
            require(OPS[rule["op"]](got, rule["value"]),
                    f"{label}: {rule['col']} = {got!r}, needs "
                    f"{rule['op']} {rule['value']!r}")
            log(f"ok   {label}: {got!r} {rule['op']} {rule['value']!r}")


def eval_equal(rule, doc, recorded, log):
    a, b = rule["cells"]
    for name in (a, b):
        require(name in doc.cells, f"rule names unknown cell {name!r}")
    ma, mb = doc.cells[a]["model"], doc.cells[b]["model"]
    diff = sorted(k for k in ma.keys() | mb.keys()
                  if k not in rule["except"] and ma.get(k) != mb.get(k))
    require(not diff, f"{doc.what} {rule['why']}: {a} and {b} differ in "
            + ", ".join(f"{k} ({ma.get(k)!r} vs {mb.get(k)!r})"
                        for k in diff[:5]))
    log(f"ok   {doc.what} {rule['why']}: {a} = {b}")


RULES = {"ratio": eval_ratio, "bound": eval_bound, "equal": eval_equal}


def gate(suite, fresh_doc, bench, invariants=INVARIANTS, log=print):
    """The full gate for one suite; raises GateError on a violation."""
    require(suite in SUITES, f"unknown suite {suite!r}")
    require(fresh_doc.get("suite") == suite,
            f"fresh document is suite {fresh_doc.get('suite')!r}, "
            f"not {suite!r}")
    fresh = by_name(fresh_doc["cells"], "fresh")
    recorded = by_name(bench["suites"][suite], "recorded")
    check_names(fresh, recorded)
    check_model(fresh, recorded)
    pre = bench.get("pre_change", {})
    docs = {"fresh": Doc("fresh", fresh, pre),
            "recorded": Doc("recorded", recorded, pre)}
    for what, cells in (("fresh", fresh), ("recorded", recorded)):
        check_records(cells, what)
    rules = [r for r in invariants if r["suite"] == suite]
    for rule in rules:
        sides = ["recorded"] if rule.get("on") == "recorded" else [
            "fresh", "recorded"]
        for side in sides:
            RULES[rule["rule"]](rule, docs[side], docs["recorded"], log)
    log(f"suite {suite} OK: {len(fresh)} cells, model bit-exact with the "
        f"recording, {len(rules)} invariants hold")


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv):
    if len(argv) != 4 or argv[1] not in SUITES:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        gate(argv[1], load(argv[2]), load(argv[3]))
    except GateError as e:
        print(f"BENCH GATE FAILED: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
