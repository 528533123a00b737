#!/usr/bin/env python3
"""The repository benchmark: distance-2 colouring pipelines at n = 10^5.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the `perfbench` crate next to this file (into $CARGO_TARGET_DIR,
default `.bench_build`), then measures one workload for `--seconds`
seconds. Every pipeline call runs in a fresh `perfbench rep` process and
its output is checked; a failed call counts in `failed`, it does not stop
the run. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, medians over the
calls. With `--trace 1` one `perfbench trace` process instead makes
untraced and traced calls in turn, records spans around each layer's
calls, runs the sequential reference(s), and the per-layer metrics are
derived from those spans (written to `perfbench/out/`).
`perfbench/README.md` says what each metric means and which end-to-end
metric it should move on which workload.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
N = 100_000
SHARDS = 2
WORKLOADS = (
    "det-small-rr100k",
    "rand-improved-rr100k-stressed",
    "net-det-small-rr100k-2p",
)
NET = "net-det-small-rr100k-2p"
# A pipeline call takes seconds at n = 10^5; past this it is a failure.
CALL_TIMEOUT_S = 150
PHASE_LAYERS = (
    "det.linial",
    "det.loc_iter",
    "det.color_reduce",
    "rand.trials",
    "rand.similarity",
    "rand.learn_palette",
    "rand.finish",
)
COUNTS = ("rounds", "messages", "total_bits", "stepped_nodes")

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "rounds": "count",
    "messages": "count",
    "palette": "count",
    "success_rate": "ratio",
}


def layer_units():
    units = {
        "graphs.gen_s": "s",
        "congest.net_tables_s": "s",
        "d2core.outside_phases_s": "s",
    }
    for layer in PHASE_LAYERS:
        units.update({
            f"{layer}.wall_s": "s",
            f"{layer}.ms_per_round": "ms",
            f"{layer}.ns_per_step": "ns",
            f"{layer}.rounds": "count",
            f"{layer}.messages": "count",
            f"{layer}.stepped_nodes": "count",
            f"{layer}.frontier_frac": "ratio",
        })
    units.update({
        "runtime.parallel_speedup": "ratio",
        "runtime.cpu_per_wall": "ratio",
        "netplane.ms_per_round": "ms",
        "netplane.shard_cpu_s": "s",
        "netplane.shard_wait_frac": "ratio",
        "netplane.speedup_vs_seq": "ratio",
        "netplane.shard_peak_rss_mb": "MiB",
        "netharness.world_build_s": "s",
        "tracing.overhead_s": "s",
    })
    return units


LAYER_UNITS = layer_units()


def build():
    """Builds the benchmark binary; exits 1 when the build fails."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "-q", "--release", "--offline",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def call(binary, args):
    """Runs one worker in its own process group and returns its last
    stdout line parsed, or an error string. Whatever the worker leaves
    behind (a shard of a crashed orchestrator) is killed with the group."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"timed out after {CALL_TIMEOUT_S} s"
    finally:
        reap_group(proc)
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return None, f"{args[0]} exited with {proc.returncode}: {tail[0]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"{args[0]} printed no result"


def reap_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def reps(binary, workload, seed, n, seconds):
    """Untraced, checked pipeline calls, one per process, until `seconds`
    have passed (at least one)."""
    out = []
    deadline = time.monotonic() + seconds
    while True:
        rec, err = call(binary, ["rep", workload, str(seed), str(n)])
        out.append(rec if rec is not None else {"ok": False, "error": err})
        if time.monotonic() >= deadline:
            return out


def aggregate(records):
    """End-to-end metrics over one run's calls: medians of the timings,
    the model counts, and the success rate. The counts must repeat
    exactly: a call whose counts differ from those most calls share has
    failed. Returns (metrics, attempted, failed, errors)."""
    key = lambda r: tuple(r[c] for c in COUNTS + ("palette",))
    ok = [r for r in records if r["ok"]]
    errors = [r["error"] for r in records if not r["ok"]]
    if ok:
        keys = [key(r) for r in ok]
        model = max(keys, key=keys.count)
        errors += ["model counts differ from the other calls'" for k in keys if k != model]
        ok = [r for r in ok if key(r) == model]
    metrics = {}
    for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb"):
        values = [r[name] for r in ok] or [0.0]
        metrics[name] = statistics.median(values)
    for name in ("rounds", "messages", "palette"):
        metrics[name] = ok[0][name] if ok else 0
    metrics["success_rate"] = len(ok) / len(records)
    return metrics, len(records), len(records) - len(ok), errors


def duration(span):
    return span["end_s"] - span["start_s"]


def per_layer(trace, n):
    """Per-layer metrics derived from the traced run's spans; a metric
    that does not apply to the workload reads 0."""
    spans = trace["spans"]
    kids = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    named = lambda name: [i for i, s in enumerate(spans) if s["name"] == name]
    med = lambda xs: statistics.median(xs) if xs else 0.0

    pipelines = named("pipeline")
    seq_s = med([duration(spans[i]) for i in named("sequential_reference")])
    wall = med([duration(spans[i]) for i in pipelines])
    is_net = trace["workload"] == NET
    # The netplane's shards report no phases to the orchestrator, so its
    # phase and outside-phase metrics do not apply.
    phased = [] if is_net else pipelines

    m = dict.fromkeys(LAYER_UNITS, 0.0)
    m.update({
        "graphs.gen_s": med([duration(spans[i]) for i in named("setup")]),
        "congest.net_tables_s": med([duration(spans[i]) for i in named("net_tables")]),
        "d2core.outside_phases_s": med([
            duration(spans[i]) - sum(duration(c) for c in kids.get(i, []))
            for i in phased]),
    })
    for layer in PHASE_LAYERS:
        rows = []
        for i in phased:
            mine = [c for c in kids.get(i, []) if c["name"] == layer]
            rows.append({
                "wall_s": sum((duration(c) for c in mine), 0.0),
                "rounds": sum(c["rounds"] for c in mine),
                "messages": sum(c["messages"] for c in mine),
                "stepped_nodes": sum(c["stepped_nodes"] for c in mine),
            })
        per = lambda f: med([f(r) for r in rows])
        m[f"{layer}.wall_s"] = per(lambda r: r["wall_s"])
        m[f"{layer}.ms_per_round"] = per(
            lambda r: r["wall_s"] * 1e3 / r["rounds"] if r["rounds"] else 0.0)
        m[f"{layer}.ns_per_step"] = per(
            lambda r: r["wall_s"] * 1e9 / r["stepped_nodes"] if r["stepped_nodes"] else 0.0)
        for c in ("rounds", "messages", "stepped_nodes"):
            m[f"{layer}.{c}"] = per(lambda r: r[c])
        m[f"{layer}.frontier_frac"] = per(
            lambda r: r["stepped_nodes"] / (r["rounds"] * n) if r["rounds"] else 0.0)

    attr = lambda key: med([spans[i][key] for i in pipelines])
    if is_net:
        m.update({
            "netplane.ms_per_round": wall * 1e3 / trace["rounds"] if trace.get("rounds") else 0.0,
            "netplane.shard_cpu_s": attr("shard_cpu_s"),
            "netplane.shard_wait_frac": med([
                1 - spans[i]["shard_cpu_s"] / (SHARDS * duration(spans[i])) for i in pipelines]),
            "netplane.speedup_vs_seq": seq_s / wall if wall else 0.0,
            "netplane.shard_peak_rss_mb": max(spans[i]["shard_peak_rss_mb"] for i in pipelines),
            "netharness.world_build_s": m["graphs.gen_s"] + m["congest.net_tables_s"],
        })
    else:
        m.update({
            "runtime.parallel_speedup": seq_s / wall if wall else 0.0,
            "runtime.cpu_per_wall": med([spans[i]["cpu_s"] / duration(spans[i]) for i in pipelines]),
        })
    m["tracing.overhead_s"] = wall - med(trace["untraced_wall_s"])
    return m


def with_units(values, units):
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=N,
                    help="nodes (smaller only for smoke tests)")
    args = ap.parse_args()

    binary = build()
    if not args.trace:
        records = reps(binary, args.workload, args.seed, args.n, args.seconds)
        metrics, attempted, failed, errors = aggregate(records)
        result = {"correct": failed == 0 and not errors, "attempted": attempted,
                  "failed": failed, "metrics": with_units(metrics, E2E_UNITS)}
    else:
        trace, err = call(binary, ["trace", args.workload, str(args.seed), str(args.n),
                                   str(args.seconds)])
        if trace is None:
            trace = {"attempted": 1, "failed": 1, "errors": [err], "spans": []}
        attempted, failed, errors = trace["attempted"], trace["failed"], trace["errors"]
        metrics = per_layer(trace, args.n) if trace["spans"] else \
            dict.fromkeys(LAYER_UNITS, 0.0)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"), "w") as f:
            json.dump(trace, f)
        result = {"correct": failed == 0 and not errors, "attempted": attempted,
                  "failed": failed, "metrics": with_units(metrics, LAYER_UNITS)}
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
