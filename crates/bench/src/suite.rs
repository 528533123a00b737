//! The benchmark cell registry and its runner.
//!
//! Every benchmarked workload is one named `Cell`: a pipeline
//! ([`Algo`]), a graph recipe (`GraphSpec`), parameters, an `Engine`
//! (sequential, parallel-k, auto-k, or k netplane processes with or
//! without a shard kill), a scheduling mode and a `Plan` (clean, seeded
//! message drops, or churn followed by local repair). Each cell belongs to
//! exactly one [`Suite`], so a workload that several claims read runs
//! once per suite run.
//!
//! [`run`] executes a suite and returns one record per cell, all with
//! the same two-part schema:
//!
//! * `model`: everything the simulator determines from seeds alone —
//!   graph shape, every [`Metrics`] counter, palette and its `∆²+1`
//!   budget, validity, a digest of the coloring, netplane identity and
//!   chaos provenance, churn and repair counters. Fresh runs must
//!   reproduce the recorded `model` bit for bit.
//! * `measured`: host-dependent costs — graph build and pipeline wall
//!   clock, peak RSS over the pipeline run, heap allocations per round
//!   (`-1` means "not measured": no `count-allocs` build, no `VmHWM`).
//!
//! The checked-in recording is `BENCH.json`; `ci/bench_gate.py` compares
//! a fresh suite against it and evaluates the declared invariants. The
//! registry states workloads only: every bound lives in the gate.

use crate::json::Json;
use crate::{alloc, Algo};
use congest::{FaultConfig, Metrics, RuntimeMode, Scheduling, SimConfig};
use d2color::netharness::{
    run_distributed, run_sequential, run_supervised, NetAlgo, NetGraph, NetSpec, RunProfile,
    ShardCommand,
};
use d2core::Params;
use graphs::{D2View, EdgeBatch, Graph, NodeId};
use std::time::Instant;

/// The four suites CI runs, one job each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Small graphs × both pipelines × every local engine.
    Smoke,
    /// `n = 10⁴ … 10⁶` builds and colorings, allocation and RSS cells.
    Scale,
    /// Seeded drop faults and churn with 2-hop repair.
    Faults,
    /// Shard processes over the localhost netplane, with and without
    /// a seeded shard kill.
    Net,
}

impl Suite {
    /// Every suite, in CI order.
    pub const ALL: [Suite; 4] = [Suite::Smoke, Suite::Scale, Suite::Faults, Suite::Net];

    /// Command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Suite::Smoke => "smoke",
            Suite::Scale => "scale",
            Suite::Faults => "faults",
            Suite::Net => "net",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Suite> {
        Suite::ALL.into_iter().find(|x| x.name() == s)
    }
}

/// A seeded graph recipe.
#[derive(Debug, Clone, Copy, PartialEq)]
enum GraphSpec {
    /// `random_regular(n, d, seed)`.
    Regular {
        /// Nodes.
        n: usize,
        /// Degree.
        d: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `gnp_capped(n, mean / n, cap, seed)`.
    Gnp {
        /// Nodes.
        n: usize,
        /// Expected degree before the cap.
        mean: usize,
        /// Degree cap.
        cap: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `grid(side, side)`.
    Grid {
        /// Side length.
        side: usize,
    },
    /// `torus(side, side)`.
    Torus {
        /// Side length.
        side: usize,
    },
}

impl GraphSpec {
    /// Generates the graph.
    fn build(self) -> Graph {
        match self {
            GraphSpec::Regular { n, d, seed } => graphs::gen::random_regular(n, d, seed),
            GraphSpec::Gnp { n, mean, cap, seed } => {
                graphs::gen::gnp_capped(n, mean as f64 / n as f64, cap, seed)
            }
            GraphSpec::Grid { side } => graphs::gen::grid(side, side),
            GraphSpec::Torus { side } => graphs::gen::torus(side, side),
        }
    }

    /// The family's maximum degree (the structural check of build cells).
    fn degree_cap(self) -> usize {
        match self {
            GraphSpec::Regular { d, .. } => d,
            GraphSpec::Gnp { cap, .. } => cap,
            GraphSpec::Grid { .. } | GraphSpec::Torus { .. } => 4,
        }
    }

    /// Name fragment.
    fn label(self) -> String {
        match self {
            GraphSpec::Regular { n, d, seed } => format!("regular-n{n}-d{d}-g{seed}"),
            GraphSpec::Gnp { n, mean, cap, seed } => {
                format!("gnp-n{n}-deg{mean}-cap{cap}-g{seed}")
            }
            GraphSpec::Grid { side } => format!("grid-{side}x{side}"),
            GraphSpec::Torus { side } => format!("torus-{side}x{side}"),
        }
    }
}

/// Where the rounds run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// The sequential engine.
    Sequential,
    /// The threaded engine with `k` workers.
    Parallel(usize),
    /// Size-adaptive selection with `k` workers (0 = all cores).
    Auto(usize),
    /// `processes` shard processes over the localhost netplane, checked
    /// against the sequential engine; `chaos` kills one shard under the
    /// seeded schedule and the supervisor respawns it.
    Net {
        /// Shard processes.
        processes: u32,
        /// Chaos schedule seed.
        chaos: Option<u64>,
    },
}

impl Engine {
    fn label(self) -> String {
        match self {
            Engine::Sequential => "sequential".into(),
            Engine::Parallel(k) => format!("parallel-{k}"),
            Engine::Auto(k) => format!("auto-{k}"),
            Engine::Net { processes, .. } => format!("net-{processes}"),
        }
    }

    /// The scheduling mode a cell gets unless it states otherwise:
    /// active-set for in-process engines (the library default) and
    /// always-step over the netplane (the argv default).
    fn default_scheduling(self) -> Scheduling {
        match self {
            Engine::Net { .. } => Scheduling::AlwaysStep,
            _ => Scheduling::ActiveSet,
        }
    }
}

/// What happens to the run besides the pipeline itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// Nothing.
    Clean,
    /// A seeded drop-fault plane: `ppm` drops per million deliveries.
    Drops {
        /// Drops per million deliveries.
        ppm: u32,
        /// Fault seed.
        seed: u64,
    },
    /// After the coloring, ~1% of the edges churn in ten seeded Poisson
    /// batches; each batch is applied as one CSR rebuild and repaired
    /// by `d2core::repair` in the 2-hop neighborhood of its endpoints.
    Churn,
}

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    /// The suite that runs it.
    suite: Suite,
    /// Pipeline; `None` builds the graph only.
    algo: Option<Algo>,
    /// Graph recipe.
    graph: GraphSpec,
    /// `c₀ = 1` instead of the practical warmup: the initial trials
    /// leave live nodes, so similarity, LearnPalette and the finish run.
    stressed: bool,
    /// Simulation seed.
    seed: u64,
    /// `SimConfig::at_scale` (scale-tuned round cutoff) instead of
    /// `SimConfig::seeded`.
    at_scale: bool,
    /// Engine.
    engine: Engine,
    /// Node-stepping policy.
    scheduling: Scheduling,
    /// Fault or churn plan.
    plan: Plan,
}

impl Cell {
    fn new(suite: Suite, algo: Algo, graph: GraphSpec, seed: u64, engine: Engine) -> Cell {
        Cell {
            suite,
            algo: Some(algo),
            graph,
            stressed: false,
            seed,
            at_scale: false,
            engine,
            scheduling: engine.default_scheduling(),
            plan: Plan::Clean,
        }
    }

    fn build_only(graph: GraphSpec) -> Cell {
        Cell {
            algo: None,
            ..Cell::new(Suite::Scale, Algo::DetSmall, graph, 0, Engine::Sequential)
        }
    }

    fn scaled(self) -> Cell {
        Cell {
            at_scale: true,
            ..self
        }
    }

    fn stressed(self) -> Cell {
        Cell {
            stressed: true,
            ..self
        }
    }

    fn scheduled(self, scheduling: Scheduling) -> Cell {
        Cell { scheduling, ..self }
    }

    fn planned(self, plan: Plan) -> Cell {
        Cell { plan, ..self }
    }

    /// The unique cell name: `algo/graph/engine` followed by whatever
    /// departs from the defaults.
    fn name(&self) -> String {
        let mut parts = vec![
            self.algo.map_or("build", Algo::token).to_string(),
            self.graph.label(),
        ];
        if self.algo.is_some() {
            parts.push(self.engine.label());
        }
        if self.scheduling != self.engine.default_scheduling() {
            parts.push(sched_label(self.scheduling).into());
        }
        if self.stressed {
            parts.push("stressed".into());
        }
        match self.plan {
            Plan::Clean => {}
            Plan::Drops { ppm, .. } => parts.push(format!("drops-{ppm}")),
            Plan::Churn => parts.push("churn".into()),
        }
        if let Engine::Net {
            chaos: Some(seed), ..
        } = self.engine
        {
            parts.push(format!("chaos-{seed}"));
        }
        parts.join("/")
    }

    fn params(&self) -> Params {
        if self.stressed {
            Params {
                c0_initial_rounds: 1.0,
                ..Params::practical()
            }
        } else {
            Params::practical()
        }
    }

    fn config(&self, n: usize) -> SimConfig {
        let base = if self.at_scale {
            SimConfig::at_scale(self.seed, n)
        } else {
            SimConfig::seeded(self.seed)
        };
        let runtime = match self.engine {
            Engine::Sequential | Engine::Net { .. } => RuntimeMode::Sequential,
            Engine::Parallel(k) => RuntimeMode::Parallel(k),
            Engine::Auto(k) => RuntimeMode::Auto(k),
        };
        let cfg = base.with_runtime(runtime).with_scheduling(self.scheduling);
        match self.plan {
            Plan::Drops { ppm, seed } => cfg.with_faults(FaultConfig::seeded(seed).with_drops(ppm)),
            Plan::Clean | Plan::Churn => cfg,
        }
    }

    /// The netplane recipe of a `Net` cell.
    ///
    /// # Panics
    ///
    /// Panics when the cell's pipeline, graph or config has no netplane
    /// equivalent (a registry bug).
    fn net_spec(&self) -> (NetSpec, RunProfile) {
        let algo = match self.algo {
            Some(Algo::DetSmall) => NetAlgo::DetSmall,
            Some(Algo::RandImproved) => NetAlgo::RandImproved,
            other => panic!("{other:?} has no netplane pipeline"),
        };
        let (family, n, degree, graph_seed) = match self.graph {
            GraphSpec::Regular { n, d, seed } => (NetGraph::RandomRegular, n, d, seed),
            GraphSpec::Gnp { n, mean, cap, seed } if mean == cap => {
                (NetGraph::GnpCapped, n, cap, seed)
            }
            other => panic!("{other:?} has no netplane recipe"),
        };
        assert!(
            !self.stressed && !self.at_scale,
            "netplane cells run the practical parameters under SimConfig::seeded"
        );
        let spec = NetSpec {
            algo,
            family,
            n,
            degree,
            graph_seed,
            run_seed: self.seed,
        };
        let drops = match self.plan {
            Plan::Clean => None,
            Plan::Drops { ppm, seed } => Some((ppm, seed)),
            Plan::Churn => panic!("churn has no netplane plan"),
        };
        let profile = RunProfile {
            scheduling: self.scheduling,
            drops,
        };
        (spec, profile)
    }
}

fn sched_label(s: Scheduling) -> &'static str {
    match s {
        Scheduling::ActiveSet => "active-set",
        Scheduling::AlwaysStep => "always-step",
    }
}

/// Every cell, in run order. Within a suite the order is by memory
/// footprint, smallest first: the RSS high-water mark is reset per cell,
/// but only down to the current RSS, so freed pages of a bigger earlier
/// cell would pad a smaller later one.
fn registry() -> Vec<Cell> {
    use Algo::{DetSmall, RandImproved};
    use Engine::{Auto, Parallel, Sequential};
    let mut cells = Vec::new();

    // smoke: five small graphs × both pipelines × the three local engines.
    for graph in [
        GraphSpec::Regular {
            n: 400,
            d: 8,
            seed: 1,
        },
        GraphSpec::Gnp {
            n: 600,
            mean: 12,
            cap: 10,
            seed: 2,
        },
        GraphSpec::Torus { side: 20 },
        GraphSpec::Regular {
            n: 2000,
            d: 8,
            seed: 3,
        },
        GraphSpec::Gnp {
            n: 3000,
            mean: 12,
            cap: 12,
            seed: 4,
        },
    ] {
        for algo in [RandImproved, DetSmall] {
            for engine in [Sequential, Parallel(4), Auto(4)] {
                cells.push(Cell::new(Suite::Smoke, algo, graph, 42, engine));
            }
        }
    }

    // scale: n = 10⁶ builds first, one graph alive at a time.
    let gnp = |n, seed| GraphSpec::Gnp {
        n,
        mean: 12,
        cap: 16,
        seed,
    };
    let regular = |n, d| GraphSpec::Regular { n, d, seed: 42 };
    let grid = |n: usize| GraphSpec::Grid {
        side: (n as f64).sqrt().round() as usize,
    };
    for graph in [
        gnp(1_000_000, 42),
        regular(1_000_000, 8),
        grid(1_000_000),
        GraphSpec::Gnp {
            n: 1_000_000,
            mean: 20,
            cap: 32,
            seed: 71,
        },
    ] {
        cells.push(Cell::build_only(graph));
    }
    let scale =
        |algo, graph, seed, engine| Cell::new(Suite::Scale, algo, graph, seed, engine).scaled();
    let families = |n| [gnp(n, 42), regular(n, 8), grid(n)];
    for graph in families(10_000) {
        for engine in [Sequential, Parallel(4), Auto(4)] {
            cells.push(scale(DetSmall, graph, 42, engine));
        }
    }
    // The stressed cell's peak RSS is gated against a recording taken
    // early in a fresh process, so it runs before the n = 10⁵ det-small
    // cells raise the floor the high-water mark resets to.
    cells.push(scale(RandImproved, regular(100_000, 16), 42, Sequential).stressed());
    cells.push(scale(RandImproved, gnp(100_000, 42), 42, Sequential));
    // The sequential random_regular n = 10⁵ cell lives in the faults
    // suite, which churns it.
    for graph in families(100_000) {
        for engine in [Sequential, Parallel(4), Auto(4)] {
            if graph != regular(100_000, 8) || engine != Sequential {
                cells.push(scale(DetSmall, graph, 42, engine));
            }
        }
    }
    cells.extend([
        scale(DetSmall, gnp(100_000, 72), 72, Auto(0)),
        scale(DetSmall, regular(1_000_000, 8), 42, Sequential),
        scale(RandImproved, regular(1_000_000, 8), 42, Sequential).stressed(),
    ]);

    // faults: the drop matrix on both engines, then the n = 10⁵ fresh
    // coloring with its churn trace and its always-step twin.
    let drop_graph = GraphSpec::Gnp {
        n: 2000,
        mean: 8,
        cap: 8,
        seed: 42,
    };
    for algo in [DetSmall, RandImproved] {
        for ppm in [1_000, 10_000, 50_000] {
            for engine in [Sequential, Parallel(4)] {
                cells.push(
                    Cell::new(Suite::Faults, algo, drop_graph, 42, engine)
                        .planned(Plan::Drops { ppm, seed: 11 }),
                );
            }
        }
    }
    let fresh = Cell::new(Suite::Faults, DetSmall, regular(100_000, 8), 42, Sequential).scaled();
    cells.push(fresh.planned(Plan::Churn));
    cells.push(fresh.scheduled(Scheduling::AlwaysStep));

    // net: every workload at 2 and 4 processes, the chaos kills, the
    // frontier straggler under both schedules, and every plane stacked.
    let net = |algo, graph, seed, processes, chaos| {
        Cell::new(
            Suite::Net,
            algo,
            graph,
            seed,
            Engine::Net { processes, chaos },
        )
    };
    let net_gnp = |n, d, seed| GraphSpec::Gnp {
        n,
        mean: d,
        cap: d,
        seed,
    };
    let net_regular = |n, d, seed| GraphSpec::Regular { n, d, seed };
    for (algo, graph) in [
        (DetSmall, net_gnp(200, 5, 11)),
        (DetSmall, net_regular(160, 4, 12)),
        (RandImproved, net_gnp(200, 6, 13)),
        (RandImproved, net_regular(160, 6, 14)),
    ] {
        for processes in [2, 4] {
            cells.push(net(algo, graph, 42, processes, None));
        }
    }
    cells.push(net(DetSmall, net_gnp(200, 5, 11), 42, 4, Some(29)));
    cells.push(net(RandImproved, net_regular(160, 6, 14), 42, 4, Some(29)));
    let straggler = net(DetSmall, net_gnp(400, 5, 21), 42, 4, None);
    cells.push(straggler);
    cells.push(straggler.scheduled(Scheduling::ActiveSet));
    let quick = net_gnp(150, 5, 2);
    cells.push(net(DetSmall, quick, 9, 2, None));
    cells.push(net(DetSmall, quick, 9, 4, Some(29)));
    cells.push(
        net(DetSmall, quick, 9, 4, Some(29))
            .scheduled(Scheduling::ActiveSet)
            .planned(Plan::Drops {
                ppm: 25_000,
                seed: 7,
            }),
    );
    cells
}

/// The cells of one suite, in run order.
fn cells(suite: Suite) -> Vec<Cell> {
    registry()
        .into_iter()
        .filter(|c| c.suite == suite)
        .collect()
}

/// Attempts to reset the kernel's peak-RSS high-water mark to the
/// current RSS (Linux: `5` into `/proc/self/clear_refs`), so the next
/// [`peak_rss_mb`] bounds only the work since. Returns whether the reset
/// took effect; records made without it are `rss_cumulative`.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak RSS (Linux `VmHWM`) in MiB, `-1` where the platform has none.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(-1.0, |kb| kb / 1024.0)
}

/// Host-dependent costs of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Measured {
    build_ms: f64,
    wall_ms: f64,
    peak_rss_mb: f64,
    rss_cumulative: bool,
    allocs_per_round: f64,
}

/// One repair batch of a churn plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Batch {
    events: usize,
    inserted: usize,
    deleted: usize,
    touched: usize,
    damaged: usize,
    rounds: u64,
    messages: u64,
    palette_drift: usize,
    valid: bool,
}

/// Everything a run determines from its seeds.
#[derive(Debug, Clone, PartialEq, Default)]
struct Model {
    n: usize,
    m: usize,
    delta: usize,
    metrics: Metrics,
    palette: usize,
    valid: bool,
    coloring: Option<u64>,
    identical: Option<bool>,
    chaos: Option<d2color::netharness::ChaosRunReport>,
    churn: Vec<Batch>,
    churn_final_valid: Option<bool>,
}

/// FNV-1a over the colors, so twin cells can be compared without
/// storing n colors.
fn digest(colors: &[u32]) -> u64 {
    colors
        .iter()
        .flat_map(|c| c.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Runs every cell of `suite` in order, printing one line per cell, and
/// returns the suite document (`{"suite", "cells": [{name, model,
/// measured}]}`). Net cells spawn `shard` for their shard processes.
///
/// # Panics
///
/// Panics when a pipeline returns an error: every registered workload
/// is known to terminate.
#[must_use]
pub fn run(suite: Suite, shard: &ShardCommand) -> Json {
    let records = cells(suite)
        .iter()
        .map(|cell| {
            let name = cell.name();
            let (model, measured) = match (cell.algo, cell.engine) {
                (None, _) => run_build(cell),
                (Some(_), Engine::Net { .. }) => run_net(cell, shard),
                (Some(algo), _) => run_local(cell, algo),
            };
            println!(
                "{name:<64} rounds {:>6}  messages {:>10}  palette {:>4}  valid {:<5}  \
                 wall {:>10.1} ms  rss {:>7.1} MiB",
                model.metrics.rounds,
                model.metrics.messages,
                model.palette,
                model.valid,
                measured.wall_ms,
                measured.peak_rss_mb
            );
            Json::obj(vec![
                ("name", Json::str(name)),
                ("model", model_json(&model)),
                ("measured", measured_json(&measured)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("suite", Json::str(suite.name())),
        ("cells", Json::Arr(records)),
    ])
}

fn run_build(cell: &Cell) -> (Model, Measured) {
    let reset = reset_peak_rss();
    let t0 = Instant::now();
    let g = cell.graph.build();
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let model = Model {
        n: g.n(),
        m: g.m(),
        delta: g.max_degree(),
        valid: g.m() > 0 && g.max_degree() <= cell.graph.degree_cap(),
        ..Model::default()
    };
    let measured = Measured {
        build_ms,
        wall_ms: 0.0,
        peak_rss_mb: peak_rss_mb(),
        rss_cumulative: !reset,
        allocs_per_round: -1.0,
    };
    (model, measured)
}

/// Pipeline run with a per-cell RSS window (reset once the graph is
/// resident, read when the pipeline returns, so the verification oracle
/// is not counted) and allocation counting around the pipeline only.
fn run_local(cell: &Cell, algo: Algo) -> (Model, Measured) {
    let t0 = Instant::now();
    let g = cell.graph.build();
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cfg = cell.config(g.n());
    let params = cell.params();
    let reset = reset_peak_rss();
    let (a0, _) = alloc::snapshot();
    let t1 = Instant::now();
    let out = algo
        .run(&g, &params, &cfg)
        .unwrap_or_else(|e| panic!("{}: {e}", cell.name()));
    let wall_ms = t1.elapsed().as_secs_f64() * 1e3;
    let (a1, _) = alloc::snapshot();
    let peak = peak_rss_mb();
    let mut model = Model {
        n: g.n(),
        m: g.m(),
        delta: g.max_degree(),
        palette: out.palette_bound(),
        valid: graphs::verify::is_valid_d2_coloring(&g, &out.colors),
        coloring: Some(digest(&out.colors)),
        metrics: out.metrics,
        ..Model::default()
    };
    if cell.plan == Plan::Churn {
        let (batches, final_valid) = churn(g, out.colors, &cfg);
        model.churn = batches;
        model.churn_final_valid = Some(final_valid);
    }
    let measured = Measured {
        build_ms,
        wall_ms,
        peak_rss_mb: peak,
        rss_cumulative: !reset,
        allocs_per_round: allocs_per_round(a1 - a0, model.metrics.rounds),
    };
    (model, measured)
}

/// Distributed run against the sequential engine under the same
/// profile; the record carries the distributed side.
fn run_net(cell: &Cell, shard: &ShardCommand) -> (Model, Measured) {
    let Engine::Net { processes, chaos } = cell.engine else {
        unreachable!("run_net on an in-process cell")
    };
    let (spec, profile) = cell.net_spec();
    let t0 = Instant::now();
    let g = spec.build_graph();
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let seq = run_sequential(&spec, &profile);
    let reset = reset_peak_rss();
    let (a0, _) = alloc::snapshot();
    let t1 = Instant::now();
    let (net, report) = match chaos {
        Some(seed) => {
            let (net, report) = run_supervised(&spec, processes, shard, seed, &profile);
            (net, Some(report))
        }
        None => (run_distributed(&spec, processes, shard, &profile), None),
    };
    let wall_ms = t1.elapsed().as_secs_f64() * 1e3;
    let (a1, _) = alloc::snapshot();
    let peak = peak_rss_mb();
    let model = Model {
        n: g.n(),
        m: g.m(),
        delta: g.max_degree(),
        palette: graphs::verify::palette_size(&net.colors),
        valid: graphs::verify::is_valid_d2_coloring(&g, &net.colors),
        coloring: Some(digest(&net.colors)),
        identical: Some(net.colors == seq.colors && net.metrics == seq.metrics),
        chaos: report,
        metrics: net.metrics,
        ..Model::default()
    };
    let measured = Measured {
        build_ms,
        wall_ms,
        peak_rss_mb: peak,
        rss_cumulative: !reset,
        allocs_per_round: allocs_per_round(a1 - a0, model.metrics.rounds),
    };
    (model, measured)
}

fn allocs_per_round(allocs: u64, rounds: u64) -> f64 {
    if alloc::counting_enabled() {
        allocs as f64 / rounds.max(1) as f64
    } else {
        -1.0
    }
}

/// Fraction of the base graph's edges that churn over the whole trace.
const CHURN_FRACTION: f64 = 0.01;
/// Poisson batches the trace is split into.
const CHURN_BATCHES: usize = 10;
/// Seed of the churn trace.
const CHURN_SEED: u64 = 42 ^ 0x5DEE_CE66_D0C6_51AB;

/// Applies the seeded churn trace batch by batch, repairing after each;
/// returns the batches and whether the final coloring is valid.
fn churn(mut g: Graph, mut colors: Vec<u32>, cfg: &SimConfig) -> (Vec<Batch>, bool) {
    let mean = g.m() as f64 * CHURN_FRACTION / CHURN_BATCHES as f64;
    let mut rng = SplitMix(CHURN_SEED);
    let mut batches = Vec::with_capacity(CHURN_BATCHES);
    for _ in 0..CHURN_BATCHES {
        let events = poisson(&mut rng, mean);
        let batch = churn_batch(&g, &mut rng, events);
        let churned = graphs::apply_batch(&g, &batch).expect("churn batch");
        let view = D2View::build(&churned.graph);
        let out = d2core::repair(&churned.graph, &view, &colors, &churned.touched, cfg)
            .expect("repair failed");
        batches.push(Batch {
            events,
            inserted: churned.inserted,
            deleted: churned.deleted,
            touched: churned.touched.len(),
            damaged: out.damaged,
            rounds: out.metrics.rounds,
            messages: out.metrics.messages,
            palette_drift: out.palette_drift(),
            valid: graphs::verify::is_valid_d2_coloring_with(&view, &out.colors),
        });
        g = churned.graph;
        colors = out.colors;
    }
    let final_valid = graphs::verify::is_valid_d2_coloring(&g, &colors);
    (batches, final_valid)
}

/// SplitMix64, the churn-trace RNG: self-contained so the trace is
/// bit-stable independent of any RNG crate's stream layout.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at trace scale).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Knuth's Poisson sampler; `exp(-λ)` stays representable far past the
/// per-batch means used here.
fn poisson(rng: &mut SplitMix, lambda: f64) -> usize {
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.next_f64();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// One seeded churn batch: each event deletes a random existing edge
/// (via a random endpoint) or inserts a random node pair, with equal
/// odds.
fn churn_batch(g: &Graph, rng: &mut SplitMix, events: usize) -> EdgeBatch {
    let n = g.n() as u64;
    let mut batch = EdgeBatch::new();
    for _ in 0..events {
        if rng.next_f64() < 0.5 {
            loop {
                let u = rng.below(n) as NodeId;
                let nbrs = g.neighbors(u);
                if !nbrs.is_empty() {
                    let v = nbrs[rng.below(nbrs.len() as u64) as usize];
                    batch.delete(u, v);
                    break;
                }
            }
        } else {
            loop {
                let u = rng.below(n) as NodeId;
                let v = rng.below(n) as NodeId;
                if u != v {
                    batch.insert(u, v);
                    break;
                }
            }
        }
    }
    batch
}

fn ms(x: f64) -> Json {
    Json::Num((x * 1000.0).round() / 1000.0)
}

fn opt_bool(b: Option<bool>) -> Json {
    b.map_or(Json::Null, Json::Bool)
}

fn model_json(m: &Model) -> Json {
    let x = &m.metrics;
    let d = m.delta as u64;
    let budget = if m.coloring.is_some() {
        (d * d).min(m.n.saturating_sub(1) as u64) + 1
    } else {
        0
    };
    let chaos = m.chaos.unwrap_or(d2color::netharness::ChaosRunReport {
        chaos_seed: 0,
        killed_shard: 0,
        kill_sync: 0,
        respawned: false,
    });
    let batches = m
        .churn
        .iter()
        .map(|b| {
            Json::obj(vec![
                ("events", Json::int(b.events as u64)),
                ("inserted", Json::int(b.inserted as u64)),
                ("deleted", Json::int(b.deleted as u64)),
                ("touched", Json::int(b.touched as u64)),
                ("damaged", Json::int(b.damaged as u64)),
                ("rounds", Json::int(b.rounds)),
                ("messages", Json::int(b.messages)),
                ("palette_drift", Json::int(b.palette_drift as u64)),
                ("valid", Json::Bool(b.valid)),
            ])
        })
        .collect();
    let repair_valid = m
        .churn_final_valid
        .map(|v| v && m.churn.iter().all(|b| b.valid));
    Json::obj(vec![
        ("n", Json::int(m.n as u64)),
        ("m", Json::int(m.m as u64)),
        ("delta", Json::int(d)),
        ("rounds", Json::int(x.rounds)),
        ("messages", Json::int(x.messages)),
        ("total_bits", Json::int(x.total_bits)),
        ("max_message_bits", Json::int(x.max_message_bits)),
        ("bandwidth_bits", Json::int(x.bandwidth_bits)),
        ("bandwidth_violations", Json::int(x.bandwidth_violations)),
        ("faults_dropped", Json::int(x.faults_dropped)),
        ("faults_duplicated", Json::int(x.faults_duplicated)),
        ("crash_drops", Json::int(x.crash_drops)),
        ("crashed_rounds", Json::int(x.crashed_rounds)),
        ("stepped_nodes", Json::int(x.stepped_nodes)),
        ("palette", Json::int(m.palette as u64)),
        ("budget", Json::int(budget)),
        ("valid", Json::Bool(m.valid)),
        (
            "coloring",
            m.coloring
                .map_or(Json::Null, |h| Json::str(format!("{h:016x}"))),
        ),
        ("identical", opt_bool(m.identical)),
        ("chaos_seed", Json::int(chaos.chaos_seed)),
        ("killed_shard", Json::int(u64::from(chaos.killed_shard))),
        ("kill_sync", Json::int(chaos.kill_sync)),
        ("respawned", Json::Bool(chaos.respawned)),
        (
            "churn_events",
            Json::int(m.churn.iter().map(|b| b.events as u64).sum()),
        ),
        (
            "repair_messages",
            Json::int(m.churn.iter().map(|b| b.messages).sum()),
        ),
        ("repair_valid", opt_bool(repair_valid)),
        ("churn_batches", Json::Arr(batches)),
    ])
}

fn measured_json(m: &Measured) -> Json {
    Json::obj(vec![
        ("build_ms", ms(m.build_ms)),
        ("wall_ms", ms(m.wall_ms)),
        ("peak_rss_mb", ms(m.peak_rss_mb)),
        ("rss_cumulative", Json::Bool(m.rss_cumulative)),
        ("allocs_per_round", ms(m.allocs_per_round)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_suites_are_nonempty() {
        let names: Vec<String> = registry().iter().map(Cell::name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate cell names");
        for suite in Suite::ALL {
            assert!(!cells(suite).is_empty(), "{} is empty", suite.name());
            assert_eq!(Suite::parse(suite.name()), Some(suite));
        }
    }

    #[test]
    fn every_workload_runs_once() {
        // A churn plan only adds work after the coloring, so the churned
        // cell is the same workload as its clean twin: no registry entry
        // may repeat a pipeline run another one already does.
        let mut workloads: Vec<String> = registry()
            .into_iter()
            .map(|c| {
                let plan = match c.plan {
                    Plan::Churn => Plan::Clean,
                    other => other,
                };
                Cell { plan, ..c }.name()
            })
            .collect();
        let total = workloads.len();
        workloads.sort();
        workloads.dedup();
        assert_eq!(workloads.len(), total, "a workload runs twice");
        assert!(workloads
            .contains(&"rand-improved/regular-n1000000-d8-g42/sequential/stressed".to_string()));
    }

    #[test]
    fn net_cells_round_trip_to_their_netplane_recipe() {
        for cell in cells(Suite::Net) {
            let (spec, profile) = cell.net_spec();
            assert_eq!(spec.build_graph().n(), cell.graph.build().n());
            assert_eq!(
                spec.config_with(&profile).scheduling,
                cell.config(spec.n).scheduling
            );
        }
    }

    #[test]
    fn smoke_graphs_straddle_the_auto_threshold() {
        let mut graphs: Vec<GraphSpec> = cells(Suite::Smoke).iter().map(|c| c.graph).collect();
        graphs.dedup();
        let below = graphs
            .iter()
            .filter(|g| congest::auto_work_estimate(&g.build()) < congest::AUTO_WORK_THRESHOLD)
            .count();
        assert!(below >= 2, "need light graphs on the sequential side");
        assert!(
            graphs.len() - below >= 2,
            "need heavy graphs on the parallel side"
        );
    }

    #[test]
    fn stressed_params_only_cut_the_warmup() {
        let cell = cells(Suite::Scale)
            .into_iter()
            .find(|c| c.stressed)
            .expect("a stressed cell");
        let (p, q) = (cell.params(), Params::practical());
        assert_eq!(p.c0_initial_rounds, 1.0);
        assert_eq!(p.list_sync_period, q.list_sync_period);
        assert_eq!(p.exact_similarity_threshold, q.exact_similarity_threshold);
    }

    #[test]
    fn gnp_recipe_matches_the_literal_probability() {
        // p = mean / n is the correctly rounded quotient, i.e. the same
        // double as the decimal literal the workloads were defined with.
        assert_eq!(12.0 / 600.0, 0.02);
        assert_eq!(12.0 / 3000.0, 0.004);
        assert_eq!(8.0 / 2000.0, 0.004);
    }

    #[test]
    fn small_local_cell_records_a_valid_coloring() {
        let cell = Cell::new(
            Suite::Smoke,
            Algo::DetSmall,
            GraphSpec::Grid { side: 8 },
            1,
            Engine::Sequential,
        )
        .planned(Plan::Churn);
        let (model, measured) = run_local(&cell, Algo::DetSmall);
        assert!(model.valid);
        assert_eq!(model.churn.len(), CHURN_BATCHES);
        assert_eq!(model.churn_final_valid, Some(true));
        assert!(measured.wall_ms >= 0.0);
        if !alloc::counting_enabled() {
            assert_eq!(measured.allocs_per_round, -1.0);
        }
        let json = model_json(&model).pretty();
        assert!(json.contains("\"budget\": 17"), "{json}");
        assert!(json.contains("\"identical\": null"), "{json}");
    }

    #[test]
    fn churn_trace_is_deterministic() {
        let g = graphs::gen::gnp_capped(200, 0.05, 7, 3);
        let mk = || {
            let mut rng = SplitMix(99);
            let b = churn_batch(&g, &mut rng, 30);
            graphs::apply_batch(&g, &b).expect("apply")
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.touched, b.touched);
        assert!(a.inserted + a.deleted > 0);
    }

    #[test]
    fn poisson_mean_is_roughly_lambda() {
        let mut rng = SplitMix(7);
        let total: usize = (0..400).map(|_| poisson(&mut rng, 40.0)).sum();
        let mean = total as f64 / 400.0;
        assert!((mean - 40.0).abs() < 6.0, "poisson mean {mean}");
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
