//! The three workloads: one graph, two pipelines, two transports.
//!
//! Every workload colours `random_regular(n, 8)` under active-set
//! scheduling, so their layer numbers are directly comparable. The
//! workload seed fixes the graph seed and the run seed.

use d2color::congest::{Metrics, RuntimeMode, SimConfig, SimError};
use d2color::d2core::{self, ColoringOutcome, Params, PhaseReport};
use d2color::graphs::{self, Graph};
use d2color::netharness::{self, NetAlgo, NetGraph, NetSpec, RunProfile, ShardCommand};

/// Degree of the workload graph.
pub const DEGREE: usize = 8;

/// Shard processes of the netplane workload, and worker threads of the
/// in-process ones: what `RuntimeMode::Auto` resolves to on a 2-core host,
/// pinned so the cell does not change with the machine.
pub const WORKERS: usize = 2;

/// Subcommand under which the benchmark binary runs as a netplane shard.
pub const SHARD_SUBCOMMAND: &str = "shard";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 1.2 (`det::small::run`) on the parallel-2 engine.
    DetSmall,
    /// Theorem 1.1 (`rand::driver::improved`) with `c₀ = 1`, so the
    /// similarity, LearnPalette and finish phases run.
    RandStressed,
    /// The `DetSmall` pipeline across 2 shard processes over the loopback
    /// netplane.
    NetDetSmall,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DetSmall,
        Workload::RandStressed,
        Workload::NetDetSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DetSmall => "det-small-rr100k",
            Workload::RandStressed => "rand-improved-rr100k-stressed",
            Workload::NetDetSmall => "net-det-small-rr100k-2p",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The generated inputs of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inputs {
    pub n: usize,
    pub graph_seed: u64,
    pub run_seed: u64,
}

impl Inputs {
    /// The graph seed is the workload seed; the run seed is one SplitMix64
    /// step of it, so the two are unrelated yet both repeat per seed.
    pub fn from_seed(n: usize, seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Inputs {
            n,
            graph_seed: seed,
            run_seed: z ^ (z >> 31),
        }
    }

    /// The set-up step: generate the input graph.
    pub fn graph(&self) -> Graph {
        graphs::gen::random_regular(self.n, DEGREE, self.graph_seed)
    }

    /// The config of the in-process workloads, on the given engine.
    pub fn config(&self, runtime: RuntimeMode) -> SimConfig {
        SimConfig::at_scale(self.run_seed, self.n).with_runtime(runtime)
    }

    /// The netplane workload's recipe; every shard rebuilds the graph
    /// from it.
    pub fn net_spec(&self) -> NetSpec {
        NetSpec {
            algo: NetAlgo::DetSmall,
            family: NetGraph::RandomRegular,
            n: self.n,
            degree: DEGREE,
            graph_seed: self.graph_seed,
            run_seed: self.run_seed,
        }
    }
}

/// BENCH_PR4/PR5's stressed profile: `c₀ = 1` leaves live nodes after
/// the initial trials, so Theorem 1.1's later phases run.
fn stressed_params() -> Params {
    Params {
        c0_initial_rounds: 1.0,
        ..Params::practical()
    }
}

/// A pipeline's colouring, metrics and (in-process only) phase reports.
#[derive(Debug, Clone)]
pub struct Output {
    pub colors: Vec<u32>,
    pub metrics: Metrics,
    pub phases: Vec<PhaseReport>,
}

impl From<ColoringOutcome> for Output {
    fn from(o: ColoringOutcome) -> Self {
        Output {
            colors: o.colors,
            metrics: o.metrics,
            phases: o.phases,
        }
    }
}

impl From<netharness::NetOutcome> for Output {
    fn from(o: netharness::NetOutcome) -> Self {
        Output {
            colors: o.colors,
            metrics: o.metrics,
            phases: Vec::new(),
        }
    }
}

/// The det-small pipeline in-process.
pub fn det_small(g: &Graph, cfg: &SimConfig) -> Result<Output, SimError> {
    d2core::det::small::run(g, &Params::practical(), cfg).map(Output::from)
}

/// The stressed rand-improved pipeline in-process.
pub fn rand_stressed(g: &Graph, cfg: &SimConfig) -> Result<Output, SimError> {
    d2core::rand::driver::improved(g, &stressed_params(), cfg).map(Output::from)
}

/// The workload's single pipeline call, the one `wall_s` times. The
/// netplane call panics when a shard fails; the caller catches it.
pub fn run(w: Workload, g: &Graph, inputs: &Inputs) -> Result<Output, SimError> {
    let engine = RuntimeMode::Parallel(WORKERS);
    match w {
        Workload::DetSmall => det_small(g, &inputs.config(engine)),
        Workload::RandStressed => rand_stressed(g, &inputs.config(engine)),
        Workload::NetDetSmall => Ok(netharness::run_distributed(
            &inputs.net_spec(),
            WORKERS as u32,
            &ShardCommand::current_exe(SHARD_SUBCOMMAND),
            &RunProfile::active_set(),
        )
        .into()),
    }
}

/// The layer a `PhaseReport` belongs to, as named in the per-layer
/// metrics; `None` for a phase the workloads run only at small n (the
/// rand Reduce cascade, below n ≈ 3000 at d = 8).
pub fn layer_of(phase: &str) -> Option<&'static str> {
    const LAYERS: [(&str, &str); 7] = [
        ("linial", "det.linial"),
        ("loc-iter", "det.loc_iter"),
        ("color-reduce", "det.color_reduce"),
        ("initial-trials", "rand.trials"),
        ("similarity", "rand.similarity"),
        ("learn-palette", "rand.learn_palette"),
        ("finish-coloring", "rand.finish"),
    ];
    LAYERS
        .into_iter()
        .find(|(prefix, _)| phase.starts_with(prefix))
        .map(|(_, layer)| layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("det-small"), None);
    }

    #[test]
    fn seeds_repeat_and_differ() {
        let a = Inputs::from_seed(100, 7);
        assert_eq!(a, Inputs::from_seed(100, 7));
        assert_eq!(a.graph_seed, 7);
        assert_ne!(a.run_seed, Inputs::from_seed(100, 8).run_seed);
    }

    /// The recorded n = 10⁵ cells (graph seed 7, run seed 1), whose
    /// every phase has a named layer.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "n = 10^5: run with --release")]
    fn counts_and_layers_match_the_recorded_cells() {
        let inputs = Inputs {
            n: 100_000,
            graph_seed: 7,
            run_seed: 1,
        };
        let g = inputs.graph();
        let cfg = inputs.config(RuntimeMode::Parallel(WORKERS));
        let det = det_small(&g, &cfg).expect("det-small runs");
        let palette = graphs::verify::palette_size(&det.colors);
        assert_eq!(
            (det.metrics.rounds, det.metrics.messages, palette),
            (1170, 11_465_088, 65)
        );
        let rand = rand_stressed(&g, &cfg).expect("rand-improved runs");
        assert_eq!(
            (rand.metrics.rounds, rand.metrics.messages),
            (550, 13_302_902)
        );
        for p in det.phases.iter().chain(&rand.phases) {
            assert!(layer_of(&p.name).is_some(), "unmapped phase {}", p.name);
        }
    }
}
