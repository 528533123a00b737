//! Execution engines for [`Protocol`]s.
//!
//! # One round loop, three transports
//!
//! The round loop exists exactly once, in the private `engine` module:
//! a generic core that owns node stepping, active-set scheduling,
//! fault-plane delivery, sync-period batching, strict-bandwidth abort
//! ordering, metrics accounting, and [`SimError`] construction.
//!
//! Every process keeps its inboxes in one port-slot slab (the private
//! `slab` module): one slot per directed edge, two generations, shared by
//! all shards of the process. A sender writes each payload once, straight
//! into the slot of the receiver's arrival port, and the receiver's
//! thread takes its filled slots, already in port order, when it steps —
//! no staging buffer, no copy at the barrier, no sort. What a runtime
//! contributes is a
//! `Transport` — how per-round control flags, arrival notices, and
//! messages for *other processes* reach the other shards:
//!
//! * [`SequentialRuntime`] — the trivial transport: one shard owns every
//!   node and the whole slab, the barrier is a no-op, local flags are
//!   global. This is the deterministic reference every other transport
//!   is validated against.
//! * [`ParallelRuntime`] — nodes sharded over worker threads that write
//!   into each other's slab slots; the transport carries arrival notices
//!   in parity-double-buffered cells plus a **single spin barrier per
//!   communication round** (see `parallel.rs` for the handshake
//!   protocol).
//! * [`crate::netplane`] — shards in separate OS processes, each with a
//!   slab for its own nodes; the transport is length-prefixed frames over
//!   sockets with retention, rejoin, and fault injection, and writes the
//!   inbound messages into the local slab (see `netplane/runtime.rs`).
//!
//! The `Transport` contract (documented in full on the trait) is small:
//! *stage* a message for a node in another process, *notify* a peer
//! shard of an arrival in its slots, *exchange* at the communication
//! round barrier — publish staged messages, arrival notices, and this
//! shard's `RoundFlags` (termination-vote AND, sticky-running sum,
//! next-round running projection, first strict-bandwidth violation),
//! hand over the inbound ones, and return the flags merged identically
//! on every shard — and a *watchdog* that globalizes round-limit
//! diagnostics.
//! Because termination, the crash-probe latch, and abort decisions are
//! all functions of the merged flags, every shard takes every
//! transition in lockstep, and adding a transport can never fork the
//! semantics.
//!
//! All engines are bit-identical for the same seed: per-node RNG streams
//! depend only on `(seed, index)`, inboxes are port-ordered by
//! construction (a node's slots are indexed by arrival port), and
//! strict-bandwidth errors are resolved to the lowest
//! violating node index so the first error in sequential order wins
//! regardless of thread or process interleaving. The differential
//! harnesses (`tests/runtime_equivalence.rs`, `tests/net_equivalence.rs`)
//! assert this equivalence over full coloring pipelines.
//!
//! # Active-set scheduling
//!
//! By default ([`Scheduling::ActiveSet`](crate::Scheduling)) the engines
//! step only the **live frontier** each round instead of all `n` nodes. A
//! node is stepped in round `r` exactly when it is *woken* for `r`, which
//! happens iff
//!
//! 1. a message addressed to it arrives in round `r` (deliveries always
//!    wake their destination — staged at `r − 1`, stamped for `r`);
//! 2. its own [`Protocol::next_wake`] asked for it: [`Wake::Next`](crate::Wake::Next) after
//!    its round-`r − 1` step, or a matured [`Wake::At(r)`](crate::Wake)
//!    request; or
//! 3. the fault plane recovers it in round `r` (crash-window end).
//!
//! `Wake::At` requests live in one timer queue per shard, a min-heap with
//! two words per node (the live target and the target of the node's
//! queued entry). Re-requesting the target a node is already parked at is
//! O(1) and adds no entry, so a node that re-parks at one target after
//! every message wake holds one entry, not one per wake; a new target
//! costs one heap push, and the superseded entry is skipped when popped.
//! Message wakes are never deduplicated against the timer: an arrival
//! wakes its node whatever the node's pending target.
//!
//! Round 0 wakes every node. Nodes the plane has crashed are skipped
//! while down without rescheduling. Per round the frontier is traversed
//! by a `Sweep`: index-ordered flag scan when dense (≥ `n/4`), sorted
//! sparse list otherwise — either way nodes step in index order, so the
//! sequential observables are unchanged. Sharded transports keep one
//! frontier per shard over shard-local indices; a delivery to a node of
//! another shard always wakes it, through the arrival notice (or, across
//! processes, the message itself) the transport already carries to the
//! round barrier, so no extra barrier is paid.
//!
//! **Termination** under parking uses *sticky votes*: each node's latest
//! communication-round vote stands in for it while parked (the parking
//! contract on [`Protocol::next_wake`] makes this exact — see its docs),
//! and the run ends at the first communication round where no non-crashed
//! node's sticky vote is `Running`. Two fault-plane escape hatches keep
//! the crash semantics identical to the reference:
//!
//! * when a crash removes the last sticky-`Running` vote, the engine
//!   **latches** back to stepping every node with the classic unanimity
//!   check, permanently (each shard publishes a one-round projection of
//!   its running count in its `RoundFlags`, so every shard latches on
//!   the same round);
//! * parking is disabled outright when crash faults meet a
//!   [`Protocol::sync_period`] `> 1` — a crash inside a silent window
//!   could flip unanimity between rounds the engines never compare votes
//!   at.
//!
//! [`Scheduling::AlwaysStep`](crate::Scheduling) forces the classic
//! every-node schedule ([`Protocol::next_wake`] is never called); the
//! differential harnesses hold active-set runs bit-identical to it with
//! only [`Metrics::stepped_nodes`](crate::Metrics) allowed to shrink.
//!
//! # Engine selection
//!
//! [`SimConfig::runtime`] picks the engine per run:
//!
//! * [`RuntimeMode::Sequential`] / [`RuntimeMode::Parallel`] — explicit.
//! * [`RuntimeMode::Auto`] — adaptive: the parallel engine only pays for
//!   itself when each round carries enough work to amortize the barrier,
//!   so `Auto` estimates per-round work as `n + 2m` (nodes stepped plus an
//!   upper bound on messages handled) and picks sequential below
//!   [`AUTO_WORK_THRESHOLD`](crate::AUTO_WORK_THRESHOLD). The threshold is
//!   calibrated from the `smoke` bench suite's cells in `BENCH.json`; its
//!   doc comment records how to re-derive it.
//!
//! # Round batching
//!
//! Protocols that communicate only every `p`-th round can declare it via
//! [`Protocol::sync_period`]; the core then evaluates termination (and
//! the transport synchronizes) only at those communication rounds,
//! cutting barrier traffic by `p×` while remaining bit-identical.
//!
//! # Per-network tables
//!
//! Context construction is backed by [`NetTables`], a
//! CSR-layout identifier/reverse-port table built once per
//! `(graph, config)`. Multi-phase drivers build the tables once and pass
//! them to [`run_with`]; the convenience entry points build them on the
//! fly.

mod barrier;
pub(crate) mod engine;
mod parallel;
mod sequential;
pub(crate) mod slab;

pub use parallel::ParallelRuntime;
pub use sequential::SequentialRuntime;

use crate::{Metrics, NetTables, NodeRng, Protocol, RuntimeMode, SimConfig};
use graphs::Graph;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::sync::Arc;

/// Result of a completed run: final per-node states plus metrics.
#[derive(Debug)]
pub struct RunResult<S> {
    /// Final protocol state of each node, indexed by node index.
    pub states: Vec<S>,
    /// Aggregated measurements.
    pub metrics: Metrics,
}

/// Errors aborting a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The protocol did not terminate within `max_rounds`.
    ///
    /// The watchdog fields turn a bare livelock cutoff into an actionable
    /// diagnostic for stalled large-scale runs: which pipeline phase hung,
    /// how many nodes were still working, and whether the run was making
    /// progress at all when the axe fell. "Progress" means some node
    /// changed its termination vote or some message was sent that round;
    /// a `last_progress_round` far below the limit is a livelock (e.g.
    /// fault-induced deadlock), one near the limit means the cutoff is
    /// simply too tight. All engines report bit-identical diagnostics.
    RoundLimitExceeded {
        /// The configured limit that was hit.
        limit: u64,
        /// Label of the pipeline phase that stalled
        /// ([`SimConfig::phase_label`](crate::SimConfig::phase_label);
        /// empty if the caller set none).
        phase: String,
        /// Nodes still voting [`Status::Running`](crate::Status) when the
        /// limit was hit.
        live_nodes: u64,
        /// Last round in which any node changed status or sent a message
        /// (0 if the run never progressed).
        last_progress_round: u64,
    },
    /// A message exceeded the bandwidth budget while `strict_bandwidth` was
    /// set.
    Bandwidth {
        /// Round in which the violation occurred.
        round: u64,
        /// Size of the offending message.
        bits: u64,
        /// The budget it exceeded.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RoundLimitExceeded {
                limit,
                phase,
                live_nodes,
                last_progress_round,
            } => {
                let phase = if phase.is_empty() { "unnamed" } else { phase };
                write!(
                    f,
                    "protocol did not terminate within {limit} rounds \
                     (phase `{phase}`, {live_nodes} nodes still running, \
                     last progress at round {last_progress_round})"
                )
            }
            SimError::Bandwidth { round, bits, limit } => {
                write!(
                    f,
                    "message of {bits} bits exceeded the {limit}-bit budget in round {round}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Runs `protocol` on `graph` with the deterministic sequential runtime.
///
/// # Errors
///
/// Returns [`SimError`] on round-limit exhaustion, or on bandwidth
/// violations in strict mode.
pub fn run<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    config: &SimConfig,
) -> Result<RunResult<P::State>, SimError> {
    SequentialRuntime.execute(graph, protocol, config)
}

/// Runs `protocol` with the single-barrier parallel runtime on `threads`
/// worker threads (0 = number of available CPUs).
///
/// # Errors
///
/// Returns [`SimError`] on round-limit exhaustion, or on bandwidth
/// violations in strict mode.
pub fn run_parallel<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    config: &SimConfig,
    threads: usize,
) -> Result<RunResult<P::State>, SimError> {
    ParallelRuntime::new(threads).execute(graph, protocol, config)
}

/// Runs `protocol` on the engine selected by `config.runtime` (resolving
/// [`RuntimeMode::Auto`] against the graph), reusing prebuilt
/// [`NetTables`]. This is the entry point multi-phase drivers use: the
/// tables are built once per driver and shared across all phases.
///
/// # Errors
///
/// Returns [`SimError`] on round-limit exhaustion, or on bandwidth
/// violations in strict mode.
pub fn run_with<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    config: &SimConfig,
    net: &Arc<NetTables>,
) -> Result<RunResult<P::State>, SimError> {
    match config.runtime.resolve(graph) {
        RuntimeMode::Parallel(t) => {
            ParallelRuntime::new(t).execute_with(graph, protocol, config, net)
        }
        _ => SequentialRuntime.execute_with(graph, protocol, config, net),
    }
}

/// The identifier assignment a run with `config` would use — what each
/// node sees as `ctx.ident`. Public so that phase drivers can precompute
/// schedules that depend only on information the nodes already possess
/// locally (e.g. ident-ordered turn-taking inside decomposition clusters).
/// `O(n)` — computes the permutation alone, not the full [`NetTables`]
/// (drivers holding a `Driver` should prefer its cached
/// `idents()` accessor and skip even this).
#[must_use]
pub fn assigned_idents(graph: &Graph, config: &SimConfig) -> Vec<u64> {
    crate::net::ident_assignment(graph.n(), config)
}

/// Derives the private RNG stream of node `index` for run seed `seed`.
pub(crate) fn node_rng(seed: u64, index: u32) -> NodeRng {
    // SplitMix64 mixing decorrelates adjacent node indices.
    let mut z = seed ^ (u64::from(index).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ChaCha8Rng::seed_from_u64(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdAssignment;
    use graphs::gen;

    #[test]
    fn contexts_have_unique_idents_and_correct_ports() {
        let g = gen::cycle(6);
        let cfg = SimConfig::default();
        let ctxs = NetTables::build(&g, &cfg).contexts();
        let mut ids: Vec<u64> = ctxs.iter().map(|c| c.ident).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6, "identifiers must be unique");
        for (v, c) in ctxs.iter().enumerate() {
            assert_eq!(c.degree(), 2);
            for (p, &nid) in c.neighbor_idents().iter().enumerate() {
                let u = g.neighbors(v as u32)[p];
                assert_eq!(ctxs[u as usize].ident, nid);
            }
        }
    }

    #[test]
    fn sequential_ids_are_indices() {
        let g = gen::path(4);
        let cfg = SimConfig {
            ids: IdAssignment::Sequential,
            ..SimConfig::default()
        };
        let ctxs = NetTables::build(&g, &cfg).contexts();
        assert!(ctxs.iter().enumerate().all(|(i, c)| c.ident == i as u64));
        assert_eq!(assigned_idents(&g, &cfg), vec![0, 1, 2, 3]);
    }

    #[test]
    fn reverse_ports_roundtrip() {
        let g = gen::gnp_capped(40, 0.2, 8, 1);
        let net = NetTables::build(&g, &SimConfig::default());
        for u in 0..g.n() as u32 {
            for (p, &v) in g.neighbors(u).iter().enumerate() {
                let back = net.reverse_ports_of(u)[p] as usize;
                assert_eq!(g.neighbors(v)[back], u);
            }
        }
    }

    #[test]
    fn node_rng_streams_differ() {
        use rand::RngCore;
        let a = node_rng(1, 0).next_u64();
        let b = node_rng(1, 1).next_u64();
        let a2 = node_rng(1, 0).next_u64();
        assert_ne!(a, b);
        assert_eq!(a, a2, "same (seed, index) must reproduce");
    }

    #[test]
    fn sim_error_display() {
        let e = SimError::RoundLimitExceeded {
            limit: 5,
            phase: "loc-iter(q=9)".into(),
            live_nodes: 3,
            last_progress_round: 2,
        };
        let text = e.to_string();
        assert!(text.contains('5'));
        assert!(text.contains("loc-iter(q=9)"), "{text}");
        assert!(text.contains("3 nodes"), "{text}");
        assert!(text.contains("round 2"), "{text}");
        let unnamed = SimError::RoundLimitExceeded {
            limit: 1,
            phase: String::new(),
            live_nodes: 0,
            last_progress_round: 0,
        };
        assert!(unnamed.to_string().contains("unnamed"));
        let b = SimError::Bandwidth {
            round: 1,
            bits: 99,
            limit: 64,
        };
        assert!(b.to_string().contains("99"));
    }
}
