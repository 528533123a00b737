//! The one round loop: a generic engine core shared by every runtime.
//!
//! The CONGEST model is a single abstraction — synchronous rounds,
//! bounded-bandwidth edges — and this module implements it exactly once.
//! [`drive`] owns everything the runtimes used to triplicate: active-set
//! scheduling (the wake frontier, `Wake::At` timer queue, sticky termination
//! votes with the crash-probe latch), fault-plane send/delivery fates,
//! sync-period batching, strict-bandwidth abort ordering, metrics
//! accounting, and structured [`SimError`] construction. What *varies*
//! between runtimes — how a shard's staged messages and votes reach the
//! other shards — is abstracted behind the [`Transport`] trait.
//!
//! # The `Transport` contract
//!
//! A transport connects one shard (a contiguous node range
//! `[start, start + local_n)`) to its peers. Payloads for nodes of the
//! same process never pass through it: the core writes them straight
//! into the receiver's slot of the process's inbox slab (the `slab`
//! module), whichever shard owns the receiver. The transport carries the
//! rest through four operations:
//!
//! * [`Transport::stage`] — queue one message for a node whose slots
//!   live in another process. Called only between barriers; in-process
//!   transports are never asked to stage anything.
//! * [`Transport::notify`] — record that this shard wrote a slot of a
//!   node another shard of the process owns, so that shard marks the
//!   slot filled (and wakes the node) for the next round.
//! * [`Transport::exchange`] — the **one synchronization point per
//!   communication round**. The transport must (a) make this shard's
//!   staged messages, arrival notices and [`RoundFlags`] visible to every
//!   peer, and order every slab write of the round before every peer's
//!   read of it, (b) hand every inbound message and arrival notice to
//!   the provided [`Inbound`], and (c) return the [`RoundFlags`] merged
//!   over **all** shards (AND of `all_done`, sums of
//!   `running`/`proj_running`, min-by-node `violation`). Every shard must
//!   observe the identical merged value — the core derives termination,
//!   strict-bandwidth aborts, and the crash-probe latch from it, and
//!   shards must take those transitions in lockstep.
//! * [`Transport::watchdog`] — called once, only on the round-limit
//!   path: globalize the diagnostics (sum of live nodes, max of
//!   last-progress rounds) for [`SimError::RoundLimitExceeded`].
//!
//! Everything else — which nodes step, what they send, how faults bite,
//! what the metrics say — is the core's business and therefore identical
//! across runtimes by construction. The differential harnesses
//! (`tests/runtime_equivalence.rs`, `tests/net_equivalence.rs`,
//! `tests/fault_equivalence.rs`) hold the three transports bit-identical
//! on every observable.
//!
//! # Why the merged flags are enough
//!
//! * **Termination.** Stepping all: unanimity is the AND over shards of
//!   the local ANDs (crashed nodes are skipped — they vote `Done`
//!   implicitly). Parking: the run ends when the summed count of
//!   non-crashed sticky-`Running` votes hits zero — exactly when the
//!   always-step reference would see unanimity (the parking contract on
//!   [`Protocol::next_wake`] makes sticky votes exact at such rounds).
//! * **Crash-probe latch.** When a scheduled crash removes the last
//!   sticky-`Running` vote, parked votes may go stale, so the engine
//!   must fall back to stepping everyone. Each shard publishes a
//!   one-round-ahead *projection* of its running count under the
//!   plane's statically-known crash/recovery events; a zero merged
//!   projection latches every shard back to the classic schedule on the
//!   same round.
//! * **Strict bandwidth.** Each shard reports its first violation in
//!   node order as `(node, bits)`; min-by-node across shards is the
//!   message the sequential sweep (which steps in index order) would
//!   have aborted on. The abort happens *after* the exchange, so every
//!   shard leaves the barrier protocol cleanly at the same round.

use super::barrier::SpinBarrier;
use super::slab::{self, InboxSlab};
use super::{node_rng, SimError};
use crate::faults::{Fate, FaultPlane};
use crate::{
    Message, Metrics, NetTables, NodeCtx, NodeRng, Outbox, Port, Protocol, SimConfig, Status, Wake,
};
use graphs::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The control word exchanged at every communication-round barrier.
///
/// Merging is associative and commutative, so transports may combine
/// contributions in any order: `all_done` by AND, `running` and
/// `proj_running` by sum, `violation` by minimum node index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoundFlags {
    /// AND of this shard's termination votes this round (crashed nodes
    /// excepted — they vote `Done` implicitly).
    pub all_done: bool,
    /// Non-crashed local nodes whose sticky communication-round vote is
    /// still [`Status::Running`].
    pub running: u64,
    /// Projection of `running` for the next round under the fault
    /// plane's scheduled crash/recovery events (0 when irrelevant).
    pub proj_running: u64,
    /// First strict-bandwidth violation this round in local node order,
    /// as `(node index, message bits)`; `None` outside strict mode.
    pub violation: Option<(u32, u64)>,
}

impl RoundFlags {
    /// Folds another shard's contribution into this one.
    pub(crate) fn absorb(&mut self, other: &RoundFlags) {
        self.all_done &= other.all_done;
        self.running += other.running;
        self.proj_running += other.proj_running;
        self.violation = match (self.violation, other.violation) {
            (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
            (a, b) => a.or(b),
        };
    }
}

/// A runtime's side of the round loop: how round flags, arrival notices
/// and messages for other processes travel between shards. See the
/// [module docs](self) for the full contract.
pub(crate) trait Transport<M> {
    /// Queues one message for a node whose slots live in another process
    /// (`dest` is a global node index, `port` the arrival port).
    fn stage(&mut self, dest: u32, port: Port, msg: M);

    /// Records that this shard wrote `slot`, an inbox slot of `dest`, a
    /// node another shard of this process owns, so that shard marks the
    /// slot filled (and wakes `dest`) for the next round.
    fn notify(&mut self, dest: u32, slot: u32);

    /// The communication-round barrier: publish `local`, the staged
    /// messages and the arrival notices, hand every inbound message and
    /// notice to `inbound`, and return the flags merged over all shards
    /// (identical everywhere).
    fn exchange(&mut self, local: RoundFlags, inbound: &mut Inbound<'_, M>) -> RoundFlags;

    /// Globalizes the round-limit diagnostics: returns
    /// `(sum of live, max of last_progress)` over all shards. Called at
    /// most once, after the last round, and only when no shard
    /// terminated or aborted — so every shard calls it together.
    fn watchdog(&mut self, live: u64, last_progress: u64) -> (u64, u64);
}

/// The trivial transport of a single shard that owns every node: nothing
/// crosses a boundary, the barrier is a no-op, the local flags are the
/// global flags. [`SequentialRuntime`](super::SequentialRuntime) is the
/// core plus this.
pub(crate) struct LocalTransport;

impl<M> Transport<M> for LocalTransport {
    fn stage(&mut self, dest: u32, _port: Port, _msg: M) {
        unreachable!("single-shard transport asked to stage a message for node {dest}");
    }
    fn notify(&mut self, dest: u32, _slot: u32) {
        unreachable!("single-shard transport asked to notify node {dest}");
    }
    fn exchange(&mut self, local: RoundFlags, _inbound: &mut Inbound<'_, M>) -> RoundFlags {
        local
    }
    fn watchdog(&mut self, live: u64, last_progress: u64) -> (u64, u64) {
        (live, last_progress)
    }
}

/// One shard's slice of the deterministic world, indexed so that local
/// node `i` is global node `start + i`. The caller builds (and keeps) the
/// slices — runtimes that must return full-length state vectors
/// (sequential, netplane) pass sub-slices of them.
pub(crate) struct ShardWorld<'a, P: Protocol> {
    /// Global index of local node 0.
    pub start: usize,
    /// Contexts of the owned nodes (global `index`/`ident` preserved).
    pub ctxs: &'a mut [NodeCtx],
    /// States of the owned nodes.
    pub states: &'a mut [P::State],
    /// RNG streams of the owned nodes.
    pub rngs: &'a mut [NodeRng],
    /// The inbox slots of (at least) the owned nodes, shared with the
    /// other shards of this process.
    pub slab: &'a InboxSlab<P::Msg>,
    /// The run's fault schedule, if any — a pure function of
    /// `(config, salt, n)`, so every shard holds the identical trace.
    pub plane: Option<&'a FaultPlane>,
}

/// Derives the per-node `(rng, state)` world for the contexts of one
/// shard, where `ctxs[i]` is global node `start + i`. RNG streams depend
/// only on `(seed, global index)`, so shards of any partition build the
/// same world rows.
pub(crate) fn init_nodes<P: Protocol>(
    protocol: &P,
    config: &SimConfig,
    ctxs: &[NodeCtx],
    start: usize,
) -> (Vec<NodeRng>, Vec<P::State>) {
    let mut rngs: Vec<NodeRng> = (0..ctxs.len())
        .map(|i| node_rng(config.rng_seed(), (start + i) as u32))
        .collect();
    let states = ctxs
        .iter()
        .zip(rngs.iter_mut())
        .map(|(c, r)| protocol.init(c, r))
        .collect();
    (rngs, states)
}

/// The aggregated per-communication-round bandwidth budget: a protocol
/// declaring [`Protocol::sync_period`] `p` may pack `p` rounds' worth of
/// per-edge bandwidth into each communication-round message.
pub(crate) fn round_budget(config: &SimConfig, n: usize, period: u64) -> u64 {
    config.bandwidth_bits(n).saturating_mul(period)
}

/// What a transport hands the core at the barrier: messages from other
/// processes, and the owned nodes whose slots a peer shard of this
/// process wrote.
pub(crate) struct Inbound<'a, M> {
    slab: &'a InboxSlab<M>,
    /// The generation this communication round writes.
    gen: usize,
    /// Global index of local node 0.
    start: usize,
    /// The round the deliveries land in.
    round: u64,
    /// The shard's mail marks (see `drive`).
    mail: &'a mut [u8],
    /// Under active-set scheduling, the wake stamps and the next round's
    /// frontier.
    wakes: Option<(&'a mut [u64], &'a mut Vec<u32>)>,
}

impl<M> Inbound<'_, M> {
    /// A message for the owned node `dest` from another process.
    ///
    /// # Panics
    ///
    /// Panics if this shard does not own `dest` or `dest` has no `port`:
    /// a malformed frame from a peer.
    pub(crate) fn message(&mut self, dest: u32, port: Port, msg: M) {
        let edge = self
            .slab
            .edge(dest as usize, port)
            .unwrap_or_else(|| panic!("inbound message for node {dest}, port {port}: not ours"));
        let copy = self.slab.free_copy(self.gen, edge);
        let slot = self.slab.put(self.gen, edge, port, copy, msg);
        self.arrived(dest, slot);
    }

    /// A peer shard wrote `slot` of the owned node `dest`: mark it filled
    /// and wake `dest`.
    pub(crate) fn arrived(&mut self, dest: u32, slot: u32) {
        self.slab.mark(slot);
        let i = dest as usize - self.start;
        self.mail[i] |= 1 << self.gen;
        if let Some((stamp, queue)) = &mut self.wakes {
            wake(stamp, queue, i, self.round);
        }
    }
}

/// The inbox slab for the nodes `nodes` of a run under `config`: two
/// slots per port when its fault plane duplicates (every port can carry
/// the original plus one injected copy — see
/// [`Fate::Duplicate`]), else one.
pub(crate) fn inbox_slab<M>(
    net: &Arc<NetTables>,
    nodes: std::ops::Range<usize>,
    config: &SimConfig,
) -> InboxSlab<M> {
    let dups = config
        .faults
        .as_ref()
        .is_some_and(|f| f.dup_per_million > 0);
    InboxSlab::new(net, nodes, dups)
}

/// How one round's step set is traversed under active-set scheduling.
enum Sweep {
    /// Step every local node (always-step reference, or a latched probe).
    All,
    /// Step the sorted sparse frontier.
    Sparse,
    /// Scan all local indices against the frontier membership flags —
    /// preserves index order without sorting when the frontier is a
    /// large fraction of the shard.
    Dense,
}

/// Marks local node `i` as scheduled for round `t`, deduplicating via the
/// stamp array (`stamp[i] == t` ⇔ already queued for `t`).
#[inline]
fn wake(stamp: &mut [u64], queue: &mut Vec<u32>, i: usize, t: u64) {
    if stamp[i] != t {
        stamp[i] = t;
        queue.push(i as u32);
    }
}

/// The `Wake::At` timers of one shard's nodes: a min-heap of
/// `(target round, local index)` entries plus two words per node.
///
/// `live[i]` is node `i`'s pending target (`u64::MAX` when none). An entry
/// wakes its node only if it still matches `live` when popped, so a
/// cancelled or superseded request is skipped. `queued[i]` is the target
/// of the node's most recently pushed entry, and a request for that same
/// target pushes nothing: entries pop exactly at their round and every
/// request lies in the future, so that entry is still in the heap. A node
/// that re-parks at one target on every message wake therefore holds one
/// entry, not one per wake.
struct WakeTimers {
    heap: BinaryHeap<(Reverse<u64>, u32)>,
    live: Vec<u64>,
    queued: Vec<u64>,
}

impl WakeTimers {
    const NONE: u64 = u64::MAX;

    fn new(local_n: usize) -> Self {
        WakeTimers {
            heap: BinaryHeap::new(),
            live: vec![Self::NONE; local_n],
            queued: vec![Self::NONE; local_n],
        }
    }

    /// Drops node `i`'s pending request; its entry stays queued and is
    /// skipped when popped.
    #[inline]
    fn cancel(&mut self, i: usize) {
        self.live[i] = Self::NONE;
    }

    /// Schedules node `i` for round `t`, which must lie after the current
    /// round. O(1) and no push when `t` is the target already queued.
    #[inline]
    fn request(&mut self, i: usize, t: u64) {
        self.live[i] = t;
        if self.queued[i] != t {
            self.queued[i] = t;
            self.heap.push((Reverse(t), i as u32));
        }
    }

    /// Pops every entry due by `round` and calls `wake` once for each node
    /// whose live request matures now.
    fn pop_due(&mut self, round: u64, mut wake: impl FnMut(usize)) {
        while let Some(&(Reverse(t), i)) = self.heap.peek() {
            if t > round {
                break;
            }
            self.heap.pop();
            let i = i as usize;
            if t == round && self.live[i] == t {
                self.live[i] = Self::NONE;
                wake(i);
            }
        }
    }
}

/// Runs `protocol` on this shard's slice of `graph` to global
/// termination, synchronizing through `transport` once per communication
/// round. Returns the shard's **local** metrics (`rounds` set to the
/// global count, `bandwidth_bits` to the budget); the caller merges
/// across shards. Errors are constructed from globally-merged flags, so
/// every shard returns the identical [`SimError`].
///
/// The caller must handle `n == 0` itself (an empty graph has no round 0
/// to terminate at) and must pass a non-empty graph here.
///
/// # Panics
///
/// Panics if the protocol stages a message in a round its declared
/// [`Protocol::sync_period`] marks silent — a protocol bug, like a
/// duplicate send on a port.
#[allow(clippy::too_many_lines)]
pub(crate) fn drive<P: Protocol, T: Transport<P::Msg>>(
    graph: &Graph,
    protocol: &P,
    config: &SimConfig,
    net: &NetTables,
    world: ShardWorld<'_, P>,
    transport: &mut T,
) -> Result<Metrics, SimError> {
    let n = graph.n();
    let ShardWorld {
        start,
        ctxs,
        states,
        rngs,
        slab,
        plane,
    } = world;
    let local_n = ctxs.len();
    let local = start..start + local_n;
    let period = protocol.sync_period().max(1);
    let budget = round_budget(config, n, period);
    let mut metrics = Metrics {
        bandwidth_bits: budget,
        ..Metrics::default()
    };

    // Completed communication rounds. The slab generation a
    // communication round writes is `sync % 2`, and every round reads
    // the one the last communication round wrote (see `slab`).
    let mut sync: u64 = 0;
    // Mail marks: bit `g` of `mail[i]` is set iff local node `i` has
    // filled slots in generation `g`. Only this shard touches them, and
    // they fit in cache where the slab's presence bytes do not, so a node
    // without mail steps without reading the slab.
    let mut mail: Vec<u8> = vec![0; local_n];
    // The stepped node's messages, moved out of its slots: one buffer for
    // every step, so they are read from cache rather than from the slab
    // (sized for two copies per port under a duplicating fault plane).
    let mut received: Vec<(Port, P::Msg)> = Vec::with_capacity(2 * graph.max_degree());
    let mut out: Outbox<P::Msg> = Outbox::new(0);

    let has_crashes = plane.is_some_and(FaultPlane::has_crashes);
    // One rule for every transport: `Scheduling::effective` gates the
    // frontier identically on all shards, and all later transitions (the
    // probe latch) are driven by the merged flags, so shards always
    // agree on the mode.
    let mut active = config.scheduling.effective(has_crashes, period);

    // Sticky votes: each local node's latest communication-round vote.
    // While a node is parked its sticky vote stands in for it (the
    // parking contract on `Protocol::next_wake` makes that exact), so a
    // zero global sum of `running` counts is exactly the round where the
    // always-step reference would see unanimity.
    let mut sticky: Vec<Status> = vec![Status::Running; local_n];
    let mut running: u64 = local_n as u64;
    let mut last_progress: u64 = 0;

    // Frontier machinery over local indices (untouched when `!active`):
    // `frontier` holds this round's wakes, `next_frontier` the next
    // round's, `stamp` deduplicates insertions, `timers` carries `Wake::At`
    // requests, and the crash/recovery event lists feed the plane's edges
    // into the running count and the wake queue.
    let mut frontier: Vec<u32> = Vec::new();
    let mut next_frontier: Vec<u32> = Vec::new();
    let mut stamp: Vec<u64> = Vec::new();
    let mut in_cur: Vec<bool> = Vec::new();
    let mut timers = WakeTimers::new(0);
    let mut crash_events: Vec<(u64, u32)> = Vec::new();
    let mut recovery_events: Vec<(u64, u32)> = Vec::new();
    let (mut ci, mut ri) = (0usize, 0usize);
    if active {
        frontier = (0..local_n as u32).collect(); // round 0 wakes everyone
        next_frontier = Vec::with_capacity(local_n);
        stamp = vec![0; local_n];
        in_cur = vec![false; local_n];
        timers = WakeTimers::new(local_n);
        if let Some(p) = plane {
            for i in 0..local_n {
                if let Some((s, e)) = p.crash_window(start + i) {
                    crash_events.push((s, i as u32));
                    if e != u64::MAX {
                        recovery_events.push((e, i as u32));
                    }
                }
            }
            crash_events.sort_unstable();
            recovery_events.sort_unstable();
        }
    }

    let mut terminated = false;
    for round in 0..config.max_rounds {
        // Communication rounds carry messages and termination votes; the
        // `period - 1` rounds in between are declared-silent local
        // computation (see `Protocol::sync_period`).
        let comm = round.is_multiple_of(period);
        if active {
            // Assemble this round's frontier: last round's wakes are
            // already in `frontier`; add matured `Wake::At` requests and
            // fault-plane crash/recovery edges.
            timers.pop_due(round, |i| wake(&mut stamp, &mut frontier, i, round));
            while ci < crash_events.len() && crash_events[ci].0 == round {
                let i = crash_events[ci].1 as usize;
                ci += 1;
                if sticky[i] == Status::Running {
                    running -= 1;
                }
            }
            while ri < recovery_events.len() && recovery_events[ri].0 == round {
                let i = recovery_events[ri].1 as usize;
                ri += 1;
                if sticky[i] == Status::Running {
                    running += 1;
                }
                wake(&mut stamp, &mut frontier, i, round);
            }
        }
        let stepping_all = !active;
        let read_gen = ((sync + 1) % 2) as usize;
        let write_gen = (sync % 2) as usize;
        let mut all_done = true;
        let mut progressed = false;
        let mut violation: Option<(u32, u64)> = None;

        let sweep = if stepping_all {
            Sweep::All
        } else if frontier.len() * 4 >= local_n {
            for &i in &frontier {
                in_cur[i as usize] = true;
            }
            Sweep::Dense
        } else {
            frontier.sort_unstable();
            Sweep::Sparse
        };
        let count = match sweep {
            Sweep::All | Sweep::Dense => local_n,
            Sweep::Sparse => frontier.len(),
        };
        for s in 0..count {
            let i = match sweep {
                Sweep::All => s,
                Sweep::Sparse => frontier[s] as usize,
                Sweep::Dense => {
                    if !in_cur[s] {
                        continue;
                    }
                    in_cur[s] = false;
                    s
                }
            };
            let v = start + i;
            if let Some(p) = plane {
                if p.is_crashed(v, round) {
                    // Crashed node: not stepped, sends nothing, votes
                    // Done implicitly (see `faults` module docs). Its
                    // crashed node-rounds are counted analytically at
                    // termination.
                    continue;
                }
            }
            ctxs[i].round = round;
            out.reset(graph.degree(v as u32));
            metrics.stepped_nodes += 1;
            if mail[i] & 1 << read_gen != 0 {
                mail[i] &= !(1 << read_gen);
                slab.take(read_gen, ctxs[i].edges(), &mut received);
            }
            let inbox = slab::inbox(&received);
            let status = protocol.round(&mut states[i], &ctxs[i], &mut rngs[i], inbox, &mut out);
            received.clear();
            all_done &= status == Status::Done;
            if comm && status != sticky[i] {
                match status {
                    Status::Done => running -= 1,
                    Status::Running => running += 1,
                }
                sticky[i] = status;
                progressed = true;
            }
            if active {
                timers.cancel(i); // a step supersedes any pending At request
                match protocol.next_wake(&states[i], &ctxs[i], status) {
                    Wake::At(t) if t > round + 1 => timers.request(i, t),
                    Wake::Next | Wake::At(_) => {
                        wake(&mut stamp, &mut next_frontier, i, round + 1);
                    }
                    Wake::Message => {}
                }
            }
            assert!(
                comm || out.is_empty(),
                "protocol declared sync_period {period} but node {v} sent in silent round {round}"
            );
            // Start fetching the destination slots other shards own before
            // writing any: their lines come from another core's cache or
            // from memory, and fetched together the misses overlap instead
            // of queueing behind each other.
            let edges = ctxs[i].edges();
            for port in out.ports() {
                let dest = graph.neighbors(v as u32)[port as usize] as usize;
                if slab.holds(dest) && !local.contains(&dest) {
                    slab.prefetch(write_gen, net.reverse_edge(edges.start + port as usize));
                }
            }
            for (port, msg) in out.drain() {
                progressed = true;
                let bits = msg.bits();
                metrics.record_message(bits, budget);
                if config.strict_bandwidth && bits > budget && violation.is_none() {
                    // First violation in local node order; the exchange
                    // min-merges across shards to the globally first.
                    violation = Some((v as u32, bits));
                }
                let copies = match plane.map_or(Fate::Deliver, |p| p.fate(round, v as u32, port)) {
                    Fate::Drop => {
                        metrics.faults_dropped += 1;
                        0
                    }
                    Fate::Deliver => 1,
                    Fate::Duplicate => {
                        metrics.faults_duplicated += 1;
                        2
                    }
                };
                if copies == 0 {
                    continue;
                }
                let dest = graph.neighbors(v as u32)[port as usize] as usize;
                // Delivery lands at round + 1; a receiver crashed then
                // loses the message (and any duplicate of it). Charged
                // at the sender — the plane is shared knowledge.
                if plane.is_some_and(|p| p.is_crashed(dest, round + 1)) {
                    metrics.crash_drops += 1;
                    continue;
                }
                let arrival = net.reverse_ports_of(v as u32)[port as usize];
                if slab.holds(dest) {
                    // In this process: straight into the receiver's slot,
                    // which the receiver's owner marks filled — here, or
                    // from the arrival notice at the barrier.
                    let edge = net.reverse_edge(edges.start + port as usize);
                    let dup = (copies == 2).then(|| msg.clone());
                    let slots = [
                        Some(slab.put(write_gen, edge, arrival, 0, msg)),
                        dup.map(|m| slab.put(write_gen, edge, arrival, 1, m)),
                    ];
                    if local.contains(&dest) {
                        slots.into_iter().flatten().for_each(|j| slab.mark(j));
                        mail[dest - start] |= 1 << write_gen;
                        // Message arrivals always wake their destination.
                        if active {
                            wake(&mut stamp, &mut next_frontier, dest - start, round + 1);
                        }
                    } else {
                        for j in slots.into_iter().flatten() {
                            transport.notify(dest as u32, j);
                        }
                    }
                } else {
                    if copies == 2 {
                        transport.stage(dest as u32, arrival, msg.clone());
                    }
                    transport.stage(dest as u32, arrival, msg);
                }
            }
        }
        if progressed {
            last_progress = round;
        }
        metrics.rounds = round + 1;

        if !comm {
            // Silent round: no messages in flight anywhere, so just
            // rotate the frontier and move on — no exchange. The slab
            // generation stays: the next round reads the same one, which
            // this round's steps emptied.
            if active {
                std::mem::swap(&mut frontier, &mut next_frontier);
                next_frontier.clear();
            }
            continue;
        }

        // Project this shard's running count at round + 1 by peeking the
        // event cursors without advancing them — the top of round + 1
        // will consume the same events for real. A zero *merged*
        // projection is the only way every shard can latch the crash
        // probe before stepping round + 1. (`active` under crashes
        // forces period == 1, so every round passes here.)
        let mut proj = 0;
        if !stepping_all && has_crashes {
            proj = running;
            let mut cj = ci;
            while cj < crash_events.len() && crash_events[cj].0 == round + 1 {
                let i = crash_events[cj].1 as usize;
                cj += 1;
                if sticky[i] == Status::Running {
                    proj -= 1;
                }
            }
            let mut rj = ri;
            while rj < recovery_events.len() && recovery_events[rj].0 == round + 1 {
                let i = recovery_events[rj].1 as usize;
                rj += 1;
                if sticky[i] == Status::Running {
                    proj += 1;
                }
            }
        }

        // The barrier: publish, take inbound messages and arrival notices
        // (this is where peer shards' arrivals become filled slots and
        // join the local frontier), and merge the flags.
        let merged = transport.exchange(
            RoundFlags {
                all_done,
                running,
                proj_running: proj,
                violation,
            },
            &mut Inbound {
                slab,
                gen: write_gen,
                start,
                round: round + 1,
                mail: &mut mail,
                wakes: active.then_some((&mut stamp[..], &mut next_frontier)),
            },
        );
        sync += 1;
        if active {
            std::mem::swap(&mut frontier, &mut next_frontier);
            next_frontier.clear();
        }
        if let Some((_, bits)) = merged.violation {
            // Globally-first violating message: lowest node index across
            // shards this round — the message a single index-ordered
            // sweep would have aborted at. Post-exchange, so every shard
            // leaves the barrier protocol cleanly with this same error.
            return Err(SimError::Bandwidth {
                round,
                bits,
                limit: budget,
            });
        }
        if if stepping_all {
            merged.all_done
        } else {
            // Zero sticky-Running votes globally ⇔ the always-step
            // reference would see unanimity.
            merged.running == 0
        } {
            terminated = true;
            break;
        }
        // A zero projected running count for round + 1 can only come
        // from crash events there: a crash is about to remove the last
        // Running vote, after which a parked node's sticky vote may
        // disagree with what it would vote in any given round (the
        // contract only pins votes at rounds where unanimity is
        // otherwise possible). Latch a probe — step every node every
        // round with the classic unanimity check, permanently — in
        // lockstep across shards.
        if !stepping_all && has_crashes && merged.proj_running == 0 {
            active = false;
        }
    }
    if terminated {
        // Crashed node-rounds, analytically: the engine never scans
        // crashed nodes, so count each local crash window's overlap with
        // the rounds actually executed (every shard broke at the same
        // round, so `metrics.rounds` is the global count here).
        if let Some(p) = plane {
            let r = metrics.rounds;
            for i in 0..local_n {
                if let Some((s, e)) = p.crash_window(start + i) {
                    metrics.crashed_rounds += e.min(r) - s.min(r);
                }
            }
        }
        return Ok(metrics);
    }
    // Live nodes: still voting Running per their latest (sticky)
    // communication-round vote, excluding nodes the plane had crashed
    // when the limit hit — crashed nodes vote Done implicitly and must
    // not be reported as live work.
    let last = config.max_rounds.saturating_sub(1);
    let live = (0..local_n)
        .filter(|&i| {
            sticky[i] == Status::Running && !plane.is_some_and(|p| p.is_crashed(start + i, last))
        })
        .count() as u64;
    let (live_nodes, last_progress_round) = transport.watchdog(live, last_progress);
    Err(SimError::RoundLimitExceeded {
        limit: config.max_rounds,
        phase: config.phase_label.clone(),
        live_nodes,
        last_progress_round,
    })
}

/// Shared flag slots of the in-process parallel transport, rotated over
/// three sync epochs with the same discipline as the mailbox parities:
/// written in phase A (before the barrier), read in phase B (after), and
/// reset by shard 0 two syncs later — the earliest point at which the
/// barrier ordering proves no reader or writer can still touch the slot.
/// (An unrotated slot would let a shard observe a value published one
/// sync in the future and break early, deserting its peers at the next
/// barrier.)
pub(crate) struct SharedFlags {
    /// AND of `all_done`: initialized `true`, cleared by any shard whose
    /// local AND is false.
    done: [AtomicBool; 3],
    /// Sum of sticky-Running counts.
    running: [AtomicU64; 3],
    /// Sum of next-round running projections.
    proj: [AtomicU64; 3],
    /// Min-by-node strict-bandwidth violation. A mutex, not an atomic:
    /// touched only in strict mode, where violations abort the run.
    violation: [Mutex<Option<(u32, u64)>>; 3],
    /// Round-limit diagnostics, written once per shard on that path.
    live_total: AtomicU64,
    progress_max: AtomicU64,
}

impl SharedFlags {
    pub(crate) fn new() -> Self {
        SharedFlags {
            done: [
                AtomicBool::new(true),
                AtomicBool::new(true),
                AtomicBool::new(true),
            ],
            running: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            proj: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            violation: [Mutex::new(None), Mutex::new(None), Mutex::new(None)],
            live_total: AtomicU64::new(0),
            progress_max: AtomicU64::new(0),
        }
    }
}

/// One direction of one shard pair: the arrival notices of the source
/// shard for the destination shard — `(node, slot)` for every slab slot
/// of the destination's nodes it wrote (the payloads are already in the
/// slots) — in two parity buffers, each with the epoch stamp of its most
/// recent non-empty publish.
///
/// The stamp is per *parity buffer*, not per cell: a consumer's phase B
/// of sync `k` runs concurrently with the producer's phase A of sync
/// `k + 1`, so a shared stamp could be overwritten (to `k + 2`) before
/// the consumer compares it against `k + 1` — silently skipping a full
/// batch.
pub(crate) struct MailCell {
    arrivals: [Mutex<Vec<(u32, u32)>>; 2],
    epochs: [AtomicU64; 2],
}

impl MailCell {
    pub(crate) fn new() -> Self {
        MailCell {
            arrivals: [Mutex::new(Vec::new()), Mutex::new(Vec::new())],
            epochs: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

/// The in-process parallel transport: one worker thread per shard, a
/// shared [`InboxSlab`] for the payloads, parity-double-buffered arrival
/// notice cells, a spin barrier as the sync point, and epoch-rotated
/// [`SharedFlags`] for the control word (see `parallel.rs` for the
/// single-barrier protocol argument).
pub(crate) struct MailboxTransport<'a> {
    shard: usize,
    threads: usize,
    chunk: usize,
    strict: bool,
    /// Completed synchronizations; drives the cell parity and slot
    /// rotation. Equals the round number while `sync_period == 1`.
    sync: u64,
    /// Private arrival list per destination shard, reused (and
    /// capacity-recycled via the publish swap) every sync.
    arrivals: Vec<Vec<(u32, u32)>>,
    mailboxes: &'a [Vec<MailCell>],
    barrier: &'a SpinBarrier,
    flags: &'a SharedFlags,
}

impl<'a> MailboxTransport<'a> {
    pub(crate) fn new(
        shard: usize,
        threads: usize,
        chunk: usize,
        strict: bool,
        mailboxes: &'a [Vec<MailCell>],
        barrier: &'a SpinBarrier,
        flags: &'a SharedFlags,
    ) -> Self {
        MailboxTransport {
            shard,
            threads,
            chunk,
            strict,
            sync: 0,
            arrivals: (0..threads).map(|_| Vec::new()).collect(),
            mailboxes,
            barrier,
            flags,
        }
    }
}

impl<M> Transport<M> for MailboxTransport<'_> {
    fn stage(&mut self, dest: u32, _port: Port, _msg: M) {
        unreachable!("node {dest} is in this process's slab; nothing is staged");
    }

    fn notify(&mut self, dest: u32, slot: u32) {
        let ds = (dest as usize / self.chunk).min(self.threads - 1);
        debug_assert_ne!(ds, self.shard, "local arrival routed through notify");
        self.arrivals[ds].push((dest, slot));
    }

    fn exchange(&mut self, local: RoundFlags, inbound: &mut Inbound<'_, M>) -> RoundFlags {
        let parity = (self.sync % 2) as usize;
        let slot = (self.sync % 3) as usize;
        // ---- Phase A: publish this sync's arrivals — swap each non-empty
        // private list into its parity cell (taking back the list
        // drained two syncs ago) and stamp the cell's epoch so consumers
        // can skip empty cells with one atomic load — then the flags.
        for (ds, buf) in self.arrivals.iter_mut().enumerate() {
            if ds != self.shard && !buf.is_empty() {
                let cell = &self.mailboxes[self.shard][ds];
                {
                    let mut cell_buf = cell.arrivals[parity].lock().expect("no poisoned lock");
                    debug_assert!(cell_buf.is_empty(), "cell drained two syncs ago");
                    std::mem::swap(&mut *cell_buf, buf);
                }
                cell.epochs[parity].store(self.sync + 1, Ordering::SeqCst);
            }
        }
        if !local.all_done {
            self.flags.done[slot].store(false, Ordering::SeqCst);
        }
        self.flags.running[slot].fetch_add(local.running, Ordering::SeqCst);
        self.flags.proj[slot].fetch_add(local.proj_running, Ordering::SeqCst);
        if let Some(v) = local.violation {
            let mut g = self.flags.violation[slot].lock().expect("no poisoned lock");
            if g.is_none_or(|cur| v.0 < cur.0) {
                *g = Some(v);
            }
        }

        self.barrier.wait();

        // ---- Phase B: drain the inbound arrival column, read the merged
        // flags.
        for row in self.mailboxes {
            let cell = &row[self.shard];
            if cell.epochs[parity].load(Ordering::SeqCst) == self.sync + 1 {
                let mut cell_buf = cell.arrivals[parity].lock().expect("no poisoned lock");
                for (dest, slot) in cell_buf.drain(..) {
                    inbound.arrived(dest, slot);
                }
            }
        }
        let merged = RoundFlags {
            all_done: self.flags.done[slot].load(Ordering::SeqCst),
            running: self.flags.running[slot].load(Ordering::SeqCst),
            proj_running: self.flags.proj[slot].load(Ordering::SeqCst),
            violation: if self.strict {
                *self.flags.violation[slot].lock().expect("no poisoned lock")
            } else {
                None
            },
        };
        if self.shard == 0 {
            // Reset the slots for sync + 2: their last readers finished
            // in phase B of sync - 1, which happens-before this phase B;
            // their next writers start in phase A of sync + 2, which
            // happens-after (see `parallel.rs`).
            let reset = ((self.sync + 2) % 3) as usize;
            self.flags.done[reset].store(true, Ordering::SeqCst);
            self.flags.running[reset].store(0, Ordering::SeqCst);
            self.flags.proj[reset].store(0, Ordering::SeqCst);
            if self.strict {
                *self.flags.violation[reset]
                    .lock()
                    .expect("no poisoned lock") = None;
            }
        }
        self.sync += 1;
        merged
    }

    fn watchdog(&mut self, live: u64, last_progress: u64) -> (u64, u64) {
        // Every shard reaches the round limit together (no shard saw a
        // terminate/abort flag — those are merged, hence unanimous), so
        // one extra barrier separates all contributions from all reads.
        self.flags.live_total.fetch_add(live, Ordering::SeqCst);
        self.flags
            .progress_max
            .fetch_max(last_progress, Ordering::SeqCst);
        self.barrier.wait();
        (
            self.flags.live_total.load(Ordering::SeqCst),
            self.flags.progress_max.load(Ordering::SeqCst),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The nodes `timers` wakes at `round`, in pop order.
    fn due(timers: &mut WakeTimers, round: u64) -> Vec<usize> {
        let mut woken = Vec::new();
        timers.pop_due(round, |i| woken.push(i));
        woken
    }

    #[test]
    fn re_requesting_the_queued_target_adds_no_entry() {
        let mut timers = WakeTimers::new(2);
        for _ in 0..1000 {
            timers.cancel(1);
            timers.request(1, 9);
        }
        assert_eq!(timers.heap.len(), 1);
        assert!(due(&mut timers, 8).is_empty());
        assert_eq!(due(&mut timers, 9), vec![1]);
        assert!(timers.heap.is_empty());
    }

    #[test]
    fn cancel_then_same_target_wakes_once_without_a_new_entry() {
        let mut timers = WakeTimers::new(1);
        timers.request(0, 6);
        // A message-woken step answering `Wake::Next`/`Wake::Message`.
        timers.cancel(0);
        assert_eq!(timers.heap.len(), 1);
        timers.request(0, 6);
        assert_eq!(timers.heap.len(), 1);
        assert_eq!(due(&mut timers, 6), vec![0]);
    }

    #[test]
    fn cancelled_request_does_not_wake() {
        let mut timers = WakeTimers::new(1);
        timers.request(0, 4);
        timers.cancel(0);
        assert!(due(&mut timers, 4).is_empty());
        assert!(timers.heap.is_empty());
    }

    #[test]
    fn changed_target_supersedes_the_old_entry() {
        let mut timers = WakeTimers::new(3);
        timers.request(2, 5);
        timers.cancel(2);
        timers.request(2, 8);
        assert_eq!(timers.heap.len(), 2);
        assert!(due(&mut timers, 5).is_empty(), "superseded entry skipped");
        assert_eq!(timers.heap.len(), 1);
        assert_eq!(due(&mut timers, 8), vec![2]);
    }

    #[test]
    fn duplicate_entries_wake_a_node_once() {
        let mut timers = WakeTimers::new(2);
        // 5 → 7 → 5 leaves two entries for round 5 (and one for 7).
        timers.request(0, 5);
        timers.request(0, 7);
        timers.request(0, 5);
        timers.request(1, 5);
        assert_eq!(timers.heap.len(), 4);
        let mut woken = due(&mut timers, 5);
        woken.sort_unstable();
        assert_eq!(woken, vec![0, 1]);
        assert!(due(&mut timers, 7).is_empty(), "7 was superseded by 5");
        assert!(timers.heap.is_empty());
    }

    #[test]
    fn round_flags_merge_is_and_sum_min() {
        let mut a = RoundFlags {
            all_done: true,
            running: 3,
            proj_running: 1,
            violation: Some((7, 100)),
        };
        a.absorb(&RoundFlags {
            all_done: false,
            running: 2,
            proj_running: 0,
            violation: Some((4, 200)),
        });
        assert_eq!(
            a,
            RoundFlags {
                all_done: false,
                running: 5,
                proj_running: 1,
                violation: Some((4, 200)),
            }
        );
        // None never displaces a violation; ties keep the first.
        a.absorb(&RoundFlags {
            all_done: true,
            running: 0,
            proj_running: 0,
            violation: None,
        });
        assert_eq!(a.violation, Some((4, 200)));
        a.absorb(&RoundFlags {
            all_done: true,
            running: 0,
            proj_running: 0,
            violation: Some((4, 999)),
        });
        assert_eq!(a.violation, Some((4, 200)));
    }
}
