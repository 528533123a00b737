//! The differential runtime harness (grown out of experiment E12): the
//! sequential reference, the single-barrier parallel runtime at several
//! shard counts, and the auto-selecting mode must be **observationally
//! identical** — bit-identical final colorings, rounds, message counts and
//! bit totals, and identical error values — across a seeded sweep of graph
//! families and both full coloring pipelines (deterministic Theorem 1.2
//! and randomized Theorem 1.1).
//!
//! Thread counts default to {2, 4, 8}; the `D2_THREADS` environment
//! variable pins a single count so CI can matrix the suite over
//! `--threads {1, 4}` without recompiling.

use d2color::prelude::*;
use graphs::D2View;

/// Parallel shard counts under differential test. `D2_THREADS=t` replaces
/// the default sweep with `{t}` (the CI matrix sets 1 and 4).
fn thread_counts() -> Vec<usize> {
    match std::env::var("D2_THREADS") {
        Ok(s) => vec![s.parse().expect("D2_THREADS must be a thread count")],
        Err(_) => vec![2, 4, 8],
    }
}

/// One seeded round of the family sweep: uncapped G(n,p), capped G(n,p),
/// cycle, star, and a disconnected union of heterogeneous components
/// (including isolated nodes — the termination-detection stress case).
fn families(seed: u64) -> Vec<(String, Graph)> {
    vec![
        ("gnp".into(), graphs::gen::gnp(44, 0.09, seed)),
        (
            "gnp-capped".into(),
            graphs::gen::gnp_capped(130, 0.05, 7, seed),
        ),
        ("cycle".into(), graphs::gen::cycle(48 + seed as usize)),
        ("star".into(), graphs::gen::star(21)),
        (
            "disconnected".into(),
            graphs::gen::disjoint_union(&[
                graphs::gen::gnp_capped(36, 0.09, 5, seed + 1),
                graphs::gen::cycle(15),
                graphs::gen::star(7),
                graphs::gen::empty(5),
            ]),
        ),
    ]
}

fn assert_identical(
    name: &str,
    runtime: &str,
    reference: &ColoringOutcome,
    candidate: &ColoringOutcome,
) {
    assert_eq!(
        reference.colors, candidate.colors,
        "{name}/{runtime}: colorings diverged"
    );
    assert_eq!(
        reference.metrics.rounds, candidate.metrics.rounds,
        "{name}/{runtime}: rounds diverged"
    );
    assert_eq!(
        reference.metrics.messages, candidate.metrics.messages,
        "{name}/{runtime}: message counts diverged"
    );
    assert_eq!(
        reference.metrics.total_bits, candidate.metrics.total_bits,
        "{name}/{runtime}: bit totals diverged"
    );
}

/// The headline sweep: every runtime × family × seed × pipeline cell is
/// bit-identical to the sequential reference.
#[test]
fn differential_sweep_det_and_rand_pipelines() {
    let params = Params::practical();
    for seed in [3u64, 17] {
        for (name, g) in families(seed) {
            let view = D2View::build(&g);
            let seq_cfg = SimConfig::seeded(seed);
            let det_seq = d2core::det::small::run(&g, &params, &seq_cfg).expect("det seq");
            let rand_seq = d2core::rand::driver::improved(&g, &params, &seq_cfg).expect("rand seq");
            assert!(
                graphs::verify::is_valid_d2_coloring_with(&view, &det_seq.colors),
                "{name}: det reference invalid"
            );
            assert!(
                graphs::verify::is_valid_d2_coloring_with(&view, &rand_seq.colors),
                "{name}: rand reference invalid"
            );
            for t in thread_counts() {
                let cfg = SimConfig::seeded(seed).with_threads(Some(t));
                let det_par = d2core::det::small::run(&g, &params, &cfg).expect("det par");
                assert_identical(&name, &format!("parallel-{t}/det"), &det_seq, &det_par);
                let rand_par = d2core::rand::driver::improved(&g, &params, &cfg).expect("rand par");
                assert_identical(&name, &format!("parallel-{t}/rand"), &rand_seq, &rand_par);
            }
            let auto_cfg = SimConfig::seeded(seed).auto(4);
            let det_auto = d2core::det::small::run(&g, &params, &auto_cfg).expect("det auto");
            assert_identical(&name, "auto/det", &det_seq, &det_auto);
            let rand_auto =
                d2core::rand::driver::improved(&g, &params, &auto_cfg).expect("rand auto");
            assert_identical(&name, "auto/rand", &rand_seq, &rand_auto);
        }
    }
}

/// Active-set scheduling against the always-step reference: for every
/// family × pipeline cell, parking must change *nothing observable* —
/// same colorings, same rounds/messages/bits/fault counters — while
/// `stepped_nodes` (the one metric the refactor exists to shrink) may
/// only go down. Sequential and parallel active-set runs are both held
/// against the sequential always-step reference.
#[test]
fn active_set_matches_always_step_reference() {
    use congest::Scheduling;
    let params = Params::practical();
    for (name, g) in families(13) {
        let ref_cfg = SimConfig::seeded(13).with_scheduling(Scheduling::AlwaysStep);
        let act_cfg = SimConfig::seeded(13);
        let det_ref = d2core::det::small::run(&g, &params, &ref_cfg).expect("det ref");
        let rand_ref = d2core::rand::driver::improved(&g, &params, &ref_cfg).expect("rand ref");
        let mut cells = vec![
            (
                "det/seq",
                det_ref.clone(),
                d2core::det::small::run(&g, &params, &act_cfg).expect("det act"),
            ),
            (
                "rand/seq",
                rand_ref.clone(),
                d2core::rand::driver::improved(&g, &params, &act_cfg).expect("rand act"),
            ),
        ];
        for t in thread_counts() {
            let cfg = act_cfg.clone().with_threads(Some(t));
            cells.push((
                "det/par",
                det_ref.clone(),
                d2core::det::small::run(&g, &params, &cfg).expect("det act par"),
            ));
            cells.push((
                "rand/par",
                rand_ref.clone(),
                d2core::rand::driver::improved(&g, &params, &cfg).expect("rand act par"),
            ));
        }
        for (label, reference, active) in &cells {
            assert_eq!(
                reference.colors, active.colors,
                "{name}/{label}: active-set changed the coloring"
            );
            assert!(
                active.metrics.stepped_nodes <= reference.metrics.stepped_nodes,
                "{name}/{label}: active-set stepped more nodes ({} > {})",
                active.metrics.stepped_nodes,
                reference.metrics.stepped_nodes
            );
            // Every other observable must be bit-identical.
            assert_eq!(
                without_steps(&reference.metrics),
                without_steps(&active.metrics),
                "{name}/{label}: metrics diverged beyond stepped_nodes"
            );
        }
    }
}

/// Families on which the stressed profile leaves live nodes for
/// LearnPalette, including a union with isolated nodes.
fn lp_families(seed: u64) -> Vec<(String, Graph)> {
    vec![
        ("gnp".into(), graphs::gen::gnp(44, 0.09, seed)),
        (
            "gnp-capped".into(),
            graphs::gen::gnp_capped(130, 0.05, 7, seed),
        ),
        ("regular".into(), graphs::gen::random_regular(90, 5, seed)),
        ("star".into(), graphs::gen::star(21)),
        (
            "disconnected".into(),
            graphs::gen::disjoint_union(&[
                graphs::gen::random_regular(70, 6, seed + 1),
                graphs::gen::star(5),
                graphs::gen::empty(4),
            ]),
        ),
    ]
}

/// The active-set engines a parking cell runs: sequential, then each of
/// [`thread_counts`].
fn active_engines(cfg: &SimConfig) -> Vec<(String, SimConfig)> {
    let mut engines = vec![("seq".to_string(), cfg.clone())];
    for t in thread_counts() {
        engines.push((format!("par-{t}"), cfg.clone().with_threads(Some(t))));
    }
    engines
}

/// `m` with `stepped_nodes` zeroed: the metrics parking must not move.
fn without_steps(m: &Metrics) -> Metrics {
    Metrics {
        stepped_nodes: 0,
        ..m.clone()
    }
}

/// LearnPalette parking against the always-step reference. The stressed
/// profile (`c0_initial_rounds = 1`) leaves live nodes after the initial
/// trials, so the phase runs; it is swept over `list_sync_period` values
/// (parking through silent rounds), families and seeds, on the sequential
/// and parallel engines. Colors, whole-run and per-phase metrics must be
/// identical but for `stepped_nodes`, and every cell must run the phase
/// and step strictly fewer of its nodes.
#[test]
fn learn_palette_parking_matches_always_step_reference() {
    use congest::Scheduling;
    for period in [1u64, 2, 4, 7] {
        let params = Params {
            c0_initial_rounds: 1.0,
            list_sync_period: period,
            ..Params::practical()
        };
        for seed in [5u64, 29] {
            for (name, g) in lp_families(seed) {
                let act_cfg = SimConfig::seeded(seed);
                let ref_cfg = act_cfg.clone().with_scheduling(Scheduling::AlwaysStep);
                let reference =
                    d2core::rand::driver::improved(&g, &params, &ref_cfg).expect("reference");
                for (engine, cfg) in active_engines(&act_cfg) {
                    let label = format!("{name}/seed{seed}/p{period}/{engine}");
                    let active = d2core::rand::driver::improved(&g, &params, &cfg).expect("active");
                    assert_eq!(reference.colors, active.colors, "{label}: colors diverged");
                    assert_eq!(
                        without_steps(&reference.metrics),
                        without_steps(&active.metrics),
                        "{label}: metrics diverged beyond stepped_nodes"
                    );
                    assert_eq!(
                        reference.phases.len(),
                        active.phases.len(),
                        "{label}: phases"
                    );
                    let mut lp_ran = false;
                    for (r, a) in reference.phases.iter().zip(&active.phases) {
                        assert_eq!(r.name, a.name, "{label}: phase order diverged");
                        assert_eq!(
                            without_steps(&r.metrics),
                            without_steps(&a.metrics),
                            "{label}/{}: phase metrics diverged beyond stepped_nodes",
                            r.name
                        );
                        let (rs, as_) = (r.metrics.stepped_nodes, a.metrics.stepped_nodes);
                        assert!(as_ <= rs, "{label}/{}: stepped {as_} > {rs}", r.name);
                        if r.name == "learn-palette" {
                            lp_ran = true;
                            assert!(as_ < rs, "{label}: learn-palette stepped {as_} of {rs}");
                        }
                    }
                    assert!(lp_ran, "{label}: learn-palette did not run");
                }
            }
        }
    }
}

/// The same parking check under drop and duplicate planes, where a run
/// may also end in an error that must match. The planes would stall or
/// trip the similarity exchange before LearnPalette starts (a drop leaves
/// a stream without its end; a duplicate breaks its strictly increasing
/// order), so these cells drive LearnPalette directly on a clean stressed
/// prefix (one trial round, exact similarity) and compare the learned
/// lists and palettes with the metrics, or the error.
#[test]
fn learn_palette_parking_matches_always_step_under_faults() {
    use congest::{FaultConfig, Scheduling};
    use d2core::rand::{learn_palette::LearnPalette, similarity::ExactSimilarity, trials};
    // Per plane: cells completed with the plane fired, completed without
    // it firing, and failed.
    let mut outcomes = [[0; 3]; 3];
    for period in [1u64, 4, 7] {
        let params = Params {
            list_sync_period: period,
            ..Params::practical()
        };
        for seed in [5u64, 29] {
            for (name, g) in lp_families(seed) {
                let clean = SimConfig::seeded(seed);
                let d = g.max_degree();
                let palette = ((d * d).min(g.n().saturating_sub(1)) + 1) as u32;
                let warm = congest::run(&g, &trials::RandomTrials::new(palette, 1), &clean)
                    .expect("warm-up trials")
                    .states;
                let budget = clean.bandwidth_bits(g.n());
                let sim = congest::run(&g, &ExactSimilarity::new(budget), &clean)
                    .expect("similarity")
                    .states
                    .into_iter()
                    .map(|s| s.knowledge)
                    .collect();
                let lp = LearnPalette::new(
                    &params,
                    &g,
                    palette,
                    budget,
                    trials::knowledge(&warm),
                    std::sync::Arc::new(sim),
                );
                let outcome = |cfg: &SimConfig| {
                    congest::run(&g, &lp, cfg).map(|res| {
                        let lists: Vec<_> = res
                            .states
                            .into_iter()
                            .map(|s| (s.live_d2, s.free_palette, s.t_v_size))
                            .collect();
                        (lists, res.metrics)
                    })
                };
                let planes = [
                    ("drop", FaultConfig::seeded(seed).with_drops(10_000)),
                    ("drop-light", FaultConfig::seeded(seed).with_drops(500)),
                    ("dup", FaultConfig::seeded(seed).with_dups(40_000)),
                ];
                for (i, (plane, faults)) in planes.into_iter().enumerate() {
                    let counts = &mut outcomes[i];
                    let act_cfg = SimConfig::seeded(seed)
                        .with_max_rounds(4_000)
                        .with_faults(faults);
                    let ref_cfg = act_cfg.clone().with_scheduling(Scheduling::AlwaysStep);
                    let reference = outcome(&ref_cfg);
                    for (engine, cfg) in active_engines(&act_cfg) {
                        let label = format!("{name}/seed{seed}/p{period}/{plane}/{engine}");
                        match (&reference, &outcome(&cfg)) {
                            (Ok((r_lists, r)), Ok((a_lists, a))) => {
                                let fired = a.faults_dropped + a.faults_duplicated > 0;
                                counts[usize::from(!fired)] += 1;
                                assert_eq!(r_lists, a_lists, "{label}: learned lists diverged");
                                assert!(a.stepped_nodes < r.stepped_nodes, "{label}: no parking");
                                assert_eq!(without_steps(r), without_steps(a), "{label}: metrics");
                            }
                            (Err(r), Err(a)) => {
                                counts[2] += 1;
                                assert_eq!(r, a, "{label}: errors diverged");
                            }
                            (r, a) => panic!(
                                "{label}: outcomes diverged: {:?} vs {:?}",
                                r.as_ref().err(),
                                a.as_ref().err()
                            ),
                        }
                    }
                }
            }
        }
    }
    // At 1% every drop cell stalls into the round-limit error, whose
    // live-node count and last-progress round must match too. At 0.05%
    // some cells still complete with drops fired, so parking is also
    // compared on finished runs that lost messages. Every duplicate cell
    // completes with the plane fired.
    let [heavy, light, dup] = outcomes;
    assert!(
        heavy[0] + heavy[1] == 0 && heavy[2] > 0,
        "1% drops: {heavy:?}"
    );
    assert!(light[0] > 0 && light[2] > 0, "0.05% drops: {light:?}");
    assert!(dup[1] + dup[2] == 0 && dup[0] > 0, "4% dups: {dup:?}");
}

/// The color-reduce wake pattern against the always-step reference: a
/// node parks at a checkpoint round with `Wake::At`, is woken by relayed
/// tokens, answers `Wake::Next` for the one round it takes to forward
/// them, then re-parks at the same target. After its checkpoint it parks
/// at a later deadline, where it votes `Done`. Final states and every
/// metric but `stepped_nodes` must be identical on the sequential and
/// parallel engines, and parking must step strictly fewer nodes.
#[test]
fn repeated_at_reparks_match_always_step_reference() {
    use congest::{Inbox, Message, NodeCtx, NodeRng, Outbox, Protocol, Scheduling, Status, Wake};

    /// A token with its remaining relay hops.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Token {
        value: u64,
        hops: u8,
    }
    impl Message for Token {
        fn bits(&self) -> u64 {
            16
        }
    }
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct RelayState {
        acc: u64,
        pending: Option<Token>,
    }
    struct Relay;
    impl Relay {
        fn checkpoint(v: u32) -> u64 {
            12 + u64::from(v % 4)
        }
        fn deadline(v: u32) -> u64 {
            40 + 3 * u64::from(v % 5)
        }
    }
    impl Protocol for Relay {
        type State = RelayState;
        type Msg = Token;
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) -> RelayState {
            RelayState {
                acc: 0,
                pending: None,
            }
        }
        fn round(
            &self,
            st: &mut RelayState,
            ctx: &NodeCtx,
            _: &mut NodeRng,
            inbox: &Inbox<Token>,
            out: &mut Outbox<Token>,
        ) -> Status {
            let (v, deg) = (ctx.index, ctx.degree());
            if deg > 0 {
                let start = (ctx.round == 0 && v % 3 == 0) || ctx.round == Self::checkpoint(v);
                let last = deg as u32 - 1;
                if start {
                    let token = Token {
                        value: u64::from(v),
                        hops: 6,
                    };
                    out.send(last, token);
                }
                // A relay that collides with this round's own token waits
                // one more round.
                let port = (st.acc % deg as u64) as u32;
                if st.pending.is_some() && !(start && port == last) {
                    out.send(port, st.pending.take().expect("checked"));
                }
            }
            for (port, t) in inbox.iter() {
                st.acc = st
                    .acc
                    .wrapping_mul(31)
                    .wrapping_add(t.value + u64::from(*port));
                if t.hops > 0 && st.pending.is_none() {
                    st.pending = Some(Token {
                        value: t.value ^ st.acc,
                        hops: t.hops - 1,
                    });
                }
            }
            if ctx.round >= Self::deadline(v) {
                Status::Done
            } else {
                Status::Running
            }
        }
        fn next_wake(&self, st: &RelayState, ctx: &NodeCtx, status: Status) -> Wake {
            let v = ctx.index;
            if st.pending.is_some() {
                Wake::Next
            } else if ctx.round < Self::checkpoint(v) {
                Wake::At(Self::checkpoint(v))
            } else if status == Status::Running {
                Wake::At(Self::deadline(v))
            } else {
                Wake::Message
            }
        }
    }

    for seed in [3u64, 17] {
        for (name, g) in families(seed) {
            let act_cfg = SimConfig::seeded(seed);
            let ref_cfg = act_cfg.clone().with_scheduling(Scheduling::AlwaysStep);
            let reference = congest::run(&g, &Relay, &ref_cfg).expect("reference");
            let mut cells = vec![(
                "seq".to_string(),
                congest::run(&g, &Relay, &act_cfg).expect("seq"),
            )];
            for t in thread_counts() {
                cells.push((
                    format!("par-{t}"),
                    congest::run_parallel(&g, &Relay, &act_cfg, t).expect("par"),
                ));
            }
            for (label, active) in &cells {
                assert_eq!(
                    reference.states, active.states,
                    "{name}/{seed}/{label}: states diverged"
                );
                assert_eq!(
                    without_steps(&reference.metrics),
                    without_steps(&active.metrics),
                    "{name}/{seed}/{label}: metrics diverged beyond stepped_nodes"
                );
                assert!(
                    active.metrics.stepped_nodes < reference.metrics.stepped_nodes,
                    "{name}/{seed}/{label}: nothing parked"
                );
            }
        }
    }
}

/// A network large enough for auto mode to resolve to the *parallel*
/// engine on a multicore host (the sweep above only exercises auto's
/// sequential resolution — those graphs are small). The policy decision is
/// asserted against an explicit core count; the engine auto would dispatch
/// to is then differentially checked at that size, and `run_with` under
/// auto must match the reference on whatever this host resolves to.
#[test]
fn auto_mode_parallel_resolution_is_bit_identical() {
    use congest::RuntimeMode;
    let g = graphs::gen::random_regular(2600, 6, 5);
    assert_eq!(
        RuntimeMode::Auto(4).resolve_for(&g, 8),
        RuntimeMode::Parallel(4),
        "workload must be heavy enough to trigger the parallel engine"
    );
    assert_eq!(
        RuntimeMode::Auto(4).resolve_for(&g, 1),
        RuntimeMode::Sequential,
        "a single-core host must stay sequential"
    );
    let proto = d2core::rand::trials::RandomTrials::new(37, 12);
    let seq = congest::run(&g, &proto, &SimConfig::seeded(8)).expect("seq");
    let par = congest::run_parallel(&g, &proto, &SimConfig::seeded(8), 4).expect("par");
    let auto = congest::run_with(
        &g,
        &proto,
        &SimConfig::seeded(8).auto(4),
        &congest::NetTables::build(&g, &SimConfig::seeded(8)),
    )
    .expect("auto");
    let a: Vec<u32> = seq.states.iter().map(|s| s.trial.color()).collect();
    for (label, res) in [("parallel-4", &par), ("auto", &auto)] {
        let b: Vec<u32> = res.states.iter().map(|s| s.trial.color()).collect();
        assert_eq!(a, b, "{label} diverged");
        assert_eq!(&seq.metrics, &res.metrics, "{label} metrics diverged");
    }
}

/// Strict-bandwidth abort: the reported error must be the first violation
/// in `(round, node)` order — the exact error the sequential runtime
/// returns — on every runtime and thread count. Violations are staggered
/// across rounds and nodes so a wrong tie-break is observable.
#[test]
fn strict_bandwidth_error_ordering_differential() {
    use congest::{Inbox, Message, NodeCtx, NodeRng, Outbox, Protocol, Status};

    /// Node `v` sends one oversized message in round `(v * 7) % 5 + 1`,
    /// with the size encoding `(round, node)` so the *identity* of the
    /// winning violation is checked, not just its existence.
    struct Staggered;
    #[derive(Debug, Clone)]
    struct Huge(u64);
    impl Message for Huge {
        fn bits(&self) -> u64 {
            (1 << 20) + self.0
        }
    }
    impl Protocol for Staggered {
        type State = ();
        type Msg = Huge;
        fn init(&self, _: &NodeCtx, _: &mut NodeRng) {}
        fn round(
            &self,
            _: &mut (),
            ctx: &NodeCtx,
            _: &mut NodeRng,
            _: &Inbox<Huge>,
            out: &mut Outbox<Huge>,
        ) -> Status {
            let fire = (u64::from(ctx.index) * 7) % 5 + 1;
            if ctx.round == fire {
                out.broadcast(Huge(ctx.round * 1000 + u64::from(ctx.index)));
            }
            if ctx.round < 8 {
                Status::Running
            } else {
                Status::Done
            }
        }
    }

    for (name, g) in families(9) {
        if g.m() == 0 {
            continue;
        }
        let cfg = SimConfig::seeded(9).strict();
        let seq_err = congest::run(&g, &Staggered, &cfg).unwrap_err();
        let SimError::Bandwidth { round, .. } = seq_err else {
            panic!("{name}: expected a bandwidth error, got {seq_err:?}");
        };
        assert!(round >= 1, "{name}: violations start at round 1");
        for t in thread_counts() {
            for repeat in 0..3 {
                let err = congest::run_parallel(&g, &Staggered, &cfg, t).unwrap_err();
                assert_eq!(
                    err, seq_err,
                    "{name}: error diverged with {t} threads (repeat {repeat})"
                );
            }
        }
        let auto_err = congest::run_with(
            &g,
            &Staggered,
            &cfg.clone().auto(4),
            &congest::NetTables::build(&g, &cfg),
        )
        .unwrap_err();
        assert_eq!(auto_err, seq_err, "{name}: auto mode error diverged");
    }
}

#[test]
fn random_trials_equivalent_across_runtimes() {
    let g = graphs::gen::gnp_capped(180, 0.05, 7, 1);
    let proto = d2core::rand::trials::RandomTrials::new(50, 15);
    let cfg = SimConfig::seeded(5);
    let seq = congest::run(&g, &proto, &cfg).expect("sequential");
    for threads in [2, 5, 16] {
        let par = congest::run_parallel(&g, &proto, &cfg, threads).expect("parallel");
        let a: Vec<u32> = seq.states.iter().map(|s| s.trial.color()).collect();
        let b: Vec<u32> = par.states.iter().map(|s| s.trial.color()).collect();
        assert_eq!(a, b, "divergence with {threads} threads");
        assert_eq!(seq.metrics, par.metrics);
    }
}

#[test]
fn full_deterministic_pipeline_equivalent_via_driver() {
    let g = graphs::gen::grid(10, 10);
    let params = Params::practical();
    let cfg = SimConfig::seeded(6);
    let seq = d2core::det::small::run(&g, &params, &cfg).expect("seq");
    // The driver runs sequentially; rebuild with a parallel driver.
    let scope = d2core::det::Scope::full_d2(&g);
    let mut driver = d2core::Driver::new(&g, cfg).parallel(4);
    let colors = d2core::det::small::pipeline(&mut driver, &scope).expect("par pipeline");
    let par = driver.finish(colors);
    assert_eq!(seq.colors, par.colors);
    assert_eq!(seq.metrics.messages, par.metrics.messages);
    assert_eq!(seq.metrics.rounds, par.metrics.rounds);
}

#[test]
fn similarity_construction_equivalent() {
    let g = graphs::gen::clique_ring(3, 7);
    let cfg = SimConfig::seeded(7);
    let proto = d2core::rand::similarity::ExactSimilarity::new(cfg.bandwidth_bits(g.n()));
    let seq = congest::run(&g, &proto, &cfg).expect("seq");
    let par = congest::run_parallel(&g, &proto, &cfg, 3).expect("par");
    for (a, b) in seq.states.iter().zip(&par.states) {
        assert_eq!(a.knowledge, b.knowledge);
    }
}

/// The similarity exchange's knowledge must be invariant under the
/// `sync_period` declaration: batching `p` rounds of list traffic into
/// one synchronization reschedules the same content, so every node's
/// pairwise H/Ĥ flags (and both engines) must agree with the classic
/// `p = 1` schedule — while the message count strictly drops.
#[test]
fn similarity_knowledge_is_sync_period_invariant() {
    let g = graphs::gen::clique_ring(3, 7);
    let cfg = SimConfig::seeded(7);
    let budget = cfg.bandwidth_bits(g.n());
    let reference = congest::run(
        &g,
        &d2core::rand::similarity::ExactSimilarity::new(budget),
        &cfg,
    )
    .expect("p=1");
    for p in [2u64, 3, 4, 8] {
        let proto = d2core::rand::similarity::ExactSimilarity::new(budget).with_period(p);
        let seq = congest::run(&g, &proto, &cfg).expect("seq");
        for t in thread_counts() {
            let par = congest::run_parallel(&g, &proto, &cfg, t).expect("par");
            assert_eq!(seq.metrics, par.metrics, "p={p} t={t} metrics diverge");
            for (a, b) in seq.states.iter().zip(&par.states) {
                assert_eq!(a.knowledge, b.knowledge, "p={p} t={t}");
            }
        }
        for (a, b) in seq.states.iter().zip(&reference.states) {
            assert_eq!(a.knowledge, b.knowledge, "p={p} changed the knowledge");
        }
        assert!(
            seq.metrics.messages < reference.metrics.messages,
            "p={p} should move fewer, bigger messages: {} vs {}",
            seq.metrics.messages,
            reference.metrics.messages
        );
    }
}

/// Full randomized pipeline under several `list_sync_period` values, with
/// a stressed warmup so every phase actually runs: each period must be
/// bit-identical across engines and produce a valid coloring.
#[test]
fn rand_pipeline_sync_period_equivalent_across_engines() {
    let g = graphs::gen::gnp_capped(140, 0.08, 6, 11);
    let view = D2View::build(&g);
    for period in [1u64, 2, 4, 7] {
        let params = Params {
            c0_initial_rounds: 1.0,
            list_sync_period: period,
            ..Params::practical()
        };
        let seq_cfg = SimConfig::seeded(23);
        let seq = d2core::rand::driver::improved(&g, &params, &seq_cfg).expect("seq");
        assert!(
            graphs::verify::is_valid_d2_coloring_with(&view, &seq.colors),
            "period {period}: invalid coloring"
        );
        for t in thread_counts() {
            let cfg = seq_cfg.clone().with_threads(Some(t));
            let par = d2core::rand::driver::improved(&g, &params, &cfg).expect("par");
            assert_eq!(seq.colors, par.colors, "period {period} t={t}");
            assert_eq!(seq.metrics, par.metrics, "period {period} t={t}");
        }
    }
}
