//! Exhaustive wire round-trips for every protocol message type.
//!
//! The netplane ships each pipeline's `Protocol::Msg` values between
//! shard processes, so every variant of every message enum must survive
//! `to_wire` → `from_wire` unchanged, and corrupt tag bytes must fail
//! with a structured [`WireError::BadTag`] naming the type.

use congest::netplane::{Wire, WireError};
use congest::SmallIds;
use d2core::baseline::RelayMsg;
use d2core::det::splitting::SplitMsg;
use d2core::det::DetMsg;
use d2core::rand::finish::FinMsg;
use d2core::rand::learn_palette::LpMsg;
use d2core::rand::reduce::ReduceMsg;
use d2core::rand::sampling::SampMsg;
use d2core::rand::similarity::{SimMsg, SimilarityKnowledge};
use d2core::TrialMsg;

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(values: Vec<T>, what: &str) {
    for v in values {
        let bytes = v.to_wire();
        let back = T::from_wire(&bytes).unwrap_or_else(|e| panic!("{what}: {v:?} failed: {e}"));
        assert_eq!(back, v, "{what} round-trip changed the value");
        // Every truncation of the encoding must fail, not mis-decode.
        for cut in 0..bytes.len() {
            assert!(
                T::from_wire(&bytes[..cut]).is_err(),
                "{what}: {v:?} decoded from a {cut}-byte truncation"
            );
        }
    }
}

fn rejects_bad_tag<T: Wire + std::fmt::Debug>(bad: u8, what: &'static str) {
    match T::from_wire(&[bad]) {
        Err(WireError::BadTag { what: w, tag }) => {
            assert_eq!(w, what);
            assert_eq!(tag, bad);
        }
        other => panic!("{what}: tag {bad} gave {other:?}, wanted BadTag"),
    }
}

#[test]
fn trial_msg_all_variants() {
    roundtrip(
        vec![
            TrialMsg::Try(0),
            TrialMsg::Try(u32::MAX),
            TrialMsg::Announce(17),
            TrialMsg::Verdict(true),
            TrialMsg::Verdict(false),
        ],
        "TrialMsg",
    );
    rejects_bad_tag::<TrialMsg>(3, "TrialMsg");
}

#[test]
fn det_msg_all_variants() {
    roundtrip(
        vec![
            DetMsg::Own(5),
            DetMsg::Batch(SmallIds::from_slice(&[])),
            DetMsg::Batch(SmallIds::from_slice(&[1, 2, 3, u32::MAX])),
            // Spills the inline capacity (16) into the heap representation.
            DetMsg::Batch(SmallIds::from_slice(&(0..40u32).collect::<Vec<_>>())),
            DetMsg::Recolor { old: 9, new: 2 },
            DetMsg::Fwd {
                old: 0,
                new: u32::MAX,
            },
        ],
        "DetMsg",
    );
    rejects_bad_tag::<DetMsg>(4, "DetMsg");
}

#[test]
fn split_msg_all_variants() {
    roundtrip(
        vec![
            SplitMsg::Turn,
            SplitMsg::Cond(0.0, -1.5),
            SplitMsg::Cond(f64::MAX, f64::MIN_POSITIVE),
            SplitMsg::Side(true),
            SplitMsg::Side(false),
        ],
        "SplitMsg",
    );
    rejects_bad_tag::<SplitMsg>(3, "SplitMsg");
}

#[test]
fn sim_msg_all_variants() {
    roundtrip(
        vec![
            SimMsg::InS,
            SimMsg::Batch(SmallIds::from_slice(&[7u32, u32::MAX])),
            SimMsg::End,
        ],
        "SimMsg",
    );
    rejects_bad_tag::<SimMsg>(3, "SimMsg");
}

/// The rand list exchanges carry `u32` identifiers, so an id batch costs
/// 4 bytes per id on the wire: one tag byte, a `u32` length, the ids.
#[test]
fn id_batches_ship_four_bytes_per_id() {
    let ids: Vec<u32> = (0..5).map(|i| i * 1000 + 7).collect();
    let sim = SimMsg::Batch(SmallIds::from_slice(&ids)).to_wire();
    let lp = LpMsg::LiveList(SmallIds::from_slice(&ids)).to_wire();
    assert_eq!(sim.len(), 1 + 4 + 4 * ids.len());
    assert_eq!(lp.len(), 1 + 4 + 4 * ids.len());
}

#[test]
fn samp_msg_all_variants() {
    roundtrip(
        vec![
            SampMsg::Slot {
                slot: 3,
                r: u64::MAX,
                b: 0,
            },
            SampMsg::MinReply {
                slot: 0,
                value: 12345,
            },
            SampMsg::Demand,
        ],
        "SampMsg",
    );
    rejects_bad_tag::<SampMsg>(3, "SampMsg");
}

#[test]
fn reduce_msg_all_variants() {
    roundtrip(
        vec![
            ReduceMsg::Samp(SampMsg::Demand),
            ReduceMsg::StartQuery,
            ReduceMsg::Query { v: u64::MAX },
            ReduceMsg::Probe { v: 1, color: 2 },
            ReduceMsg::ProbeAck {
                adj_v: true,
                color_used: false,
            },
            ReduceMsg::ForwardQuery { v: 9, slot: 4 },
            ReduceMsg::RelayQuery { v: 0 },
            ReduceMsg::CheckD2 { v: 77 },
            ReduceMsg::AdjAck(true),
            ReduceMsg::Proposal(41),
            ReduceMsg::ColorOffer(u32::MAX),
            ReduceMsg::Trial(TrialMsg::Try(6)),
            // Recursive variant, including nested recursion.
            ReduceMsg::Both(
                Box::new(ReduceMsg::AdjAck(false)),
                Box::new(ReduceMsg::Both(
                    Box::new(ReduceMsg::StartQuery),
                    Box::new(ReduceMsg::Trial(TrialMsg::Verdict(true))),
                )),
            ),
        ],
        "ReduceMsg",
    );
    rejects_bad_tag::<ReduceMsg>(13, "ReduceMsg");
}

#[test]
fn lp_msg_all_variants() {
    roundtrip(
        vec![
            LpMsg::Live,
            LpMsg::LiveList(SmallIds::from_slice(&[1u32, 2, 3, u32::MAX])),
            LpMsg::LiveEnd,
            LpMsg::Assign { i: 7 },
            LpMsg::Inform { v: 1, i: 2 },
            LpMsg::Inform2 { v: 3, i: 4 },
            LpMsg::Gossip { v: 5, color: 6 },
            LpMsg::Gossip2 { v: 7, color: 8 },
            LpMsg::ToHandler {
                v: 9,
                i: 10,
                color: 11,
            },
            LpMsg::ToHandler2 {
                v: u64::MAX,
                i: u32::MAX,
                color: 0,
            },
            LpMsg::Report {
                i: 2,
                missing: SmallIds::from_slice(&[4u32, 8, 15]),
            },
            LpMsg::ReportEnd { i: 2 },
            LpMsg::TQuery(SmallIds::from_slice(&[16u32, 23])),
            LpMsg::TQueryEnd,
            LpMsg::TReply(SmallIds::from_slice(&[42u32])),
            LpMsg::TReplyEnd,
        ],
        "LpMsg",
    );
    rejects_bad_tag::<LpMsg>(16, "LpMsg");
}

#[test]
fn fin_msg_all_variants() {
    roundtrip(
        vec![FinMsg::Trial(TrialMsg::Announce(3)), FinMsg::Fwd(u32::MAX)],
        "FinMsg",
    );
    rejects_bad_tag::<FinMsg>(2, "FinMsg");
}

#[test]
fn relay_msg_all_variants() {
    roundtrip(
        vec![RelayMsg::Trial(TrialMsg::Verdict(false)), RelayMsg::Fwd(0)],
        "RelayMsg",
    );
    rejects_bad_tag::<RelayMsg>(2, "RelayMsg");
}

#[test]
fn similarity_knowledge_roundtrips() {
    let mut k = SimilarityKnowledge::empty(70); // two words per row
    k.set_pair(0, 1, true, false);
    k.set_pair(3, 68, false, true);
    k.set_pair(70, 2, true, true); // involves the self row (k - 1)
    roundtrip(
        vec![SimilarityKnowledge::empty(0), k],
        "SimilarityKnowledge",
    );
}

#[test]
fn similarity_knowledge_rejects_inconsistent_lengths() {
    // Encode k = 70 knowledge but claim k = 4: flag-matrix lengths no
    // longer match k·⌈k/64⌉ and decoding must fail structurally.
    let good = SimilarityKnowledge::empty(70);
    let mut bytes = good.to_wire();
    bytes[..8].copy_from_slice(&4u64.to_le_bytes());
    assert!(matches!(
        SimilarityKnowledge::from_wire(&bytes),
        Err(WireError::BadLength { .. })
    ));
}

/// The unit message (used by wake-only protocols) is zero bytes.
#[test]
fn unit_message_is_zero_bytes() {
    assert!(().to_wire().is_empty());
    <()>::from_wire(&[]).unwrap();
    assert!(<()>::from_wire(&[0]).is_err());
}
