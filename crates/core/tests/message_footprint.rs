//! In-memory footprint bounds for every protocol message type.
//!
//! The engines store a round's messages in inbox slots of
//! `size_of::<(Port, Msg)>()` bytes, whatever variant a slot holds, so
//! the widest variant of a `Msg` enum sets the cost of *every* message of
//! its phase: a 16-byte `Gossip` still takes a full `LpMsg` slot, and two
//! inbox generations of a dense phase hold one slot per directed edge
//! each. These bounds pin the sizes so a fat variant cannot creep back in
//! unnoticed; raise one only together with a reason in the message
//! type's docs.
//!
//! The list payloads dominate: `SimMsg` and `LpMsg` carry an inline
//! batch of 32 `u32` identifiers or colors, `DetMsg` one of 16 `u32`
//! colors.

use d2core::baseline::RelayMsg;
use d2core::det::splitting::SplitMsg;
use d2core::det::DetMsg;
use d2core::rand::finish::FinMsg;
use d2core::rand::learn_palette::LpMsg;
use d2core::rand::reduce::ReduceMsg;
use d2core::rand::sampling::SampMsg;
use d2core::rand::similarity::SimMsg;
use d2core::TrialMsg;
use std::mem::size_of;

fn assert_at_most<M>(bound: usize) {
    let name = std::any::type_name::<M>();
    let size = size_of::<M>();
    assert!(size <= bound, "{name} is {size} bytes, bound {bound}");
}

#[test]
fn list_exchange_messages() {
    assert_at_most::<SimMsg>(136);
    assert_at_most::<LpMsg>(144);
    assert_at_most::<DetMsg>(72);
}

#[test]
fn query_and_splitting_messages() {
    assert_at_most::<ReduceMsg>(24);
    assert_at_most::<SampMsg>(24);
    assert_at_most::<SplitMsg>(24);
}

#[test]
fn trial_messages() {
    assert_at_most::<TrialMsg>(8);
    assert_at_most::<FinMsg>(8);
    assert_at_most::<RelayMsg>(8);
}
