//! Hostile byte streams built from well-formed frames: the one mutation
//! vocabulary the decoder proptests (`query_proptests.rs`) and the live
//! listener proptests (`tests/conn_runtime.rs` at the workspace root,
//! which includes this file by path) both draw from.

#![allow(dead_code)] // each test binary uses its own subset

use bgl_net::proto::{ControlOp, Frame, FrameKind, LEN_PREFIX};
use bgl_net::query::QueryReq;
use proptest::prelude::*;

/// One way to damage an encoded frame.
#[derive(Clone, Debug)]
pub enum Mutation {
    /// Keep only a strict prefix of the wire bytes.
    Truncate(prop::sample::Index),
    /// Flip one bit anywhere: length prefix, header or payload.
    FlipBit(prop::sample::Index, u8),
    /// Overwrite the length prefix with a hostile announcement.
    Prefix(u32),
    /// Keep the framing honest but replace the payload.
    Payload(Vec<u8>),
}

pub fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<prop::sample::Index>().prop_map(Mutation::Truncate),
        (any::<prop::sample::Index>(), 0u8..8).prop_map(|(i, b)| Mutation::FlipBit(i, b)),
        any::<u32>().prop_map(Mutation::Prefix),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(Mutation::Payload),
    ]
}

/// The store plane's control frames.
pub fn arb_control_frame() -> impl Strategy<Value = Frame> {
    let op = prop_oneof![
        any::<bool>().prop_map(ControlOp::SetDown),
        (any::<u32>(), any::<u32>()).prop_map(|(r, n)| ControlOp::SetReplication {
            replication: r as usize,
            num_servers: n as usize,
        }),
        Just(ControlOp::Stats),
        any::<u64>().prop_map(|micros| ControlOp::SetSlow { micros }),
    ];
    (any::<u64>(), op).prop_map(|(corr, op)| Frame::new(corr, FrameKind::Control, op.encode()))
}

/// The query plane's request frames.
pub fn arb_query_frame() -> impl Strategy<Value = Frame> {
    (any::<u64>(), any::<u32>())
        .prop_map(|(corr, user)| Frame::new(corr, FrameKind::Query, QueryReq { user }.encode()))
}

/// `frame` on the wire after `m` has been at it.
pub fn mutate(frame: &Frame, m: &Mutation) -> Vec<u8> {
    let mut wire = frame.encode();
    match m {
        Mutation::Truncate(at) => wire.truncate(at.index(wire.len())),
        Mutation::FlipBit(at, bit) => {
            let i = at.index(wire.len());
            wire[i] ^= 1 << bit;
        }
        Mutation::Prefix(len) => wire[..LEN_PREFIX].copy_from_slice(&len.to_le_bytes()),
        Mutation::Payload(bytes) => {
            wire = Frame::new(frame.corr_id, frame.kind, bytes.clone().into()).encode()
        }
    }
    wire
}
