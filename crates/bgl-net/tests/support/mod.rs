//! Hostile byte streams built from well-formed frames: the one mutation
//! vocabulary the decoder proptests (`query_proptests.rs`) and the live
//! listener proptests (`tests/conn_runtime.rs` at the workspace root,
//! which includes this file by path) both draw from.

#![allow(dead_code)] // each test binary uses its own subset

use bgl_net::proto::{ControlOp, Frame, FrameKind, LEN_PREFIX};
use bgl_net::query::QueryReq;
use bgl_store::wire::Message;
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
    /// Keep the framing honest and the payload whole, then add to it.
    Append(Vec<u8>),
}

pub fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<prop::sample::Index>().prop_map(Mutation::Truncate),
        (any::<prop::sample::Index>(), 0u8..8).prop_map(|(i, b)| Mutation::FlipBit(i, b)),
        any::<u32>().prop_map(Mutation::Prefix),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(Mutation::Payload),
        proptest::collection::vec(any::<u8>(), 1..24).prop_map(Mutation::Append),
    ]
}

/// The store plane's control frames.
pub fn arb_control_frame() -> impl Strategy<Value = Frame> {
    let op = prop_oneof![
        any::<bool>().prop_map(ControlOp::SetDown),
        (any::<u32>(), any::<u32>()).prop_map(|(replication, num_servers)| {
            ControlOp::SetReplication { replication, num_servers }
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

/// The store plane's `Req` frames: all 23 message kinds, responses included
/// (a server must refuse those too). Node ids straddle a 64-node store, so
/// some requests are served and some are refused for what they name.
pub fn arb_req_frame() -> impl Strategy<Value = Frame> {
    let node = || 0u32..96;
    let ids = || proptest::collection::vec(node(), 0..6);
    let row = || proptest::collection::vec(-4.0f32..4.0, 0..4);
    let msg = prop_oneof![
        (0u32..8, ids()).prop_map(|(fanout, nodes)| Message::NeighborReq { fanout, nodes }),
        (0u32..8, any::<u64>(), ids())
            .prop_map(|(fanout, salt, nodes)| Message::NeighborReqSeeded { fanout, salt, nodes }),
        proptest::collection::vec(ids(), 0..4).prop_map(|lists| Message::NeighborResp { lists }),
        ids().prop_map(|nodes| Message::FeatureReq { nodes }),
        ids().prop_map(|nodes| Message::FeatureReqF16 { nodes }),
        row().prop_map(|rows| Message::FeatureResp { dim: 1, rows }),
        ids().prop_map(|nodes| Message::FeatureRespF16 {
            dim: 1,
            rows: nodes.iter().map(|&v| v as u16).collect(),
        }),
        ids().prop_map(|nodes| {
            let rows = nodes.iter().flat_map(|&v| [v as f32, 0.5]).collect();
            Message::FeatureUpdateReq { dim: 2, nodes, rows }
        }),
        node().prop_map(|applied| Message::FeatureUpdateResp { applied }),
        proptest::collection::vec((node(), node()), 0..4)
            .prop_map(|edges| Message::AddEdgeReq { edges }),
        (node(), node()).prop_map(|(applied, rejected)| Message::AddEdgeResp { applied, rejected }),
        (node(), 0u32..2, row()).prop_map(|(id, owner, row)| Message::AddNodeReq { id, owner, row }),
        node().prop_map(|id| Message::AddNodeResp { id }),
        (node(), 0u32..2).prop_map(|(node, dest)| Message::PrepareMigrateReq { node, dest }),
        (node(), 0u32..2, row(), ids()).prop_map(|(node, owner, row, neighbors)| {
            Message::PrepareMigrateResp { node, owner, row, neighbors }
        }),
        (node(), 0u32..2, row(), ids()).prop_map(|(node, dest, row, neighbors)| {
            Message::MigrateCopyReq { node, dest, row, neighbors }
        }),
        node().prop_map(|node| Message::MigrateCopyResp { node }),
        (node(), 0u32..2).prop_map(|(node, owner)| Message::CommitMigrateReq { node, owner }),
        (node(), 0u32..2).prop_map(|(node, owner)| Message::CommitMigrateResp { node, owner }),
        node().prop_map(|node| Message::OwnerReq { node }),
        (node(), 0u32..2).prop_map(|(node, owner)| Message::OwnerResp { node, owner }),
        (node(), 0u32..2)
            .prop_map(|(node, old_owner)| Message::TombstoneReq { node, old_owner }),
        node().prop_map(|node| Message::TombstoneResp { node }),
    ];
    (any::<u64>(), msg).prop_map(|(corr, msg)| {
        Frame::new(corr, FrameKind::Req, msg.encode().expect("small messages encode"))
    })
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
        Mutation::Append(bytes) => {
            let payload = [&frame.payload[..], &bytes[..]].concat();
            wire = Frame::new(frame.corr_id, frame.kind, payload.into()).encode()
        }
    }
    wire
}
