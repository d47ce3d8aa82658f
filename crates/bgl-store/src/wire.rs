//! Length-prefixed binary wire codec.
//!
//! Every store RPC crosses this codec in both directions, so message sizes
//! (the quantity the network model charges) are the real encoded sizes.
//! Format: one type byte, then type-specific little-endian payload. The
//! decoder is defensive — truncated or corrupt frames return
//! [`StoreError::Malformed`] instead of panicking (failure-injection tests
//! feed it garbage) — and the encoder is checked: counts that do not fit
//! their `u32` wire fields return [`StoreError::TooLarge`] instead of
//! silently truncating with `as`.
//!
//! Feature rows travel in either precision: [`Message::FeatureResp`]
//! carries f32 scalars (4 B each), [`Message::FeatureRespF16`] carries
//! IEEE 754 binary16 (2 B each) — the f16 response to an
//! [`Message::FeatureReqF16`] is literally half the bytes on the wire,
//! which is what halves D_II in the §3.4 profile. Row payloads move between
//! the frame and the message's `Vec` in one pass over the bytes
//! (`bgl_graph::half::{write_le, read_le}`), never converted: an f16
//! payload decodes to the `u16` bit patterns it carries, and whoever
//! assembles a minibatch widens them.

use crate::StoreError;
use bgl_graph::half::{read_le, write_le, LeScalar};
use bgl_graph::NodeId;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const TAG_NEIGHBOR_REQ: u8 = 1;
const TAG_NEIGHBOR_RESP: u8 = 2;
const TAG_FEATURE_REQ: u8 = 3;
const TAG_FEATURE_RESP: u8 = 4;
const TAG_FEATURE_UPDATE_REQ: u8 = 5;
const TAG_FEATURE_UPDATE_RESP: u8 = 6;
const TAG_FEATURE_REQ_F16: u8 = 7;
const TAG_FEATURE_RESP_F16: u8 = 8;
const TAG_NEIGHBOR_REQ_SEEDED: u8 = 9;
const TAG_ADD_EDGE_REQ: u8 = 10;
const TAG_ADD_EDGE_RESP: u8 = 11;
const TAG_ADD_NODE_REQ: u8 = 12;
const TAG_ADD_NODE_RESP: u8 = 13;
const TAG_PREPARE_MIGRATE_REQ: u8 = 14;
const TAG_PREPARE_MIGRATE_RESP: u8 = 15;
const TAG_MIGRATE_COPY_REQ: u8 = 16;
const TAG_MIGRATE_COPY_RESP: u8 = 17;
const TAG_COMMIT_MIGRATE_REQ: u8 = 18;
const TAG_COMMIT_MIGRATE_RESP: u8 = 19;
const TAG_OWNER_REQ: u8 = 20;
const TAG_OWNER_RESP: u8 = 21;
const TAG_TOMBSTONE_REQ: u8 = 22;
const TAG_TOMBSTONE_RESP: u8 = 23;

/// Mixes a salt with a node id into a well-spread RNG seed. Re-exported
/// here because it is part of the protocol: the serving path derives
/// per-hop salts with the same mixer the server uses per node.
pub use bgl_graph::hash::mix64;

/// A decoded store message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Sample up to `fanout` neighbors for each node.
    NeighborReq { fanout: u32, nodes: Vec<NodeId> },
    /// Sample up to `fanout` neighbors for each node with a *per-node*
    /// RNG seeded from `mix64(salt, node)` — node `v`'s picks depend only
    /// on `(salt, v)`, never on which other nodes share the request or
    /// which replica answers. The serving path batches arbitrary request
    /// compositions on top of this and still gets bitwise-reproducible
    /// samples (and failover to a replica returns identical lists).
    NeighborReqSeeded { fanout: u32, salt: u64, nodes: Vec<NodeId> },
    /// Per-node sampled neighbor lists, in request order.
    NeighborResp { lists: Vec<Vec<NodeId>> },
    /// Fetch feature rows for `nodes` (full f32 precision).
    FeatureReq { nodes: Vec<NodeId> },
    /// Feature rows (`nodes.len() × dim`), in request order.
    FeatureResp { dim: u32, rows: Vec<f32> },
    /// Overwrite the full feature row of each node (`rows` is
    /// `nodes.len() × dim`, in request order). Idempotent, so a client may
    /// retry after an ambiguous failure.
    FeatureUpdateReq { dim: u32, nodes: Vec<NodeId>, rows: Vec<f32> },
    /// Ack: how many rows were applied (always all of them, or an error).
    FeatureUpdateResp { applied: u32 },
    /// Fetch feature rows for `nodes` as binary16 on the wire.
    FeatureReqF16 { nodes: Vec<NodeId> },
    /// binary16 feature rows (`nodes.len() × dim` bit patterns, 2 B each),
    /// in request order.
    FeatureRespF16 { dim: u32, rows: Vec<u16> },
    /// Ingest: insert a batch of undirected edges into the live graph.
    /// Idempotent — an edge that already exists is counted as rejected,
    /// not double-inserted, so at-least-once retry after an ambiguous
    /// failure is safe.
    AddEdgeReq { edges: Vec<(NodeId, NodeId)> },
    /// Ack: how many edges of the batch were fresh inserts vs detected
    /// duplicates. `applied + rejected` always equals the batch size.
    AddEdgeResp { applied: u32, rejected: u32 },
    /// Ingest: append node `id` with partition owner `owner` and feature
    /// row `row`. The id is coordinator-assigned (the next dense id), so
    /// a retried append of an id the server already holds is an
    /// idempotent ack, and write-all replication cannot diverge.
    AddNodeReq { id: NodeId, owner: u32, row: Vec<f32> },
    /// Ack: echoes the appended (or already-present) node id.
    AddNodeResp { id: NodeId },
    /// Migration phase 1: ask `node`'s current owner to snapshot the row
    /// and merged adjacency for a move to server `dest`. Read-only — a
    /// failure after prepare leaves the old owner authoritative.
    PrepareMigrateReq { node: NodeId, dest: u32 },
    /// The authoritative snapshot: the owner's view of the node's full
    /// feature row and merged (base + delta) adjacency.
    PrepareMigrateResp { node: NodeId, owner: u32, row: Vec<f32>, neighbors: Vec<NodeId> },
    /// Migration phase 2: install `node`'s row and adjacency on a member
    /// of `dest`'s replica chain. Idempotent full-row semantics — a
    /// re-copy after an ambiguous failure overwrites with the same bytes.
    /// Inert until commit: visibility is governed by the owner map, so an
    /// aborted migration leaves these bytes unreachable, not wrong.
    MigrateCopyReq { node: NodeId, dest: u32, row: Vec<f32>, neighbors: Vec<NodeId> },
    /// Ack: echoes the copied node id.
    MigrateCopyResp { node: NodeId },
    /// Migration phase 3: flip `node`'s owner to `owner` in the server's
    /// override map (journaled to the WAL before the ack when a durable
    /// tier is attached). Idempotent: re-committing the same mapping
    /// re-acks. The source server's commit is the protocol's commit point.
    CommitMigrateReq { node: NodeId, owner: u32 },
    /// Ack: echoes the committed mapping.
    CommitMigrateResp { node: NodeId, owner: u32 },
    /// Repair probe: ask a server for its authoritative owner of `node`.
    OwnerReq { node: NodeId },
    /// The server's current owner view for `node`.
    OwnerResp { node: NodeId, owner: u32 },
    /// Migration phase 4: retire the source copy. `old_owner` names the
    /// server being tombstoned (diagnostic); only legal after commit.
    TombstoneReq { node: NodeId, old_owner: u32 },
    /// Ack: echoes the tombstoned node id.
    TombstoneResp { node: NodeId },
}

/// Checked narrowing for wire count fields.
fn u32_len(len: usize, what: &'static str) -> Result<u32, StoreError> {
    u32::try_from(len).map_err(|_| StoreError::TooLarge(what))
}

impl Message {
    /// The error for a well-formed reply of the wrong kind — the `else` of
    /// every caller's `let Message::XResp { .. } = resp else { .. }`.
    pub fn unexpected() -> StoreError {
        StoreError::Malformed("unexpected response")
    }

    /// Encode into a frame. Fails with [`StoreError::TooLarge`] if any
    /// count exceeds its `u32` wire field.
    pub fn encode(&self) -> Result<Bytes, StoreError> {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        match self {
            Message::NeighborReq { fanout, nodes } => {
                buf.put_u8(TAG_NEIGHBOR_REQ);
                buf.put_u32_le(*fanout);
                buf.put_u32_le(u32_len(nodes.len(), "neighbor req count")?);
                for &v in nodes {
                    buf.put_u32_le(v);
                }
            }
            Message::NeighborReqSeeded { fanout, salt, nodes } => {
                buf.put_u8(TAG_NEIGHBOR_REQ_SEEDED);
                buf.put_u32_le(*fanout);
                buf.put_u64_le(*salt);
                buf.put_u32_le(u32_len(nodes.len(), "neighbor req count")?);
                for &v in nodes {
                    buf.put_u32_le(v);
                }
            }
            Message::NeighborResp { lists } => {
                buf.put_u8(TAG_NEIGHBOR_RESP);
                buf.put_u32_le(u32_len(lists.len(), "neighbor resp count")?);
                for list in lists {
                    buf.put_u32_le(u32_len(list.len(), "neighbor list len")?);
                    for &v in list {
                        buf.put_u32_le(v);
                    }
                }
            }
            Message::FeatureReq { nodes } => {
                buf.put_u8(TAG_FEATURE_REQ);
                buf.put_u32_le(u32_len(nodes.len(), "feature req count")?);
                for &v in nodes {
                    buf.put_u32_le(v);
                }
            }
            Message::FeatureResp { dim, rows } => {
                buf.put_u8(TAG_FEATURE_RESP);
                buf.put_u32_le(*dim);
                buf.put_u32_le(u32_len(rows.len(), "feature row payload")?);
                put_scalars(&mut buf, rows);
            }
            Message::FeatureUpdateReq { dim, nodes, rows } => {
                buf.put_u8(TAG_FEATURE_UPDATE_REQ);
                buf.put_u32_le(*dim);
                buf.put_u32_le(u32_len(nodes.len(), "feature update count")?);
                for &v in nodes {
                    buf.put_u32_le(v);
                }
                put_scalars(&mut buf, rows);
            }
            Message::FeatureUpdateResp { applied } => {
                buf.put_u8(TAG_FEATURE_UPDATE_RESP);
                buf.put_u32_le(*applied);
            }
            Message::FeatureReqF16 { nodes } => {
                buf.put_u8(TAG_FEATURE_REQ_F16);
                buf.put_u32_le(u32_len(nodes.len(), "feature req count")?);
                for &v in nodes {
                    buf.put_u32_le(v);
                }
            }
            Message::FeatureRespF16 { dim, rows } => {
                buf.put_u8(TAG_FEATURE_RESP_F16);
                buf.put_u32_le(*dim);
                buf.put_u32_le(u32_len(rows.len(), "feature row payload")?);
                put_scalars(&mut buf, rows);
            }
            Message::AddEdgeReq { edges } => {
                buf.put_u8(TAG_ADD_EDGE_REQ);
                buf.put_u32_le(u32_len(edges.len(), "edge batch count")?);
                for &(u, v) in edges {
                    buf.put_u32_le(u);
                    buf.put_u32_le(v);
                }
            }
            Message::AddEdgeResp { applied, rejected } => {
                buf.put_u8(TAG_ADD_EDGE_RESP);
                buf.put_u32_le(*applied);
                buf.put_u32_le(*rejected);
            }
            Message::AddNodeReq { id, owner, row } => {
                buf.put_u8(TAG_ADD_NODE_REQ);
                buf.put_u32_le(*id);
                buf.put_u32_le(*owner);
                buf.put_u32_le(u32_len(row.len(), "add-node row len")?);
                put_scalars(&mut buf, row);
            }
            Message::AddNodeResp { id } => {
                buf.put_u8(TAG_ADD_NODE_RESP);
                buf.put_u32_le(*id);
            }
            Message::PrepareMigrateReq { node, dest } => {
                buf.put_u8(TAG_PREPARE_MIGRATE_REQ);
                buf.put_u32_le(*node);
                buf.put_u32_le(*dest);
            }
            Message::PrepareMigrateResp { node, owner, row, neighbors } => {
                buf.put_u8(TAG_PREPARE_MIGRATE_RESP);
                buf.put_u32_le(*node);
                buf.put_u32_le(*owner);
                buf.put_u32_le(u32_len(row.len(), "migrate row len")?);
                put_scalars(&mut buf, row);
                buf.put_u32_le(u32_len(neighbors.len(), "migrate neighbor count")?);
                for &v in neighbors {
                    buf.put_u32_le(v);
                }
            }
            Message::MigrateCopyReq { node, dest, row, neighbors } => {
                buf.put_u8(TAG_MIGRATE_COPY_REQ);
                buf.put_u32_le(*node);
                buf.put_u32_le(*dest);
                buf.put_u32_le(u32_len(row.len(), "migrate row len")?);
                put_scalars(&mut buf, row);
                buf.put_u32_le(u32_len(neighbors.len(), "migrate neighbor count")?);
                for &v in neighbors {
                    buf.put_u32_le(v);
                }
            }
            Message::MigrateCopyResp { node } => {
                buf.put_u8(TAG_MIGRATE_COPY_RESP);
                buf.put_u32_le(*node);
            }
            Message::CommitMigrateReq { node, owner } => {
                buf.put_u8(TAG_COMMIT_MIGRATE_REQ);
                buf.put_u32_le(*node);
                buf.put_u32_le(*owner);
            }
            Message::CommitMigrateResp { node, owner } => {
                buf.put_u8(TAG_COMMIT_MIGRATE_RESP);
                buf.put_u32_le(*node);
                buf.put_u32_le(*owner);
            }
            Message::OwnerReq { node } => {
                buf.put_u8(TAG_OWNER_REQ);
                buf.put_u32_le(*node);
            }
            Message::OwnerResp { node, owner } => {
                buf.put_u8(TAG_OWNER_RESP);
                buf.put_u32_le(*node);
                buf.put_u32_le(*owner);
            }
            Message::TombstoneReq { node, old_owner } => {
                buf.put_u8(TAG_TOMBSTONE_REQ);
                buf.put_u32_le(*node);
                buf.put_u32_le(*old_owner);
            }
            Message::TombstoneResp { node } => {
                buf.put_u8(TAG_TOMBSTONE_RESP);
                buf.put_u32_le(*node);
            }
        }
        Ok(buf.freeze())
    }

    /// Exact encoded size in bytes — used for network-time accounting
    /// without re-walking the buffer.
    pub fn encoded_len(&self) -> usize {
        match self {
            Message::NeighborReq { nodes, .. } => 1 + 4 + 4 + 4 * nodes.len(),
            Message::NeighborReqSeeded { nodes, .. } => 1 + 4 + 8 + 4 + 4 * nodes.len(),
            Message::NeighborResp { lists } => {
                1 + 4 + lists.iter().map(|l| 4 + 4 * l.len()).sum::<usize>()
            }
            Message::FeatureReq { nodes } => 1 + 4 + 4 * nodes.len(),
            Message::FeatureResp { rows, .. } => 1 + 4 + 4 + 4 * rows.len(),
            Message::FeatureUpdateReq { nodes, rows, .. } => {
                1 + 4 + 4 + 4 * nodes.len() + 4 * rows.len()
            }
            Message::FeatureUpdateResp { .. } => 1 + 4,
            Message::FeatureReqF16 { nodes } => 1 + 4 + 4 * nodes.len(),
            Message::FeatureRespF16 { rows, .. } => 1 + 4 + 4 + 2 * rows.len(),
            Message::AddEdgeReq { edges } => 1 + 4 + 8 * edges.len(),
            Message::AddEdgeResp { .. } => 1 + 4 + 4,
            Message::AddNodeReq { row, .. } => 1 + 4 + 4 + 4 + 4 * row.len(),
            Message::AddNodeResp { .. } => 1 + 4,
            Message::PrepareMigrateReq { .. } => 1 + 4 + 4,
            Message::PrepareMigrateResp { row, neighbors, .. } => {
                1 + 4 + 4 + 4 + 4 * row.len() + 4 + 4 * neighbors.len()
            }
            Message::MigrateCopyReq { row, neighbors, .. } => {
                1 + 4 + 4 + 4 + 4 * row.len() + 4 + 4 * neighbors.len()
            }
            Message::MigrateCopyResp { .. } => 1 + 4,
            Message::CommitMigrateReq { .. } => 1 + 4 + 4,
            Message::CommitMigrateResp { .. } => 1 + 4 + 4,
            Message::OwnerReq { .. } => 1 + 4,
            Message::OwnerResp { .. } => 1 + 4 + 4,
            Message::TombstoneReq { .. } => 1 + 4 + 4,
            Message::TombstoneResp { .. } => 1 + 4,
        }
    }

    /// Decode a frame.
    pub fn decode(mut buf: Bytes) -> Result<Message, StoreError> {
        if buf.remaining() < 1 {
            return Err(StoreError::Malformed("empty frame"));
        }
        let tag = buf.get_u8();
        match tag {
            TAG_NEIGHBOR_REQ => {
                let fanout = get_u32(&mut buf, "fanout")?;
                let n = get_u32(&mut buf, "count")? as usize;
                let nodes = get_ids(&mut buf, n)?;
                Ok(Message::NeighborReq { fanout, nodes })
            }
            TAG_NEIGHBOR_REQ_SEEDED => {
                let fanout = get_u32(&mut buf, "fanout")?;
                if buf.remaining() < 8 {
                    return Err(StoreError::Malformed("salt"));
                }
                let salt = buf.get_u64_le();
                let n = get_u32(&mut buf, "count")? as usize;
                let nodes = get_ids(&mut buf, n)?;
                Ok(Message::NeighborReqSeeded { fanout, salt, nodes })
            }
            TAG_NEIGHBOR_RESP => {
                let n = get_u32(&mut buf, "count")? as usize;
                let mut lists = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let len = get_u32(&mut buf, "list len")? as usize;
                    lists.push(get_ids(&mut buf, len)?);
                }
                Ok(Message::NeighborResp { lists })
            }
            TAG_FEATURE_REQ => {
                let n = get_u32(&mut buf, "count")? as usize;
                let nodes = get_ids(&mut buf, n)?;
                Ok(Message::FeatureReq { nodes })
            }
            TAG_FEATURE_REQ_F16 => {
                let n = get_u32(&mut buf, "count")? as usize;
                let nodes = get_ids(&mut buf, n)?;
                Ok(Message::FeatureReqF16 { nodes })
            }
            TAG_FEATURE_RESP => {
                let dim = get_u32(&mut buf, "dim")?;
                let n = get_u32(&mut buf, "row len")? as usize;
                check_row_shape(dim, n)?;
                let rows = get_scalars(&mut buf, n, "truncated feature rows")?;
                Ok(Message::FeatureResp { dim, rows })
            }
            TAG_FEATURE_RESP_F16 => {
                let dim = get_u32(&mut buf, "dim")?;
                let n = get_u32(&mut buf, "row len")? as usize;
                check_row_shape(dim, n)?;
                let rows = get_scalars(&mut buf, n, "truncated feature rows")?;
                Ok(Message::FeatureRespF16 { dim, rows })
            }
            TAG_FEATURE_UPDATE_REQ => {
                let dim = get_u32(&mut buf, "dim")?;
                if dim == 0 {
                    return Err(StoreError::Malformed("feature update with zero dim"));
                }
                let n = get_u32(&mut buf, "count")? as usize;
                let nodes = get_ids(&mut buf, n)?;
                let want = n.checked_mul(dim as usize).ok_or(StoreError::Malformed(
                    "feature update row payload overflows",
                ))?;
                const MISMATCH: &str = "feature update rows mismatch count×dim";
                if buf.remaining() != want * 4 {
                    return Err(StoreError::Malformed(MISMATCH));
                }
                let rows = get_scalars(&mut buf, want, MISMATCH)?;
                Ok(Message::FeatureUpdateReq { dim, nodes, rows })
            }
            TAG_FEATURE_UPDATE_RESP => {
                let applied = get_u32(&mut buf, "applied")?;
                Ok(Message::FeatureUpdateResp { applied })
            }
            TAG_ADD_EDGE_REQ => {
                let n = get_u32(&mut buf, "count")? as usize;
                if buf.remaining() < n.saturating_mul(8) {
                    return Err(StoreError::Malformed("truncated edge list"));
                }
                let mut edges = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let u = buf.get_u32_le();
                    let v = buf.get_u32_le();
                    edges.push((u, v));
                }
                Ok(Message::AddEdgeReq { edges })
            }
            TAG_ADD_EDGE_RESP => {
                let applied = get_u32(&mut buf, "applied")?;
                let rejected = get_u32(&mut buf, "rejected")?;
                Ok(Message::AddEdgeResp { applied, rejected })
            }
            TAG_ADD_NODE_REQ => {
                let id = get_u32(&mut buf, "node id")?;
                let owner = get_u32(&mut buf, "owner")?;
                let n = get_u32(&mut buf, "row len")? as usize;
                if buf.remaining() != n * 4 {
                    return Err(StoreError::Malformed("add-node row mismatch"));
                }
                let row = get_scalars(&mut buf, n, "add-node row mismatch")?;
                Ok(Message::AddNodeReq { id, owner, row })
            }
            TAG_ADD_NODE_RESP => {
                let id = get_u32(&mut buf, "node id")?;
                Ok(Message::AddNodeResp { id })
            }
            TAG_PREPARE_MIGRATE_REQ => {
                let node = get_u32(&mut buf, "node id")?;
                let dest = get_u32(&mut buf, "migrate dest")?;
                if buf.remaining() != 0 {
                    return Err(StoreError::Malformed("migrate frame length mismatch"));
                }
                Ok(Message::PrepareMigrateReq { node, dest })
            }
            TAG_PREPARE_MIGRATE_RESP => {
                let node = get_u32(&mut buf, "node id")?;
                let owner = get_u32(&mut buf, "migrate owner")?;
                let n = get_u32(&mut buf, "row len")? as usize;
                let row = get_scalars(&mut buf, n, "truncated migrate row")?;
                let m = get_u32(&mut buf, "count")? as usize;
                let neighbors = get_ids(&mut buf, m)?;
                if buf.remaining() != 0 {
                    return Err(StoreError::Malformed("migrate frame length mismatch"));
                }
                Ok(Message::PrepareMigrateResp { node, owner, row, neighbors })
            }
            TAG_MIGRATE_COPY_REQ => {
                let node = get_u32(&mut buf, "node id")?;
                let dest = get_u32(&mut buf, "migrate dest")?;
                let n = get_u32(&mut buf, "row len")? as usize;
                let row = get_scalars(&mut buf, n, "truncated migrate row")?;
                let m = get_u32(&mut buf, "count")? as usize;
                let neighbors = get_ids(&mut buf, m)?;
                if buf.remaining() != 0 {
                    return Err(StoreError::Malformed("migrate frame length mismatch"));
                }
                Ok(Message::MigrateCopyReq { node, dest, row, neighbors })
            }
            TAG_MIGRATE_COPY_RESP => {
                let node = get_u32(&mut buf, "node id")?;
                if buf.remaining() != 0 {
                    return Err(StoreError::Malformed("migrate frame length mismatch"));
                }
                Ok(Message::MigrateCopyResp { node })
            }
            TAG_COMMIT_MIGRATE_REQ => {
                let node = get_u32(&mut buf, "node id")?;
                let owner = get_u32(&mut buf, "migrate owner")?;
                if buf.remaining() != 0 {
                    return Err(StoreError::Malformed("migrate frame length mismatch"));
                }
                Ok(Message::CommitMigrateReq { node, owner })
            }
            TAG_COMMIT_MIGRATE_RESP => {
                let node = get_u32(&mut buf, "node id")?;
                let owner = get_u32(&mut buf, "migrate owner")?;
                if buf.remaining() != 0 {
                    return Err(StoreError::Malformed("migrate frame length mismatch"));
                }
                Ok(Message::CommitMigrateResp { node, owner })
            }
            TAG_OWNER_REQ => {
                let node = get_u32(&mut buf, "node id")?;
                if buf.remaining() != 0 {
                    return Err(StoreError::Malformed("migrate frame length mismatch"));
                }
                Ok(Message::OwnerReq { node })
            }
            TAG_OWNER_RESP => {
                let node = get_u32(&mut buf, "node id")?;
                let owner = get_u32(&mut buf, "migrate owner")?;
                if buf.remaining() != 0 {
                    return Err(StoreError::Malformed("migrate frame length mismatch"));
                }
                Ok(Message::OwnerResp { node, owner })
            }
            TAG_TOMBSTONE_REQ => {
                let node = get_u32(&mut buf, "node id")?;
                let old_owner = get_u32(&mut buf, "migrate owner")?;
                if buf.remaining() != 0 {
                    return Err(StoreError::Malformed("migrate frame length mismatch"));
                }
                Ok(Message::TombstoneReq { node, old_owner })
            }
            TAG_TOMBSTONE_RESP => {
                let node = get_u32(&mut buf, "node id")?;
                if buf.remaining() != 0 {
                    return Err(StoreError::Malformed("migrate frame length mismatch"));
                }
                Ok(Message::TombstoneResp { node })
            }
            _ => Err(StoreError::Malformed("unknown tag")),
        }
    }
}

/// Shape is validated at the codec boundary, not just by the fetch path: a
/// payload that is not whole rows is corrupt.
fn check_row_shape(dim: u32, n: usize) -> Result<(), StoreError> {
    if dim == 0 && n != 0 {
        return Err(StoreError::Malformed("feature rows with zero dim"));
    }
    if dim != 0 && !n.is_multiple_of(dim as usize) {
        return Err(StoreError::Malformed("feature rows not a multiple of dim"));
    }
    Ok(())
}

fn get_u32(buf: &mut Bytes, what: &'static str) -> Result<u32, StoreError> {
    if buf.remaining() < 4 {
        return Err(StoreError::Malformed(what));
    }
    Ok(buf.get_u32_le())
}

/// Append `rows` to the frame as little-endian scalars, in one pass.
fn put_scalars<T: LeScalar>(buf: &mut BytesMut, rows: &[T]) {
    let at = buf.len();
    buf.resize(at + rows.len() * T::BYTES, 0);
    write_le(rows, &mut buf[at..]);
}

/// Take `n` little-endian scalars off the front of the frame, in one pass.
/// The length is checked against the bytes actually present before
/// anything is allocated, so a corrupt count cannot reserve memory.
fn get_scalars<T: LeScalar>(
    buf: &mut Bytes,
    n: usize,
    truncated: &'static str,
) -> Result<Vec<T>, StoreError> {
    let len = n
        .checked_mul(T::BYTES)
        .filter(|&len| len <= buf.remaining())
        .ok_or(StoreError::Malformed(truncated))?;
    let rows = read_le(&buf.chunk()[..len]).expect("len is a whole number of scalars");
    buf.advance(len);
    Ok(rows)
}

fn get_ids(buf: &mut Bytes, n: usize) -> Result<Vec<NodeId>, StoreError> {
    if buf.remaining() < n * 4 {
        return Err(StoreError::Malformed("truncated id list"));
    }
    // Cap the preallocation the same way NeighborResp decode does: a
    // corrupt count cannot make us reserve gigabytes before the length
    // check above has real bytes behind it.
    let mut ids = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        ids.push(buf.get_u32_le());
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_graph::half::f32_to_f16_bits;

    #[test]
    fn neighbor_req_roundtrip() {
        let m = Message::NeighborReq { fanout: 15, nodes: vec![1, 2, 99] };
        let encoded = m.encode().unwrap();
        assert_eq!(encoded.len(), m.encoded_len());
        assert_eq!(Message::decode(encoded).unwrap(), m);
    }

    #[test]
    fn seeded_neighbor_req_roundtrip() {
        let m = Message::NeighborReqSeeded {
            fanout: 10,
            salt: 0xDEAD_BEEF_CAFE_F00D,
            nodes: vec![0, 7, 42],
        };
        let encoded = m.encode().unwrap();
        assert_eq!(encoded.len(), m.encoded_len());
        assert_eq!(Message::decode(encoded.clone()).unwrap(), m);
        // Truncating inside the salt is malformed, not a panic.
        assert_eq!(
            Message::decode(encoded.slice(0..8)),
            Err(StoreError::Malformed("salt"))
        );
    }

    #[test]
    fn neighbor_resp_roundtrip() {
        let m = Message::NeighborResp {
            lists: vec![vec![5, 6], vec![], vec![7]],
        };
        let encoded = m.encode().unwrap();
        assert_eq!(encoded.len(), m.encoded_len());
        assert_eq!(Message::decode(encoded).unwrap(), m);
    }

    #[test]
    fn feature_roundtrip() {
        let req = Message::FeatureReq { nodes: vec![3] };
        assert_eq!(Message::decode(req.encode().unwrap()).unwrap(), req);
        let resp = Message::FeatureResp { dim: 2, rows: vec![1.5, -2.5] };
        let enc = resp.encode().unwrap();
        assert_eq!(enc.len(), resp.encoded_len());
        assert_eq!(Message::decode(enc).unwrap(), resp);
    }

    #[test]
    fn f16_feature_roundtrip_halves_the_wire_bytes() {
        let req = Message::FeatureReqF16 { nodes: vec![3, 8] };
        assert_eq!(Message::decode(req.encode().unwrap()).unwrap(), req);

        let rows_f32 = vec![1.5f32, -2.5, 0.0, 100.25];
        let rows: Vec<u16> = rows_f32.iter().map(|&x| f32_to_f16_bits(x)).collect();
        let resp = Message::FeatureRespF16 { dim: 2, rows: rows.clone() };
        let enc = resp.encode().unwrap();
        assert_eq!(enc.len(), resp.encoded_len());
        assert_eq!(Message::decode(enc).unwrap(), resp);

        // Exactly half the row payload of the equivalent f32 response.
        let f32_resp = Message::FeatureResp { dim: 2, rows: rows_f32.clone() };
        assert_eq!(resp.encoded_len() - 9, (f32_resp.encoded_len() - 9) / 2);
    }

    #[test]
    fn f16_resp_shape_is_validated() {
        let mut bad = BytesMut::new();
        bad.put_u8(TAG_FEATURE_RESP_F16);
        bad.put_u32_le(2); // dim
        bad.put_u32_le(3); // not whole rows
        for _ in 0..3 {
            bad.put_slice(&0u16.to_le_bytes());
        }
        assert_eq!(
            Message::decode(bad.freeze()),
            Err(StoreError::Malformed("feature rows not a multiple of dim"))
        );
        // Truncated payload.
        let mut bad = BytesMut::new();
        bad.put_u8(TAG_FEATURE_RESP_F16);
        bad.put_u32_le(2);
        bad.put_u32_le(4);
        bad.put_slice(&1u16.to_le_bytes());
        assert_eq!(
            Message::decode(bad.freeze()),
            Err(StoreError::Malformed("truncated feature rows"))
        );
    }

    #[test]
    fn oversized_counts_error_instead_of_truncating() {
        // The checked conversion itself: a length that does not fit u32
        // must surface TooLarge, not wrap around like `as u32` did.
        assert_eq!(
            u32_len(u32::MAX as usize + 1, "feature req count"),
            Err(StoreError::TooLarge("feature req count"))
        );
        assert_eq!(u32_len(u32::MAX as usize, "x"), Ok(u32::MAX));
        assert_eq!(u32_len(0, "x"), Ok(0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Message::decode(Bytes::new()).is_err());
        assert!(Message::decode(Bytes::from_static(&[99])).is_err());
        // Truncated count.
        assert!(Message::decode(Bytes::from_static(&[TAG_FEATURE_REQ, 1])).is_err());
        // Count promises more ids than present.
        let mut bad = BytesMut::new();
        bad.put_u8(TAG_FEATURE_REQ);
        bad.put_u32_le(100);
        bad.put_u32_le(1);
        assert_eq!(
            Message::decode(bad.freeze()),
            Err(StoreError::Malformed("truncated id list"))
        );
    }

    #[test]
    fn rejects_ragged_feature_rows() {
        // 3 floats with dim 2: not whole rows -> reject at decode time.
        let mut bad = BytesMut::new();
        bad.put_u8(TAG_FEATURE_RESP);
        bad.put_u32_le(2); // dim
        bad.put_u32_le(3); // row payload length: not a multiple of dim
        for _ in 0..3 {
            bad.put_f32_le(1.0);
        }
        assert_eq!(
            Message::decode(bad.freeze()),
            Err(StoreError::Malformed("feature rows not a multiple of dim"))
        );
        // Zero dim with a nonempty payload is equally malformed.
        let mut bad = BytesMut::new();
        bad.put_u8(TAG_FEATURE_RESP);
        bad.put_u32_le(0);
        bad.put_u32_le(4);
        for _ in 0..4 {
            bad.put_f32_le(0.0);
        }
        assert_eq!(
            Message::decode(bad.freeze()),
            Err(StoreError::Malformed("feature rows with zero dim"))
        );
    }

    #[test]
    fn huge_claimed_counts_do_not_overallocate() {
        // A frame claiming u32::MAX ids with no payload must fail fast
        // without a giant reservation.
        let mut bad = BytesMut::new();
        bad.put_u8(TAG_FEATURE_REQ);
        bad.put_u32_le(u32::MAX);
        assert_eq!(
            Message::decode(bad.freeze()),
            Err(StoreError::Malformed("truncated id list"))
        );
    }

    #[test]
    fn feature_update_roundtrip() {
        let m = Message::FeatureUpdateReq {
            dim: 2,
            nodes: vec![4, 9],
            rows: vec![1.0, 2.0, 3.0, 4.0],
        };
        let enc = m.encode().unwrap();
        assert_eq!(enc.len(), m.encoded_len());
        assert_eq!(Message::decode(enc).unwrap(), m);
        let ack = Message::FeatureUpdateResp { applied: 2 };
        let enc = ack.encode().unwrap();
        assert_eq!(enc.len(), ack.encoded_len());
        assert_eq!(Message::decode(enc).unwrap(), ack);
    }

    #[test]
    fn feature_update_shape_is_validated() {
        // Rows payload disagreeing with count×dim is malformed.
        let mut bad = BytesMut::new();
        bad.put_u8(TAG_FEATURE_UPDATE_REQ);
        bad.put_u32_le(2); // dim
        bad.put_u32_le(2); // count
        bad.put_u32_le(4);
        bad.put_u32_le(9);
        bad.put_f32_le(1.0); // only 1 float, need 4
        assert_eq!(
            Message::decode(bad.freeze()),
            Err(StoreError::Malformed("feature update rows mismatch count×dim"))
        );
        // Zero dim can never carry an update.
        let mut bad = BytesMut::new();
        bad.put_u8(TAG_FEATURE_UPDATE_REQ);
        bad.put_u32_le(0);
        bad.put_u32_le(0);
        assert_eq!(
            Message::decode(bad.freeze()),
            Err(StoreError::Malformed("feature update with zero dim"))
        );
    }

    #[test]
    fn add_edge_roundtrip_and_truncation() {
        let m = Message::AddEdgeReq { edges: vec![(1, 2), (9, 9), (0, 7)] };
        let enc = m.encode().unwrap();
        assert_eq!(enc.len(), m.encoded_len());
        assert_eq!(Message::decode(enc.clone()).unwrap(), m);
        // Cutting inside the pair list is malformed, not a panic.
        assert_eq!(
            Message::decode(enc.slice(0..enc.len() - 3)),
            Err(StoreError::Malformed("truncated edge list"))
        );
        let ack = Message::AddEdgeResp { applied: 2, rejected: 1 };
        let enc = ack.encode().unwrap();
        assert_eq!(enc.len(), ack.encoded_len());
        assert_eq!(Message::decode(enc).unwrap(), ack);
    }

    #[test]
    fn add_node_roundtrip_and_shape_validation() {
        let m = Message::AddNodeReq { id: 100, owner: 3, row: vec![1.5, -2.5] };
        let enc = m.encode().unwrap();
        assert_eq!(enc.len(), m.encoded_len());
        assert_eq!(Message::decode(enc.clone()).unwrap(), m);
        // Trailing garbage or a short row disagrees with the length field.
        assert_eq!(
            Message::decode(enc.slice(0..enc.len() - 1)),
            Err(StoreError::Malformed("add-node row mismatch"))
        );
        let ack = Message::AddNodeResp { id: 100 };
        let enc = ack.encode().unwrap();
        assert_eq!(enc.len(), ack.encoded_len());
        assert_eq!(Message::decode(enc).unwrap(), ack);
    }

    #[test]
    fn huge_ingest_counts_do_not_overallocate() {
        // An edge batch claiming u32::MAX pairs with no payload fails fast.
        let mut bad = BytesMut::new();
        bad.put_u8(TAG_ADD_EDGE_REQ);
        bad.put_u32_le(u32::MAX);
        assert_eq!(
            Message::decode(bad.freeze()),
            Err(StoreError::Malformed("truncated edge list"))
        );
        // Same for an absurd add-node row length.
        let mut bad = BytesMut::new();
        bad.put_u8(TAG_ADD_NODE_REQ);
        bad.put_u32_le(5);
        bad.put_u32_le(0);
        bad.put_u32_le(u32::MAX);
        assert_eq!(
            Message::decode(bad.freeze()),
            Err(StoreError::Malformed("add-node row mismatch"))
        );
    }

    #[test]
    fn migration_frames_roundtrip() {
        let msgs = vec![
            Message::PrepareMigrateReq { node: 7, dest: 2 },
            Message::PrepareMigrateResp {
                node: 7,
                owner: 1,
                row: vec![1.5, -2.5],
                neighbors: vec![3, 9, 11],
            },
            Message::MigrateCopyReq {
                node: 7,
                dest: 2,
                row: vec![1.5, -2.5],
                neighbors: vec![3, 9, 11],
            },
            Message::MigrateCopyResp { node: 7 },
            Message::CommitMigrateReq { node: 7, owner: 2 },
            Message::CommitMigrateResp { node: 7, owner: 2 },
            Message::OwnerReq { node: 7 },
            Message::OwnerResp { node: 7, owner: 2 },
            Message::TombstoneReq { node: 7, old_owner: 1 },
            Message::TombstoneResp { node: 7 },
        ];
        for m in msgs {
            let enc = m.encode().unwrap();
            assert_eq!(enc.len(), m.encoded_len(), "{:?}", m);
            assert_eq!(Message::decode(enc).unwrap(), m);
        }
    }

    #[test]
    fn migration_frames_reject_trailing_garbage() {
        // Fixed-size migration frames validate exact length: a byte of
        // trailing garbage is protocol corruption, not slack.
        for m in [
            Message::CommitMigrateReq { node: 1, owner: 0 },
            Message::OwnerResp { node: 1, owner: 0 },
            Message::TombstoneResp { node: 1 },
            Message::MigrateCopyReq { node: 1, dest: 0, row: vec![0.5], neighbors: vec![2] },
        ] {
            let enc = m.encode().unwrap();
            let mut long = BytesMut::new();
            long.put_slice(&enc);
            long.put_u8(0xAB);
            assert_eq!(
                Message::decode(long.freeze()),
                Err(StoreError::Malformed("migrate frame length mismatch")),
                "{:?}",
                m
            );
        }
    }

    #[test]
    fn migrate_copy_truncation_and_huge_counts_fail_fast() {
        let m = Message::MigrateCopyReq {
            node: 4,
            dest: 1,
            row: vec![1.0, 2.0, 3.0],
            neighbors: vec![8, 9],
        };
        let enc = m.encode().unwrap();
        // Every proper prefix must fail to decode (no partial successes).
        for cut in 0..enc.len() {
            assert!(Message::decode(enc.slice(0..cut)).is_err(), "cut at {}", cut);
        }
        // A row length claiming u32::MAX floats with no payload fails fast
        // without a giant reservation.
        let mut bad = BytesMut::new();
        bad.put_u8(TAG_MIGRATE_COPY_REQ);
        bad.put_u32_le(4);
        bad.put_u32_le(1);
        bad.put_u32_le(u32::MAX);
        assert_eq!(
            Message::decode(bad.freeze()),
            Err(StoreError::Malformed("truncated migrate row"))
        );
    }

    #[test]
    fn empty_payloads_are_valid() {
        let m = Message::NeighborReq { fanout: 0, nodes: vec![] };
        assert_eq!(Message::decode(m.encode().unwrap()).unwrap(), m);
        let m = Message::FeatureResp { dim: 4, rows: vec![] };
        assert_eq!(Message::decode(m.encode().unwrap()).unwrap(), m);
        let m = Message::FeatureRespF16 { dim: 4, rows: vec![] };
        assert_eq!(Message::decode(m.encode().unwrap()).unwrap(), m);
    }
}
