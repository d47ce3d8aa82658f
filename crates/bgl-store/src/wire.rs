//! Length-prefixed binary wire codec.
//!
//! Every store RPC crosses this codec in both directions, so message sizes
//! (the quantity the network model charges) are the real encoded sizes.
//! Format: one type byte, then type-specific little-endian payload.
//!
//! The decoder takes every field through `bgl_graph::le::Reader`, the one
//! place a length is compared with the bytes that are left: a truncated or
//! corrupt frame is a [`StoreError::Malformed`] carrying the label of the
//! field that ran short, never a panic (failure-injection tests feed it
//! garbage), a count is checked against the remainder before anything is
//! allocated for it, and a frame must end where its message does — bytes
//! after a complete message are `Malformed("trailing bytes")` for every
//! kind. The encoder is checked too: a count that does not fit its `u32`
//! field is [`StoreError::TooLarge`], not a silent `as`.
//!
//! Feature rows travel in either precision: [`Message::FeatureResp`]
//! carries f32 scalars (4 B each), [`Message::FeatureRespF16`] carries
//! IEEE 754 binary16 (2 B each) — the f16 response to an
//! [`Message::FeatureReqF16`] is literally half the bytes on the wire,
//! which is what halves D_II in the §3.4 profile. Row payloads and id lists
//! move between the frame and the message's `Vec` in one pass over the
//! bytes (`le::put_le` / `Reader::vec`), never converted: an f16 payload
//! decodes to the `u16` bit patterns it carries, and whoever assembles a
//! minibatch widens them.

use crate::StoreError::{self, Malformed};
use bgl_graph::half::LeScalar;
use bgl_graph::le::{put_count, put_le, Reader};
use bgl_graph::NodeId;
use bytes::Bytes;

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

/// What [`Message::decode`] says about bytes left over after a complete
/// message, whatever its kind.
const TRAILING: StoreError = Malformed("trailing bytes");

/// Start a frame: the tag byte and the fixed `u32` words that follow it.
fn head(out: &mut Vec<u8>, tag: u8, words: &[u32]) {
    out.push(tag);
    put_le(out, words);
}

/// A `u32` count field; [`StoreError::TooLarge`] when `len` does not fit.
fn put_len(out: &mut Vec<u8>, len: usize, what: &'static str) -> Result<(), StoreError> {
    put_count(out, len).ok_or(StoreError::TooLarge(what))
}

/// A counted vector: its `u32` length, then its image in one pass.
fn put_counted<T: LeScalar>(
    out: &mut Vec<u8>,
    v: &[T],
    what: &'static str,
) -> Result<(), StoreError> {
    put_len(out, v.len(), what)?;
    put_le(out, v);
    Ok(())
}

impl Message {
    /// The error for a well-formed reply of the wrong kind — the `else` of
    /// every caller's `let Message::XResp { .. } = resp else { .. }`.
    pub fn unexpected() -> StoreError {
        Malformed("unexpected response")
    }

    /// Encode into a frame. Fails with [`StoreError::TooLarge`] if any
    /// count exceeds its `u32` wire field.
    pub fn encode(&self) -> Result<Bytes, StoreError> {
        // Room for any fixed head; a bulk vector grows it once, to size.
        let mut out = Vec::with_capacity(32);
        match self {
            Message::NeighborReq { fanout, nodes } => {
                head(&mut out, TAG_NEIGHBOR_REQ, &[*fanout]);
                put_counted(&mut out, nodes, "neighbor req count")?;
            }
            Message::NeighborReqSeeded { fanout, salt, nodes } => {
                head(&mut out, TAG_NEIGHBOR_REQ_SEEDED, &[*fanout]);
                out.extend_from_slice(&salt.to_le_bytes());
                put_counted(&mut out, nodes, "neighbor req count")?;
            }
            Message::NeighborResp { lists } => {
                head(&mut out, TAG_NEIGHBOR_RESP, &[]);
                put_len(&mut out, lists.len(), "neighbor resp count")?;
                for list in lists {
                    put_counted(&mut out, list, "neighbor list len")?;
                }
            }
            Message::FeatureReq { nodes } => {
                head(&mut out, TAG_FEATURE_REQ, &[]);
                put_counted(&mut out, nodes, "feature req count")?;
            }
            Message::FeatureResp { dim, rows } => {
                head(&mut out, TAG_FEATURE_RESP, &[*dim]);
                put_counted(&mut out, rows, "feature row payload")?;
            }
            Message::FeatureUpdateReq { dim, nodes, rows } => {
                head(&mut out, TAG_FEATURE_UPDATE_REQ, &[*dim]);
                put_counted(&mut out, nodes, "feature update count")?;
                put_le(&mut out, rows);
            }
            Message::FeatureUpdateResp { applied } => {
                head(&mut out, TAG_FEATURE_UPDATE_RESP, &[*applied])
            }
            Message::FeatureReqF16 { nodes } => {
                head(&mut out, TAG_FEATURE_REQ_F16, &[]);
                put_counted(&mut out, nodes, "feature req count")?;
            }
            Message::FeatureRespF16 { dim, rows } => {
                head(&mut out, TAG_FEATURE_RESP_F16, &[*dim]);
                put_counted(&mut out, rows, "feature row payload")?;
            }
            Message::AddEdgeReq { edges } => {
                head(&mut out, TAG_ADD_EDGE_REQ, &[]);
                put_len(&mut out, edges.len(), "edge batch count")?;
                for &(u, v) in edges {
                    put_le(&mut out, &[u, v]);
                }
            }
            Message::AddEdgeResp { applied, rejected } => {
                head(&mut out, TAG_ADD_EDGE_RESP, &[*applied, *rejected])
            }
            Message::AddNodeReq { id, owner, row } => {
                head(&mut out, TAG_ADD_NODE_REQ, &[*id, *owner]);
                put_counted(&mut out, row, "add-node row len")?;
            }
            Message::AddNodeResp { id } => head(&mut out, TAG_ADD_NODE_RESP, &[*id]),
            Message::PrepareMigrateReq { node, dest } => {
                head(&mut out, TAG_PREPARE_MIGRATE_REQ, &[*node, *dest])
            }
            Message::PrepareMigrateResp { node, owner, row, neighbors } => {
                head(&mut out, TAG_PREPARE_MIGRATE_RESP, &[*node, *owner]);
                put_counted(&mut out, row, "migrate row len")?;
                put_counted(&mut out, neighbors, "migrate neighbor count")?;
            }
            Message::MigrateCopyReq { node, dest, row, neighbors } => {
                head(&mut out, TAG_MIGRATE_COPY_REQ, &[*node, *dest]);
                put_counted(&mut out, row, "migrate row len")?;
                put_counted(&mut out, neighbors, "migrate neighbor count")?;
            }
            Message::MigrateCopyResp { node } => head(&mut out, TAG_MIGRATE_COPY_RESP, &[*node]),
            Message::CommitMigrateReq { node, owner } => {
                head(&mut out, TAG_COMMIT_MIGRATE_REQ, &[*node, *owner])
            }
            Message::CommitMigrateResp { node, owner } => {
                head(&mut out, TAG_COMMIT_MIGRATE_RESP, &[*node, *owner])
            }
            Message::OwnerReq { node } => head(&mut out, TAG_OWNER_REQ, &[*node]),
            Message::OwnerResp { node, owner } => {
                head(&mut out, TAG_OWNER_RESP, &[*node, *owner])
            }
            Message::TombstoneReq { node, old_owner } => {
                head(&mut out, TAG_TOMBSTONE_REQ, &[*node, *old_owner])
            }
            Message::TombstoneResp { node } => head(&mut out, TAG_TOMBSTONE_RESP, &[*node]),
        }
        Ok(Bytes::from(out))
    }

    /// Decode a frame. Every field is taken through the one cursor
    /// ([`Reader`]), and the frame must end where the message does.
    pub fn decode(buf: Bytes) -> Result<Message, StoreError> {
        let mut r = Reader::new(&buf);
        let msg = match r.u8().ok_or(Malformed("empty frame"))? {
            TAG_NEIGHBOR_REQ => Message::NeighborReq {
                fanout: r.u32().ok_or(Malformed("fanout"))?,
                nodes: ids(&mut r)?,
            },
            TAG_NEIGHBOR_REQ_SEEDED => Message::NeighborReqSeeded {
                fanout: r.u32().ok_or(Malformed("fanout"))?,
                salt: r.u64().ok_or(Malformed("salt"))?,
                nodes: ids(&mut r)?,
            },
            TAG_NEIGHBOR_RESP => {
                let n = r.u32().ok_or(Malformed("count"))?;
                let lists = (0..n).map(|_| counted(&mut r, "list len", "truncated id list"));
                Message::NeighborResp { lists: lists.collect::<Result<_, _>>()? }
            }
            TAG_FEATURE_REQ => Message::FeatureReq { nodes: ids(&mut r)? },
            TAG_FEATURE_REQ_F16 => Message::FeatureReqF16 { nodes: ids(&mut r)? },
            TAG_FEATURE_RESP => {
                let (dim, n) = row_shape(&mut r)?;
                let rows = r.vec(n).ok_or(Malformed("truncated feature rows"))?;
                Message::FeatureResp { dim, rows }
            }
            TAG_FEATURE_RESP_F16 => {
                let (dim, n) = row_shape(&mut r)?;
                let rows = r.vec(n).ok_or(Malformed("truncated feature rows"))?;
                Message::FeatureRespF16 { dim, rows }
            }
            TAG_FEATURE_UPDATE_REQ => {
                let dim = r.u32().ok_or(Malformed("dim"))?;
                if dim == 0 {
                    return Err(Malformed("feature update with zero dim"));
                }
                let nodes = ids(&mut r)?;
                let want = nodes
                    .len()
                    .checked_mul(dim as usize)
                    .ok_or(Malformed("feature update row payload overflows"))?;
                // The rows carry no count of their own: they are the rest of
                // the frame, and the rest must be exactly count×dim scalars.
                const MISMATCH: StoreError = Malformed("feature update rows mismatch count×dim");
                let rows = r.vec(want).ok_or(MISMATCH)?;
                r.finish().ok_or(MISMATCH)?;
                Message::FeatureUpdateReq { dim, nodes, rows }
            }
            TAG_FEATURE_UPDATE_RESP => {
                Message::FeatureUpdateResp { applied: r.u32().ok_or(Malformed("applied"))? }
            }
            TAG_ADD_EDGE_REQ => {
                let n = r.u32().ok_or(Malformed("count"))? as usize;
                let ends: Vec<NodeId> =
                    r.vec(n.saturating_mul(2)).ok_or(Malformed("truncated edge list"))?;
                Message::AddEdgeReq { edges: ends.chunks_exact(2).map(|e| (e[0], e[1])).collect() }
            }
            TAG_ADD_EDGE_RESP => Message::AddEdgeResp {
                applied: r.u32().ok_or(Malformed("applied"))?,
                rejected: r.u32().ok_or(Malformed("rejected"))?,
            },
            TAG_ADD_NODE_REQ => {
                // Short or long, a row that disagrees with its length field
                // is this kind's own shape error.
                const MISMATCH: &str = "add-node row mismatch";
                let msg = Message::AddNodeReq {
                    id: r.u32().ok_or(Malformed("node id"))?,
                    owner: r.u32().ok_or(Malformed("owner"))?,
                    row: counted(&mut r, "row len", MISMATCH)?,
                };
                r.finish().ok_or(Malformed(MISMATCH))?;
                msg
            }
            TAG_ADD_NODE_RESP => Message::AddNodeResp { id: r.u32().ok_or(Malformed("node id"))? },
            TAG_PREPARE_MIGRATE_REQ => Message::PrepareMigrateReq {
                node: r.u32().ok_or(Malformed("node id"))?,
                dest: r.u32().ok_or(Malformed("migrate dest"))?,
            },
            TAG_PREPARE_MIGRATE_RESP => Message::PrepareMigrateResp {
                node: r.u32().ok_or(Malformed("node id"))?,
                owner: r.u32().ok_or(Malformed("migrate owner"))?,
                row: counted(&mut r, "row len", "truncated migrate row")?,
                neighbors: ids(&mut r)?,
            },
            TAG_MIGRATE_COPY_REQ => Message::MigrateCopyReq {
                node: r.u32().ok_or(Malformed("node id"))?,
                dest: r.u32().ok_or(Malformed("migrate dest"))?,
                row: counted(&mut r, "row len", "truncated migrate row")?,
                neighbors: ids(&mut r)?,
            },
            TAG_MIGRATE_COPY_RESP => {
                Message::MigrateCopyResp { node: r.u32().ok_or(Malformed("node id"))? }
            }
            TAG_COMMIT_MIGRATE_REQ => Message::CommitMigrateReq {
                node: r.u32().ok_or(Malformed("node id"))?,
                owner: r.u32().ok_or(Malformed("migrate owner"))?,
            },
            TAG_COMMIT_MIGRATE_RESP => Message::CommitMigrateResp {
                node: r.u32().ok_or(Malformed("node id"))?,
                owner: r.u32().ok_or(Malformed("migrate owner"))?,
            },
            TAG_OWNER_REQ => Message::OwnerReq { node: r.u32().ok_or(Malformed("node id"))? },
            TAG_OWNER_RESP => Message::OwnerResp {
                node: r.u32().ok_or(Malformed("node id"))?,
                owner: r.u32().ok_or(Malformed("migrate owner"))?,
            },
            TAG_TOMBSTONE_REQ => Message::TombstoneReq {
                node: r.u32().ok_or(Malformed("node id"))?,
                old_owner: r.u32().ok_or(Malformed("migrate owner"))?,
            },
            TAG_TOMBSTONE_RESP => {
                Message::TombstoneResp { node: r.u32().ok_or(Malformed("node id"))? }
            }
            _ => return Err(Malformed("unknown tag")),
        };
        r.finish().ok_or(TRAILING)?;
        Ok(msg)
    }
}

/// A `u32` count, then that many scalars in one pass; each half fails under
/// its own label.
fn counted<T: LeScalar>(
    r: &mut Reader<'_>,
    count: &'static str,
    short: &'static str,
) -> Result<Vec<T>, StoreError> {
    let n = r.u32().ok_or(Malformed(count))? as usize;
    r.vec(n).ok_or(Malformed(short))
}

fn ids(r: &mut Reader<'_>) -> Result<Vec<NodeId>, StoreError> {
    counted(r, "count", "truncated id list")
}

/// The `dim` and scalar-count fields of a feature response. Shape is
/// validated at the codec boundary, not just by the fetch path: a payload
/// that is not whole rows is corrupt, whatever bytes follow.
fn row_shape(r: &mut Reader<'_>) -> Result<(u32, usize), StoreError> {
    let dim = r.u32().ok_or(Malformed("dim"))?;
    let n = r.u32().ok_or(Malformed("row len"))? as usize;
    if dim == 0 && n != 0 {
        return Err(Malformed("feature rows with zero dim"));
    }
    if dim != 0 && !n.is_multiple_of(dim as usize) {
        return Err(Malformed("feature rows not a multiple of dim"));
    }
    Ok((dim, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_graph::half::f32_to_f16_bits;
    use bytes::{BufMut, BytesMut};

    #[test]
    fn neighbor_req_roundtrip() {
        let m = Message::NeighborReq { fanout: 15, nodes: vec![1, 2, 99] };
        let encoded = m.encode().unwrap();
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
        assert_eq!(Message::decode(encoded).unwrap(), m);
    }

    #[test]
    fn feature_roundtrip() {
        let req = Message::FeatureReq { nodes: vec![3] };
        assert_eq!(Message::decode(req.encode().unwrap()).unwrap(), req);
        let resp = Message::FeatureResp { dim: 2, rows: vec![1.5, -2.5] };
        let enc = resp.encode().unwrap();
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
        assert_eq!(Message::decode(enc.clone()).unwrap(), resp);

        // Exactly half the row payload of the equivalent f32 response.
        let f32_enc = Message::FeatureResp { dim: 2, rows: rows_f32.clone() }.encode().unwrap();
        assert_eq!(enc.len() - 9, (f32_enc.len() - 9) / 2);
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
        let mut out = Vec::new();
        assert_eq!(
            put_len(&mut out, u32::MAX as usize + 1, "feature req count"),
            Err(StoreError::TooLarge("feature req count"))
        );
        assert_eq!(put_len(&mut out, u32::MAX as usize, "x"), Ok(()));
        assert_eq!(put_len(&mut out, 0, "x"), Ok(()));
        assert_eq!(out, [0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0]);
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
        assert_eq!(Message::decode(enc).unwrap(), m);
        let ack = Message::FeatureUpdateResp { applied: 2 };
        let enc = ack.encode().unwrap();
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
        assert_eq!(Message::decode(enc.clone()).unwrap(), m);
        // Cutting inside the pair list is malformed, not a panic.
        assert_eq!(
            Message::decode(enc.slice(0..enc.len() - 3)),
            Err(StoreError::Malformed("truncated edge list"))
        );
        let ack = Message::AddEdgeResp { applied: 2, rejected: 1 };
        let enc = ack.encode().unwrap();
        assert_eq!(Message::decode(enc).unwrap(), ack);
    }

    #[test]
    fn add_node_roundtrip_and_shape_validation() {
        let m = Message::AddNodeReq { id: 100, owner: 3, row: vec![1.5, -2.5] };
        let enc = m.encode().unwrap();
        assert_eq!(Message::decode(enc.clone()).unwrap(), m);
        // Trailing garbage or a short row disagrees with the length field.
        assert_eq!(
            Message::decode(enc.slice(0..enc.len() - 1)),
            Err(StoreError::Malformed("add-node row mismatch"))
        );
        let ack = Message::AddNodeResp { id: 100 };
        let enc = ack.encode().unwrap();
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
            assert_eq!(Message::decode(enc).unwrap(), m);
        }
    }

    #[test]
    fn frames_reject_trailing_garbage() {
        // Every frame validates exact length: a byte of trailing garbage is
        // protocol corruption, not slack.
        for m in [
            Message::FeatureReq { nodes: vec![4] },
            Message::NeighborResp { lists: vec![vec![2]] },
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
                Err(TRAILING),
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
