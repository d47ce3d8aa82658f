//! The framing protocol.
//!
//! On the wire every frame is:
//!
//! ```text
//! [u32 len (LE)] [u64 corr_id (LE)] [u8 kind] [u8 flags] [payload …]
//! └─ LEN_PREFIX ┘└──────────── HEADER_LEN ──────────────┘
//! ```
//!
//! `len` counts everything after the length prefix (header + payload), so
//! a reader can sizes-check a frame before buffering it. `corr_id` lets a
//! client pipeline many requests on one connection and match responses
//! arriving in any order. `kind` selects the payload schema; `flags` is
//! reserved (must be 0 today, ignored on read for forward compatibility).
//!
//! Connections open with a handshake: the client sends [`Hello`]
//! (magic + version), the server answers [`HelloAck`] (version + its
//! identity and cluster shape). After that, `Req` frames carry
//! `bgl_store::wire::Message` payloads verbatim — this crate never
//! re-encodes them — answered by `Resp` (a wire message) or `Err` (a
//! [`StoreError`] in the codec below). `Control` frames drive the server
//! runtime itself: failure injection, replication config, load stats.
//!
//! There is deliberately no goodbye frame — close is a socket close — so
//! byte counters on both sides reconcile exactly.
//!
//! Every payload codec here reads through `bgl_graph::le::Reader` and ends
//! with its `finish()`: a payload is exactly its value, and bytes after it
//! are [`TRAILING`], for the handshake, control ops, stats and the error
//! codec alike.

use crate::NetError;
use bgl_graph::le::{put_count, put_le, Reader};
use bgl_store::StoreError;
use bytes::Bytes;

/// What every payload decoder in this crate says about bytes left over
/// after a complete value: payloads are exact-length, on both planes.
pub(crate) const TRAILING: NetError = NetError::Malformed("trailing bytes");

/// First bytes of every connection: `"BGLN"` little-endian.
pub const MAGIC: u32 = 0x4E4C4742;
/// Protocol version spoken by this build.
pub const PROTOCOL_VERSION: u32 = 1;
/// Size of the length prefix.
pub const LEN_PREFIX: usize = 4;
/// Size of the frame header after the length prefix.
pub const HEADER_LEN: usize = 10;
/// Default per-frame size cap (header + payload).
pub const DEFAULT_MAX_FRAME: usize = 64 << 20;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: magic + version.
    Hello = 1,
    /// Server → client: version + server identity.
    HelloAck = 2,
    /// Client → server: an encoded `bgl_store::wire::Message` request.
    Req = 3,
    /// Server → client: an encoded `bgl_store::wire::Message` response.
    Resp = 4,
    /// Server → client: an encoded [`StoreError`].
    Err = 5,
    /// Client → server: a [`ControlOp`].
    Control = 6,
    /// Server → client: acknowledgement (Stats carries a [`StatsReply`]).
    ControlAck = 7,
    /// Client → serve front-end: an encoded [`crate::query::QueryReq`].
    Query = 8,
    /// Serve front-end → client: an encoded [`crate::query::QueryResp`].
    QueryOk = 9,
    /// Serve front-end → client: an encoded [`crate::query::QueryError`].
    QueryErr = 10,
}

impl FrameKind {
    /// Decode a kind byte.
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::HelloAck),
            3 => Some(FrameKind::Req),
            4 => Some(FrameKind::Resp),
            5 => Some(FrameKind::Err),
            6 => Some(FrameKind::Control),
            7 => Some(FrameKind::ControlAck),
            8 => Some(FrameKind::Query),
            9 => Some(FrameKind::QueryOk),
            10 => Some(FrameKind::QueryErr),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Request/response correlation id (0 for handshake frames).
    pub corr_id: u64,
    /// Payload schema selector.
    pub kind: FrameKind,
    /// Reserved; writers send 0, readers ignore.
    pub flags: u8,
    /// Kind-specific payload.
    pub payload: Bytes,
}

impl Frame {
    /// Build a frame with zeroed flags.
    pub fn new(corr_id: u64, kind: FrameKind, payload: Bytes) -> Frame {
        Frame { corr_id, kind, flags: 0, payload }
    }

    /// Encode the frame, length prefix included, ready to write.
    pub fn encode(&self) -> Vec<u8> {
        let len = HEADER_LEN + self.payload.len();
        let mut out = Vec::with_capacity(LEN_PREFIX + len);
        out.extend_from_slice(&(len as u32).to_le_bytes());
        out.extend_from_slice(&self.corr_id.to_le_bytes());
        out.push(self.kind as u8);
        out.push(self.flags);
        out.extend_from_slice(&self.payload);
        out
    }
}

/// Client side of the handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Must be [`MAGIC`].
    pub magic: u32,
    /// Protocol version the client speaks.
    pub version: u32,
}

impl Hello {
    /// A hello for this build.
    pub fn ours() -> Hello {
        Hello { magic: MAGIC, version: PROTOCOL_VERSION }
    }

    /// Encode the payload.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(8);
        put_le(&mut out, &[self.magic, self.version]);
        out.into()
    }

    /// Decode the payload. Exact-length like every other payload: a longer
    /// hello from some future version loses nothing by it, because the
    /// listener answers a malformed hello and a wrong-version hello with the
    /// same refusal frame.
    pub fn decode(buf: Bytes) -> Result<Hello, NetError> {
        const SHORT: NetError = NetError::Malformed("short hello");
        let mut r = Reader::new(&buf);
        let hello = Hello { magic: r.u32().ok_or(SHORT)?, version: r.u32().ok_or(SHORT)? };
        r.finish().ok_or(TRAILING)?;
        Ok(hello)
    }
}

/// Server side of the handshake: identity + cluster shape, so a client
/// can verify it dialed the server it meant to and learn the feature
/// dimensionality without a data round-trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelloAck {
    /// Protocol version the server speaks.
    pub version: u32,
    /// The server's index within its cluster.
    pub server_id: u32,
    /// Cluster size the server believes in.
    pub num_servers: u32,
    /// Feature dimensionality served.
    pub feature_dim: u32,
}

impl HelloAck {
    /// Encode the payload.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(16);
        put_le(&mut out, &[self.version, self.server_id, self.num_servers, self.feature_dim]);
        out.into()
    }

    /// Decode the payload.
    pub fn decode(buf: Bytes) -> Result<HelloAck, NetError> {
        const SHORT: NetError = NetError::Malformed("short hello ack");
        let mut r = Reader::new(&buf);
        let ack = HelloAck {
            version: r.u32().ok_or(SHORT)?,
            server_id: r.u32().ok_or(SHORT)?,
            num_servers: r.u32().ok_or(SHORT)?,
            feature_dim: r.u32().ok_or(SHORT)?,
        };
        r.finish().ok_or(TRAILING)?;
        Ok(ack)
    }
}

const CTRL_SET_DOWN: u8 = 1;
const CTRL_SET_REPLICATION: u8 = 2;
const CTRL_STATS: u8 = 3;
const CTRL_SET_SLOW: u8 = 4;

/// Drive the server runtime from the client side, so a remote cluster
/// stays fully controllable: failure injection, replication layout, load
/// accounting, and slow-server simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlOp {
    /// App-level down flag: the server keeps its socket but rejects every
    /// request with `ServerDown` (matches the in-process injection).
    SetDown(bool),
    /// Propagate the replication layout. The fields are the width they
    /// travel at, so a layout that does not fit is refused where it is
    /// built (`TcpTransport::set_replication`), not narrowed here.
    SetReplication {
        /// Replica count r.
        replication: u32,
        /// Cluster size n.
        num_servers: u32,
    },
    /// Ask for load counters; answered with a [`StatsReply`] payload.
    Stats,
    /// Delay every subsequent request by `micros` (0 clears), to exercise
    /// client read timeouts.
    SetSlow {
        /// Artificial per-request delay in microseconds.
        micros: u64,
    },
}

impl ControlOp {
    /// Encode the payload.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(9);
        match self {
            ControlOp::SetDown(down) => out.extend_from_slice(&[CTRL_SET_DOWN, u8::from(*down)]),
            ControlOp::SetReplication { replication, num_servers } => {
                out.push(CTRL_SET_REPLICATION);
                put_le(&mut out, &[*replication, *num_servers]);
            }
            ControlOp::Stats => out.push(CTRL_STATS),
            ControlOp::SetSlow { micros } => {
                out.push(CTRL_SET_SLOW);
                put_le(&mut out, &[*micros]);
            }
        }
        out.into()
    }

    /// Decode the payload.
    pub fn decode(buf: Bytes) -> Result<ControlOp, NetError> {
        use NetError::Malformed;
        let mut r = Reader::new(&buf);
        let op = match r.u8().ok_or(Malformed("empty control payload"))? {
            CTRL_SET_DOWN => {
                ControlOp::SetDown(r.u8().ok_or(Malformed("short set-down payload"))? != 0)
            }
            CTRL_SET_REPLICATION => {
                const SHORT: NetError = Malformed("short set-replication payload");
                ControlOp::SetReplication {
                    replication: r.u32().ok_or(SHORT)?,
                    num_servers: r.u32().ok_or(SHORT)?,
                }
            }
            CTRL_STATS => ControlOp::Stats,
            CTRL_SET_SLOW => {
                ControlOp::SetSlow { micros: r.u64().ok_or(Malformed("short set-slow payload"))? }
            }
            _ => return Err(Malformed("unknown control op")),
        };
        r.finish().ok_or(TRAILING)?;
        Ok(op)
    }
}

/// Load counters reported by a server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Requests the server has handled (including rejected ones).
    pub requests_served: u64,
    /// Total nodes it has sampled neighbors for.
    pub nodes_sampled: u64,
}

impl StatsReply {
    /// Encode the payload.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(16);
        put_le(&mut out, &[self.requests_served, self.nodes_sampled]);
        out.into()
    }

    /// Decode the payload.
    pub fn decode(buf: Bytes) -> Result<StatsReply, NetError> {
        const SHORT: NetError = NetError::Malformed("short stats payload");
        let mut r = Reader::new(&buf);
        let stats = StatsReply {
            requests_served: r.u64().ok_or(SHORT)?,
            nodes_sampled: r.u64().ok_or(SHORT)?,
        };
        r.finish().ok_or(TRAILING)?;
        Ok(stats)
    }
}

const ERR_SERVER_DOWN: u8 = 1;
const ERR_REQUEST_DROPPED: u8 = 2;
const ERR_CORRUPT_FRAME: u8 = 3;
const ERR_NOT_OWNED: u8 = 4;
const ERR_MALFORMED: u8 = 5;
const ERR_INVALID_NODE: u8 = 6;
const ERR_INVALID_SERVER: u8 = 7;
const ERR_EMPTY_CLUSTER: u8 = 8;
const ERR_DEADLINE_EXCEEDED: u8 = 9;
const ERR_ALL_REPLICAS_FAILED: u8 = 10;
const ERR_STORAGE: u8 = 11;
const ERR_TOO_LARGE: u8 = 12;
const ERR_NOT_OWNER: u8 = 13;

/// The `Malformed` messages the store actually produces. `StoreError::
/// Malformed` holds a `&'static str`, so the decoder resolves the wire
/// string against this table; anything else (a future server version)
/// falls back to a generic label rather than failing to decode. A label the
/// store grows must be added here too: `tests/streaming.rs` decodes every
/// prefix of every message and fails on the one this table lacks.
const KNOWN_MALFORMED: &[&str] = &[
    "empty frame",
    "fanout",
    "count",
    "list len",
    "row len",
    "dim",
    "feature rows with zero dim",
    "feature rows not a multiple of dim",
    "truncated feature rows",
    "truncated id list",
    "unknown tag",
    "response sent to server",
    "wrong list count",
    "unexpected response",
    "bad feature payload",
    "oversized frame",
    "handshake failed",
    "handshake refused",
    "protocol version mismatch",
    "applied",
    "feature update with zero dim",
    "feature update rows mismatch count×dim",
    "feature update row payload overflows",
    "feature update dim mismatch",
    "update rows mismatch count×dim",
    "partial update ack",
    "salt",
    "truncated edge list",
    "rejected",
    "node id",
    "owner",
    "add-node row mismatch",
    "add-node row dim mismatch",
    "add-node id gap",
    "partial edge ack",
    "node append ack mismatch",
    "migrate to current owner",
    "migrate adjacency mismatch",
    "migrate row dim mismatch",
    "tombstone before commit",
    "trailing bytes",
    "truncated migrate row",
    "migrate dest",
    "migrate owner",
];

/// The `Storage` messages the durable disk tier actually produces, resolved
/// the same way as `KNOWN_MALFORMED`.
const KNOWN_STORAGE: &[&str] = &[
    "i/o failure",
    "transient i/o retries exhausted",
    "bad magic",
    "unsupported version",
    "truncated file",
    "checksum mismatch",
    "storage invariant violated",
    "buffer pool exhausted",
    "no disk tier attached",
];

/// The `TooLarge` messages the wire codec actually produces (a count or
/// payload that does not fit its u32 length header), resolved the same way
/// as `KNOWN_MALFORMED`.
const KNOWN_TOO_LARGE: &[&str] = &[
    "neighbor req count",
    "neighbor resp count",
    "neighbor list len",
    "feature req count",
    "feature row payload",
    "feature update count",
    "feature update ack count",
    "edge batch count",
    "add-node row len",
    "node id space",
    "migrate row len",
    "migrate neighbor count",
    "replication layout",
];

/// Start an error payload: the code byte and the fixed `u32` words after it.
fn coded(code: u8, words: &[u32]) -> Vec<u8> {
    let mut out = vec![code];
    put_le(&mut out, words);
    out
}

/// An error that carries a label: the code, the label's length, its bytes.
fn labelled(code: u8, what: &'static str) -> Vec<u8> {
    let mut out = vec![code];
    put_count(&mut out, what.len()).expect("a static label is shorter than 4 GiB");
    out.extend_from_slice(what.as_bytes());
    out
}

/// Encode a [`StoreError`] for an `Err` frame payload.
pub fn encode_store_error(e: &StoreError) -> Bytes {
    match e {
        StoreError::ServerDown(s) => coded(ERR_SERVER_DOWN, &[*s as u32]),
        StoreError::RequestDropped(s) => coded(ERR_REQUEST_DROPPED, &[*s as u32]),
        StoreError::CorruptFrame(s) => coded(ERR_CORRUPT_FRAME, &[*s as u32]),
        StoreError::NotOwned { node, server } => coded(ERR_NOT_OWNED, &[*node, *server as u32]),
        StoreError::Malformed(what) => labelled(ERR_MALFORMED, what),
        StoreError::InvalidNode(v) => coded(ERR_INVALID_NODE, &[*v]),
        StoreError::InvalidServer(s) => coded(ERR_INVALID_SERVER, &[*s as u32]),
        StoreError::EmptyCluster => coded(ERR_EMPTY_CLUSTER, &[]),
        StoreError::DeadlineExceeded => coded(ERR_DEADLINE_EXCEEDED, &[]),
        StoreError::AllReplicasFailed { node_owner } => {
            coded(ERR_ALL_REPLICAS_FAILED, &[*node_owner as u32])
        }
        StoreError::Storage(what) => labelled(ERR_STORAGE, what),
        StoreError::TooLarge(what) => labelled(ERR_TOO_LARGE, what),
        StoreError::NotOwner { node, owner } => coded(ERR_NOT_OWNER, &[*node, *owner]),
    }
    .into()
}

/// Decode an `Err` frame payload back into a [`StoreError`].
pub fn decode_store_error(buf: Bytes) -> Result<StoreError, NetError> {
    const SHORT: NetError = NetError::Malformed("short error payload");
    let mut r = Reader::new(&buf);
    // A label travels as text; it comes back as the entry of `known` it
    // equals, or as `unknown` when a newer peer said something else.
    let label = |r: &mut Reader<'_>, known: &[&'static str], unknown: &'static str| {
        let len = r.u32().ok_or(SHORT)? as usize;
        let raw = r.take(len).ok_or(SHORT)?;
        Ok(known.iter().copied().find(|k| k.as_bytes() == raw).unwrap_or(unknown))
    };
    let e = match r.u8().ok_or(NetError::Malformed("empty error payload"))? {
        ERR_SERVER_DOWN => StoreError::ServerDown(r.u32().ok_or(SHORT)? as usize),
        ERR_REQUEST_DROPPED => StoreError::RequestDropped(r.u32().ok_or(SHORT)? as usize),
        ERR_CORRUPT_FRAME => StoreError::CorruptFrame(r.u32().ok_or(SHORT)? as usize),
        ERR_NOT_OWNED => StoreError::NotOwned {
            node: r.u32().ok_or(SHORT)?,
            server: r.u32().ok_or(SHORT)? as usize,
        },
        ERR_MALFORMED => StoreError::Malformed(label(
            &mut r,
            KNOWN_MALFORMED,
            "malformed (reported by remote)",
        )?),
        ERR_INVALID_NODE => StoreError::InvalidNode(r.u32().ok_or(SHORT)?),
        ERR_INVALID_SERVER => StoreError::InvalidServer(r.u32().ok_or(SHORT)? as usize),
        ERR_EMPTY_CLUSTER => StoreError::EmptyCluster,
        ERR_DEADLINE_EXCEEDED => StoreError::DeadlineExceeded,
        ERR_ALL_REPLICAS_FAILED => {
            StoreError::AllReplicasFailed { node_owner: r.u32().ok_or(SHORT)? as usize }
        }
        ERR_STORAGE => StoreError::Storage(label(
            &mut r,
            KNOWN_STORAGE,
            "storage error (reported by remote)",
        )?),
        ERR_TOO_LARGE => StoreError::TooLarge(label(
            &mut r,
            KNOWN_TOO_LARGE,
            "too large (reported by remote)",
        )?),
        ERR_NOT_OWNER => {
            StoreError::NotOwner { node: r.u32().ok_or(SHORT)?, owner: r.u32().ok_or(SHORT)? }
        }
        _ => return Err(NetError::Malformed("unknown error code")),
    };
    r.finish().ok_or(TRAILING)?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};

    #[test]
    fn frame_round_trips_through_encode() {
        let f = Frame::new(42, FrameKind::Req, Bytes::from(vec![1u8, 2, 3]));
        let wire = f.encode();
        assert_eq!(wire.len(), LEN_PREFIX + HEADER_LEN + 3);
        let len = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
        assert_eq!(len, HEADER_LEN + 3);
        assert_eq!(u64::from_le_bytes(wire[4..12].try_into().unwrap()), 42);
        assert_eq!(wire[12], FrameKind::Req as u8);
        assert_eq!(wire[13], 0);
        assert_eq!(&wire[14..], &[1, 2, 3]);
    }

    #[test]
    fn frame_kinds_round_trip() {
        for k in [
            FrameKind::Hello,
            FrameKind::HelloAck,
            FrameKind::Req,
            FrameKind::Resp,
            FrameKind::Err,
            FrameKind::Control,
            FrameKind::ControlAck,
            FrameKind::Query,
            FrameKind::QueryOk,
            FrameKind::QueryErr,
        ] {
            assert_eq!(FrameKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(FrameKind::from_u8(0), None);
        assert_eq!(FrameKind::from_u8(11), None);
    }

    #[test]
    fn handshake_payloads_round_trip() {
        let h = Hello::ours();
        assert_eq!(Hello::decode(h.encode()).unwrap(), h);
        let ack = HelloAck { version: 1, server_id: 2, num_servers: 4, feature_dim: 32 };
        assert_eq!(HelloAck::decode(ack.encode()).unwrap(), ack);
        assert_eq!(
            Hello::decode(Bytes::from(vec![1u8, 2, 3])).unwrap_err(),
            NetError::Malformed("short hello")
        );
    }

    #[test]
    fn control_ops_round_trip() {
        for op in [
            ControlOp::SetDown(true),
            ControlOp::SetDown(false),
            ControlOp::SetReplication { replication: 2, num_servers: 4 },
            ControlOp::Stats,
            ControlOp::SetSlow { micros: 1500 },
        ] {
            assert_eq!(ControlOp::decode(op.encode()).unwrap(), op);
        }
        assert_eq!(
            ControlOp::decode(Bytes::from(vec![99u8])).unwrap_err(),
            NetError::Malformed("unknown control op")
        );
    }

    #[test]
    fn stats_reply_round_trips() {
        let s = StatsReply { requests_served: 10, nodes_sampled: 99 };
        assert_eq!(StatsReply::decode(s.encode()).unwrap(), s);
    }

    #[test]
    fn every_store_error_round_trips() {
        let all = [
            StoreError::ServerDown(3),
            StoreError::RequestDropped(1),
            StoreError::CorruptFrame(2),
            StoreError::NotOwned { node: 9, server: 4 },
            StoreError::Malformed("unknown tag"),
            StoreError::InvalidNode(77),
            StoreError::InvalidServer(5),
            StoreError::EmptyCluster,
            StoreError::DeadlineExceeded,
            StoreError::AllReplicasFailed { node_owner: 2 },
            StoreError::Storage("no disk tier attached"),
            StoreError::TooLarge("feature row payload"),
            StoreError::NotOwner { node: 12, owner: 2 },
            StoreError::Malformed("migrate adjacency mismatch"),
            StoreError::Malformed("tombstone before commit"),
            StoreError::TooLarge("migrate row len"),
        ];
        for e in all {
            let decoded = decode_store_error(encode_store_error(&e)).unwrap();
            assert_eq!(decoded, e);
            assert_eq!(decoded.is_transient(), e.is_transient());
        }
    }

    #[test]
    fn unknown_malformed_string_falls_back_to_generic() {
        // Simulate a future server emitting a message this build doesn't
        // know: tag + len + bytes.
        let mut buf = BytesMut::new();
        buf.put_u8(5);
        buf.put_u32_le(6);
        buf.put_slice(b"mystic");
        let decoded = decode_store_error(buf.freeze()).unwrap();
        assert_eq!(decoded, StoreError::Malformed("malformed (reported by remote)"));

        // Same future-compatibility story for storage errors.
        let mut buf = BytesMut::new();
        buf.put_u8(11);
        buf.put_u32_le(6);
        buf.put_slice(b"mystic");
        let decoded = decode_store_error(buf.freeze()).unwrap();
        assert_eq!(decoded, StoreError::Storage("storage error (reported by remote)"));

        // And for too-large errors.
        let mut buf = BytesMut::new();
        buf.put_u8(12);
        buf.put_u32_le(6);
        buf.put_slice(b"mystic");
        let decoded = decode_store_error(buf.freeze()).unwrap();
        assert_eq!(decoded, StoreError::TooLarge("too large (reported by remote)"));
    }

    /// Every payload of this module is exact-length: one byte past a
    /// complete value is `TRAILING`, not slack that decodes as if absent.
    #[test]
    fn every_payload_rejects_a_trailing_byte() {
        let long = |payload: Bytes| Bytes::from([&payload[..], &[0xAB]].concat());
        assert_eq!(Hello::decode(long(Hello::ours().encode())), Err(TRAILING));
        let ack = HelloAck { version: 1, server_id: 2, num_servers: 4, feature_dim: 32 };
        assert_eq!(HelloAck::decode(long(ack.encode())), Err(TRAILING));
        for op in [
            ControlOp::SetDown(true),
            ControlOp::SetReplication { replication: 2, num_servers: 4 },
            ControlOp::Stats,
            ControlOp::SetSlow { micros: 1500 },
        ] {
            assert_eq!(ControlOp::decode(long(op.encode())), Err(TRAILING), "{op:?}");
        }
        let stats = StatsReply { requests_served: 10, nodes_sampled: 99 };
        assert_eq!(StatsReply::decode(long(stats.encode())), Err(TRAILING));
        for e in [
            StoreError::ServerDown(3),
            StoreError::EmptyCluster,
            StoreError::Malformed("salt"),
            StoreError::NotOwner { node: 12, owner: 2 },
        ] {
            assert_eq!(decode_store_error(long(encode_store_error(&e))), Err(TRAILING), "{e:?}");
        }
    }

    #[test]
    fn corrupt_error_payloads_reject() {
        assert!(decode_store_error(Bytes::from(Vec::new())).is_err());
        assert!(decode_store_error(Bytes::from(vec![1u8, 0])).is_err());
        assert!(decode_store_error(Bytes::from(vec![200u8])).is_err());
        // Malformed with a length longer than the payload.
        let mut buf = BytesMut::new();
        buf.put_u8(5);
        buf.put_u32_le(100);
        buf.put_slice(b"hi");
        assert!(decode_store_error(buf.freeze()).is_err());
    }
}
