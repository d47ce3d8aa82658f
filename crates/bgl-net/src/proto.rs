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

use crate::NetError;
use bgl_store::StoreError;
use bytes::{Buf, BufMut, Bytes, BytesMut};

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
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u32_le(self.magic);
        buf.put_u32_le(self.version);
        buf.freeze()
    }

    /// Decode the payload.
    pub fn decode(mut buf: Bytes) -> Result<Hello, NetError> {
        if buf.remaining() < 8 {
            return Err(NetError::Malformed("short hello"));
        }
        Ok(Hello { magic: buf.get_u32_le(), version: buf.get_u32_le() })
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
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u32_le(self.version);
        buf.put_u32_le(self.server_id);
        buf.put_u32_le(self.num_servers);
        buf.put_u32_le(self.feature_dim);
        buf.freeze()
    }

    /// Decode the payload.
    pub fn decode(mut buf: Bytes) -> Result<HelloAck, NetError> {
        if buf.remaining() < 16 {
            return Err(NetError::Malformed("short hello ack"));
        }
        Ok(HelloAck {
            version: buf.get_u32_le(),
            server_id: buf.get_u32_le(),
            num_servers: buf.get_u32_le(),
            feature_dim: buf.get_u32_le(),
        })
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
    /// Propagate the replication layout.
    SetReplication {
        /// Replica count r.
        replication: usize,
        /// Cluster size n.
        num_servers: usize,
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
        let mut buf = BytesMut::with_capacity(16);
        match self {
            ControlOp::SetDown(down) => {
                buf.put_u8(CTRL_SET_DOWN);
                buf.put_u8(u8::from(*down));
            }
            ControlOp::SetReplication { replication, num_servers } => {
                buf.put_u8(CTRL_SET_REPLICATION);
                buf.put_u32_le(*replication as u32);
                buf.put_u32_le(*num_servers as u32);
            }
            ControlOp::Stats => buf.put_u8(CTRL_STATS),
            ControlOp::SetSlow { micros } => {
                buf.put_u8(CTRL_SET_SLOW);
                buf.put_u64_le(*micros);
            }
        }
        buf.freeze()
    }

    /// Decode the payload.
    pub fn decode(mut buf: Bytes) -> Result<ControlOp, NetError> {
        if buf.remaining() < 1 {
            return Err(NetError::Malformed("empty control payload"));
        }
        match buf.get_u8() {
            CTRL_SET_DOWN => {
                if buf.remaining() < 1 {
                    return Err(NetError::Malformed("short set-down payload"));
                }
                Ok(ControlOp::SetDown(buf.get_u8() != 0))
            }
            CTRL_SET_REPLICATION => {
                if buf.remaining() < 8 {
                    return Err(NetError::Malformed("short set-replication payload"));
                }
                Ok(ControlOp::SetReplication {
                    replication: buf.get_u32_le() as usize,
                    num_servers: buf.get_u32_le() as usize,
                })
            }
            CTRL_STATS => Ok(ControlOp::Stats),
            CTRL_SET_SLOW => {
                if buf.remaining() < 8 {
                    return Err(NetError::Malformed("short set-slow payload"));
                }
                Ok(ControlOp::SetSlow { micros: buf.get_u64_le() })
            }
            _ => Err(NetError::Malformed("unknown control op")),
        }
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
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u64_le(self.requests_served);
        buf.put_u64_le(self.nodes_sampled);
        buf.freeze()
    }

    /// Decode the payload.
    pub fn decode(mut buf: Bytes) -> Result<StatsReply, NetError> {
        if buf.remaining() < 16 {
            return Err(NetError::Malformed("short stats payload"));
        }
        Ok(StatsReply {
            requests_served: buf.get_u64_le(),
            nodes_sampled: buf.get_u64_le(),
        })
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
    "migrate frame length mismatch",
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
];

/// Encode a [`StoreError`] for an `Err` frame payload.
pub fn encode_store_error(e: &StoreError) -> Bytes {
    let mut buf = BytesMut::with_capacity(16);
    match e {
        StoreError::ServerDown(s) => {
            buf.put_u8(ERR_SERVER_DOWN);
            buf.put_u32_le(*s as u32);
        }
        StoreError::RequestDropped(s) => {
            buf.put_u8(ERR_REQUEST_DROPPED);
            buf.put_u32_le(*s as u32);
        }
        StoreError::CorruptFrame(s) => {
            buf.put_u8(ERR_CORRUPT_FRAME);
            buf.put_u32_le(*s as u32);
        }
        StoreError::NotOwned { node, server } => {
            buf.put_u8(ERR_NOT_OWNED);
            buf.put_u32_le(*node);
            buf.put_u32_le(*server as u32);
        }
        StoreError::Malformed(what) => {
            buf.put_u8(ERR_MALFORMED);
            buf.put_u32_le(what.len() as u32);
            buf.put_slice(what.as_bytes());
        }
        StoreError::InvalidNode(v) => {
            buf.put_u8(ERR_INVALID_NODE);
            buf.put_u32_le(*v);
        }
        StoreError::InvalidServer(s) => {
            buf.put_u8(ERR_INVALID_SERVER);
            buf.put_u32_le(*s as u32);
        }
        StoreError::EmptyCluster => buf.put_u8(ERR_EMPTY_CLUSTER),
        StoreError::DeadlineExceeded => buf.put_u8(ERR_DEADLINE_EXCEEDED),
        StoreError::AllReplicasFailed { node_owner } => {
            buf.put_u8(ERR_ALL_REPLICAS_FAILED);
            buf.put_u32_le(*node_owner as u32);
        }
        StoreError::Storage(what) => {
            buf.put_u8(ERR_STORAGE);
            buf.put_u32_le(what.len() as u32);
            buf.put_slice(what.as_bytes());
        }
        StoreError::TooLarge(what) => {
            buf.put_u8(ERR_TOO_LARGE);
            buf.put_u32_le(what.len() as u32);
            buf.put_slice(what.as_bytes());
        }
        StoreError::NotOwner { node, owner } => {
            buf.put_u8(ERR_NOT_OWNER);
            buf.put_u32_le(*node);
            buf.put_u32_le(*owner);
        }
    }
    buf.freeze()
}

/// Decode an `Err` frame payload back into a [`StoreError`].
pub fn decode_store_error(mut buf: Bytes) -> Result<StoreError, NetError> {
    if buf.remaining() < 1 {
        return Err(NetError::Malformed("empty error payload"));
    }
    let tag = buf.get_u8();
    fn get_u32(buf: &mut Bytes) -> Result<u32, NetError> {
        if buf.remaining() < 4 {
            return Err(NetError::Malformed("short error payload"));
        }
        Ok(buf.get_u32_le())
    }
    match tag {
        ERR_SERVER_DOWN => Ok(StoreError::ServerDown(get_u32(&mut buf)? as usize)),
        ERR_REQUEST_DROPPED => Ok(StoreError::RequestDropped(get_u32(&mut buf)? as usize)),
        ERR_CORRUPT_FRAME => Ok(StoreError::CorruptFrame(get_u32(&mut buf)? as usize)),
        ERR_NOT_OWNED => {
            let node = get_u32(&mut buf)?;
            let server = get_u32(&mut buf)? as usize;
            Ok(StoreError::NotOwned { node, server })
        }
        ERR_MALFORMED => {
            let len = get_u32(&mut buf)? as usize;
            if buf.remaining() < len {
                return Err(NetError::Malformed("short error payload"));
            }
            let raw = buf.to_vec();
            let what = KNOWN_MALFORMED
                .iter()
                .find(|k| k.as_bytes() == &raw[..len])
                .copied()
                .unwrap_or("malformed (reported by remote)");
            Ok(StoreError::Malformed(what))
        }
        ERR_INVALID_NODE => Ok(StoreError::InvalidNode(get_u32(&mut buf)?)),
        ERR_INVALID_SERVER => Ok(StoreError::InvalidServer(get_u32(&mut buf)? as usize)),
        ERR_EMPTY_CLUSTER => Ok(StoreError::EmptyCluster),
        ERR_DEADLINE_EXCEEDED => Ok(StoreError::DeadlineExceeded),
        ERR_ALL_REPLICAS_FAILED => Ok(StoreError::AllReplicasFailed {
            node_owner: get_u32(&mut buf)? as usize,
        }),
        ERR_STORAGE => {
            let len = get_u32(&mut buf)? as usize;
            if buf.remaining() < len {
                return Err(NetError::Malformed("short error payload"));
            }
            let raw = buf.to_vec();
            let what = KNOWN_STORAGE
                .iter()
                .find(|k| k.as_bytes() == &raw[..len])
                .copied()
                .unwrap_or("storage error (reported by remote)");
            Ok(StoreError::Storage(what))
        }
        ERR_TOO_LARGE => {
            let len = get_u32(&mut buf)? as usize;
            if buf.remaining() < len {
                return Err(NetError::Malformed("short error payload"));
            }
            let raw = buf.to_vec();
            let what = KNOWN_TOO_LARGE
                .iter()
                .find(|k| k.as_bytes() == &raw[..len])
                .copied()
                .unwrap_or("too large (reported by remote)");
            Ok(StoreError::TooLarge(what))
        }
        ERR_NOT_OWNER => {
            let node = get_u32(&mut buf)?;
            let owner = get_u32(&mut buf)?;
            Ok(StoreError::NotOwner { node, owner })
        }
        _ => Err(NetError::Malformed("unknown error code")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
