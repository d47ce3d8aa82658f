//! Query-plane wire schema for the online serving front-end (`bgl-serve`).
//!
//! Serving speaks the same framing layer as the store transport —
//! [`crate::proto::Frame`] with the magic/version handshake — but three
//! dedicated frame kinds carry the query plane:
//!
//! * [`FrameKind::Query`](crate::FrameKind::Query) — a [`QueryReq`]: "score
//!   the items for this user node";
//! * [`FrameKind::QueryOk`](crate::FrameKind::QueryOk) — a [`QueryResp`]:
//!   the per-item score vector plus the server-measured latency;
//! * [`FrameKind::QueryErr`](crate::FrameKind::QueryErr) — a
//!   [`QueryError`], typed so a remote client can tell retryable overload
//!   shed from a permanent bad-request.
//!
//! The codecs follow the store wire discipline (see
//! `bgl_store::wire::Message`): little-endian fields taken through the one
//! cursor (`bgl_graph::le::Reader`), so a count is checked against the
//! bytes present before any allocation; every payload exact-length; and
//! `&'static str` error payloads resolved against a known-string table on
//! decode.

use crate::proto::{decode_store_error, encode_store_error, TRAILING};
use crate::NetError;
use bgl_graph::le::{put_count, put_le, Reader};
use bgl_store::StoreError;
use bytes::Bytes;

/// A single serving request: score recommendations for `user`.
///
/// Kept deliberately minimal — fanouts, model, and batch shaping are
/// server-side policy (the whole point of cross-request micro-batching is
/// that the client does not choose its batch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryReq {
    /// The user node to build a k-hop neighborhood around.
    pub user: u32,
}

impl QueryReq {
    /// Encode the payload.
    pub fn encode(&self) -> Bytes {
        self.user.to_le_bytes().to_vec().into()
    }

    /// Decode the payload.
    pub fn decode(buf: Bytes) -> Result<QueryReq, NetError> {
        let mut r = Reader::new(&buf);
        let user = r.u32().ok_or(NetError::Malformed("short query request"))?;
        r.finish().ok_or(NetError::Malformed("oversized query request"))?;
        Ok(QueryReq { user })
    }
}

/// A successful serving reply: the user's embedding/score vector.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResp {
    /// End-to-end latency the front-end measured for this request
    /// (queue wait + batch window + inference), in microseconds. Carried
    /// on the wire so open-loop load generators get server-side truth
    /// without a clock-sync dance.
    pub latency_us: u64,
    /// The output row for the queried user (class scores / embedding).
    pub scores: Vec<f32>,
}

impl QueryResp {
    /// Encode the payload.
    pub fn encode(&self) -> Result<Bytes, NetError> {
        let mut out = Vec::with_capacity(8 + 4 + 4 * self.scores.len());
        put_le(&mut out, &[self.latency_us]);
        put_count(&mut out, self.scores.len()).ok_or(NetError::Malformed("query scores len"))?;
        put_le(&mut out, &self.scores);
        Ok(out.into())
    }

    /// Decode the payload. The claimed score count is validated against
    /// the bytes actually present before any allocation, so a hostile
    /// length header cannot force an over-allocation.
    pub fn decode(buf: Bytes) -> Result<QueryResp, NetError> {
        const SHORT: NetError = NetError::Malformed("short query response");
        const MISMATCH: NetError = NetError::Malformed("query scores length mismatch");
        let mut r = Reader::new(&buf);
        let latency_us = r.u64().ok_or(SHORT)?;
        let n = r.u32().ok_or(SHORT)? as usize;
        let scores = r.vec(n).ok_or(MISMATCH)?;
        r.finish().ok_or(MISMATCH)?;
        Ok(QueryResp { latency_us, scores })
    }
}

const QERR_OVERLOADED: u8 = 1;
const QERR_SHUTTING_DOWN: u8 = 2;
const QERR_INVALID_NODE: u8 = 3;
const QERR_STORE: u8 = 4;

/// Why a serving request failed. `is_retryable` is the client's contract:
/// retryable errors are load/lifecycle conditions where backing off and
/// resubmitting is correct; non-retryable ones mean the request itself is
/// wrong.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryError {
    /// Admission control shed the request: the bounded queue was full.
    /// `depth` is the configured queue capacity that was exceeded.
    Overloaded {
        /// The queue capacity at shed time.
        depth: u32,
    },
    /// The front-end is draining; no new work is admitted.
    ShuttingDown,
    /// The queried node does not exist in the graph.
    InvalidNode(u32),
    /// The backing store failed; transience follows
    /// [`StoreError::is_transient`].
    Store(StoreError),
}

impl QueryError {
    /// Whether a client should back off and retry the identical request.
    pub fn is_retryable(&self) -> bool {
        match self {
            QueryError::Overloaded { .. } | QueryError::ShuttingDown => true,
            QueryError::InvalidNode(_) => false,
            QueryError::Store(e) => e.is_transient(),
        }
    }

    /// Encode the payload for a `QueryErr` frame.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(8);
        match self {
            QueryError::Overloaded { depth } => {
                out.push(QERR_OVERLOADED);
                put_le(&mut out, &[*depth]);
            }
            QueryError::ShuttingDown => out.push(QERR_SHUTTING_DOWN),
            QueryError::InvalidNode(v) => {
                out.push(QERR_INVALID_NODE);
                put_le(&mut out, &[*v]);
            }
            QueryError::Store(e) => {
                out.push(QERR_STORE);
                out.extend_from_slice(&encode_store_error(e));
            }
        }
        out.into()
    }

    /// Decode a `QueryErr` frame payload.
    pub fn decode(buf: Bytes) -> Result<QueryError, NetError> {
        const SHORT: NetError = NetError::Malformed("short query error payload");
        let mut r = Reader::new(&buf);
        let e = match r.u8().ok_or(NetError::Malformed("empty query error payload"))? {
            QERR_OVERLOADED => QueryError::Overloaded { depth: r.u32().ok_or(SHORT)? },
            QERR_SHUTTING_DOWN => QueryError::ShuttingDown,
            QERR_INVALID_NODE => QueryError::InvalidNode(r.u32().ok_or(SHORT)?),
            // The nested store error is the rest of the payload, and holds
            // itself to exact length.
            QERR_STORE => return Ok(QueryError::Store(decode_store_error(buf.slice(1..))?)),
            _ => return Err(NetError::Malformed("unknown query error code")),
        };
        r.finish().ok_or(TRAILING)?;
        Ok(e)
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Overloaded { depth } => {
                write!(f, "overloaded: admission queue (depth {}) is full", depth)
            }
            QueryError::ShuttingDown => write!(f, "front-end is shutting down"),
            QueryError::InvalidNode(v) => write!(f, "invalid node {}", v),
            QueryError::Store(e) => write!(f, "store error: {}", e),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};

    #[test]
    fn query_payloads_round_trip() {
        let req = QueryReq { user: 42 };
        assert_eq!(QueryReq::decode(req.encode()).unwrap(), req);

        let resp = QueryResp {
            latency_us: 1234,
            scores: vec![0.5, -1.25, f32::MIN_POSITIVE, 0.0],
        };
        assert_eq!(QueryResp::decode(resp.encode().unwrap()).unwrap(), resp);

        let empty = QueryResp { latency_us: 0, scores: Vec::new() };
        assert_eq!(QueryResp::decode(empty.encode().unwrap()).unwrap(), empty);
    }

    #[test]
    fn query_errors_round_trip_with_retryability() {
        let all = [
            (QueryError::Overloaded { depth: 64 }, true),
            (QueryError::ShuttingDown, true),
            (QueryError::InvalidNode(7), false),
            (QueryError::Store(StoreError::ServerDown(1)), true),
            (QueryError::Store(StoreError::Malformed("salt")), false),
        ];
        for (e, retryable) in all {
            let decoded = QueryError::decode(e.encode()).unwrap();
            assert_eq!(decoded, e);
            assert_eq!(decoded.is_retryable(), retryable, "{:?}", e);
        }
    }

    #[test]
    fn trailing_bytes_and_mismatched_counts_reject() {
        // QueryReq must be exactly 4 bytes.
        assert!(QueryReq::decode(Bytes::from(vec![1u8, 2])).is_err());
        assert!(QueryReq::decode(Bytes::from(vec![1u8, 2, 3, 4, 5])).is_err());
        // An error payload ends where its error does, nested or not.
        for e in [QueryError::ShuttingDown, QueryError::Store(StoreError::EmptyCluster)] {
            let long = Bytes::from([&e.encode()[..], &[0]].concat());
            assert_eq!(QueryError::decode(long), Err(TRAILING), "{e:?}");
        }
        // A response claiming more scores than bytes present fails fast
        // without allocating.
        let mut buf = BytesMut::new();
        buf.put_u64_le(9);
        buf.put_u32_le(u32::MAX);
        buf.put_f32_le(1.0);
        assert_eq!(
            QueryResp::decode(buf.freeze()),
            Err(NetError::Malformed("query scores length mismatch"))
        );
    }
}
