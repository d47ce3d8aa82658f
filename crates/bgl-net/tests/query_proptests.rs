//! Property-based coverage of the query-plane wire frames
//! (`QueryReq` / `QueryResp` / `QueryError`), mirroring the style of
//! `bgl-store/tests/disk_proptests.rs`: for arbitrary payloads, encode →
//! decode is the identity; truncation at *every* offset is rejected (never
//! a panic, never a silent partial decode); trailing garbage is rejected
//! where the schema is self-delimiting; and hostile length headers fail
//! fast without allocating.
//!
//! The same three attacks (truncation, bit flips, oversize announcements)
//! are then aimed one layer down, at whole `Control` and `Query` frames
//! going through [`FrameDecoder`] the way the connection runtime feeds
//! it: never a panic, and never more than one frame's worth of buffering.
//! `tests/conn_runtime.rs` at the workspace root fires the same mutations
//! at live listeners of both planes.

mod support;

use bgl_net::proto::{ControlOp, FrameKind, LEN_PREFIX};
use bgl_net::query::{QueryError, QueryReq, QueryResp};
use bgl_net::FrameDecoder;
use bgl_store::StoreError;
use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use support::{arb_control_frame, arb_mutation, arb_query_frame, mutate};

fn arb_req() -> impl Strategy<Value = QueryReq> {
    any::<u32>().prop_map(|user| QueryReq { user })
}

fn arb_resp() -> impl Strategy<Value = QueryResp> {
    (any::<u64>(), proptest::collection::vec(-1e6f32..1e6, 0..24))
        .prop_map(|(latency_us, scores)| QueryResp { latency_us, scores })
}

fn arb_store_error() -> impl Strategy<Value = StoreError> {
    prop_oneof![
        any::<u32>().prop_map(|s| StoreError::ServerDown(s as usize)),
        any::<u32>().prop_map(|s| StoreError::RequestDropped(s as usize)),
        (any::<u32>(), any::<u32>())
            .prop_map(|(node, server)| StoreError::NotOwned { node, server: server as usize }),
        Just(StoreError::Malformed("salt")),
        Just(StoreError::Malformed("unknown tag")),
        any::<u32>().prop_map(StoreError::InvalidNode),
        Just(StoreError::EmptyCluster),
        Just(StoreError::DeadlineExceeded),
        any::<u32>()
            .prop_map(|o| StoreError::AllReplicasFailed { node_owner: o as usize }),
        Just(StoreError::Storage("checksum mismatch")),
        Just(StoreError::TooLarge("neighbor req count")),
    ]
}

fn arb_query_error() -> impl Strategy<Value = QueryError> {
    prop_oneof![
        any::<u32>().prop_map(|depth| QueryError::Overloaded { depth }),
        Just(QueryError::ShuttingDown),
        any::<u32>().prop_map(QueryError::InvalidNode),
        arb_store_error().prop_map(QueryError::Store),
    ]
}

proptest! {
    #[test]
    fn req_roundtrip_is_identity(req in arb_req()) {
        prop_assert_eq!(QueryReq::decode(req.encode()).unwrap(), req);
    }

    #[test]
    fn resp_roundtrip_is_identity(resp in arb_resp()) {
        let encoded = resp.encode().unwrap();
        prop_assert_eq!(encoded.len(), 12 + 4 * resp.scores.len());
        prop_assert_eq!(QueryResp::decode(encoded).unwrap(), resp);
    }

    #[test]
    fn error_roundtrip_preserves_retryability(e in arb_query_error()) {
        let decoded = QueryError::decode(e.encode()).unwrap();
        prop_assert_eq!(decoded.is_retryable(), e.is_retryable());
        prop_assert_eq!(decoded, e);
    }

    /// Cutting a response at ANY offset is rejected: there is no strict
    /// prefix that decodes (the score count no longer matches the bytes).
    #[test]
    fn resp_truncation_at_every_offset_rejects(resp in arb_resp()) {
        let encoded = resp.encode().unwrap();
        for cut in 0..encoded.len() {
            prop_assert!(
                QueryResp::decode(encoded.slice(0..cut)).is_err(),
                "prefix of {}/{} bytes must not decode",
                cut,
                encoded.len()
            );
        }
    }

    /// Same for requests: the schema is exactly 4 bytes, nothing shorter
    /// (or longer) decodes.
    #[test]
    fn req_truncation_and_garbage_reject(req in arb_req(), extra in 1usize..8) {
        let encoded = req.encode();
        for cut in 0..encoded.len() {
            prop_assert!(QueryReq::decode(encoded.slice(0..cut)).is_err());
        }
        let mut padded = BytesMut::new();
        padded.put_slice(&encoded);
        padded.put_slice(&vec![0u8; extra]);
        prop_assert!(QueryReq::decode(padded.freeze()).is_err());
    }

    /// Truncating an error payload never panics: every strict prefix
    /// decodes to an error or (for the store-error nesting) at worst a
    /// different valid error — never garbage memory or a panic.
    #[test]
    fn error_truncation_never_panics(e in arb_query_error()) {
        let encoded = e.encode();
        for cut in 0..encoded.len() {
            let _ = QueryError::decode(encoded.slice(0..cut));
        }
    }

    /// Trailing garbage on a response displaces the count↔bytes match.
    #[test]
    fn resp_trailing_garbage_rejects(resp in arb_resp(), extra in 1usize..8) {
        let mut padded = BytesMut::new();
        padded.put_slice(&resp.encode().unwrap());
        padded.put_slice(&vec![7u8; extra]);
        prop_assert!(QueryResp::decode(padded.freeze()).is_err());
    }

    /// A hostile count header (any claimed count that disagrees with the
    /// payload, up to u32::MAX) must fail fast without allocating.
    #[test]
    fn resp_oversize_count_rejects_without_alloc(claim in 1u32..u32::MAX, actual in 0usize..4) {
        let mut buf = BytesMut::new();
        buf.put_u64_le(0);
        buf.put_u32_le(claim);
        for _ in 0..actual {
            buf.put_f32_le(1.0);
        }
        if claim as usize != actual {
            prop_assert!(QueryResp::decode(buf.freeze()).is_err());
        }
    }

    /// Single-byte corruption anywhere in an error frame never panics.
    #[test]
    fn error_bit_flips_never_panic(
        e in arb_query_error(),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = e.encode().to_vec();
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        let _ = QueryError::decode(Bytes::from(bytes));
    }

    /// Whatever a mutated `Control` / `Query` stream looks like, and
    /// however the socket chops it, the decoder never panics and — once
    /// the complete frames are drained, as the runtime does after every
    /// read — holds less than one maximum-size frame, or has poisoned
    /// itself so the connection closes. Surviving frames reach their
    /// payload codec, which must not panic either.
    #[test]
    fn mutated_frame_streams_stay_within_max_frame(
        frames in proptest::collection::vec(
            (prop_oneof![arb_control_frame(), arb_query_frame()], arb_mutation()),
            1..6,
        ),
        chunk in 1usize..64,
    ) {
        const MAX_FRAME: usize = 64;
        let wire: Vec<u8> = frames.iter().flat_map(|(f, m)| mutate(f, m)).collect();
        let mut dec = FrameDecoder::new(MAX_FRAME);
        'stream: for piece in wire.chunks(chunk) {
            dec.feed(piece);
            loop {
                match dec.next_frame() {
                    Ok(Some(f)) => {
                        prop_assert!(f.payload.len() <= MAX_FRAME);
                        match f.kind {
                            FrameKind::Control => {
                                let _ = ControlOp::decode(f.payload);
                            }
                            FrameKind::Query => {
                                let _ = QueryReq::decode(f.payload);
                            }
                            _ => {}
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        prop_assert!(dec.next_frame().is_err(), "errors are terminal");
                        break 'stream;
                    }
                }
            }
            prop_assert!(
                dec.buffered() < LEN_PREFIX + MAX_FRAME,
                "{} bytes held back after a drain",
                dec.buffered()
            );
        }
    }

    /// Control payloads get the query payloads' treatment: round trip is
    /// the identity, and no prefix or single-bit corruption panics.
    #[test]
    fn control_payloads_round_trip_and_never_panic(
        frame in arb_control_frame(),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let op = ControlOp::decode(frame.payload.clone()).unwrap();
        prop_assert_eq!(op.encode(), frame.payload.clone());
        for cut in 0..frame.payload.len() {
            prop_assert!(ControlOp::decode(frame.payload.slice(0..cut)).is_err());
        }
        let mut bytes = frame.payload.to_vec();
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        let _ = ControlOp::decode(Bytes::from(bytes));
    }
}
