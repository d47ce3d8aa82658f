//! Streaming-decoder integration tests: every `bgl_store::wire::Message`
//! survives arbitrary read() splits, and hostile byte streams (truncated,
//! corrupt, oversized) produce errors — never panics, never huge
//! allocations.

use bgl_net::proto::{
    decode_store_error, encode_store_error, Frame, FrameKind, DEFAULT_MAX_FRAME, HEADER_LEN,
};
use bgl_net::{FrameDecoder, NetError};
use bgl_store::wire::Message;
use bgl_store::StoreError;
use bytes::Bytes;
use rand::prelude::*;

/// One of each wire message shape — all 23 variants, some small and large.
fn all_messages() -> Vec<Message> {
    vec![
        Message::NeighborReq { fanout: 5, nodes: vec![1, 2, 3] },
        Message::NeighborReq { fanout: 0, nodes: Vec::new() },
        Message::NeighborReqSeeded { fanout: 5, salt: 0x5A17, nodes: vec![1, 2, 3] },
        Message::NeighborResp { lists: vec![vec![4, 5], Vec::new(), vec![6]] },
        Message::NeighborResp { lists: Vec::new() },
        Message::FeatureReq { nodes: (0..300).collect() },
        Message::FeatureResp { dim: 4, rows: (0..1200).map(|i| i as f32).collect() },
        Message::FeatureResp { dim: 0, rows: Vec::new() },
        // Half-precision variants: same framing, half the row bytes.
        Message::FeatureReqF16 { nodes: (0..300).collect() },
        Message::FeatureRespF16 { dim: 4, rows: (0..1200u32).map(|i| i as u16).collect() },
        // Ingest frames.
        Message::FeatureUpdateReq { dim: 2, nodes: vec![7, 9], rows: vec![0.5, -1.0, 2.0, 4.0] },
        Message::FeatureUpdateResp { applied: 2 },
        Message::AddEdgeReq { edges: vec![(1, 2), (2, 1), (3, 9)] },
        Message::AddEdgeResp { applied: 2, rejected: 1 },
        Message::AddNodeReq { id: 400, owner: 1, row: vec![0.25, 0.5] },
        Message::AddNodeResp { id: 400 },
        // Migration frames.
        Message::PrepareMigrateReq { node: 12, dest: 3 },
        Message::PrepareMigrateResp { node: 12, owner: 0, row: vec![1.0, 2.0], neighbors: vec![4, 8] },
        Message::MigrateCopyReq { node: 12, dest: 3, row: vec![1.0, 2.0], neighbors: vec![4, 8] },
        Message::MigrateCopyResp { node: 12 },
        Message::CommitMigrateReq { node: 12, owner: 3 },
        Message::CommitMigrateResp { node: 12, owner: 3 },
        Message::OwnerReq { node: 12 },
        Message::OwnerResp { node: 12, owner: 3 },
        Message::TombstoneReq { node: 12, old_owner: 0 },
        Message::TombstoneResp { node: 12 },
    ]
}

/// `TCP == in-process` for errors: whatever `Message::decode` says about a
/// damaged request is what a live server puts in its `Err` frame, and the
/// TCP client must hand the caller that same error. `Malformed`, `Storage`
/// and `TooLarge` carry a `&'static str` the decoder resolves against
/// `proto.rs`'s tables, so a label the store grows without the table
/// following comes back as "malformed (reported by remote)" — and fails
/// here, for every variant and every proper prefix of its encoding. The
/// same goes for the frame with a byte appended: no kind has slack, and the
/// label that says so is in the table too.
#[test]
fn every_truncation_error_survives_the_error_codec() {
    for msg in all_messages() {
        let wire = msg.encode().unwrap();
        for cut in 0..wire.len() {
            let Err(e) = Message::decode(wire.slice(..cut)) else {
                continue; // a prefix that is itself a (shorter) valid message
            };
            assert_eq!(
                decode_store_error(encode_store_error(&e)),
                Ok(e),
                "{msg:?} cut at {cut}/{}",
                wire.len()
            );
        }
        let long = Bytes::from([&wire[..], &[0]].concat());
        let e = Message::decode(long).expect_err(&format!("{msg:?} decodes with a trailing byte"));
        assert_eq!(decode_store_error(encode_store_error(&e)), Ok(e), "{msg:?} plus one byte");
    }
}

#[test]
fn every_message_survives_one_byte_reads() {
    for (i, msg) in all_messages().into_iter().enumerate() {
        let frame = Frame::new(i as u64, FrameKind::Req, msg.encode().unwrap());
        let wire = frame.encode();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        for b in &wire {
            assert!(dec.next_frame().unwrap().is_none());
            dec.feed(std::slice::from_ref(b));
        }
        let got = dec.next_frame().unwrap().expect("complete frame");
        assert_eq!(got.corr_id, i as u64);
        let decoded = Message::decode(got.payload).expect("payload decodes");
        assert_eq!(decoded, msg);
    }
}

#[test]
fn every_message_survives_randomized_chunk_reads() {
    let mut rng = StdRng::seed_from_u64(0xC4_55E7);
    for round in 0..50u64 {
        // Several frames back to back, split at random boundaries.
        let msgs = all_messages();
        let mut wire = Vec::new();
        for (i, msg) in msgs.iter().enumerate() {
            wire.extend_from_slice(
                &Frame::new(round * 100 + i as u64, FrameKind::Resp, msg.encode().unwrap()).encode(),
            );
        }
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut got = Vec::new();
        let mut off = 0;
        while off < wire.len() {
            let n = rng.random_range(1..=64.min(wire.len() - off));
            dec.feed(&wire[off..off + n]);
            off += n;
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), msgs.len(), "round {}", round);
        for (i, (frame, msg)) in got.into_iter().zip(msgs).enumerate() {
            assert_eq!(frame.corr_id, round * 100 + i as u64);
            assert_eq!(Message::decode(frame.payload).unwrap(), msg);
        }
        assert_eq!(dec.buffered(), 0);
    }
}

#[test]
fn truncated_frame_yields_no_frame_and_no_error() {
    // A truncated-but-well-formed prefix is just an incomplete frame:
    // the decoder waits for the rest (the connection deadline, not the
    // codec, handles a peer that never sends it).
    let wire = Frame::new(9, FrameKind::Req, Message::FeatureReq { nodes: vec![1] }.encode().unwrap())
        .encode();
    for cut in 0..wire.len() {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.feed(&wire[..cut]);
        assert!(dec.next_frame().unwrap().is_none(), "cut at {}", cut);
    }
}

#[test]
fn truncated_payload_is_rejected_by_the_message_codec() {
    // The frame layer delivers exactly the announced bytes; a payload
    // that lies about its own contents must fail in Message::decode.
    let payload = Message::FeatureReq { nodes: vec![1, 2, 3] }.encode().unwrap();
    let cut = Bytes::from(payload.to_vec()[..payload.len() - 2].to_vec());
    let frame = Frame::new(1, FrameKind::Req, cut);
    let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
    dec.feed(&frame.encode());
    let got = dec.next_frame().unwrap().unwrap();
    let err = Message::decode(got.payload).unwrap_err();
    assert!(matches!(err, StoreError::Malformed(_)));
}

#[test]
fn corrupt_kind_byte_is_rejected_without_panic() {
    let mut wire =
        Frame::new(2, FrameKind::Req, Message::FeatureReq { nodes: vec![7] }.encode().unwrap()).encode();
    wire[12] = 0xEE;
    let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
    dec.feed(&wire);
    assert_eq!(dec.next_frame().unwrap_err(), NetError::Malformed("unknown frame kind"));
}

#[test]
fn oversized_frame_is_rejected_without_allocating_its_body() {
    let mut dec = FrameDecoder::new(1 << 16);
    // Hostile length prefix: 2 GiB. Only 4 bytes ever reach the decoder,
    // and it must reject from those alone.
    dec.feed(&(2u32 << 30).to_le_bytes());
    match dec.next_frame().unwrap_err() {
        NetError::Oversized { len, max } => {
            assert_eq!(len, 2usize << 30);
            assert_eq!(max, 1 << 16);
        }
        other => panic!("expected Oversized, got {:?}", other),
    }
    assert!(dec.buffered() <= 4, "must not have buffered a body");
    // Poisoned afterwards: framing is unrecoverable.
    assert!(dec.next_frame().is_err());
}

#[test]
fn frame_length_below_header_is_rejected() {
    for bad in 0..HEADER_LEN as u32 {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.feed(&bad.to_le_bytes());
        dec.feed(&[0u8; 16]);
        assert!(dec.next_frame().is_err(), "len {} must be rejected", bad);
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xBAD_F00D);
    for _ in 0..200 {
        let n = rng.random_range(1..512);
        let garbage: Vec<u8> = (0..n).map(|_| rng.random_range(0..=255u32) as u8).collect();
        let mut dec = FrameDecoder::new(1 << 20);
        dec.feed(&garbage);
        // Either it wants more bytes, yields something frame-shaped, or
        // errors — all acceptable; panicking or aborting is not.
        for _ in 0..8 {
            match dec.next_frame() {
                Ok(Some(f)) => {
                    // Payload decode may fail; must not panic.
                    let _ = Message::decode(f.payload);
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }
}

#[test]
fn store_errors_survive_randomized_chunking_end_to_end() {
    // Err frames ride the same framing; chunk them too.
    let mut rng = StdRng::seed_from_u64(77);
    let errors = [
        StoreError::ServerDown(1),
        StoreError::NotOwned { node: 3, server: 0 },
        StoreError::Malformed("unknown tag"),
        StoreError::AllReplicasFailed { node_owner: 2 },
    ];
    let mut wire = Vec::new();
    for (i, e) in errors.iter().enumerate() {
        wire.extend_from_slice(
            &Frame::new(i as u64, FrameKind::Err, encode_store_error(e)).encode(),
        );
    }
    let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
    let mut got = Vec::new();
    let mut off = 0;
    while off < wire.len() {
        let n = rng.random_range(1..=7.min(wire.len() - off));
        dec.feed(&wire[off..off + n]);
        off += n;
        while let Some(f) = dec.next_frame().unwrap() {
            got.push(decode_store_error(f.payload).unwrap());
        }
    }
    assert_eq!(got, errors);
}
