//! Property-style roundtrip coverage of the wire codec: every `Message`
//! variant, across hundreds of randomly shaped instances, must decode back
//! to itself and to nothing else — a frame with a byte appended is an
//! error, whatever its kind — and every mutation of a valid frame must
//! decode to an error or a (different but) valid message, never panic.
//!
//! Plain seeded loops rather than a property-testing framework: the cases
//! are reproducible from the constants below, with no external machinery.

use bgl_store::wire::Message;
use bgl_store::StoreError;
use bytes::Bytes;
use rand::prelude::*;

const CASES: usize = 300;
const SEED: u64 = 0xC0DEC;

fn random_ids(rng: &mut StdRng, max_len: usize) -> Vec<u32> {
    let n = rng.random_range(0..=max_len);
    (0..n).map(|_| rng.random_range(0..1_000_000)).collect()
}

fn random_row(rng: &mut StdRng, max_len: usize) -> Vec<f32> {
    let n = rng.random_range(0..=max_len);
    (0..n).map(|_| rng.random::<f32>() * 100.0 - 50.0).collect()
}

fn random_message(rng: &mut StdRng) -> Message {
    match rng.random_range(0..23u32) {
        0 => Message::NeighborReq {
            fanout: rng.random_range(0..64),
            nodes: random_ids(rng, 40),
        },
        8 => Message::NeighborReqSeeded {
            fanout: rng.random_range(0..64),
            salt: rng.random(),
            nodes: random_ids(rng, 40),
        },
        1 => {
            let lists = (0..rng.random_range(0..20usize))
                .map(|_| random_ids(rng, 12))
                .collect();
            Message::NeighborResp { lists }
        }
        2 => Message::FeatureReq { nodes: random_ids(rng, 40) },
        3 => {
            // Rows must be whole: n_rows × dim floats.
            let dim = rng.random_range(1..16u32);
            let n_rows = rng.random_range(0..10usize);
            let rows = (0..n_rows * dim as usize)
                .map(|_| rng.random::<f32>() * 100.0 - 50.0)
                .collect();
            Message::FeatureResp { dim, rows }
        }
        4 => {
            let dim = rng.random_range(1..16u32);
            let nodes = random_ids(rng, 10);
            let rows = (0..nodes.len() * dim as usize)
                .map(|_| rng.random::<f32>() * 100.0 - 50.0)
                .collect();
            Message::FeatureUpdateReq { dim, nodes, rows }
        }
        5 => Message::FeatureUpdateResp { applied: rng.random_range(0..1024) },
        6 => Message::FeatureReqF16 { nodes: random_ids(rng, 40) },
        9 => {
            let n = rng.random_range(0..20usize);
            let edges = (0..n)
                .map(|_| (rng.random_range(0..1_000_000), rng.random_range(0..1_000_000)))
                .collect();
            Message::AddEdgeReq { edges }
        }
        10 => Message::AddEdgeResp {
            applied: rng.random_range(0..1024),
            rejected: rng.random_range(0..1024),
        },
        11 => {
            let n = rng.random_range(0..16usize);
            let row = (0..n).map(|_| rng.random::<f32>() * 100.0 - 50.0).collect();
            Message::AddNodeReq {
                id: rng.random_range(0..1_000_000),
                owner: rng.random_range(0..64),
                row,
            }
        }
        12 => Message::AddNodeResp { id: rng.random_range(0..1_000_000) },
        13 => Message::PrepareMigrateReq {
            node: rng.random_range(0..1_000_000),
            dest: rng.random_range(0..64),
        },
        14 => Message::PrepareMigrateResp {
            node: rng.random_range(0..1_000_000),
            owner: rng.random_range(0..64),
            row: random_row(rng, 16),
            neighbors: random_ids(rng, 30),
        },
        15 => Message::MigrateCopyReq {
            node: rng.random_range(0..1_000_000),
            dest: rng.random_range(0..64),
            row: random_row(rng, 16),
            neighbors: random_ids(rng, 30),
        },
        16 => Message::MigrateCopyResp { node: rng.random_range(0..1_000_000) },
        17 => Message::CommitMigrateReq {
            node: rng.random_range(0..1_000_000),
            owner: rng.random_range(0..64),
        },
        18 => Message::CommitMigrateResp {
            node: rng.random_range(0..1_000_000),
            owner: rng.random_range(0..64),
        },
        19 => Message::OwnerReq { node: rng.random_range(0..1_000_000) },
        20 => Message::OwnerResp {
            node: rng.random_range(0..1_000_000),
            owner: rng.random_range(0..64),
        },
        21 => Message::TombstoneReq {
            node: rng.random_range(0..1_000_000),
            old_owner: rng.random_range(0..64),
        },
        22 => Message::TombstoneResp { node: rng.random_range(0..1_000_000) },
        _ => {
            let dim = rng.random_range(1..16u32);
            let n_rows = rng.random_range(0..10usize);
            let rows = (0..n_rows * dim as usize)
                .map(|_| rng.random_range(0..=u16::MAX as u32) as u16)
                .collect();
            Message::FeatureRespF16 { dim, rows }
        }
    }
}

/// A message's kind, as an index into a `seen` tally.
fn kind(m: &Message) -> usize {
    match m {
        Message::NeighborReq { .. } => 0,
        Message::NeighborResp { .. } => 1,
        Message::FeatureReq { .. } => 2,
        Message::FeatureResp { .. } => 3,
        Message::FeatureUpdateReq { .. } => 4,
        Message::FeatureUpdateResp { .. } => 5,
        Message::FeatureReqF16 { .. } => 6,
        Message::FeatureRespF16 { .. } => 7,
        Message::NeighborReqSeeded { .. } => 8,
        Message::AddEdgeReq { .. } => 9,
        Message::AddEdgeResp { .. } => 10,
        Message::AddNodeReq { .. } => 11,
        Message::AddNodeResp { .. } => 12,
        Message::PrepareMigrateReq { .. } => 13,
        Message::PrepareMigrateResp { .. } => 14,
        Message::MigrateCopyReq { .. } => 15,
        Message::MigrateCopyResp { .. } => 16,
        Message::CommitMigrateReq { .. } => 17,
        Message::CommitMigrateResp { .. } => 18,
        Message::OwnerReq { .. } => 19,
        Message::OwnerResp { .. } => 20,
        Message::TombstoneReq { .. } => 21,
        Message::TombstoneResp { .. } => 22,
    }
}

#[test]
fn every_variant_roundtrips() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut seen = [0usize; 23];
    for _ in 0..CASES {
        let m = random_message(&mut rng);
        seen[kind(&m)] += 1;
        let encoded = m.encode().unwrap();
        assert_eq!(Message::decode(encoded).unwrap(), m);
    }
    assert!(
        seen.iter().all(|&c| c > 0),
        "all twenty-three variants must be exercised: {:?}",
        seen
    );
}

/// Exact-length discipline, for every kind: a frame followed by garbage is
/// protocol corruption, never a message with slack after it. Two kinds
/// whose row payload runs to the end of the frame report the mismatch under
/// their own shape label; every other kind under the one trailing-bytes
/// label.
#[test]
fn every_variant_rejects_trailing_garbage() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 4);
    let mut accepted = std::collections::BTreeSet::new();
    let mut seen = [0usize; 23];
    for _ in 0..CASES {
        let m = random_message(&mut rng);
        seen[kind(&m)] += 1;
        let long = [&m.encode().unwrap()[..], &[0xAB]].concat();
        let label = match m {
            Message::FeatureUpdateReq { .. } => "feature update rows mismatch count×dim",
            Message::AddNodeReq { .. } => "add-node row mismatch",
            _ => "trailing bytes",
        };
        match Message::decode(Bytes::from(long)) {
            Ok(_) => {
                let debug = format!("{m:?}");
                accepted.insert(debug.split(' ').next().unwrap_or_default().to_owned());
            }
            Err(e) => assert_eq!(e, StoreError::Malformed(label), "{:?}", m),
        }
    }
    assert!(seen.iter().all(|&c| c > 0), "every kind drawn: {:?}", seen);
    assert!(accepted.is_empty(), "kinds that decode with a trailing byte: {:?}", accepted);
}

#[test]
fn single_byte_mutations_never_panic() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    for _ in 0..60 {
        let m = random_message(&mut rng);
        let encoded = m.encode().unwrap().to_vec();
        if encoded.is_empty() {
            continue;
        }
        for _ in 0..8 {
            let mut corrupted = encoded.clone();
            let pos = rng.random_range(0..corrupted.len());
            corrupted[pos] ^= 1 << rng.random_range(0..8u32);
            // Must decode to an error or some valid message — never panic.
            let _ = Message::decode(Bytes::from(corrupted));
        }
    }
}

/// Ingest frames get the exhaustive treatment the durable-tier records get
/// in `disk_proptests.rs`: every prefix of a valid frame must decode to a
/// typed error (never a panic, never a silent success), and feeding one
/// ingest frame's payload to a frame of the other kind must be rejected,
/// not reinterpreted.
#[test]
fn ingest_frames_reject_every_truncation_and_cross_format_payloads() {
    let frames = [
        Message::AddEdgeReq { edges: vec![(1, 2), (7, 7), (900_000, 3)] },
        Message::AddEdgeResp { applied: 2, rejected: 1 },
        Message::AddNodeReq { id: 41, owner: 3, row: vec![1.5, -2.5, 0.0] },
        Message::AddNodeResp { id: 41 },
    ];
    for m in &frames {
        let encoded = m.encode().unwrap();
        for cut in 0..encoded.len() {
            let err = Message::decode(encoded.slice(0..cut));
            assert!(err.is_err(), "{:?} cut at {} must not decode", m, cut);
        }
        assert_eq!(Message::decode(encoded.clone()).unwrap(), *m);
    }
    // Cross-format: an AddNodeReq payload under the AddEdgeReq tag reads a
    // huge count with too few bytes behind it, and vice versa the edge
    // payload under the AddNodeReq tag runs out of header. Both must be
    // errors — the type byte is load-bearing.
    let node = frames[2].encode().unwrap();
    let edge = frames[0].encode().unwrap();
    let mut node_as_edge = node.to_vec();
    node_as_edge[0] = edge[0];
    assert!(Message::decode(Bytes::from(node_as_edge)).is_err());
    let mut edge_as_node = edge.to_vec();
    edge_as_node[0] = node[0];
    assert!(Message::decode(Bytes::from(edge_as_node)).is_err());
}

/// Migration frames carry the row bytes that crash-recovery correctness
/// rests on, so they get the exhaustive treatment too: every prefix of
/// every migration frame errors; every single-bit flip decodes to an error
/// or a valid message (never a panic); appended garbage is rejected (the
/// migration decoders are exact-length); and a variable-length payload
/// under a fixed-length migration tag (and vice versa) is refused, not
/// reinterpreted.
#[test]
fn migration_frames_reject_truncation_bitflips_and_cross_format_payloads() {
    let frames = [
        Message::PrepareMigrateReq { node: 9, dest: 2 },
        Message::PrepareMigrateResp {
            node: 9,
            owner: 1,
            row: vec![1.0, -2.0, 0.25],
            neighbors: vec![3, 14, 900_000],
        },
        Message::MigrateCopyReq {
            node: 9,
            dest: 2,
            row: vec![1.0, -2.0, 0.25],
            neighbors: vec![3, 14, 900_000],
        },
        Message::MigrateCopyResp { node: 9 },
        Message::CommitMigrateReq { node: 9, owner: 2 },
        Message::CommitMigrateResp { node: 9, owner: 2 },
        Message::OwnerReq { node: 9 },
        Message::OwnerResp { node: 9, owner: 2 },
        Message::TombstoneReq { node: 9, old_owner: 1 },
        Message::TombstoneResp { node: 9 },
    ];
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    for m in &frames {
        let encoded = m.encode().unwrap();
        // Truncation at every offset.
        for cut in 0..encoded.len() {
            assert!(
                Message::decode(encoded.slice(0..cut)).is_err(),
                "{:?} cut at {} must not decode",
                m,
                cut
            );
        }
        // Exact-length discipline: trailing garbage is rejected.
        let mut long = encoded.to_vec();
        long.push(0xAB);
        assert_eq!(
            Message::decode(Bytes::from(long)).unwrap_err(),
            StoreError::Malformed("trailing bytes"),
            "{:?} with trailing garbage",
            m
        );
        // Bit flips never panic.
        for _ in 0..16 {
            let mut corrupted = encoded.to_vec();
            let pos = rng.random_range(0..corrupted.len());
            corrupted[pos] ^= 1 << rng.random_range(0..8u32);
            let _ = Message::decode(Bytes::from(corrupted));
        }
        assert_eq!(Message::decode(encoded).unwrap(), *m);
    }
    // Cross-format: the variable-length copy payload under every
    // fixed-length migration tag violates exact length; a fixed-length
    // payload under the copy tag runs out of bytes for its counts. (The
    // prepare-resp tag is excluded: it deliberately shares the copy
    // frame's layout — the snapshot is what gets copied.)
    let copy = frames[2].encode().unwrap();
    let prepare_resp_tag = frames[1].encode().unwrap()[0];
    let fixed = frames[4].encode().unwrap();
    for other in &frames {
        let tag = other.encode().unwrap()[0];
        if tag == copy[0] || tag == prepare_resp_tag {
            continue;
        }
        let mut copy_as_other = copy.to_vec();
        copy_as_other[0] = tag;
        assert!(
            Message::decode(Bytes::from(copy_as_other)).is_err(),
            "copy payload under tag {} must not decode",
            tag
        );
    }
    let mut fixed_as_copy = fixed.to_vec();
    fixed_as_copy[0] = copy[0];
    assert!(Message::decode(Bytes::from(fixed_as_copy)).is_err());
}

#[test]
fn random_truncations_never_panic() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    for _ in 0..60 {
        let m = random_message(&mut rng);
        let encoded = m.encode().unwrap();
        if encoded.len() < 2 {
            continue;
        }
        let cut = rng.random_range(1..encoded.len());
        let _ = Message::decode(encoded.slice(0..cut));
    }
}

/// Literal frame bytes for the three row-carrying frames the miss path
/// moves: tag, little-endian `dim` and count fields, then the row payload
/// scalar by scalar. A codec change that alters one wire byte fails here.
#[test]
fn feature_row_frames_match_their_golden_bytes() {
    // 2 rows × 3: an f16-inexact value, the largest finite f16, both zeros.
    let rows = vec![1.0f32, -2.5, 0.1, 65504.0, 0.0, -0.0];
    #[rustfmt::skip]
    let rows_le: [u8; 24] = [
        0x00, 0x00, 0x80, 0x3F,  0x00, 0x00, 0x20, 0xC0,  0xCD, 0xCC, 0xCC, 0x3D,
        0x00, 0xE0, 0x7F, 0x47,  0x00, 0x00, 0x00, 0x00,  0x00, 0x00, 0x00, 0x80,
    ];
    let half: Vec<u16> = vec![0x3C00, 0xC100, 0x2E66, 0x7BFF, 0x0000, 0x8000];
    #[rustfmt::skip]
    let half_le: [u8; 12] = [
        0x00, 0x3C,  0x00, 0xC1,  0x66, 0x2E,  0xFF, 0x7B,  0x00, 0x00,  0x00, 0x80,
    ];
    let frame = |head: &[u8], payload: &[u8]| [head, payload].concat();
    let golden = [
        (
            Message::FeatureResp { dim: 3, rows: rows.clone() },
            frame(&[4, 3, 0, 0, 0, 6, 0, 0, 0], &rows_le),
        ),
        (
            Message::FeatureRespF16 { dim: 3, rows: half },
            frame(&[8, 3, 0, 0, 0, 6, 0, 0, 0], &half_le),
        ),
        (
            Message::FeatureUpdateReq { dim: 3, nodes: vec![7, 0x0102_0304], rows },
            frame(&[5, 3, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0, 4, 3, 2, 1], &rows_le),
        ),
    ];
    for (m, bytes) in &golden {
        assert_eq!(&m.encode().unwrap()[..], &bytes[..], "{:?}", m);
        assert_eq!(Message::decode(Bytes::copy_from_slice(bytes)).unwrap(), *m);
        // Every proper prefix is a typed error, never a short row payload.
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    Message::decode(Bytes::copy_from_slice(&bytes[..cut])),
                    Err(StoreError::Malformed(_))
                ),
                "{:?} cut at {}",
                m,
                cut
            );
        }
    }
    // A count that is not whole rows is rejected from the header, whatever
    // bytes follow; an update whose payload disagrees with count×dim too.
    for (_, bytes) in &golden[..2] {
        let mut ragged = bytes.clone();
        ragged[5] = 5;
        assert_eq!(
            Message::decode(Bytes::from(ragged)),
            Err(StoreError::Malformed("feature rows not a multiple of dim"))
        );
    }
    let mut long = golden[2].1.clone();
    long.extend_from_slice(&[0; 4]);
    assert_eq!(
        Message::decode(Bytes::from(long)),
        Err(StoreError::Malformed("feature update rows mismatch count×dim"))
    );
}
