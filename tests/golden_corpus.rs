//! The bytes every codec in the tree puts on a socket or a disk, pinned.
//!
//! One instance of each store message, WAL record, error, control op,
//! handshake payload, query-plane payload and one small checkpoint, each
//! held to its literal little-endian encoding (the checkpoint, at 266
//! bytes, to its header, length and `fnv1a_64`). A refactor of a codec must leave
//! this file passing *unedited*; a deliberate format change moves the
//! literal it touches and nothing else. Every entry also decodes back to
//! the value it was encoded from, so the literals are real frames and not
//! just whatever `encode` happens to print.
//!
//! Only signatures that every caller depends on are used here (`encode`,
//! `decode`, `Wal::append`), so the file compiles unchanged on both sides
//! of a codec rewrite; WAL frames are read back from the log file itself.

use bgl_exec::{AdamState, Checkpoint};
use bgl_graph::hash::fnv1a_64;
use bgl_net::proto::{
    decode_store_error, encode_store_error, ControlOp, Hello, HelloAck, StatsReply,
};
use bgl_net::query::{QueryError, QueryReq, QueryResp};
use bgl_obs::Histogram;
use bgl_store::pager::RealFile;
use bgl_store::wire::Message;
use bgl_store::{StoreError, Wal, WalRecord};
use bgl_tensor::Matrix;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn store_messages_match_their_golden_bytes() {
    let row = vec![1.5f32, -2.0];
    let golden = [
        (
            Message::NeighborReq {
                fanout: 10,
                nodes: vec![1, 2, 0x0102_0304],
            },
            "010a000000030000000100000002000000".to_owned() + "04030201",
        ),
        (
            Message::NeighborResp {
                lists: vec![vec![5, 6], vec![], vec![7]],
            },
            "0203000000020000000500000006000000000000000100000007000000".into(),
        ),
        (
            Message::FeatureReq { nodes: vec![3, 9] },
            "03020000000300000009000000".into(),
        ),
        (
            Message::FeatureResp {
                dim: 2,
                rows: row.clone(),
            },
            "0402000000020000000000c03f000000c0".into(),
        ),
        (
            Message::FeatureUpdateReq {
                dim: 2,
                nodes: vec![7],
                rows: row.clone(),
            },
            "05020000000100000007000000".to_owned() + "0000c03f000000c0",
        ),
        (
            Message::FeatureUpdateResp { applied: 1 },
            "0601000000".into(),
        ),
        (
            Message::FeatureReqF16 { nodes: vec![3, 9] },
            "07020000000300000009000000".into(),
        ),
        (
            Message::FeatureRespF16 {
                dim: 2,
                rows: vec![0x3E00, 0xC000],
            },
            "080200000002000000003e00c0".into(),
        ),
        (
            Message::NeighborReqSeeded {
                fanout: 5,
                salt: 0x0807_0605_0403_0201,
                nodes: vec![4],
            },
            "09050000000102030405060708".to_owned() + "0100000004000000",
        ),
        (
            Message::AddEdgeReq {
                edges: vec![(1, 2), (9, 9)],
            },
            "0a020000000100000002000000".to_owned() + "0900000009000000",
        ),
        (
            Message::AddEdgeResp {
                applied: 1,
                rejected: 1,
            },
            "0b0100000001000000".into(),
        ),
        (
            Message::AddNodeReq {
                id: 64,
                owner: 3,
                row: row.clone(),
            },
            "0c400000000300000002000000".to_owned() + "0000c03f000000c0",
        ),
        (Message::AddNodeResp { id: 64 }, "0d40000000".into()),
        (
            Message::PrepareMigrateReq { node: 7, dest: 2 },
            "0e0700000002000000".into(),
        ),
        (
            Message::PrepareMigrateResp {
                node: 7,
                owner: 1,
                row: row.clone(),
                neighbors: vec![3, 11],
            },
            "0f0700000001000000020000000000c03f000000c0".to_owned() + "02000000030000000b000000",
        ),
        (
            Message::MigrateCopyReq {
                node: 7,
                dest: 2,
                row,
                neighbors: vec![3, 11],
            },
            "100700000002000000020000000000c03f000000c0".to_owned() + "02000000030000000b000000",
        ),
        (Message::MigrateCopyResp { node: 7 }, "1107000000".into()),
        (
            Message::CommitMigrateReq { node: 7, owner: 2 },
            "120700000002000000".into(),
        ),
        (
            Message::CommitMigrateResp { node: 7, owner: 2 },
            "130700000002000000".into(),
        ),
        (Message::OwnerReq { node: 7 }, "1407000000".into()),
        (
            Message::OwnerResp { node: 7, owner: 2 },
            "150700000002000000".into(),
        ),
        (
            Message::TombstoneReq {
                node: 7,
                old_owner: 1,
            },
            "160700000001000000".into(),
        ),
        (Message::TombstoneResp { node: 7 }, "1707000000".into()),
    ];
    let mut tags: Vec<u8> = Vec::new();
    for (msg, want) in &golden {
        let wire = msg.encode().expect("encodes");
        assert_eq!(hex(&wire), *want, "{msg:?}");
        assert_eq!(Message::decode(wire.clone()).as_ref(), Ok(msg));
        tags.push(wire[0]);
    }
    tags.sort_unstable();
    assert_eq!(
        tags,
        (1..=23).collect::<Vec<u8>>(),
        "one instance of every message kind"
    );
}

#[test]
fn wal_records_match_their_golden_frames() {
    let records = [
        WalRecord::FeatureUpdate {
            node: 3,
            row: vec![1.5, -2.0],
        },
        WalRecord::EdgeInsert { src: 1, dst: 9 },
        WalRecord::NodeAppend {
            node: 64,
            owner: 1,
            row: vec![1.5, -2.0],
        },
        WalRecord::OwnerSet { node: 7, owner: 2 },
        WalRecord::Tombstone { node: 7, owner: 0 },
    ];
    // Frame = [payload len u32][fnv1a-64 of payload][payload].
    let golden = [
        "11000000".to_owned() + "d08aab9a66255733" + "010300000002000000" + "0000c03f000000c0",
        "09000000".to_owned() + "dd6cba4a3772ae8d" + "020100000009000000",
        "15000000".to_owned()
            + "8cd8b4ee499676e7"
            + "03400000000100000002000000"
            + "0000c03f000000c0",
        "09000000".to_owned() + "b6147f89dd4b4bf7" + "040700000002000000",
        "09000000".to_owned() + "4762148aa548ccdd" + "050700000000000000",
    ];
    let mut path = std::env::temp_dir();
    path.push(format!("bgl-golden-corpus-{}.wal", std::process::id()));
    {
        let file = Box::new(RealFile::open(&path).expect("create log file"));
        let mut wal = Wal::create(file, Histogram::noop()).expect("create log");
        for rec in &records {
            wal.append(rec).expect("append");
        }
        wal.sync().expect("sync");
    }
    let log = std::fs::read(&path).expect("read log back");
    std::fs::remove_file(&path).ok();

    // Header: magic, version 1, reserved word.
    assert_eq!(hex(&log[..16]), "42474c57414c30310100000000000000");
    let mut at = 16;
    for (rec, want) in records.iter().zip(&golden) {
        let frame = &log[at..at + want.len() / 2];
        assert_eq!(hex(frame), *want, "{rec:?}");
        assert_eq!(WalRecord::decode_payload(&frame[12..]).as_ref(), Ok(rec));
        at += frame.len();
    }
    assert_eq!(at, log.len(), "nothing in the log but the five frames");
}

#[test]
fn store_errors_match_their_golden_bytes() {
    let golden = [
        (StoreError::ServerDown(3), "0103000000".to_owned()),
        (StoreError::RequestDropped(1), "0201000000".into()),
        (StoreError::CorruptFrame(2), "0302000000".into()),
        (
            StoreError::NotOwned { node: 9, server: 4 },
            "040900000004000000".into(),
        ),
        (StoreError::Malformed("salt"), "050400000073616c74".into()),
        (StoreError::InvalidNode(77), "064d000000".into()),
        (StoreError::InvalidServer(5), "0705000000".into()),
        (StoreError::EmptyCluster, "08".into()),
        (StoreError::DeadlineExceeded, "09".into()),
        (
            StoreError::AllReplicasFailed { node_owner: 2 },
            "0a02000000".into(),
        ),
        (
            StoreError::Storage("bad magic"),
            "0b09000000626164206d61676963".into(),
        ),
        (
            StoreError::TooLarge("node id space"),
            "0c0d0000006e6f6465206964207370616365".into(),
        ),
        (
            StoreError::NotOwner { node: 12, owner: 2 },
            "0d0c00000002000000".into(),
        ),
    ];
    for (e, want) in &golden {
        let wire = encode_store_error(e);
        assert_eq!(hex(&wire), *want, "{e:?}");
        assert_eq!(decode_store_error(wire).as_ref(), Ok(e));
    }
}

#[test]
fn control_and_handshake_payloads_match_their_golden_bytes() {
    let ops = [
        (ControlOp::SetDown(true), "0101"),
        (
            ControlOp::SetReplication {
                replication: 2,
                num_servers: 4,
            },
            "020200000004000000",
        ),
        (ControlOp::Stats, "03"),
        (ControlOp::SetSlow { micros: 1500 }, "04dc05000000000000"),
    ];
    for (op, want) in &ops {
        let wire = op.encode();
        assert_eq!(hex(&wire), *want, "{op:?}");
        assert_eq!(ControlOp::decode(wire).as_ref(), Ok(op));
    }

    let hello = Hello::ours();
    assert_eq!(hex(&hello.encode()), "42474c4e01000000");
    assert_eq!(Hello::decode(hello.encode()), Ok(hello));

    let ack = HelloAck {
        version: 1,
        server_id: 2,
        num_servers: 4,
        feature_dim: 32,
    };
    assert_eq!(hex(&ack.encode()), "01000000020000000400000020000000");
    assert_eq!(HelloAck::decode(ack.encode()), Ok(ack));

    let stats = StatsReply {
        requests_served: 10,
        nodes_sampled: 0x0102_0304_0506,
    };
    assert_eq!(hex(&stats.encode()), "0a000000000000000605040302010000");
    assert_eq!(StatsReply::decode(stats.encode()), Ok(stats));
}

#[test]
fn query_payloads_match_their_golden_bytes() {
    let req = QueryReq { user: 42 };
    assert_eq!(hex(&req.encode()), "2a000000");
    assert_eq!(QueryReq::decode(req.encode()), Ok(req));

    let resp = QueryResp {
        latency_us: 1234,
        scores: vec![0.5, -1.25],
    };
    let wire = resp.encode().expect("encodes");
    assert_eq!(hex(&wire), "d204000000000000020000000000003f0000a0bf");
    assert_eq!(QueryResp::decode(wire).as_ref(), Ok(&resp));

    let errors = [
        (QueryError::Overloaded { depth: 64 }, "0140000000"),
        (QueryError::ShuttingDown, "02"),
        (QueryError::InvalidNode(7), "0307000000"),
        (
            QueryError::Store(StoreError::Malformed("salt")),
            "04050400000073616c74",
        ),
    ];
    for (e, want) in &errors {
        let wire = e.encode();
        assert_eq!(hex(&wire), *want, "{e:?}");
        assert_eq!(QueryError::decode(wire).as_ref(), Ok(e));
    }
}

#[test]
fn a_small_checkpoint_matches_its_golden_checksum() {
    let m = Matrix::from_vec(1, 2, vec![0.5, -0.25]);
    let v = Matrix::from_vec(1, 2, vec![0.125, 4.0]);
    let ckpt = Checkpoint {
        seed: 0xD15EA5E,
        fanouts: vec![10, 5],
        batches_fingerprint: 0xFEED_BEEF,
        num_batches: 20,
        cursor: 2,
        params: vec![1.5, -0.25, f32::MIN_POSITIVE],
        opt: AdamState {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 2,
            moments: vec![Some((m, v)), None],
        },
        losses: vec![0.75, 0.5],
        train_order: vec![0, 1],
        digests: vec![0x1111_2222_3333_4444, 0x5555_6666_7777_8888],
    };
    let bytes = ckpt.encode();
    // magic, version 1, payload length.
    assert_eq!(
        hex(&bytes[..20]),
        "42474c434b505431".to_owned() + "01000000" + "ee00000000000000"
    );
    assert_eq!(
        (bytes.len(), fnv1a_64(&bytes)),
        (266, 0x555d_e37b_bb5e_4add)
    );
    assert_eq!(Checkpoint::decode(&bytes).expect("decodes"), ckpt);
}
