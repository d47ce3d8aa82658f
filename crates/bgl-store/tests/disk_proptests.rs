//! Property-based corruption corpus for the WAL record codec and the log
//! file: for *arbitrary* log contents, encode/decode is the identity, no
//! payload prefix or bit flip decodes back to the same record, and a log cut
//! anywhere past its header replays exactly the frames that fit. Mirrors
//! the style of `bgl-exec/tests/ckpt_proptests.rs`.

use bgl_obs::Histogram;
use bgl_store::pager::RealFile;
use bgl_store::{Wal, WalRecord};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bgl-disk-prop-{}-{}", std::process::id(), name));
    p
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (any::<u32>(), proptest::collection::vec(-1e6f32..1e6, 0..8))
            .prop_map(|(node, row)| WalRecord::FeatureUpdate { node, row }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(src, dst)| WalRecord::EdgeInsert { src, dst }),
    ]
}

proptest! {
    /// decode(encode(r)) == r for arbitrary WAL records.
    #[test]
    fn wal_record_roundtrip_is_identity(r in arb_record()) {
        let payload = r.encode_payload().unwrap();
        prop_assert_eq!(WalRecord::decode_payload(&payload).unwrap(), r);
    }

    /// No strict prefix of a record payload decodes — shape validation is
    /// exact, so the frame checksum is the ONLY thing that has to
    /// distinguish torn from intact.
    #[test]
    fn wal_payload_truncation_is_rejected(r in arb_record()) {
        let payload = r.encode_payload().unwrap();
        for cut in 0..payload.len() {
            prop_assert!(
                WalRecord::decode_payload(&payload[..cut]).is_err(),
                "payload prefix {}/{} must not decode",
                cut,
                payload.len()
            );
        }
    }

    /// A bit flip in a payload never silently decodes back to the same
    /// record (it either fails shape validation or decodes differently —
    /// and in a framed log the checksum catches it first).
    #[test]
    fn wal_payload_bit_flip_never_decodes_identically(r in arb_record(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut payload = r.encode_payload().unwrap();
        let i = pos.index(payload.len());
        payload[i] ^= 1 << bit;
        match WalRecord::decode_payload(&payload) {
            Err(_) => {}
            Ok(back) => prop_assert_ne!(back, r),
        }
    }

    /// End to end through the log: append arbitrary records, cut the file
    /// at an arbitrary point past the header, reopen — replay returns
    /// exactly the records whose frames fit inside the cut, in order.
    #[test]
    fn wal_file_truncation_recovers_the_exact_prefix(
        recs in proptest::collection::vec(arb_record(), 0..8),
        cut in any::<prop::sample::Index>(),
    ) {
        let path = tmp("wal-cut");
        let mut bounds = Vec::with_capacity(recs.len() + 1);
        {
            let f = Box::new(RealFile::open(&path).unwrap());
            let mut w = Wal::create(f, Histogram::noop()).unwrap();
            bounds.push(w.tail_bytes());
            for r in &recs {
                w.append(r).unwrap();
                bounds.push(w.tail_bytes());
            }
            w.sync().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let header = bounds[0] as usize;
        let cut = header + cut.index(bytes.len() - header + 1); // [header, len]
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let f = Box::new(RealFile::open(&path).unwrap());
        let (_w, recovery) = Wal::open(f, Histogram::noop()).unwrap();
        let expect = bounds[1..].iter().filter(|&&b| b <= cut as u64).count();
        prop_assert_eq!(recovery.records.len(), expect);
        prop_assert_eq!(&recovery.records[..], &recs[..expect]);
        std::fs::remove_file(&path).ok();
    }
}
