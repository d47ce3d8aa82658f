//! Write-ahead log for the durable disk tier.
//!
//! An append-only log of feature/graph updates with length-prefixed,
//! checksummed records and an explicit fsync discipline: an update is
//! *acked* only after its record is appended **and** synced. Page
//! write-back (`crate::bufpool`) is lazy and unsynced, so after a crash the
//! paged file may hold any prefix of the acked updates — replaying the
//! whole log (records are idempotent full-row writes) restores exactly the
//! acked state. The log is truncated only by [`Wal::reset`], which the tier
//! calls *after* flushing and syncing the paged file at a checkpoint.
//!
//! Frame format, after a 16-byte header (`BGLWAL01` + version + reserved):
//!
//! ```text
//! [payload len u32][fnv1a-64 of payload][payload]
//! ```
//!
//! Replay walks frames from the header. The first frame that is incomplete
//! or fails its checksum marks the torn tail — everything from there is
//! truncated (a crash mid-append tears the last record; nothing behind it
//! was acked). A frame that passes its checksum but decodes to garbage is a
//! hard error, not a tail: checksummed bytes do not tear.
//!
//! Headers and payloads are read through `bgl_graph::le::Reader` (the one
//! length check against bytes from disk); a payload must end where its
//! record does. Lengths are written through `le::put_count`, so a row or a
//! payload too long for its `u32` field fails [`Wal::append`] with a typed
//! error instead of wrapping.

use crate::pager::{fnv1a_64, read_exact_at, BackingFile, DiskError};
use bgl_graph::le::{put_count, put_le, Reader};
use bgl_obs::Histogram;
use std::time::Instant;

pub const WAL_MAGIC: &[u8; 8] = b"BGLWAL01";
pub const WAL_VERSION: u32 = 1;
pub const WAL_HEADER_LEN: u64 = 16;
const FRAME_OVERHEAD: usize = 12;
/// Cap on a single record: a torn length field cannot drive allocation.
/// [`Wal::open`] reads a longer length as a torn tail, so
/// [`WalRecord::encode_frame`] refuses to write one.
const MAX_RECORD_LEN: u32 = 1 << 24;

const TAG_FEATURE_UPDATE: u8 = 1;
const TAG_EDGE_INSERT: u8 = 2;
const TAG_NODE_APPEND: u8 = 3;
const TAG_OWNER_SET: u8 = 4;
const TAG_TOMBSTONE: u8 = 5;

/// One logged update.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Set node `node`'s full feature row (idempotent, so at-least-once
    /// client retry after a crash is safe).
    FeatureUpdate { node: u32, row: Vec<f32> },
    /// A graph mutation made durable for the ingest path.
    EdgeInsert { src: u32, dst: u32 },
    /// A node appended past the pager's fixed range, with its partition
    /// owner and full feature row. Idempotent full-row semantics like
    /// [`WalRecord::FeatureUpdate`]: replay keeps the last row per node.
    NodeAppend { node: u32, owner: u32, row: Vec<f32> },
    /// A committed owner-map override from a migration: `node` is now
    /// owned by server `owner`. Journaled before the commit ack so a
    /// crashed server rejoins with its post-migration owner view.
    /// Idempotent last-write-wins, like every record here.
    OwnerSet { node: u32, owner: u32 },
    /// The source side of a completed migration retired its copy of
    /// `node` (it was owned by `owner` before the move). Replay keeps the
    /// tombstone set so a re-sent retire request stays an idempotent ack.
    Tombstone { node: u32, owner: u32 },
}

/// A length as the `u32` field the log stores it in. One that does not fit
/// is refused, never narrowed: a wrapped count would checksum fine and
/// replay as garbage.
fn put_len(out: &mut Vec<u8>, len: usize) -> Result<(), DiskError> {
    put_count(out, len).ok_or(DiskError::Invariant("WAL length exceeds its u32 field"))
}

/// A feature row: its scalar count, then its image in one pass.
fn put_row(out: &mut Vec<u8>, row: &[f32]) -> Result<(), DiskError> {
    put_len(out, row.len())?;
    put_le(out, row);
    Ok(())
}

/// The two words of a fixed-size record; short is the record's length error.
fn two_words(r: &mut Reader<'_>, length: &'static str) -> Result<(u32, u32), DiskError> {
    let mut word = || r.u32().ok_or(DiskError::Invariant(length));
    Ok((word()?, word()?))
}

impl WalRecord {
    /// Encode the record payload (what the frame checksum covers).
    pub fn encode_payload(&self) -> Result<Vec<u8>, DiskError> {
        let mut out = Vec::with_capacity(16);
        match self {
            WalRecord::FeatureUpdate { node, row } => {
                out.push(TAG_FEATURE_UPDATE);
                put_le(&mut out, &[*node]);
                put_row(&mut out, row)?;
            }
            WalRecord::EdgeInsert { src, dst } => {
                out.push(TAG_EDGE_INSERT);
                put_le(&mut out, &[*src, *dst]);
            }
            WalRecord::NodeAppend { node, owner, row } => {
                out.push(TAG_NODE_APPEND);
                put_le(&mut out, &[*node, *owner]);
                put_row(&mut out, row)?;
            }
            WalRecord::OwnerSet { node, owner } => {
                out.push(TAG_OWNER_SET);
                put_le(&mut out, &[*node, *owner]);
            }
            WalRecord::Tombstone { node, owner } => {
                out.push(TAG_TOMBSTONE);
                put_le(&mut out, &[*node, *owner]);
            }
        }
        Ok(out)
    }

    /// Decode a payload. Shape is validated exactly — trailing garbage or a
    /// row count that disagrees with the payload length is corrupt. Each
    /// arm names its record's length error; the one check that the payload
    /// ends where the record does sits below the `match`.
    pub fn decode_payload(bytes: &[u8]) -> Result<WalRecord, DiskError> {
        use DiskError::{Invariant, Truncated};
        let mut r = Reader::new(bytes);
        let (rec, length) = match r.u8().ok_or(Truncated("empty WAL payload"))? {
            TAG_FEATURE_UPDATE => {
                let header = "WAL feature-update header";
                let length = "WAL feature-update row length";
                let node = r.u32().ok_or(Truncated(header))?;
                let n = r.u32().ok_or(Truncated(header))? as usize;
                let row = r.vec(n).ok_or(Invariant(length))?;
                (WalRecord::FeatureUpdate { node, row }, length)
            }
            TAG_EDGE_INSERT => {
                let length = "WAL edge-insert length";
                let (src, dst) = two_words(&mut r, length)?;
                (WalRecord::EdgeInsert { src, dst }, length)
            }
            TAG_NODE_APPEND => {
                let header = "WAL node-append header";
                let length = "WAL node-append row length";
                let node = r.u32().ok_or(Truncated(header))?;
                let owner = r.u32().ok_or(Truncated(header))?;
                let n = r.u32().ok_or(Truncated(header))? as usize;
                let row = r.vec(n).ok_or(Invariant(length))?;
                (WalRecord::NodeAppend { node, owner, row }, length)
            }
            TAG_OWNER_SET => {
                let length = "WAL owner-set length";
                let (node, owner) = two_words(&mut r, length)?;
                (WalRecord::OwnerSet { node, owner }, length)
            }
            TAG_TOMBSTONE => {
                let length = "WAL tombstone length";
                let (node, owner) = two_words(&mut r, length)?;
                (WalRecord::Tombstone { node, owner }, length)
            }
            _ => return Err(Invariant("unknown WAL record tag")),
        };
        r.finish().ok_or(Invariant(length))?;
        Ok(rec)
    }

    /// Encode the full frame: `[len][fnv64][payload]`. A payload over
    /// [`MAX_RECORD_LEN`] is refused here, before a byte is written: replay
    /// would take its length for a torn tail and truncate the record, and
    /// every acked record after it, away.
    pub fn encode_frame(&self) -> Result<Vec<u8>, DiskError> {
        let payload = self.encode_payload()?;
        if payload.len() > MAX_RECORD_LEN as usize {
            return Err(DiskError::Invariant("WAL record exceeds the replayable record length"));
        }
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        put_len(&mut frame, payload.len())?;
        put_le(&mut frame, &[fnv1a_64(&payload)]);
        frame.extend_from_slice(&payload);
        Ok(frame)
    }
}

/// Cumulative WAL counters (mirrored into `store.disk.*` by the tier).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    pub appends: u64,
    pub syncs: u64,
    pub resets: u64,
    pub replayed: u64,
    pub torn_truncations: u64,
}

bgl_obs::ledger!(WalStats {
    appends = "wal_appends",
    syncs = "wal_syncs",
    resets = "wal_resets",
    replayed = "wal_replayed",
    torn_truncations = "wal_torn_truncations",
});

/// What replay found at open.
#[derive(Clone, Debug, Default)]
pub struct WalRecovery {
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail truncated away (0 for a clean log).
    pub torn_bytes: u64,
}

/// The log itself.
pub struct Wal {
    file: Box<dyn BackingFile>,
    /// Append position (== logical length of the valid log).
    tail: u64,
    pub stats: WalStats,
    fsync_ns: Histogram,
}

impl Wal {
    /// Create an empty log (header only), synced.
    pub fn create(mut file: Box<dyn BackingFile>, fsync_ns: Histogram) -> Result<Wal, DiskError> {
        let mut header = WAL_MAGIC.to_vec();
        put_le(&mut header, &[WAL_VERSION, 0]);
        file.truncate(0)?;
        file.write_at(0, &header)?;
        file.sync()?;
        Ok(Wal { file, tail: WAL_HEADER_LEN, stats: WalStats::default(), fsync_ns })
    }

    /// Open an existing log and replay it: every complete, checksum-valid
    /// record is returned; the torn tail (if any) is truncated and synced
    /// so a second open sees a clean log.
    pub fn open(
        mut file: Box<dyn BackingFile>,
        fsync_ns: Histogram,
    ) -> Result<(Wal, WalRecovery), DiskError> {
        let len = file.file_len()?;
        if len < WAL_HEADER_LEN {
            return Err(DiskError::Truncated("WAL header"));
        }
        let mut header = [0u8; WAL_HEADER_LEN as usize];
        read_exact_at(file.as_mut(), 0, &mut header)?;
        let mut header = Reader::new(&header);
        if header.take(WAL_MAGIC.len()) != Some(WAL_MAGIC) {
            return Err(DiskError::BadMagic { expected: "BGLWAL01" });
        }
        let version = header.u32().ok_or(DiskError::Truncated("WAL header"))?;
        if version != WAL_VERSION {
            return Err(DiskError::BadVersion { found: version });
        }
        let mut recovery = WalRecovery::default();
        let mut off = WAL_HEADER_LEN;
        let mut torn = false;
        while off < len {
            let remaining = len - off;
            if remaining < FRAME_OVERHEAD as u64 {
                torn = true;
                break;
            }
            let mut fh = [0u8; FRAME_OVERHEAD];
            read_exact_at(file.as_mut(), off, &mut fh)?;
            let mut fh = Reader::new(&fh);
            let plen = fh.u32().ok_or(DiskError::Truncated("WAL frame header"))?;
            let stored = fh.u64().ok_or(DiskError::Truncated("WAL frame header"))?;
            if plen > MAX_RECORD_LEN || remaining < FRAME_OVERHEAD as u64 + plen as u64 {
                torn = true;
                break;
            }
            let mut payload = vec![0u8; plen as usize];
            read_exact_at(file.as_mut(), off + FRAME_OVERHEAD as u64, &mut payload)?;
            if fnv1a_64(&payload) != stored {
                torn = true;
                break;
            }
            // Checksummed bytes that fail to decode are a hard error, not a
            // torn tail: tearing cannot produce a valid checksum.
            recovery.records.push(WalRecord::decode_payload(&payload)?);
            off += FRAME_OVERHEAD as u64 + plen as u64;
        }
        let mut wal = Wal { file, tail: off, stats: WalStats::default(), fsync_ns };
        wal.stats.replayed = recovery.records.len() as u64;
        if torn {
            recovery.torn_bytes = len - off;
            wal.stats.torn_truncations = 1;
            wal.file.truncate(off)?;
            wal.sync()?;
        }
        Ok((wal, recovery))
    }

    /// Append one record at the tail. NOT durable until [`Wal::sync`].
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), DiskError> {
        let frame = rec.encode_frame()?;
        self.file.write_at(self.tail, &frame)?;
        self.tail += frame.len() as u64;
        self.stats.appends += 1;
        Ok(())
    }

    /// fsync the log — the ack point of the update protocol. Latency lands
    /// in the `store.disk.wal_fsync_ns` histogram.
    pub fn sync(&mut self) -> Result<(), DiskError> {
        let t0 = Instant::now();
        self.file.sync()?;
        self.fsync_ns.record(t0.elapsed().as_nanos() as u64);
        self.stats.syncs += 1;
        Ok(())
    }

    /// Truncate to an empty log. Only safe after the paged file has been
    /// flushed and synced (checkpoint protocol).
    pub fn reset(&mut self) -> Result<(), DiskError> {
        self.file.truncate(WAL_HEADER_LEN)?;
        self.tail = WAL_HEADER_LEN;
        self.stats.resets += 1;
        self.sync()
    }

    /// Current logical length (header + valid records).
    pub fn tail_bytes(&self) -> u64 {
        self.tail
    }

    /// Un-synced bytes in the backing file (chaos introspection).
    pub fn pending_bytes(&self) -> usize {
        self.file.pending_bytes()
    }

    /// Chaos hook: crash the backing file keeping a `keep`-byte prefix of
    /// its un-synced writes.
    pub fn crash(&mut self, keep: usize) -> Result<(), DiskError> {
        self.file.crash(keep)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::{RealFile, ShadowFile};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bgl-wal-test-{}-{}", std::process::id(), name));
        p
    }

    fn recs() -> Vec<WalRecord> {
        vec![
            WalRecord::FeatureUpdate { node: 3, row: vec![1.0, -2.5] },
            WalRecord::EdgeInsert { src: 1, dst: 9 },
            WalRecord::NodeAppend { node: 40, owner: 1, row: vec![5.5, -6.5] },
            WalRecord::OwnerSet { node: 7, owner: 2 },
            WalRecord::Tombstone { node: 7, owner: 0 },
            WalRecord::FeatureUpdate { node: 0, row: vec![0.0, 7.5] },
        ]
    }

    #[test]
    fn migration_records_validate_exact_length() {
        for (rec, err) in [
            (WalRecord::OwnerSet { node: 7, owner: 2 }, "WAL owner-set length"),
            (WalRecord::Tombstone { node: 7, owner: 0 }, "WAL tombstone length"),
        ] {
            let payload = rec.encode_payload().unwrap();
            assert_eq!(WalRecord::decode_payload(&payload).unwrap(), rec);
            // A byte short or a byte long is corrupt, not a variant.
            assert!(matches!(
                WalRecord::decode_payload(&payload[..payload.len() - 1]),
                Err(DiskError::Invariant(e)) if e == err
            ));
            let mut long = payload.clone();
            long.push(0);
            assert!(matches!(
                WalRecord::decode_payload(&long),
                Err(DiskError::Invariant(e)) if e == err
            ));
        }
    }

    /// The count fields are u32. A length past that is a typed error with
    /// nothing written, where `as u32` used to wrap it into a record that
    /// checksums fine and replays as garbage.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_length_past_u32_is_a_typed_error_not_a_wrapped_count() {
        let mut out = vec![TAG_FEATURE_UPDATE];
        assert_eq!(
            put_len(&mut out, u32::MAX as usize + 1),
            Err(DiskError::Invariant("WAL length exceeds its u32 field"))
        );
        assert_eq!(out, [TAG_FEATURE_UPDATE]);
        assert_eq!(put_len(&mut out, u32::MAX as usize), Ok(()));
        assert_eq!(out, [TAG_FEATURE_UPDATE, 0xFF, 0xFF, 0xFF, 0xFF]);
    }

    #[test]
    fn append_sync_replay_roundtrip() {
        let path = tmp("roundtrip");
        {
            let f = Box::new(RealFile::open(&path).unwrap());
            let mut w = Wal::create(f, Histogram::noop()).unwrap();
            for r in recs() {
                w.append(&r).unwrap();
                w.sync().unwrap();
            }
            assert_eq!(w.stats.appends, recs().len() as u64);
            assert_eq!(w.stats.syncs, recs().len() as u64);
        }
        let f = Box::new(RealFile::open(&path).unwrap());
        let (w, rec) = Wal::open(f, Histogram::noop()).unwrap();
        assert_eq!(rec.records, recs());
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(w.stats.replayed, recs().len() as u64);
        std::fs::remove_file(path).ok();
    }

    /// The record cap from both sides. Payloads are a tag byte plus words,
    /// so the longest that fits is `MAX_RECORD_LEN - 3` and the next row
    /// length lands one byte over: the first must survive `sync` + `open`,
    /// the second must be refused with the log left as it was.
    #[test]
    fn record_length_cap_is_enforced_at_append_not_at_replay() {
        let fits = (MAX_RECORD_LEN as usize - 9) / 4;
        let at_cap = WalRecord::FeatureUpdate { node: 7, row: vec![0.5; fits] };
        let over = WalRecord::FeatureUpdate { node: 8, row: vec![0.5; fits + 1] };
        assert_eq!(at_cap.encode_payload().unwrap().len(), MAX_RECORD_LEN as usize - 3);
        assert_eq!(over.encode_payload().unwrap().len(), MAX_RECORD_LEN as usize + 1);
        let path = tmp("cap");
        let mut logged = recs();
        {
            let f = Box::new(RealFile::open(&path).unwrap());
            let mut w = Wal::create(f, Histogram::noop()).unwrap();
            for r in &logged {
                w.append(r).unwrap();
            }
            let (tail, appends) = (w.tail_bytes(), w.stats.appends);
            assert!(matches!(w.append(&over), Err(DiskError::Invariant(_))));
            assert_eq!((w.tail_bytes(), w.stats.appends), (tail, appends));
            assert_eq!(std::fs::metadata(&path).unwrap().len(), tail, "nothing was written");
            w.append(&at_cap).unwrap();
            w.append(&logged[0]).unwrap();
            w.sync().unwrap();
        }
        logged.push(at_cap);
        logged.push(logged[0].clone());
        let f = Box::new(RealFile::open(&path).unwrap());
        let (_, rec) = Wal::open(f, Histogram::noop()).unwrap();
        assert_eq!(rec.torn_bytes, 0);
        assert!(rec.records == logged, "every acked record replays, the one at the cap included");
        std::fs::remove_file(path).ok();
    }

    /// Torn-tail detection proven exhaustively: truncate the log at EVERY
    /// byte offset; replay must return exactly the records whose frames
    /// survive whole, and truncate the rest.
    #[test]
    fn truncation_at_every_offset_keeps_the_whole_prefix() {
        let path = tmp("everyoffset");
        {
            let f = Box::new(RealFile::open(&path).unwrap());
            let mut w = Wal::create(f, Histogram::noop()).unwrap();
            for r in recs() {
                w.append(&r).unwrap();
            }
            w.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Frame boundaries, to predict how many records survive a cut.
        let mut bounds = vec![WAL_HEADER_LEN as usize];
        for r in recs() {
            bounds.push(bounds.last().unwrap() + r.encode_frame().unwrap().len());
        }
        for cut in WAL_HEADER_LEN as usize..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let f = Box::new(RealFile::open(&path).unwrap());
            let (_, rec) = Wal::open(f, Histogram::noop()).unwrap();
            let expect = bounds[1..].iter().filter(|&&b| b <= cut).count();
            assert_eq!(rec.records.len(), expect, "cut at {}", cut);
            assert_eq!(rec.records[..], recs()[..expect]);
            // Replay healed the file: a second open is clean.
            let f = Box::new(RealFile::open(&path).unwrap());
            let (_, rec2) = Wal::open(f, Histogram::noop()).unwrap();
            assert_eq!(rec2.torn_bytes, 0);
            assert_eq!(rec2.records.len(), expect);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn tail_bitflip_is_truncated_but_mid_log_decode_garbage_errors() {
        let path = tmp("bitflip");
        {
            let f = Box::new(RealFile::open(&path).unwrap());
            let mut w = Wal::create(f, Histogram::noop()).unwrap();
            for r in recs() {
                w.append(&r).unwrap();
            }
            w.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x10; // payload of the LAST record
        std::fs::write(&path, &bytes).unwrap();
        let f = Box::new(RealFile::open(&path).unwrap());
        let (_, rec) = Wal::open(f, Histogram::noop()).unwrap();
        assert_eq!(rec.records.len(), recs().len() - 1, "flip in the tail record truncates it");
        assert!(rec.torn_bytes > 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checksum_valid_garbage_payload_is_a_hard_error() {
        let path = tmp("garbage");
        {
            let f = Box::new(RealFile::open(&path).unwrap());
            Wal::create(f, Histogram::noop()).unwrap();
        }
        // Hand-craft a frame whose payload checksums fine but has a bogus tag.
        let payload = [99u8, 1, 2, 3];
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&fnv1a_64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::write(&path, &bytes).unwrap();
        let f = Box::new(RealFile::open(&path).unwrap());
        assert!(matches!(
            Wal::open(f, Histogram::noop()),
            Err(DiskError::Invariant("unknown WAL record tag"))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reset_empties_the_log() {
        let path = tmp("reset");
        {
            let f = Box::new(RealFile::open(&path).unwrap());
            let mut w = Wal::create(f, Histogram::noop()).unwrap();
            for r in recs() {
                w.append(&r).unwrap();
            }
            w.sync().unwrap();
            w.reset().unwrap();
            assert_eq!(w.tail_bytes(), WAL_HEADER_LEN);
        }
        let f = Box::new(RealFile::open(&path).unwrap());
        let (_, rec) = Wal::open(f, Histogram::noop()).unwrap();
        assert!(rec.records.is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn crash_before_sync_loses_only_unacked_appends() {
        let path = tmp("crashsync");
        {
            let f = Box::new(ShadowFile::open(&path).unwrap());
            let mut w = Wal::create(f, Histogram::noop()).unwrap();
            w.append(&recs()[0]).unwrap();
            w.sync().unwrap(); // acked
            w.append(&recs()[1]).unwrap(); // NOT acked
            assert!(w.pending_bytes() > 0);
            w.crash(0).unwrap(); // crash before fsync: nothing pending lands
        }
        let f = Box::new(RealFile::open(&path).unwrap());
        let (_, rec) = Wal::open(f, Histogram::noop()).unwrap();
        assert_eq!(rec.records, vec![recs()[0].clone()]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn huge_length_prefix_does_not_allocate() {
        let path = tmp("hugelen");
        {
            let f = Box::new(RealFile::open(&path).unwrap());
            Wal::create(f, Histogram::noop()).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let f = Box::new(RealFile::open(&path).unwrap());
        let (_, rec) = Wal::open(f, Histogram::noop()).unwrap();
        assert!(rec.records.is_empty());
        assert!(rec.torn_bytes > 0, "absurd length reads as a torn tail");
        std::fs::remove_file(path).ok();
    }
}
