//! Deterministic checkpoint/resume for the threaded executor.
//!
//! Long-running training (the paper's billion-node regime) loses a full
//! epoch of in-flight state on any trainer death: model parameters,
//! optimizer moments, the epoch/batch cursor, per-batch RNG stream keys
//! and the training-node ordering. This module makes all of it durable and
//! — critically — *deterministically* recoverable: resuming from a
//! checkpoint produces a final `param_vec`, per-batch loss sequence and
//! `MiniBatch::digest()` trace bitwise-identical to a run that never
//! crashed (`tests/ckpt_recovery.rs` pins this, locally and over TCP).
//!
//! ## Format
//!
//! A checkpoint is one file, written atomically (temp file + fsync +
//! rename) by a dedicated writer thread so the train stage never waits on
//! disk:
//!
//! ```text
//! [magic "BGLCKPT1"][version u32][payload_len u64][payload][fnv64 checksum]
//! ```
//!
//! All integers little-endian, read through `bgl_graph::le::Reader`: the
//! header, the payload's fields and its `u64`-length-prefixed vectors (one
//! pass each) all meet the same length check, and both the file and the
//! payload must end exactly where their last field does. The checksum is
//! FNV-1a 64 over every byte that precedes it, so a file truncated at *any*
//! offset — a torn write from a crash mid-checkpoint — fails closed:
//! [`Checkpoint::decode`] returns a typed [`CkptError`], never garbage
//! state, and [`CheckpointStore::load_latest`] falls back to the previous
//! retained checkpoint.
//!
//! The payload captures everything resumption needs:
//!
//! * the base RNG `seed` and sampler `fanouts` (per-batch RNG streams are
//!   re-derived as `seed ^ hash(batch_index)`, so storing the seed is
//!   storing every stream);
//! * a fingerprint of the training-node ordering (the epoch's seed
//!   batches), so a checkpoint cannot be resumed against a different
//!   epoch ordering;
//! * the batch `cursor` (batches fully applied by the reorder-buffer train
//!   stage) plus the per-batch losses, train order and subgraph digests up
//!   to it;
//! * the flattened model parameters and the full Adam state (moments and
//!   step counter — restoring params alone silently changes the
//!   trajectory; see `bgl_tensor::optim`'s divergence regression test).

use bgl_graph::half::LeScalar;
use bgl_graph::hash::{fnv1a_64, splitmix64, Fnv1a};
use bgl_graph::le::{put_le, Reader};
use bgl_graph::NodeId;
use bgl_tensor::{Adam, Matrix};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::PathBuf;

/// File magic: 8 bytes, versioned by suffix.
pub const CKPT_MAGIC: &[u8; 8] = b"BGLCKPT1";
/// Current codec version.
pub const CKPT_VERSION: u32 = 1;

const HEADER_LEN: usize = 8 + 4 + 8;
const CHECKSUM_LEN: usize = 8;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a checkpoint could not be decoded, loaded, or used for resumption.
/// Every failure mode is typed — corruption never panics and never yields
/// a partially-applied state.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure reading or writing.
    Io(io::Error),
    /// The file does not start with [`CKPT_MAGIC`].
    BadMagic,
    /// The magic matched but the version is not [`CKPT_VERSION`].
    BadVersion { found: u32 },
    /// The file ends before the declared payload + checksum (torn write).
    Truncated,
    /// The trailing FNV-1a 64 checksum does not match the bytes.
    ChecksumMismatch { expected: u64, found: u64 },
    /// The checkpoint is internally valid but does not match the run it is
    /// being resumed into (wrong seed, ordering, shape, …).
    Mismatch(String),
    /// No valid checkpoint exists in the store.
    NoCheckpoint,
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CkptError::BadMagic => write!(f, "bad checkpoint magic"),
            CkptError::BadVersion { found } => {
                write!(f, "unsupported checkpoint version {found} (expected {CKPT_VERSION})")
            }
            CkptError::Truncated => write!(f, "checkpoint truncated (torn write)"),
            CkptError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: expected {expected:#018x}, found {found:#018x}"
            ),
            CkptError::Mismatch(why) => write!(f, "checkpoint does not match this run: {why}"),
            CkptError::NoCheckpoint => write!(f, "no valid checkpoint found"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// The batch fingerprint (FNV-1a 64, like MiniBatch::digest)
// ---------------------------------------------------------------------------

/// Order-sensitive fingerprint of an epoch's seed batches (the
/// training-node ordering). Two orderings that differ in any batch
/// boundary, node, or position fingerprint differently.
pub fn fingerprint_batches(batches: &[Vec<NodeId>]) -> u64 {
    let mut h = Fnv1a::default();
    h.word(batches.len() as u64);
    for batch in batches {
        h.word(batch.len() as u64);
        for &n in batch {
            h.word(n as u64);
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Optimizer state capture
// ---------------------------------------------------------------------------

/// Serializable snapshot of an [`Adam`] optimizer: hyperparameters, step
/// counter and per-slot moment pairs. `GnnModel::param_vec` alone is not
/// enough to resume training bitwise-identically — this is the rest.
#[derive(Clone, Debug, PartialEq)]
pub struct AdamState {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub t: i32,
    pub moments: Vec<Option<(Matrix, Matrix)>>,
}

impl AdamState {
    /// Snapshot `opt`'s full internal state.
    pub fn capture(opt: &Adam) -> Self {
        AdamState {
            lr: opt.lr,
            beta1: opt.beta1,
            beta2: opt.beta2,
            eps: opt.eps,
            t: opt.step_count(),
            moments: opt.moments().to_vec(),
        }
    }

    /// Overwrite `opt` with this snapshot.
    pub fn restore_into(&self, opt: &mut Adam) {
        opt.lr = self.lr;
        opt.beta1 = self.beta1;
        opt.beta2 = self.beta2;
        opt.eps = self.eps;
        opt.restore_state(self.t, self.moments.clone());
    }
}

// ---------------------------------------------------------------------------
// The checkpoint itself + codec
// ---------------------------------------------------------------------------

/// One durable snapshot of mid-epoch training state.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Base RNG seed of the run (per-batch streams derive from it).
    pub seed: u64,
    /// Sampler fanouts of the run.
    pub fanouts: Vec<usize>,
    /// [`fingerprint_batches`] of the epoch's training-node ordering.
    pub batches_fingerprint: u64,
    /// Total seed batches in the epoch.
    pub num_batches: u64,
    /// Batches fully applied by the train stage; resume replays from here.
    pub cursor: u64,
    /// Flattened model parameters at the cursor.
    pub params: Vec<f32>,
    /// Full optimizer state at the cursor.
    pub opt: AdamState,
    /// Per-batch losses for batches `0..cursor`.
    pub losses: Vec<f32>,
    /// Batch indices in application order (must be `0..cursor`).
    pub train_order: Vec<u64>,
    /// Sampled-subgraph digests for batches `0..cursor`.
    pub digests: Vec<u64>,
}

/// A vector on disk: its `u64` length, then its image in one pass.
fn put_vec<T: LeScalar>(out: &mut Vec<u8>, v: &[T]) {
    put_le(out, &[v.len() as u64]);
    put_le(out, v);
}

/// A `u64` length field as a `usize`; one that does not fit reads as short,
/// like any other length the payload cannot back.
fn get_len(r: &mut Reader<'_>) -> Option<usize> {
    usize::try_from(r.u64()?).ok()
}

/// The inverse of [`put_vec`]. The length is checked against the bytes
/// that are left before anything is allocated (`Reader::vec`).
fn get_vec<T: LeScalar>(r: &mut Reader<'_>) -> Result<Vec<T>, CkptError> {
    get_len(r).and_then(|n| r.vec(n)).ok_or(CkptError::Truncated)
}

fn read_matrix(r: &mut Reader<'_>) -> Result<Matrix, CkptError> {
    let rows = get_len(r).ok_or(CkptError::Truncated)?;
    let cols = get_len(r).ok_or(CkptError::Truncated)?;
    let data: Vec<f32> = get_vec(r)?;
    // Checked product: a crafted rows×cols header must not overflow the
    // shape arithmetic before the comparison rejects it.
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(CkptError::Mismatch(format!(
            "matrix payload {} != {rows}x{cols}",
            data.len()
        )));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_le(out, &[m.rows() as u64, m.cols() as u64]);
    put_vec(out, m.raw());
}

impl Checkpoint {
    /// Serialize to the framed, checksummed on-disk format.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_le(&mut p, &[self.seed]);
        let fanouts: Vec<u64> = self.fanouts.iter().map(|&f| f as u64).collect();
        put_vec(&mut p, &fanouts);
        put_le(&mut p, &[self.batches_fingerprint, self.num_batches, self.cursor]);
        put_vec(&mut p, &self.params);
        put_le(&mut p, &[self.opt.lr, self.opt.beta1, self.opt.beta2, self.opt.eps]);
        p.extend_from_slice(&(self.opt.t as i64).to_le_bytes());
        put_le(&mut p, &[self.opt.moments.len() as u64]);
        for slot in &self.opt.moments {
            match slot {
                None => p.push(0),
                Some((m, v)) => {
                    p.push(1);
                    put_matrix(&mut p, m);
                    put_matrix(&mut p, v);
                }
            }
        }
        put_vec(&mut p, &self.losses);
        put_vec(&mut p, &self.train_order);
        put_vec(&mut p, &self.digests);

        let mut out = Vec::with_capacity(HEADER_LEN + p.len() + CHECKSUM_LEN);
        out.extend_from_slice(CKPT_MAGIC);
        out.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        put_le(&mut out, &[p.len() as u64]);
        out.extend_from_slice(&p);
        let sum = fnv1a_64(&out);
        put_le(&mut out, &[sum]);
        out
    }

    /// Decode a file produced by [`Checkpoint::encode`]. Any truncation,
    /// bit flip, trailing garbage, or foreign file is a typed error.
    pub fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        use CkptError::Truncated;
        let mut file = Reader::new(bytes);
        if file.take(CKPT_MAGIC.len()).ok_or(Truncated)? != CKPT_MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = file.u32().ok_or(Truncated)?;
        let payload_len = get_len(&mut file).ok_or(Truncated)?;
        if version != CKPT_VERSION {
            return Err(CkptError::BadVersion { found: version });
        }
        let payload = file.take(payload_len).ok_or(Truncated)?;
        let found = file.u64().ok_or(Truncated)?;
        let summed = HEADER_LEN + payload.len();
        if file.finish().is_none() {
            return Err(CkptError::Mismatch(format!(
                "{} trailing bytes after checksum",
                bytes.len() - summed - CHECKSUM_LEN
            )));
        }
        let expected = fnv1a_64(&bytes[..summed]);
        if expected != found {
            return Err(CkptError::ChecksumMismatch { expected, found });
        }

        let mut r = Reader::new(payload);
        let seed = r.u64().ok_or(Truncated)?;
        let nf = get_len(&mut r).ok_or(Truncated)?;
        if nf > 64 {
            return Err(CkptError::Mismatch(format!("implausible fanout count {nf}")));
        }
        let fanouts: Vec<u64> = r.vec(nf).ok_or(Truncated)?;
        let fanouts = fanouts.into_iter().map(|f| f as usize).collect();
        let batches_fingerprint = r.u64().ok_or(Truncated)?;
        let num_batches = r.u64().ok_or(Truncated)?;
        let cursor = r.u64().ok_or(Truncated)?;
        let params = get_vec(&mut r)?;
        let opt = {
            let lr = r.f32().ok_or(Truncated)?;
            let beta1 = r.f32().ok_or(Truncated)?;
            let beta2 = r.f32().ok_or(Truncated)?;
            let eps = r.f32().ok_or(Truncated)?;
            let t = i32::try_from(r.i64().ok_or(Truncated)?)
                .map_err(|_| CkptError::Mismatch("optimizer step does not fit i32".into()))?;
            let slots = get_len(&mut r).ok_or(Truncated)?;
            if slots > 1 << 20 {
                return Err(CkptError::Mismatch(format!("implausible slot count {slots}")));
            }
            let mut moments = Vec::new();
            for _ in 0..slots {
                moments.push(match r.u8().ok_or(Truncated)? {
                    0 => None,
                    1 => Some((read_matrix(&mut r)?, read_matrix(&mut r)?)),
                    tag => {
                        return Err(CkptError::Mismatch(format!("bad moment tag {tag}")))
                    }
                });
            }
            AdamState { lr, beta1, beta2, eps, t, moments }
        };
        let losses = get_vec(&mut r)?;
        let train_order = get_vec(&mut r)?;
        let digests = get_vec(&mut r)?;
        if r.finish().is_none() {
            return Err(CkptError::Mismatch("payload bytes left over after the last field".into()));
        }
        let ckpt = Checkpoint {
            seed,
            fanouts,
            batches_fingerprint,
            num_batches,
            cursor,
            params,
            opt,
            losses,
            train_order,
            digests,
        };
        ckpt.validate_internal()?;
        Ok(ckpt)
    }

    /// Internal-consistency checks that hold for every well-formed
    /// checkpoint, independent of the run it resumes into.
    fn validate_internal(&self) -> Result<(), CkptError> {
        if self.cursor > self.num_batches {
            return Err(CkptError::Mismatch(format!(
                "cursor {} beyond epoch of {} batches",
                self.cursor, self.num_batches
            )));
        }
        let c = self.cursor as usize;
        if self.losses.len() != c || self.train_order.len() != c || self.digests.len() != c {
            return Err(CkptError::Mismatch(format!(
                "prefix lengths (losses {}, order {}, digests {}) != cursor {}",
                self.losses.len(),
                self.train_order.len(),
                self.digests.len(),
                c
            )));
        }
        if !self.train_order.iter().enumerate().all(|(i, &o)| o == i as u64) {
            return Err(CkptError::Mismatch(
                "train order is not the identity prefix".to_string(),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Policy + on-disk store
// ---------------------------------------------------------------------------

/// When and where the executor checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Directory holding the checkpoint files.
    pub dir: PathBuf,
    /// Write a checkpoint after every `every_batches` trained batches.
    pub every_batches: usize,
    /// Keep the newest `retain` checkpoint files (≥ 2 so a torn newest
    /// write always leaves a good predecessor).
    pub retain: usize,
}

impl CheckpointPolicy {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointPolicy { dir: dir.into(), every_batches: 8, retain: 2 }
    }

    pub fn every(mut self, batches: usize) -> Self {
        self.every_batches = batches.max(1);
        self
    }

    pub fn retain(mut self, n: usize) -> Self {
        self.retain = n.max(2);
        self
    }
}

/// Directory of versioned checkpoint files with atomic writes, bounded
/// retention, and checksum-gated loading.
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
    ctr_writes: bgl_obs::Counter,
    ctr_bytes: bgl_obs::Counter,
    ctr_torn_rejected: bgl_obs::Counter,
    hist_write_ns: bgl_obs::Histogram,
}

impl CheckpointStore {
    /// Open (creating if needed) the store at `policy.dir`, reporting
    /// `exec.ckpt.*` metrics to `reg`.
    pub fn open(policy: &CheckpointPolicy, reg: &bgl_obs::Registry) -> Result<Self, CkptError> {
        fs::create_dir_all(&policy.dir)?;
        Ok(CheckpointStore {
            dir: policy.dir.clone(),
            retain: policy.retain.max(2),
            ctr_writes: reg.counter("exec.ckpt.writes"),
            ctr_bytes: reg.counter("exec.ckpt.bytes"),
            ctr_torn_rejected: reg.counter("exec.ckpt.torn_writes_rejected"),
            hist_write_ns: reg.histogram("exec.ckpt.write_ns"),
        })
    }

    fn file_name(cursor: u64) -> String {
        format!("ckpt-{cursor:010}.bin")
    }

    /// Checkpoint files present, sorted oldest → newest (zero-padded
    /// cursor in the name makes lexicographic = numeric order).
    pub fn list(&self) -> Result<Vec<PathBuf>, CkptError> {
        let mut files: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
                    .unwrap_or(false)
            })
            .collect();
        files.sort();
        Ok(files)
    }

    /// Atomically persist `ckpt`: temp file + fsync + rename, then fsync
    /// the directory and prune beyond the retention bound. Returns the
    /// final path.
    pub fn write(&self, ckpt: &Checkpoint) -> Result<PathBuf, CkptError> {
        self.write_inner(ckpt, None)
    }

    /// Like [`CheckpointStore::write`] but, when `torn_keep` is `Some(k)`,
    /// simulate a crash mid-write: only the first `k` bytes land, directly
    /// at the *final* path with no fsync/rename dance — the worst-case
    /// torn write the checksum must catch. Chaos-harness only.
    pub fn write_torn(&self, ckpt: &Checkpoint, torn_keep: usize) -> Result<PathBuf, CkptError> {
        self.write_inner(ckpt, Some(torn_keep))
    }

    fn write_inner(
        &self,
        ckpt: &Checkpoint,
        torn_keep: Option<usize>,
    ) -> Result<PathBuf, CkptError> {
        let t0 = std::time::Instant::now();
        let bytes = ckpt.encode();
        let final_path = self.dir.join(Self::file_name(ckpt.cursor));
        if let Some(keep) = torn_keep {
            let keep = keep.min(bytes.len().saturating_sub(1));
            let mut f = File::create(&final_path)?;
            f.write_all(&bytes[..keep])?;
            // No fsync, no rename: the simulated process died right here.
            return Ok(final_path);
        }
        let tmp_path = self.dir.join(format!(".{}.tmp", Self::file_name(ckpt.cursor)));
        {
            let mut f = File::create(&tmp_path)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        // Make the rename itself durable (POSIX: fsync the directory).
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.ctr_writes.incr();
        self.ctr_bytes.add(bytes.len() as u64);
        self.hist_write_ns.record(t0.elapsed().as_nanos() as u64);
        self.prune()?;
        Ok(final_path)
    }

    fn prune(&self) -> Result<(), CkptError> {
        let files = self.list()?;
        if files.len() > self.retain {
            for old in &files[..files.len() - self.retain] {
                let _ = fs::remove_file(old);
            }
        }
        Ok(())
    }

    /// Load the newest checkpoint that passes every integrity check,
    /// rejecting (and counting) torn or corrupt newer files. Returns the
    /// checkpoint and how many files were rejected before it.
    pub fn load_latest(&self) -> Result<(Checkpoint, usize), CkptError> {
        let mut rejected = 0usize;
        for path in self.list()?.into_iter().rev() {
            match fs::read(&path).map_err(CkptError::from).and_then(|b| Checkpoint::decode(&b)) {
                Ok(ckpt) => return Ok((ckpt, rejected)),
                Err(_) => {
                    rejected += 1;
                    self.ctr_torn_rejected.incr();
                }
            }
        }
        Err(CkptError::NoCheckpoint)
    }
}

// ---------------------------------------------------------------------------
// Executor fault plan (PR 1's seeded chaos, extended to the trainer)
// ---------------------------------------------------------------------------

/// A seeded, declarative fault schedule for the *executor* — the trainer-
/// side counterpart of `bgl_store::FaultPlan`. The same plan over the same
/// workload kills, tears, and panics at exactly the same points, so every
/// crash-recovery test reproduces from its seed.
#[derive(Clone, Debug, Default)]
pub struct ExecFaultPlan {
    pub seed: u64,
    kill_at_trained: Option<usize>,
    tear_checkpoint: Option<usize>,
    panic_at: Option<(usize, usize)>,
}

impl ExecFaultPlan {
    /// An empty plan (no faults) with the given determinism seed.
    pub fn new(seed: u64) -> Self {
        ExecFaultPlan { seed, ..ExecFaultPlan::default() }
    }

    /// Simulate trainer death immediately after batch index `k` is
    /// trained: the stop flag rises, in-flight pipeline state and queued
    /// checkpoint writes are lost, and only what already reached disk
    /// survives.
    pub fn kill_at_trained(mut self, k: usize) -> Self {
        self.kill_at_trained = Some(k);
        self
    }

    /// Like [`ExecFaultPlan::kill_at_trained`] with the batch drawn
    /// deterministically from the plan seed in `[lo, hi)`.
    pub fn kill_at_seeded_batch(self, lo: usize, hi: usize) -> Self {
        assert!(lo < hi);
        let k = lo + (splitmix64(self.seed) as usize) % (hi - lo);
        self.kill_at_trained(k)
    }

    /// Tear the `nth` (0-based) checkpoint write of the run: a seeded
    /// prefix of the bytes lands at the final path (crash mid-write), so
    /// the newest on-disk checkpoint fails its checksum on load.
    pub fn tear_checkpoint(mut self, nth: usize) -> Self {
        self.tear_checkpoint = Some(nth);
        self
    }

    /// Panic inside stage `stage` while it processes batch `batch` —
    /// exercises [`crate::ExecError::StagePanic`] attribution.
    pub fn panic_at_stage(mut self, stage: usize, batch: usize) -> Self {
        self.panic_at = Some((stage, batch));
        self
    }

    /// The batch index after which the trainer dies, if any.
    pub fn kill_batch(&self) -> Option<usize> {
        self.kill_at_trained
    }

    /// True when the `nth` (0-based) checkpoint write is scheduled to tear.
    pub fn tears_at(&self, nth: usize) -> bool {
        self.tear_checkpoint == Some(nth)
    }

    /// If the `nth` checkpoint write is scheduled to tear, the seeded
    /// number of bytes that land (strictly less than `len`).
    pub fn torn_keep_bytes(&self, nth: usize, len: usize) -> Option<usize> {
        match self.tear_checkpoint {
            Some(n) if n == nth && len > 0 => {
                Some((splitmix64(self.seed ^ (nth as u64 + 1)) as usize) % len)
            }
            _ => None,
        }
    }

    /// Panic now if the plan schedules a panic for `(stage, batch)`.
    /// Called inside the stage's `catch_unwind` envelope.
    pub(crate) fn maybe_panic(&self, stage: usize, batch: usize) {
        if self.panic_at == Some((stage, batch)) {
            panic!("injected fault: panic at stage {stage} batch {batch}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bgl-ckpt-test-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn sample_ckpt(cursor: u64) -> Checkpoint {
        let m = Matrix::from_vec(2, 3, vec![1.0, -2.0, 3.5, 0.0, 4.25, -0.5]);
        let v = Matrix::from_vec(2, 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        Checkpoint {
            seed: 0xD15EA5E,
            fanouts: vec![5, 5],
            batches_fingerprint: 0xFEED_BEEF,
            num_batches: 20,
            cursor,
            params: vec![1.5, -0.25, 3.75, f32::MIN_POSITIVE, -1.0e20],
            opt: AdamState {
                lr: 1e-3,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                t: cursor as i32,
                moments: vec![Some((m, v)), None, Some((Matrix::zeros(1, 2), Matrix::zeros(1, 2)))],
            },
            losses: (0..cursor).map(|i| i as f32 * 0.5).collect(),
            train_order: (0..cursor).collect(),
            digests: (0..cursor).map(splitmix64).collect(),
        }
    }

    #[test]
    fn codec_roundtrips() {
        let ckpt = sample_ckpt(6);
        let bytes = ckpt.encode();
        let back = Checkpoint::decode(&bytes).expect("decode");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn empty_cursor_roundtrips() {
        let ckpt = sample_ckpt(0);
        assert_eq!(Checkpoint::decode(&ckpt.encode()).unwrap(), ckpt);
    }

    /// The acceptance property, deterministically: a file truncated at
    /// EVERY byte offset short of the full frame must be rejected with a
    /// typed error — never a panic, never a partial decode.
    #[test]
    fn truncation_at_every_offset_is_rejected() {
        let bytes = sample_ckpt(4).encode();
        for cut in 0..bytes.len() {
            let err = Checkpoint::decode(&bytes[..cut])
                .expect_err(&format!("prefix of {cut}/{} bytes must fail", bytes.len()));
            assert!(
                matches!(
                    err,
                    CkptError::Truncated | CkptError::ChecksumMismatch { .. } | CkptError::BadMagic
                ),
                "offset {cut}: unexpected error {err:?}"
            );
        }
        Checkpoint::decode(&bytes).expect("the untruncated frame still decodes");
    }

    #[test]
    fn single_bit_corruption_is_rejected() {
        let bytes = sample_ckpt(3).encode();
        // Flip one bit in a spread of positions, including payload and
        // checksum bytes.
        for pos in [HEADER_LEN, HEADER_LEN + 7, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                Checkpoint::decode(&bad).is_err(),
                "bit flip at {pos} must not decode"
            );
        }
    }

    /// FNV-1a is not a MAC: a crafted or mis-written file can carry any
    /// length field under a valid footer. Slide a hostile u64 over every
    /// payload offset (so over every length prefix and matrix shape),
    /// re-seal the frame, and decode: a typed error or a different
    /// checkpoint, never a panic. `u64::MAX / 4` and `/ 8` are the values
    /// whose byte count fits a `usize` while `pos + bytes` does not.
    #[test]
    fn hostile_length_fields_under_a_valid_checksum_are_typed_errors() {
        let good = sample_ckpt(4).encode();
        let body = good.len() - CHECKSUM_LEN;
        let forge = |at: usize, value: u64| {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let sum = fnv1a_64(&bad[..body]);
            bad[body..].copy_from_slice(&sum.to_le_bytes());
            Checkpoint::decode(&bad)
        };
        let hostile = [u64::MAX, u64::MAX / 4, u64::MAX / 8, 1 << 62];
        for at in HEADER_LEN..=body - 8 {
            for value in hostile {
                let _ = forge(at, value); // must return, not panic
            }
        }
        // The `params` length prefix: seed, fanout count, 2 fanouts,
        // fingerprint, num_batches, cursor precede it.
        let params_len_at = HEADER_LEN + 8 + 8 + 2 * 8 + 3 * 8;
        assert_eq!(forge(params_len_at, 5).expect("offset names the prefix"), sample_ckpt(4));
        for value in hostile {
            let got = forge(params_len_at, value);
            assert!(matches!(got, Err(CkptError::Truncated)), "{value:#x}: {got:?}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_ckpt(2).encode();
        bytes.push(0);
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CkptError::Mismatch(_))
        ));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let good = sample_ckpt(1).encode();
        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(Checkpoint::decode(&wrong_magic), Err(CkptError::BadMagic)));

        let mut wrong_version = good.clone();
        wrong_version[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Version bytes are inside the checksummed region, so recompute the
        // trailer to isolate the version check from the checksum check.
        let len = wrong_version.len();
        let sum = fnv1a_64(&wrong_version[..len - CHECKSUM_LEN]);
        wrong_version[len - CHECKSUM_LEN..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&wrong_version),
            Err(CkptError::BadVersion { found: 99 })
        ));
    }

    #[test]
    fn fingerprint_is_order_and_boundary_sensitive() {
        let a = vec![vec![1u32, 2, 3], vec![4, 5]];
        let b = vec![vec![1u32, 2, 3], vec![5, 4]];
        let c = vec![vec![1u32, 2], vec![3, 4, 5]];
        assert_ne!(fingerprint_batches(&a), fingerprint_batches(&b));
        assert_ne!(fingerprint_batches(&a), fingerprint_batches(&c));
        assert_eq!(fingerprint_batches(&a), fingerprint_batches(&a.clone()));
    }

    #[test]
    fn adam_state_roundtrips_through_optimizer() {
        let mut opt = Adam::new(0.01);
        let mut x = Matrix::from_vec(1, 2, vec![3.0, -1.0]);
        let g = Matrix::from_vec(1, 2, vec![0.5, 0.25]);
        use bgl_tensor::Optimizer;
        opt.step(0, &mut x, &g);
        opt.next_batch();
        let state = AdamState::capture(&opt);
        let mut opt2 = Adam::new(0.9); // wrong lr, will be overwritten
        state.restore_into(&mut opt2);
        assert_eq!(opt2.lr, 0.01);
        assert_eq!(opt2.step_count(), 1);
        let mut xa = x.clone();
        let mut xb = x.clone();
        opt.step(0, &mut xa, &g);
        opt2.step(0, &mut xb, &g);
        assert_eq!(xa.raw(), xb.raw(), "restored optimizer must step identically");
    }

    #[test]
    fn store_writes_atomically_and_retains() {
        let dir = tmp("retain");
        let reg = bgl_obs::Registry::enabled();
        let store =
            CheckpointStore::open(&CheckpointPolicy::new(&dir).retain(2), &reg).unwrap();
        for cursor in [2u64, 4, 6, 8] {
            store.write(&sample_ckpt(cursor)).unwrap();
        }
        let files = store.list().unwrap();
        assert_eq!(files.len(), 2, "retention must prune to the newest 2");
        let (latest, rejected) = store.load_latest().unwrap();
        assert_eq!(latest.cursor, 8);
        assert_eq!(rejected, 0);
        let writes = reg
            .counters()
            .into_iter()
            .find(|(k, _)| k == "exec.ckpt.writes")
            .map(|(_, v)| v);
        assert_eq!(writes, Some(4));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_newest_write_falls_back_to_previous() {
        let dir = tmp("torn");
        let reg = bgl_obs::Registry::enabled();
        let store =
            CheckpointStore::open(&CheckpointPolicy::new(&dir).retain(3), &reg).unwrap();
        store.write(&sample_ckpt(3)).unwrap();
        store.write(&sample_ckpt(6)).unwrap();
        // The newest write tears partway through.
        let plan = ExecFaultPlan::new(0xBAD).tear_checkpoint(2);
        let bytes = sample_ckpt(9).encode();
        let keep = plan.torn_keep_bytes(2, bytes.len()).unwrap();
        assert!(keep < bytes.len());
        store.write_torn(&sample_ckpt(9), keep).unwrap();

        let (ckpt, rejected) = store.load_latest().unwrap();
        assert_eq!(ckpt.cursor, 6, "must fall back past the torn file");
        assert_eq!(rejected, 1);
        let torn = reg
            .counters()
            .into_iter()
            .find(|(k, _)| k == "exec.ckpt.torn_writes_rejected")
            .map(|(_, v)| v);
        assert_eq!(torn, Some(1));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_store_is_a_typed_error() {
        let dir = tmp("empty");
        let store = CheckpointStore::open(
            &CheckpointPolicy::new(&dir),
            &bgl_obs::Registry::disabled(),
        )
        .unwrap();
        assert!(matches!(store.load_latest(), Err(CkptError::NoCheckpoint)));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fault_plan_is_seed_deterministic() {
        let a = ExecFaultPlan::new(42).kill_at_seeded_batch(4, 16);
        let b = ExecFaultPlan::new(42).kill_at_seeded_batch(4, 16);
        let c = ExecFaultPlan::new(43).kill_at_seeded_batch(4, 16);
        assert_eq!(a.kill_batch(), b.kill_batch());
        let k = a.kill_batch().unwrap();
        assert!((4..16).contains(&k));
        // Different seeds usually differ; at minimum they stay in range.
        assert!((4..16).contains(&c.kill_batch().unwrap()));
        assert_eq!(
            a.torn_keep_bytes(0, 100),
            None,
            "no tear scheduled -> no truncation"
        );
        let t = ExecFaultPlan::new(7).tear_checkpoint(1);
        assert_eq!(t.torn_keep_bytes(0, 100), None);
        let keep = t.torn_keep_bytes(1, 100).unwrap();
        assert!(keep < 100);
        assert_eq!(keep, ExecFaultPlan::new(7).tear_checkpoint(1).torn_keep_bytes(1, 100).unwrap());
    }
}
