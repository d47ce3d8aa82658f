//! The durable feature tier: buffer pool + WAL composed into one
//! crash-consistent store, the third level under the GPU/CPU feature
//! caches (DESIGN.md §11).
//!
//! ## Update protocol
//!
//! 1. append the update's [`WalRecord`] and fsync the log — **this is the
//!    ack point**;
//! 2. apply it to the page image through the buffer pool (dirty, lazy,
//!    unsynced).
//!
//! ## Checkpoint protocol
//!
//! 1. write back every dirty page and fsync the paged file;
//! 2. only then reset (truncate + fsync) the WAL.
//!
//! ## Recovery invariant
//!
//! After any crash, `paged file ∪ full WAL replay = exactly the acked
//! updates`: the WAL holds every acked update since the last checkpoint
//! (records are idempotent full-row writes, so replaying on top of
//! whatever page prefix landed is safe), and the torn tail a crash leaves
//! mid-append is detected and truncated — nothing behind it was acked.
//!
//! In chaos mode ([`DiskTierConfig::with_fault_plan`]) both files sit on
//! [`ShadowFile`]s behind a shared seeded [`IoFaultInjector`], so
//! [`DurableFeatures::crash`] can tear the un-synced write stream of each
//! file at a deterministic byte and the whole recovery path can be proven
//! bitwise-faithful (see `tests/disk_recovery.rs`).

use crate::bufpool::BufferPool;
use crate::obs::DiskMetrics;
use crate::pager::{
    BackingFile, DiskError, FaultFile, IoFaultInjector, IoFaultPlan, Pager, RealFile,
    ShadowFile,
};
use crate::wal::{Wal, WalRecord};
use bgl_graph::half::RowBuf;
use bgl_graph::{FeaturePrecision, FeatureStore};
use bgl_obs::Registry;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// How many times open-time recovery re-attempts after injected EIO.
const OPEN_RETRIES: u32 = 3;

/// Knobs for [`DurableFeatures`]. The defaults are the production shape;
/// tests shrink the pool and attach fault plans.
#[derive(Clone)]
pub struct DiskTierConfig {
    pub page_size: u32,
    pub pool_pages: usize,
    pub registry: Registry,
    pub fault_plan: Option<IoFaultPlan>,
    /// On-disk scalar encoding for feature pages (`create` only; `open`
    /// reads the precision from the file header).
    pub precision: FeaturePrecision,
}

impl Default for DiskTierConfig {
    fn default() -> Self {
        DiskTierConfig {
            page_size: 4096,
            pool_pages: 64,
            registry: Registry::default(),
            fault_plan: None,
            precision: FeaturePrecision::F32,
        }
    }
}

impl DiskTierConfig {
    pub fn with_page_size(mut self, page_size: u32) -> Self {
        self.page_size = page_size;
        self
    }

    pub fn with_pool_pages(mut self, pool_pages: usize) -> Self {
        self.pool_pages = pool_pages;
        self
    }

    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.registry = registry.clone();
        self
    }

    /// Chaos mode: back both files with [`ShadowFile`]s and run every I/O
    /// through a seeded injector, enabling [`DurableFeatures::crash`].
    pub fn with_fault_plan(mut self, plan: IoFaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Store feature pages at the given scalar precision (f16 halves the
    /// bytes per row on disk and in the buffer pool).
    pub fn with_precision(mut self, precision: FeaturePrecision) -> Self {
        self.precision = precision;
        self
    }
}

/// What open-time recovery found and redid.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    pub replayed_updates: usize,
    pub replayed_edges: usize,
    /// Node-append records replayed into [`DurableFeatures::pending_nodes`].
    pub replayed_nodes: usize,
    /// Committed migration owner flips replayed into
    /// [`DurableFeatures::pending_owner_sets`].
    pub replayed_owner_sets: usize,
    /// Migration tombstones replayed into
    /// [`DurableFeatures::pending_tombstones`].
    pub replayed_tombstones: usize,
    /// Torn WAL tail truncated away.
    pub torn_wal_bytes: u64,
    /// Torn page writes redone from the double-write slot.
    pub dw_redo: u64,
}

/// The durable disk tier for one store partition's features.
pub struct DurableFeatures {
    dir: PathBuf,
    pool: BufferPool,
    wal: Wal,
    dim: usize,
    num_nodes: u64,
    /// Edge inserts made durable but not yet folded into a CSR rebuild.
    pending_edges: Vec<(u32, u32)>,
    /// Appended nodes (id, owner, feature row) made durable but living
    /// past the pager's fixed range. Replay order is append order, so a
    /// consumer folding these takes the *last* row per id.
    pending_nodes: Vec<(u32, u32, Vec<f32>)>,
    /// Committed migration owner flips (node, new owner), in commit
    /// order. Last write per node wins; the server folds these into its
    /// owner override map on attach.
    pending_owner_sets: Vec<(u32, u32)>,
    /// Migration tombstones (node, pre-move owner): the source side
    /// retired its copy. Kept so a re-sent retire stays an idempotent ack
    /// across a crash.
    pending_tombstones: Vec<(u32, u32)>,
    injector: Option<Arc<Mutex<IoFaultInjector>>>,
    metrics: DiskMetrics,
}

fn pages_path(dir: &Path) -> PathBuf {
    dir.join("features.pages")
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("features.wal")
}

fn make_file(
    path: &Path,
    injector: &Option<Arc<Mutex<IoFaultInjector>>>,
) -> Result<Box<dyn BackingFile>, DiskError> {
    Ok(match injector {
        Some(inj) => Box::new(FaultFile::new(Box::new(ShadowFile::open(path)?), inj.clone())),
        None => Box::new(RealFile::open(path)?),
    })
}

impl DurableFeatures {
    /// Initialize `dir` with the base feature image (synced) and an empty
    /// WAL.
    pub fn create(
        dir: &Path,
        features: &FeatureStore,
        cfg: DiskTierConfig,
    ) -> Result<DurableFeatures, DiskError> {
        std::fs::create_dir_all(dir).map_err(DiskError::from)?;
        let metrics = DiskMetrics::attach(&cfg.registry);
        let injector =
            cfg.fault_plan.clone().map(|p| Arc::new(Mutex::new(IoFaultInjector::new(p))));
        let pager = Pager::create_with_precision(
            make_file(&pages_path(dir), &injector)?,
            features.dim(),
            features.raw(),
            cfg.page_size,
            cfg.precision,
        )?;
        let wal = Wal::create(make_file(&wal_path(dir), &injector)?, metrics.fsync_histogram())?;
        Ok(DurableFeatures {
            dir: dir.to_path_buf(),
            dim: pager.dim(),
            num_nodes: pager.num_nodes(),
            pool: BufferPool::new(pager, cfg.pool_pages),
            wal,
            pending_edges: Vec::new(),
            pending_nodes: Vec::new(),
            pending_owner_sets: Vec::new(),
            pending_tombstones: Vec::new(),
            injector,
            metrics,
        })
    }

    /// Recover the tier from `dir`: validate the paged file (redoing any
    /// torn page write from the double-write slot), replay the WAL
    /// (truncating its torn tail), and re-apply every acked update.
    /// Injected transient EIO during recovery is retried with fresh file
    /// handles, like a crashed recovery rerunning — recovery is idempotent.
    pub fn open(
        dir: &Path,
        cfg: DiskTierConfig,
    ) -> Result<(DurableFeatures, RecoveryReport), DiskError> {
        let metrics = DiskMetrics::attach(&cfg.registry);
        let injector =
            cfg.fault_plan.clone().map(|p| Arc::new(Mutex::new(IoFaultInjector::new(p))));
        let mut attempts = 0;
        loop {
            match Self::open_once(dir, &cfg, &injector, &metrics) {
                Err(DiskError::TransientIo(_)) if attempts < OPEN_RETRIES => attempts += 1,
                Ok((tier, report)) => {
                    tier.metrics.count_recovery();
                    return Ok((tier, report));
                }
                other => return other,
            }
        }
    }

    fn open_once(
        dir: &Path,
        cfg: &DiskTierConfig,
        injector: &Option<Arc<Mutex<IoFaultInjector>>>,
        metrics: &DiskMetrics,
    ) -> Result<(DurableFeatures, RecoveryReport), DiskError> {
        let pager = Pager::open(make_file(&pages_path(dir), injector)?)?;
        let dw_redo = pager.stats.dw_redo;
        let (wal, recovery) =
            Wal::open(make_file(&wal_path(dir), injector)?, metrics.fsync_histogram())?;
        let mut tier = DurableFeatures {
            dir: dir.to_path_buf(),
            dim: pager.dim(),
            num_nodes: pager.num_nodes(),
            pool: BufferPool::new(pager, cfg.pool_pages),
            wal,
            pending_edges: Vec::new(),
            pending_nodes: Vec::new(),
            pending_owner_sets: Vec::new(),
            pending_tombstones: Vec::new(),
            injector: injector.clone(),
            metrics: DiskMetrics::attach(&cfg.registry),
        };
        let mut report = RecoveryReport { torn_wal_bytes: recovery.torn_bytes, dw_redo, ..Default::default() };
        for rec in &recovery.records {
            match rec {
                WalRecord::FeatureUpdate { node, row } => {
                    tier.pool.update_row(*node, row)?;
                    report.replayed_updates += 1;
                }
                WalRecord::EdgeInsert { src, dst } => {
                    tier.pending_edges.push((*src, *dst));
                    report.replayed_edges += 1;
                }
                WalRecord::NodeAppend { node, owner, row } => {
                    tier.pending_nodes.push((*node, *owner, row.clone()));
                    report.replayed_nodes += 1;
                }
                WalRecord::OwnerSet { node, owner } => {
                    tier.pending_owner_sets.push((*node, *owner));
                    report.replayed_owner_sets += 1;
                }
                WalRecord::Tombstone { node, owner } => {
                    tier.pending_tombstones.push((*node, *owner));
                    report.replayed_tombstones += 1;
                }
            }
        }
        Ok((tier, report))
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn num_nodes(&self) -> u64 {
        self.num_nodes
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append node `v`'s feature row to `out` as f32 (widened if the tier
    /// stores f16).
    pub fn read_row_into(&mut self, v: u32, out: &mut Vec<f32>) -> Result<(), DiskError> {
        self.pool.read_row_into(v, out)
    }

    /// Append node `v`'s stored row to `out`, bits preserved when `out` is
    /// at the tier's precision — how an f16 tier serves an f16 request
    /// without a conversion.
    pub fn read_row(&mut self, v: u32, out: &mut RowBuf) -> Result<(), DiskError> {
        self.pool.read_row(v, out)
    }

    /// Overwrite node `v`'s feature row. Returns only after the update is
    /// WAL-durable (the ack point); the page write-back is lazy.
    pub fn update_row(&mut self, v: u32, row: &[f32]) -> Result<(), DiskError> {
        if row.len() != self.dim {
            return Err(DiskError::Invariant("update row has the wrong dim"));
        }
        if (v as u64) >= self.num_nodes {
            return Err(DiskError::Invariant("node out of range"));
        }
        self.wal.append(&WalRecord::FeatureUpdate { node: v, row: row.to_vec() })?;
        self.wal.sync()?;
        self.pool.update_row(v, row)
    }

    /// Log one edge insert durably (folded into the graph by a future
    /// ingest path; retrievable via [`DurableFeatures::pending_edges`]).
    pub fn insert_edge(&mut self, src: u32, dst: u32) -> Result<(), DiskError> {
        self.wal.append(&WalRecord::EdgeInsert { src, dst })?;
        self.wal.sync()?;
        self.pending_edges.push((src, dst));
        Ok(())
    }

    pub fn pending_edges(&self) -> &[(u32, u32)] {
        &self.pending_edges
    }

    /// Log one appended node durably: its id, its partition owner, and its
    /// full feature row. The row lives past the pager's fixed node range,
    /// so it stays in the WAL (and [`DurableFeatures::pending_nodes`])
    /// until an ingest re-merge rebuilds the base image. Idempotent
    /// full-row semantics: re-appending an id overwrites, never duplicates
    /// — a consumer folds by keeping the last row per id.
    pub fn append_node(&mut self, node: u32, owner: u32, row: &[f32]) -> Result<(), DiskError> {
        if row.len() != self.dim {
            return Err(DiskError::Invariant("append row has the wrong dim"));
        }
        if (node as u64) < self.num_nodes {
            return Err(DiskError::Invariant("appended node inside the paged range"));
        }
        self.wal.append(&WalRecord::NodeAppend { node, owner, row: row.to_vec() })?;
        self.wal.sync()?;
        self.pending_nodes.push((node, owner, row.to_vec()));
        Ok(())
    }

    /// Appended nodes acked since the last base rebuild, in append order.
    pub fn pending_nodes(&self) -> &[(u32, u32, Vec<f32>)] {
        &self.pending_nodes
    }

    /// Journal a committed migration owner flip durably. This is the
    /// migration commit's ack point on a durable server: the override is
    /// applied in memory only after this returns, so a crash between WAL
    /// and memory replays to the committed mapping.
    pub fn set_owner(&mut self, node: u32, owner: u32) -> Result<(), DiskError> {
        self.wal.append(&WalRecord::OwnerSet { node, owner })?;
        self.wal.sync()?;
        self.pending_owner_sets.push((node, owner));
        Ok(())
    }

    /// Committed owner flips, in commit order (last write per node wins).
    pub fn pending_owner_sets(&self) -> &[(u32, u32)] {
        &self.pending_owner_sets
    }

    /// Journal the source-side retirement of a migrated node.
    pub fn tombstone(&mut self, node: u32, owner: u32) -> Result<(), DiskError> {
        self.wal.append(&WalRecord::Tombstone { node, owner })?;
        self.wal.sync()?;
        self.pending_tombstones.push((node, owner));
        Ok(())
    }

    /// Tombstoned nodes, in retirement order.
    pub fn pending_tombstones(&self) -> &[(u32, u32)] {
        &self.pending_tombstones
    }

    /// Checkpoint: make the paged file catch up with the WAL, then empty
    /// the WAL. Ordering is the crash-safety argument — pages are synced
    /// before the log that covers them is dropped.
    ///
    /// Graph mutations (pending edges and appended nodes) are *not* in the
    /// paged file, so dropping the log would lose them: they are re-logged
    /// into the fresh WAL before the checkpoint returns, staying durable
    /// until an ingest re-merge folds them into a rebuilt base.
    pub fn checkpoint(&mut self) -> Result<(), DiskError> {
        self.pool.flush()?;
        self.wal.reset()?;
        for &(src, dst) in &self.pending_edges {
            self.wal.append(&WalRecord::EdgeInsert { src, dst })?;
        }
        for (node, owner, row) in &self.pending_nodes {
            self.wal.append(&WalRecord::NodeAppend {
                node: *node,
                owner: *owner,
                row: row.clone(),
            })?;
        }
        // Owner flips and tombstones live only in the WAL, like the graph
        // mutations above — dropping the log would silently un-migrate.
        for &(node, owner) in &self.pending_owner_sets {
            self.wal.append(&WalRecord::OwnerSet { node, owner })?;
        }
        for &(node, owner) in &self.pending_tombstones {
            self.wal.append(&WalRecord::Tombstone { node, owner })?;
        }
        if !self.pending_edges.is_empty()
            || !self.pending_nodes.is_empty()
            || !self.pending_owner_sets.is_empty()
            || !self.pending_tombstones.is_empty()
        {
            self.wal.sync()?;
        }
        Ok(())
    }

    /// Verify every page checksum without touching the pool. Returns the
    /// number of pages scanned.
    pub fn scrub(&mut self) -> Result<u64, DiskError> {
        let n = self.pool.pager().num_pages();
        for pid in 0..n {
            self.pool.pager_mut().read_page(pid)?;
        }
        Ok(n)
    }

    /// Chaos hook (fault-plan mode only): crash the process image. A
    /// seeded byte prefix of each file's un-synced write stream lands; the
    /// rest is torn away. Consumes the tier — the files on disk are all
    /// that survives, as after a real crash.
    pub fn crash(mut self) -> Result<(), DiskError> {
        let inj = self
            .injector
            .clone()
            .ok_or(DiskError::Invariant("crash requires a fault plan"))?;
        let keep_pages = {
            let mut inj = inj.lock().unwrap_or_else(|p| p.into_inner());
            inj.torn_keep(self.pool.pager().pending_bytes())
        };
        self.pool.pager_mut().crash(keep_pages)?;
        let keep_wal = {
            let mut inj = inj.lock().unwrap_or_else(|p| p.into_inner());
            inj.torn_keep(self.wal.pending_bytes())
        };
        self.wal.crash(keep_wal)?;
        Ok(())
    }

    /// Mirror the tier's counters into its registry (delta-published).
    pub fn publish_metrics(&mut self) {
        self.metrics.publish(&self.pool.stats, &self.wal.stats, &self.pool.pager().stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bgl-tier-test-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn features(n: usize, dim: usize) -> FeatureStore {
        FeatureStore::from_raw(dim, (0..n * dim).map(|i| i as f32 * 0.25).collect())
    }

    fn small_cfg() -> DiskTierConfig {
        DiskTierConfig::default().with_page_size(64).with_pool_pages(4)
    }

    #[test]
    fn create_update_checkpoint_reopen_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let fs = features(40, 2);
        {
            let mut t = DurableFeatures::create(&dir, &fs, small_cfg()).unwrap();
            t.update_row(7, &[100.0, 200.0]).unwrap();
            t.insert_edge(3, 9).unwrap();
            t.checkpoint().unwrap();
        }
        let (mut t, report) = DurableFeatures::open(&dir, small_cfg()).unwrap();
        // Checkpoint emptied the WAL of *feature* records — the pages cover
        // those — but carried the graph mutation forward: the edge is not
        // in the paged file, so it must survive the reset. (The double-write
        // slot still holds the last page written, so its idempotent redo
        // may fire — that is not recovery work.)
        assert_eq!(report.replayed_updates, 0);
        assert_eq!(report.replayed_edges, 1);
        assert_eq!(t.pending_edges(), &[(3, 9)]);
        assert_eq!(report.torn_wal_bytes, 0);
        let mut out = Vec::new();
        t.read_row_into(7, &mut out).unwrap();
        assert_eq!(out, vec![100.0, 200.0]);
        assert_eq!(t.scrub().unwrap(), t.pool.pager().num_pages());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn f16_tier_roundtrips_quantized_rows_through_reopen() {
        let dir = tmp_dir("f16tier");
        let fs = features(40, 2);
        {
            let mut t = DurableFeatures::create(
                &dir,
                &fs,
                small_cfg().with_precision(FeaturePrecision::F16),
            )
            .unwrap();
            // 0.25 steps are exact in f16 up to 2048, so base rows survive.
            let mut out = Vec::new();
            t.read_row_into(13, &mut out).unwrap();
            assert_eq!(out, fs.row(13));
            t.update_row(7, &[100.5, -200.25]).unwrap();
            t.checkpoint().unwrap();
        }
        // open() learns the precision from the header, not the config.
        let (mut t, _) = DurableFeatures::open(&dir, small_cfg()).unwrap();
        let mut out = Vec::new();
        t.read_row_into(7, &mut out).unwrap();
        assert_eq!(out, vec![100.5, -200.25]);
        assert_eq!(t.scrub().unwrap(), t.pool.pager().num_pages());
        std::fs::remove_dir_all(dir).ok();
    }

    /// An f16 tier's reads are a function of the acked writes alone: the
    /// frame an update lands in holds the same `f16(row)` the page image and
    /// the WAL replay produce, so the value read does not depend on whether
    /// the page is still resident.
    #[test]
    fn f16_tier_reads_do_not_depend_on_pool_residency() {
        use bgl_graph::half::quantize_f16;
        let dir = tmp_dir("f16resident");
        let cfg = small_cfg().with_precision(FeaturePrecision::F16);
        let row = [0.1f32, 0.101]; // neither is exact in f16
        let want: Vec<u32> = row.iter().map(|&x| quantize_f16(x).to_bits()).collect();
        let read = |t: &mut DurableFeatures| {
            let mut out = Vec::new();
            t.read_row_into(7, &mut out).unwrap();
            out.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
        };
        {
            let mut t = DurableFeatures::create(&dir, &features(40, 2), cfg.clone()).unwrap();
            t.update_row(7, &row).unwrap();
            assert_eq!(read(&mut t), want, "right after the update (resident frame)");
        }
        {
            let (mut t, report) = DurableFeatures::open(&dir, cfg.clone()).unwrap();
            assert_eq!(report.replayed_updates, 1);
            assert_eq!(read(&mut t), want, "after a WAL-only reopen");
            t.checkpoint().unwrap();
        }
        let (mut t, report) = DurableFeatures::open(&dir, cfg).unwrap();
        assert_eq!(report.replayed_updates, 0);
        assert_eq!(read(&mut t), want, "after checkpoint + reopen");
        std::fs::remove_dir_all(dir).ok();
    }

    /// The on-disk format, pinned: FNV-1a-64 of the whole paged file built
    /// from a fixed 40×6 matrix of f16-inexact values, as created and after
    /// one `update_row` + `checkpoint` (which also fills the double-write
    /// slot). A change to how pages are encoded moves these (last: header
    /// versions 3/4, pages summed with `page_sum64`).
    #[test]
    fn paged_file_images_match_their_golden_checksums() {
        use crate::pager::fnv1a_64;
        let fs = FeatureStore::from_raw(6, (0..240).map(|i| i as f32 * 0.37 - 20.0).collect());
        for (precision, created, updated) in [
            (FeaturePrecision::F32, 0x0bed_dd14_596e_210c_u64, 0xf5f9_8a95_6f38_9d79_u64),
            (FeaturePrecision::F16, 0x947a_a9ca_873c_d583, 0xd854_ddcd_a515_614b),
        ] {
            let dir = tmp_dir(&format!("golden-{}", precision.code()));
            let cfg = small_cfg().with_page_size(128).with_precision(precision);
            let mut t = DurableFeatures::create(&dir, &fs, cfg).unwrap();
            let image = |dir: &Path| fnv1a_64(&std::fs::read(pages_path(dir)).unwrap());
            assert_eq!(image(&dir), created, "{precision:?} as created");
            t.update_row(7, &[0.1, 0.101, -3.3, 1e-5, 70000.0, -0.0]).unwrap();
            t.checkpoint().unwrap();
            assert_eq!(image(&dir), updated, "{precision:?} after update + checkpoint");
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn uncheckpointed_updates_recover_from_the_wal() {
        let dir = tmp_dir("walreplay");
        let fs = features(40, 2);
        {
            let mut t = DurableFeatures::create(&dir, &fs, small_cfg()).unwrap();
            t.update_row(1, &[-1.0, -2.0]).unwrap();
            t.update_row(30, &[9.0, 8.0]).unwrap();
            t.insert_edge(0, 5).unwrap();
            // Dropped without checkpoint: pages never caught up (RealFile
            // mode still wrote them through, so force the point with the
            // WAL's own replay accounting below).
        }
        let (mut t, report) = DurableFeatures::open(&dir, small_cfg()).unwrap();
        assert_eq!(report.replayed_updates, 2);
        assert_eq!(report.replayed_edges, 1);
        assert_eq!(t.pending_edges(), &[(0, 5)]);
        let mut out = Vec::new();
        t.read_row_into(30, &mut out).unwrap();
        assert_eq!(out, vec![9.0, 8.0]);
        std::fs::remove_dir_all(dir).ok();
    }

    /// The tier-level crash drill: acked updates survive a seeded torn
    /// crash; unacked state never corrupts the store. Swept across seeds so
    /// the torn byte lands all over both files' write streams.
    #[test]
    fn crash_at_seeded_points_preserves_every_acked_update() {
        for seed in 0..24u64 {
            let dir = tmp_dir(&format!("crash-{seed}"));
            let fs = features(40, 2);
            let chaos = small_cfg().with_fault_plan(IoFaultPlan::new(seed));
            {
                let mut t = DurableFeatures::create(&dir, &fs, chaos.clone()).unwrap();
                for k in 0..6u32 {
                    t.update_row(k * 5, &[k as f32, -(k as f32)]).unwrap(); // acked
                }
                t.crash().unwrap();
            }
            let (mut t, report) = DurableFeatures::open(&dir, small_cfg()).unwrap();
            assert_eq!(report.replayed_updates, 6, "seed {seed}");
            for k in 0..6u32 {
                let mut out = Vec::new();
                t.read_row_into(k * 5, &mut out).unwrap();
                assert_eq!(out, vec![k as f32, -(k as f32)], "seed {seed} node {}", k * 5);
            }
            // Untouched rows kept their base values.
            let mut out = Vec::new();
            t.read_row_into(1, &mut out).unwrap();
            assert_eq!(out, vec![0.5, 0.75]);
            t.scrub().unwrap();
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn transient_eio_during_recovery_is_retried() {
        let dir = tmp_dir("eio-open");
        let fs = features(40, 2);
        {
            let mut t = DurableFeatures::create(&dir, &fs, small_cfg()).unwrap();
            t.update_row(2, &[5.0, 6.0]).unwrap();
        }
        // Fault the opening read stream itself.
        let plan = IoFaultPlan::new(11).eio_read(0).eio_read(3);
        let (mut t, report) =
            DurableFeatures::open(&dir, small_cfg().with_fault_plan(plan)).unwrap();
        assert_eq!(report.replayed_updates, 1);
        let mut out = Vec::new();
        t.read_row_into(2, &mut out).unwrap();
        assert_eq!(out, vec![5.0, 6.0]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn appended_nodes_survive_reopen_and_checkpoint() {
        let dir = tmp_dir("appendnode");
        let fs = features(40, 2);
        {
            let mut t = DurableFeatures::create(&dir, &fs, small_cfg()).unwrap();
            // In-range or wrong-dim appends are invariant violations.
            assert!(matches!(
                t.append_node(7, 0, &[1.0, 2.0]),
                Err(DiskError::Invariant(_))
            ));
            assert!(matches!(
                t.append_node(40, 0, &[1.0]),
                Err(DiskError::Invariant(_))
            ));
            t.append_node(40, 1, &[8.0, 9.0]).unwrap();
            t.insert_edge(40, 3).unwrap();
            // Idempotent overwrite: the re-append is kept in order, so a
            // folding consumer takes the last row.
            t.append_node(40, 1, &[80.0, 90.0]).unwrap();
            // The checkpoint must NOT drop graph records.
            t.checkpoint().unwrap();
        }
        let (t, report) = DurableFeatures::open(&dir, small_cfg()).unwrap();
        assert_eq!(report.replayed_nodes, 2);
        assert_eq!(report.replayed_edges, 1);
        assert_eq!(t.pending_edges(), &[(40, 3)]);
        assert_eq!(
            t.pending_nodes(),
            &[(40, 1, vec![8.0, 9.0]), (40, 1, vec![80.0, 90.0])]
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn owner_sets_and_tombstones_survive_checkpoint_and_reopen() {
        let dir = tmp_dir("ownerset");
        let fs = features(40, 2);
        {
            let mut t = DurableFeatures::create(&dir, &fs, small_cfg()).unwrap();
            t.set_owner(7, 2).unwrap();
            t.set_owner(9, 1).unwrap();
            t.tombstone(7, 0).unwrap();
            // Last-write-wins ordering survives the checkpoint re-log.
            t.set_owner(7, 3).unwrap();
            t.checkpoint().unwrap();
        }
        let (t, report) = DurableFeatures::open(&dir, small_cfg()).unwrap();
        assert_eq!(report.replayed_owner_sets, 3);
        assert_eq!(report.replayed_tombstones, 1);
        assert_eq!(t.pending_owner_sets(), &[(7, 2), (9, 1), (7, 3)]);
        assert_eq!(t.pending_tombstones(), &[(7, 0)]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn crash_without_fault_plan_is_an_error() {
        let dir = tmp_dir("nocrash");
        let t = DurableFeatures::create(&dir, &features(10, 2), small_cfg()).unwrap();
        assert!(matches!(t.crash(), Err(DiskError::Invariant(_))));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn attached_registry_mirrors_every_disk_ledger_field() {
        use crate::bufpool::BufPoolStats;
        use crate::pager::PagerStats;
        use crate::wal::WalStats;
        use bgl_obs::Ledger;
        let dir = tmp_dir("metrics");
        let reg = Registry::enabled();
        let cfg = small_cfg().with_registry(&reg);
        let mut t = DurableFeatures::create(&dir, &features(40, 2), cfg.clone()).unwrap();
        t.update_row(0, &[1.0, 2.0]).unwrap();
        let mut out = Vec::new();
        t.read_row_into(0, &mut out).unwrap();
        t.publish_metrics();
        let (pool, wal, pager) = (t.pool.stats, t.wal.stats, t.pool.pager().stats);
        assert!(pool.misses >= 1 && wal.appends == 1 && pager.page_reads >= 1);
        let counters: std::collections::BTreeMap<_, _> = reg.counters().into_iter().collect();
        let mirrored = (BufPoolStats::FIELDS.iter().zip(pool.to_array()))
            .chain(WalStats::FIELDS.iter().zip(wal.to_array()))
            .chain(PagerStats::FIELDS.iter().zip(pager.to_array()));
        for (field, value) in mirrored {
            assert_eq!(counters[&format!("store.disk.{field}")], value, "{field}");
        }
        let (_, fsync) = reg
            .histograms()
            .into_iter()
            .find(|(n, _)| n == "store.disk.wal_fsync_ns")
            .expect("fsync histogram registered");
        assert_eq!(fsync.count, 1);
        // Reopening is the one event with no ledger behind it.
        assert_eq!(counters["store.disk.recoveries"], 0);
        drop(t);
        DurableFeatures::open(&dir, cfg).unwrap();
        assert_eq!(reg.counter("store.disk.recoveries").get(), 1);
        std::fs::remove_dir_all(dir).ok();
    }
}
