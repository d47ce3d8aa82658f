//! Pin/unpin buffer pool over the paged feature file, with SIEVE
//! replacement.
//!
//! SIEVE (Zhang et al., NSDI'24) keeps a FIFO queue, a visited bit per
//! frame and a persistent hand scanning from the oldest entry toward the
//! newest. A hit only sets the visited bit (no queue movement); eviction
//! clears visited bits until it finds a cold, unpinned entry.
//! Scan-resistant with near-zero hit cost. It is the pool's one policy, so
//! its state lives in [`BufferPool`] itself rather than behind a trait.
//!
//! Dirty frames are written back through the pager on eviction *without* an
//! fsync — the WAL (`crate::wal`) already made their updates durable, so
//! write-back order cannot lose acked data. The write-back happens *before*
//! the victim leaves the page table: if it fails, the frame stays resident,
//! dirty and evictable, so neither the frame nor the update is lost.
//! [`BufferPool::flush`] (the checkpoint step) writes every dirty frame and
//! syncs the paged file.
//!
//! Frames hold their rows as the pager decoded them — a
//! [`bgl_graph::half::RowBuf`] at the file's precision, the representation
//! `bgl_graph::half` owns. A resident frame is therefore bit-for-bit the
//! page image: [`BufferPool::update_row`] narrows the one row it writes
//! into an f16 frame, [`BufferPool::read_row`] hands stored bits on, and
//! only [`BufferPool::read_row_into`], the f32 read API, widens (the one
//! row it reads). What a read returns never depends on residency.
//!
//! A miss costs what the page needs and nothing else: the pager decodes the
//! new page over the buffer of the frame the miss evicted (no allocation
//! once the pool is full), and the page table is a flat array indexed by
//! page id. Neither is visible to SIEVE.

use crate::pager::{DiskError, PageBuf, Pager};
use bgl_graph::half::{RowBuf, RowRef};
use std::collections::VecDeque;

/// Cumulative pool counters (mirrored into `store.disk.*` by the tier).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufPoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub writebacks: u64,
    /// Transient EIO absorbed by the pool's bounded retry.
    pub eio_retries: u64,
}

impl BufPoolStats {
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

bgl_obs::ledger!(BufPoolStats { hits, misses, evictions, writebacks, eio_retries });

struct Frame {
    pid: u64,
    page: PageBuf,
    pin: u32,
    dirty: bool,
}

/// Page-table entry of a page that is not resident.
const ABSENT: u32 = u32::MAX;

/// The pool: a fixed set of frames over a [`Pager`], a page table, and the
/// SIEVE queue.
pub struct BufferPool {
    pager: Pager,
    frames: Vec<Option<Frame>>,
    free: Vec<usize>,
    /// Frame of each page, or [`ABSENT`]: one entry per page of the file.
    /// The pager validated that count against the file's length at open,
    /// and it is looked up once per *row* read, so it is a flat array
    /// rather than a hashed map.
    table: Vec<u32>,
    /// The buffer of a miss whose read failed, kept for the next miss
    /// (which finds its frame in `free`, so there is never a second one).
    spare: Option<PageBuf>,
    /// Resident frames, front = oldest. New frames push to the back; hits
    /// never touch the queue.
    queue: VecDeque<usize>,
    visited: Vec<bool>,
    /// Index into `queue` where the hand last stopped.
    hand: usize,
    pub stats: BufPoolStats,
}

/// Transient-EIO retry budget for one logical page read/write.
const EIO_RETRIES: u32 = 3;

impl BufferPool {
    pub fn new(pager: Pager, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        assert!(capacity < ABSENT as usize, "frame indices must fit the page table");
        let pages = usize::try_from(pager.num_pages()).expect("an opened file's pages are addressable");
        BufferPool {
            pager,
            frames: (0..capacity).map(|_| None).collect(),
            free: (0..capacity).rev().collect(),
            table: vec![ABSENT; pages],
            spare: None,
            queue: VecDeque::with_capacity(capacity),
            visited: vec![false; capacity],
            hand: 0,
            stats: BufPoolStats::default(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    pub fn pager_mut(&mut self) -> &mut Pager {
        &mut self.pager
    }

    fn retrying<T>(
        stats: &mut BufPoolStats,
        mut op: impl FnMut() -> Result<T, DiskError>,
    ) -> Result<T, DiskError> {
        let mut attempts = 0;
        loop {
            match op() {
                Err(DiskError::TransientIo(_)) if attempts < EIO_RETRIES => {
                    attempts += 1;
                    stats.eio_retries += 1;
                }
                other => return other,
            }
        }
    }

    /// Sweep the hand to the next cold, unpinned frame and return its queue
    /// position (the hand stops there), or `None` if every frame is pinned.
    /// The entry stays queued: the caller unlinks it once the frame is
    /// actually free.
    fn sieve_victim(&mut self) -> Option<usize> {
        let n = self.queue.len();
        let mut h = if self.hand < n { self.hand } else { 0 };
        // One sweep clears visited bits, a second must then find a victim
        // (unless everything is pinned).
        for _ in 0..2 * n {
            let f = self.queue[h];
            let pinned = self.frames[f].as_ref().is_some_and(|fr| fr.pin > 0);
            if pinned || self.visited[f] {
                self.visited[f] = false;
                h = (h + 1) % n;
                continue;
            }
            self.hand = h;
            return Some(h);
        }
        None
    }

    /// Pin page `pid` into a frame, returning the frame index. The caller
    /// must [`BufferPool::unpin`] it.
    pub fn pin(&mut self, pid: u64) -> Result<usize, DiskError> {
        let Some(&slot) = usize::try_from(pid).ok().and_then(|p| self.table.get(p)) else {
            return Err(DiskError::Invariant("page id out of range"));
        };
        if slot != ABSENT {
            let f = slot as usize;
            self.stats.hits += 1;
            self.visited[f] = true;
            self.frames[f].as_mut().expect("page table points at a live frame").pin += 1;
            return Ok(f);
        }
        self.stats.misses += 1;
        // A frame and a buffer to read into: the victim's own when the pool
        // is full, so a miss in steady state allocates nothing.
        let (f, mut page) = match self.free.pop() {
            Some(f) => (f, self.spare.take().unwrap_or_else(|| self.pager.blank_page())),
            None => {
                let h = self.sieve_victim().ok_or(DiskError::AllFramesPinned)?;
                let victim = self.queue[h];
                let old = self.frames[victim].as_ref().expect("victim frame is live");
                if old.dirty {
                    // Write back before unlinking: on failure the victim
                    // is still resident, dirty and evictable.
                    let pager = &mut self.pager;
                    Self::retrying(&mut self.stats, || pager.write_page(&old.page))?;
                    self.stats.writebacks += 1;
                }
                let old = self.frames[victim].take().expect("victim frame is live");
                self.table[old.pid as usize] = ABSENT;
                self.stats.evictions += 1;
                // The hand stays at the same position, now pointing at the
                // next (newer) entry — SIEVE's defining trait.
                self.queue.remove(h);
                if h >= self.queue.len() {
                    self.hand = 0;
                }
                (victim, old.page)
            }
        };
        let pager = &mut self.pager;
        if let Err(e) = Self::retrying(&mut self.stats, || pager.read_page_into(pid, &mut page)) {
            self.free.push(f);
            self.spare = Some(page);
            return Err(e);
        }
        self.frames[f] = Some(Frame { pid, page, pin: 1, dirty: false });
        self.table[pid as usize] = f as u32;
        self.visited[f] = false;
        self.queue.push_back(f);
        Ok(f)
    }

    /// Release one pin on frame `f`, marking it dirty if the caller wrote.
    pub fn unpin(&mut self, f: usize, dirty: bool) {
        if let Some(fr) = self.frames[f].as_mut() {
            fr.pin = fr.pin.saturating_sub(1);
            fr.dirty |= dirty;
        }
    }

    /// Run `read` over node `v`'s stored row, borrowed out of its
    /// (pinned-for-the-call) page.
    fn with_row<T>(
        &mut self,
        v: u32,
        read: impl FnOnce(RowRef<'_>) -> T,
    ) -> Result<T, DiskError> {
        if (v as u64) >= self.pager.num_nodes() {
            return Err(DiskError::Invariant("node out of range"));
        }
        let dim = self.pager.dim();
        let (pid, slot) = self.pager.page_of(v);
        let f = self.pin(pid)?;
        let frame = self.frames[f].as_ref().expect("pinned frame is live");
        let out = read(frame.page.rows.row(slot, dim));
        self.unpin(f, false);
        Ok(out)
    }

    /// Append node `v`'s stored row to `out`: bits are copied when `out` is
    /// at the file's precision, converted when it is not.
    pub fn read_row(&mut self, v: u32, out: &mut RowBuf) -> Result<(), DiskError> {
        self.with_row(v, |row| out.push_row(row))
    }

    /// Append node `v`'s feature row to `out` as f32, widening it if the
    /// file stores f16.
    pub fn read_row_into(&mut self, v: u32, out: &mut Vec<f32>) -> Result<(), DiskError> {
        self.with_row(v, |row| {
            let at = out.len();
            out.resize(at + row.len(), 0.0);
            row.widen_into(&mut out[at..]);
        })
    }

    /// Overwrite node `v`'s feature row in its page (marking it dirty),
    /// narrowing it if the file stores f16 — the frame then holds exactly
    /// what the page image and a WAL replay hold. Callers must have
    /// WAL-logged the update first.
    pub fn update_row(&mut self, v: u32, row: &[f32]) -> Result<(), DiskError> {
        if (v as u64) >= self.pager.num_nodes() {
            return Err(DiskError::Invariant("node out of range"));
        }
        let dim = self.pager.dim();
        if row.len() != dim {
            return Err(DiskError::Invariant("update row has the wrong dim"));
        }
        let (pid, slot) = self.pager.page_of(v);
        let f = self.pin(pid)?;
        let frame = self.frames[f].as_mut().expect("pinned frame is live");
        frame.page.rows.set_row(slot, RowRef::F32(row));
        self.unpin(f, true);
        Ok(())
    }

    /// Write every dirty frame back and fsync the paged file — the page
    /// half of a checkpoint.
    pub fn flush(&mut self) -> Result<(), DiskError> {
        for f in 0..self.frames.len() {
            let Some(fr) = self.frames[f].as_mut() else { continue };
            if !fr.dirty {
                continue;
            }
            let page = fr.page.clone();
            let pager = &mut self.pager;
            Self::retrying(&mut self.stats, || pager.write_page(&page))?;
            self.stats.writebacks += 1;
            self.frames[f].as_mut().expect("frame is live").dirty = false;
        }
        self.pager.sync()
    }

    /// Resident page count (tests).
    pub fn resident(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::{FaultFile, IoFaultInjector, IoFaultPlan, RealFile};
    use std::sync::{Arc, Mutex};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bgl-bufpool-test-{}-{}", std::process::id(), name));
        p
    }

    /// 64 nodes, dim 2, 6 rows/page (page_size 64) → 11 pages.
    fn pool(name: &str, capacity: usize) -> (BufferPool, std::path::PathBuf) {
        let path = tmp(name);
        let rows: Vec<f32> = (0..64 * 2).map(|i| i as f32).collect();
        let f = Box::new(RealFile::open(&path).unwrap());
        let pager = Pager::create(f, 2, &rows, 64).unwrap();
        (BufferPool::new(pager, capacity), path)
    }

    /// Reopen the file `pool(name, _)` created behind an injector running
    /// `plan`, under a pool of `capacity` frames.
    fn faulty_pool(path: &std::path::Path, plan: IoFaultPlan, capacity: usize) -> BufferPool {
        let injector = Arc::new(Mutex::new(IoFaultInjector::new(plan)));
        let file = FaultFile::new(Box::new(RealFile::open(path).unwrap()), injector);
        BufferPool::new(Pager::open(Box::new(file)).unwrap(), capacity)
    }

    #[test]
    fn reads_and_updates_round_trip_through_eviction() {
        let (mut pool, path) = pool("roundtrip", 3);
        let mut out = Vec::new();
        pool.read_row_into(10, &mut out).unwrap();
        assert_eq!(out, vec![20.0, 21.0]);
        pool.update_row(10, &[5.5, -1.0]).unwrap();
        // Force 10's page out and back in: repeatedly scan every OTHER
        // page, reading each twice. The double read marks the scanned
        // pages visited, which is what makes the SIEVE hand advance past
        // them, expire the dirty page's protection, and eventually evict
        // it (a one-touch scan would never evict a visited page under
        // SIEVE — that is its scan resistance).
        for _ in 0..3 {
            for v in (0..64).step_by(6) {
                if v / 6 == 1 {
                    continue; // never refresh the dirty page
                }
                let mut sink = Vec::new();
                pool.read_row_into(v, &mut sink).unwrap();
                pool.read_row_into(v, &mut sink).unwrap();
            }
        }
        let mut out = Vec::new();
        pool.read_row_into(10, &mut out).unwrap();
        assert_eq!(out, vec![5.5, -1.0], "dirty eviction lost the update");
        assert!(pool.stats.evictions > 0);
        assert!(pool.stats.writebacks > 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn hits_do_not_touch_the_pager() {
        let (mut pool, path) = pool("hits", 4);
        let mut sink = Vec::new();
        pool.read_row_into(0, &mut sink).unwrap();
        let reads_before = pool.pager().stats.page_reads;
        for _ in 0..10 {
            pool.read_row_into(1, &mut sink).unwrap(); // same page as 0
        }
        assert_eq!(pool.pager().stats.page_reads, reads_before);
        assert_eq!(pool.stats.hits, 10);
        assert_eq!(pool.stats.misses, 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pinned_frames_are_never_evicted() {
        let (mut pool, path) = pool("pin", 2);
        let a = pool.pin(0).unwrap();
        let b = pool.pin(1).unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.pin(2), Err(DiskError::AllFramesPinned));
        pool.unpin(b, false);
        let c = pool.pin(2).unwrap();
        assert_eq!(c, b, "the unpinned frame is the only candidate");
        // Page 0 stayed resident throughout.
        assert_eq!(pool.pin(0).unwrap(), a);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sieve_hits_protect_pages_from_the_hand() {
        let (mut pool, path) = pool("sieve", 3);
        let mut sink = Vec::new();
        pool.read_row_into(0, &mut sink).unwrap(); // page 0 (oldest)
        pool.read_row_into(6, &mut sink).unwrap(); // page 1
        pool.read_row_into(12, &mut sink).unwrap(); // page 2
        pool.read_row_into(0, &mut sink).unwrap(); // visit page 0
        pool.read_row_into(18, &mut sink).unwrap(); // hand skips visited 0, evicts 1
        let misses = pool.stats.misses;
        pool.read_row_into(0, &mut sink).unwrap();
        assert_eq!(pool.stats.misses, misses, "visited page survived the sweep");
        pool.read_row_into(6, &mut sink).unwrap();
        assert_eq!(pool.stats.misses, misses + 1, "unvisited page was sieved out");
        std::fs::remove_file(path).ok();
    }

    /// A miss decodes into the buffer of the frame it evicts. Whatever that
    /// buffer held — a full page, or the last page's zero tail — the frame
    /// must afterwards be exactly what a fresh read of the page gives.
    #[test]
    fn a_recycled_buffer_serves_no_stale_row() {
        let (mut pool, path) = pool("recycle", 2);
        let mut fresh = Pager::open(Box::new(RealFile::open(&path).unwrap())).unwrap();
        // Page 10 is the short one: 4 rows, then zeros.
        for pid in [0, 1, 2, 0, 1, 10, 0, 10] {
            let f = pool.pin(pid).unwrap();
            let frame = pool.frames[f].as_ref().unwrap();
            assert_eq!(frame.page, fresh.read_page(pid).unwrap(), "page {pid}");
            pool.unpin(f, false);
            let mut row = Vec::new();
            let v = (pid * 6) as u32;
            pool.read_row_into(v, &mut row).unwrap();
            assert_eq!(row, vec![(2 * v) as f32, (2 * v + 1) as f32], "node {v}");
        }
        assert!(pool.stats.misses >= 6, "three pages cycle through two frames");
        assert_eq!(pool.stats.evictions, pool.stats.misses - 2, "every later miss recycled a frame");
        assert!(pool.spare.is_none());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn failed_read_after_an_eviction_leaks_no_frame_entry_or_buffer() {
        let (healthy, path) = pool("rd-eio", 2);
        drop(healthy);
        // Reads 0 and 1 are open's header and double-write slot, 2 and 3
        // the first two page reads; fail the third page read and its whole
        // retry budget.
        let plan = (4..=4 + EIO_RETRIES as u64).fold(IoFaultPlan::new(1), IoFaultPlan::eio_read);
        let mut pool = faulty_pool(&path, plan, 2);
        let mut sink = Vec::new();
        pool.read_row_into(0, &mut sink).unwrap(); // page 0
        pool.read_row_into(6, &mut sink).unwrap(); // page 1: pool is full
        // Page 2 evicts page 0, then cannot be read.
        assert!(matches!(pool.read_row_into(12, &mut sink), Err(DiskError::TransientIo(_))));
        assert_eq!(pool.stats.eio_retries, EIO_RETRIES as u64);
        assert_eq!(pool.table[..3], [ABSENT, 1, ABSENT], "neither the victim nor the failed page");
        assert_eq!((pool.resident(), pool.free.len()), (1, 1), "the frame went back to free");
        assert!(pool.spare.is_some(), "and its buffer is kept for the next miss");
        // The disk healed: the freed frame and the kept buffer serve page 2,
        // and page 0 comes back intact through the next eviction.
        let mut out = Vec::new();
        pool.read_row_into(12, &mut out).unwrap();
        pool.read_row_into(0, &mut out).unwrap();
        assert_eq!(out, vec![24.0, 25.0, 0.0, 1.0]);
        assert!(pool.spare.is_none());
        assert_eq!((pool.resident(), pool.free.len()), (2, 0));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn failed_writeback_keeps_the_victim_resident_and_dirty() {
        let (healthy, path) = pool("wb-eio", 2);
        drop(healthy);
        // Reopen behind an injector that fails write indices 0..=3: one
        // logical page write plus its whole EIO retry budget.
        let plan = (0..=EIO_RETRIES as u64).fold(IoFaultPlan::new(1), IoFaultPlan::eio_write);
        let mut pool = faulty_pool(&path, plan, 2);
        let mut sink = Vec::new();
        pool.update_row(0, &[5.5, -1.0]).unwrap(); // page 0, dirty
        pool.read_row_into(6, &mut sink).unwrap(); // page 1: pool is full
        // Page 2 needs page 0's frame; its write-back exhausts the budget.
        assert!(matches!(pool.read_row_into(12, &mut sink), Err(DiskError::TransientIo(_))));
        assert_eq!(pool.resident(), pool.capacity(), "no frame leaked");
        let mut out = Vec::new();
        pool.read_row_into(0, &mut out).unwrap();
        assert_eq!(out, vec![5.5, -1.0], "the update is still in memory");
        assert_eq!(pool.stats.misses, 3, "and was served without a re-read");
        // The disk healed: fresh pages pin again, and the dirty row survives
        // its eventual (now successful) write-back.
        for v in [12, 18, 24, 30] {
            pool.read_row_into(v, &mut sink).unwrap();
        }
        assert_eq!(pool.stats.writebacks, 1);
        let mut out = Vec::new();
        pool.read_row_into(0, &mut out).unwrap();
        assert_eq!(out, vec![5.5, -1.0]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn flush_persists_dirty_rows_across_reopen() {
        let path = tmp("flush");
        let rows: Vec<f32> = (0..64 * 2).map(|i| i as f32).collect();
        {
            let f = Box::new(RealFile::open(&path).unwrap());
            let pager = Pager::create(f, 2, &rows, 64).unwrap();
            let mut pool = BufferPool::new(pager, 4);
            pool.update_row(7, &[9.0, 9.5]).unwrap();
            pool.flush().unwrap();
        }
        let f = Box::new(RealFile::open(&path).unwrap());
        let pager = Pager::open(f).unwrap();
        let mut pool = BufferPool::new(pager, 4);
        let mut out = Vec::new();
        pool.read_row_into(7, &mut out).unwrap();
        assert_eq!(out, vec![9.0, 9.5]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn out_of_range_rows_are_rejected() {
        let (mut pool, path) = pool("range", 2);
        let mut sink = Vec::new();
        assert!(pool.read_row_into(64, &mut sink).is_err());
        assert!(pool.update_row(64, &[0.0, 0.0]).is_err());
        assert!(pool.update_row(0, &[0.0]).is_err(), "wrong dim");
        std::fs::remove_file(path).ok();
    }
}
