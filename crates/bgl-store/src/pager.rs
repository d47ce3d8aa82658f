//! Bottom layer of the durable disk tier: checksummed fixed-size pages over
//! a pluggable backing file, plus deterministic I/O fault injection.
//!
//! Layout of a paged feature file:
//!
//! ```text
//! [magic "BGLPAGE1" | version u32 | page_size u32 | dim u32 |
//!  rows_per_page u32 | num_nodes u64 | num_pages u64]          40-byte header
//! [double-write slot]                                          one page
//! [page 0][page 1]…[page num_pages−1]
//! ```
//!
//! Each page is `[page id u64][rows_per_page × dim scalars][zero pad]
//! [page_sum64 of everything before it]`. A page that fails its checksum is
//! never silently served. The sum is [`bgl_graph::hash::page_sum64`], not
//! the FNV-1a every other durable format here uses: a page is re-verified
//! on every buffer-pool miss (~900 times per training batch), a WAL record
//! or snapshot footer once at open, so only the page's sum is on the
//! per-batch read path and only it is word-parallel.
//!
//! The header version names the page checksum and doubles as the scalar
//! encoding: version 3 stores rows as little-endian f32 (4 bytes/scalar),
//! version 4 as IEEE 754 binary16 (2 bytes/scalar, [`bgl_graph::half`]),
//! halving on-disk bytes per row. Versions 1 and 2 were the same two
//! layouts under an FNV-1a page sum; [`Pager::open`] refuses them with
//! [`DiskError::BadVersion`] before reading a page (there is no reader for
//! them: recreate the file from its source rows).
//!
//! The pager does not own the row representation —
//! [`bgl_graph::half`] does: an in-memory [`PageBuf`] holds its rows in a
//! [`RowBuf`] at the *file's* precision, so decoding a page splits bytes
//! into scalars and encoding writes them back, neither converting. An f32
//! value is narrowed only where it enters an f16 file
//! ([`Pager::create_with_precision`], the buffer pool's `update_row`), and
//! a stored f16 row is widened only by whoever finally reads it as f32.
//!
//! ## Crash atomicity of page write-back
//!
//! [`Pager::write_page`] writes the page image to the double-write slot
//! first, then in place. The crash model (made testable by [`ShadowFile`])
//! is *ordered write-back torn at an arbitrary byte*: on crash, un-synced
//! writes land as a byte prefix, in issue order. Whatever the tear hits,
//! either the slot or the in-place copy of the victim page is intact, and
//! [`Pager::open`] redoes a valid slot before serving reads — so a torn
//! page write can never surface as a checksum failure after recovery.
//! Durability of acked updates is the WAL's job (`crate::wal`); page
//! write-back is lazy and unsynced until a checkpoint.

use std::collections::BTreeSet;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex};

use bgl_graph::half::{RowBuf, RowRef};
use bgl_graph::hash::{page_sum64, splitmix64};
use bgl_graph::FeaturePrecision;

pub const PAGE_MAGIC: &[u8; 8] = b"BGLPAGE1";
/// Header version for pages holding f32 rows under a `page_sum64` checksum
/// (1 was the same layout under FNV-1a).
pub const PAGE_VERSION: u32 = 3;
/// Header version for pages holding binary16 (f16) rows (2 under FNV-1a).
pub const PAGE_VERSION_F16: u32 = 4;
/// Header: magic(8) + version(4) + page_size(4) + dim(4) + rows_per_page(4)
/// + num_nodes(8) + num_pages(8).
pub const PAGE_HEADER_LEN: u64 = 40;
/// Per-page overhead: leading page id (8) + trailing checksum (8).
pub const PAGE_OVERHEAD: usize = 16;
const MAX_PAGE_SIZE: u32 = 1 << 20;

/// Typed errors for every durable-storage layer (pager, WAL, buffer pool,
/// and the `disk` format loaders).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// A non-transient I/O failure.
    Io(String),
    /// A transient I/O failure (injected EIO); retrying can succeed.
    TransientIo(String),
    /// The file's magic does not match the expected format.
    BadMagic { expected: &'static str },
    /// The format version is not one this build understands.
    BadVersion { found: u32 },
    /// The file ended before the structure it promised.
    Truncated(&'static str),
    /// Stored checksum does not match the recomputed one.
    ChecksumMismatch { what: &'static str, expected: u64, found: u64 },
    /// Decoded data violates a structural invariant.
    Invariant(&'static str),
    /// Every buffer-pool frame is pinned; nothing can be evicted.
    AllFramesPinned,
}

impl From<io::Error> for DiskError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::Interrupted => DiskError::TransientIo(e.to_string()),
            io::ErrorKind::UnexpectedEof => DiskError::Truncated("unexpected end of file"),
            _ => DiskError::Io(e.to_string()),
        }
    }
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Io(m) => write!(f, "i/o error: {}", m),
            DiskError::TransientIo(m) => write!(f, "transient i/o error: {}", m),
            DiskError::BadMagic { expected } => {
                write!(f, "bad magic (expected {})", expected)
            }
            DiskError::BadVersion { found } => write!(f, "unsupported version {}", found),
            DiskError::Truncated(what) => write!(f, "truncated: {}", what),
            DiskError::ChecksumMismatch { what, expected, found } => write!(
                f,
                "checksum mismatch in {}: stored {:#018x}, computed {:#018x}",
                what, expected, found
            ),
            DiskError::Invariant(what) => write!(f, "invariant violated: {}", what),
            DiskError::AllFramesPinned => write!(f, "every buffer-pool frame is pinned"),
        }
    }
}

impl std::error::Error for DiskError {}

/// The checksum of every durable format in this crate that is verified at
/// open or recovery only (WAL records, the `disk` format footers). Pages,
/// verified on every read, carry [`bgl_graph::hash::page_sum64`].
pub use bgl_graph::hash::fnv1a_64;

// ======================== backing-file abstraction ========================

/// Positioned I/O over one file. [`RealFile`] hits the filesystem directly;
/// [`ShadowFile`] buffers un-synced writes so a crash (and its torn-write
/// prefix) can be simulated deterministically; [`FaultFile`] wraps either
/// and injects seeded read/write faults.
pub trait BackingFile: Send {
    /// Read at most `buf.len()` bytes at `off`; returns the count actually
    /// read (0 at end of file). Callers must loop — short reads are legal
    /// (and injected by [`FaultFile`]).
    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> io::Result<usize>;
    /// Write all of `data` at `off`, growing the file if needed.
    fn write_at(&mut self, off: u64, data: &[u8]) -> io::Result<()>;
    fn file_len(&mut self) -> io::Result<u64>;
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Make every prior write durable (fsync).
    fn sync(&mut self) -> io::Result<()>;
    /// Bytes written since the last sync (0 when write-through).
    fn pending_bytes(&self) -> usize {
        0
    }
    /// Chaos hook: simulate a crash in which only the first `keep` bytes of
    /// the un-synced write stream reach the disk. Only [`ShadowFile`]
    /// supports this.
    fn crash(&mut self, _keep: usize) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "crash simulation needs a shadow file",
        ))
    }
}

/// Plain write-through file.
pub struct RealFile {
    file: File,
}

impl RealFile {
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        Ok(RealFile { file })
    }
}

// Positional I/O (`pread` / `pwrite`): one syscall per page and no shared
// file cursor to move first.
impl BackingFile for RealFile {
    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.file.read_at(buf, off)
    }

    fn write_at(&mut self, off: u64, data: &[u8]) -> io::Result<()> {
        self.file.write_all_at(data, off)
    }

    fn file_len(&mut self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

enum PendingOp {
    Write { off: u64, data: Vec<u8> },
    Truncate { len: u64 },
}

/// Crash-simulation file: writes land in a logical image and are journaled
/// until [`BackingFile::sync`] materializes them to the real file. A
/// [`ShadowFile::crash`] applies only a byte prefix of the journaled write
/// stream — the "torn write at byte k" + "crash before fsync" fault model —
/// then persists that partial state so a reopen sees exactly what a real
/// crash would have left behind.
pub struct ShadowFile {
    file: File,
    /// Content as seen by readers (durable state + pending writes).
    logical: Vec<u8>,
    /// Content as of the last sync (what the disk actually holds).
    durable: Vec<u8>,
    pending: Vec<PendingOp>,
}

impl ShadowFile {
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut logical = Vec::new();
        file.read_to_end(&mut logical)?;
        Ok(ShadowFile { file, durable: logical.clone(), logical, pending: Vec::new() })
    }

    fn persist(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.write_all_at(bytes, 0)?;
        self.file.sync_all()
    }

    fn apply_write(image: &mut Vec<u8>, off: u64, data: &[u8]) {
        let off = off as usize;
        if image.len() < off + data.len() {
            image.resize(off + data.len(), 0);
        }
        image[off..off + data.len()].copy_from_slice(data);
    }
}

impl BackingFile for ShadowFile {
    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        let off = off as usize;
        if off >= self.logical.len() {
            return Ok(0);
        }
        let n = buf.len().min(self.logical.len() - off);
        buf[..n].copy_from_slice(&self.logical[off..off + n]);
        Ok(n)
    }

    fn write_at(&mut self, off: u64, data: &[u8]) -> io::Result<()> {
        Self::apply_write(&mut self.logical, off, data);
        self.pending.push(PendingOp::Write { off, data: data.to_vec() });
        Ok(())
    }

    fn file_len(&mut self) -> io::Result<u64> {
        Ok(self.logical.len() as u64)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.logical.resize(len as usize, 0);
        self.pending.push(PendingOp::Truncate { len });
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let logical = self.logical.clone();
        self.persist(&logical)?;
        self.durable = logical;
        self.pending.clear();
        Ok(())
    }

    fn pending_bytes(&self) -> usize {
        self.pending
            .iter()
            .map(|op| match op {
                PendingOp::Write { data, .. } => data.len(),
                PendingOp::Truncate { .. } => 0,
            })
            .sum()
    }

    fn crash(&mut self, keep: usize) -> io::Result<()> {
        let mut durable = std::mem::take(&mut self.durable);
        let mut budget = keep;
        for op in &self.pending {
            if budget == 0 {
                break;
            }
            match op {
                PendingOp::Write { off, data } => {
                    let take = budget.min(data.len());
                    Self::apply_write(&mut durable, *off, &data[..take]);
                    budget -= take;
                    if take < data.len() {
                        break;
                    }
                }
                PendingOp::Truncate { len } => durable.resize(*len as usize, 0),
            }
        }
        self.persist(&durable)?;
        self.logical = durable.clone();
        self.durable = durable;
        self.pending.clear();
        Ok(())
    }
}

// ===================== deterministic I/O fault injection ====================

/// A seeded schedule of I/O faults, indexed by per-file operation count.
/// Each listed index fires exactly once — a retry is a new operation, so
/// injected EIO is genuinely transient.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    pub seed: u64,
    eio_reads: BTreeSet<u64>,
    eio_writes: BTreeSet<u64>,
    short_reads: BTreeSet<u64>,
}

impl IoFaultPlan {
    /// An empty plan (no read/write faults) with the given determinism
    /// seed; the seed still drives torn-write byte counts on crash.
    pub fn new(seed: u64) -> Self {
        IoFaultPlan { seed, ..IoFaultPlan::default() }
    }

    /// Fail the `nth` read (0-based, per injector) with transient EIO.
    pub fn eio_read(mut self, nth: u64) -> Self {
        self.eio_reads.insert(nth);
        self
    }

    /// Fail the `nth` write with transient EIO.
    pub fn eio_write(mut self, nth: u64) -> Self {
        self.eio_writes.insert(nth);
        self
    }

    /// Return a seeded short count (≥ 1 byte) from the `nth` read.
    pub fn short_read(mut self, nth: u64) -> Self {
        self.short_reads.insert(nth);
        self
    }
}

/// What the injector decided for one I/O operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// Transient EIO: the operation fails once; a retry proceeds.
    Eio,
    /// The read returns only `keep` bytes; the caller's read loop must
    /// continue.
    ShortRead { keep: usize },
}

/// Executes an [`IoFaultPlan`] against a live operation stream, and draws
/// the seeded torn-write byte counts used by [`BackingFile::crash`].
#[derive(Clone, Debug)]
pub struct IoFaultInjector {
    plan: IoFaultPlan,
    reads: u64,
    writes: u64,
    crashes: u64,
    /// Faults actually injected, for trace assertions.
    pub eio_injected: u64,
    pub short_injected: u64,
}

impl IoFaultInjector {
    pub fn new(plan: IoFaultPlan) -> Self {
        IoFaultInjector { plan, reads: 0, writes: 0, crashes: 0, eio_injected: 0, short_injected: 0 }
    }

    /// Observe one read of `buf_len` bytes and decide its fate.
    pub fn on_read(&mut self, buf_len: usize) -> Option<IoFault> {
        let n = self.reads;
        self.reads += 1;
        if self.plan.eio_reads.contains(&n) {
            self.eio_injected += 1;
            return Some(IoFault::Eio);
        }
        if self.plan.short_reads.contains(&n) && buf_len > 1 {
            self.short_injected += 1;
            let keep = 1 + (splitmix64(self.plan.seed ^ n) as usize) % (buf_len - 1);
            return Some(IoFault::ShortRead { keep });
        }
        None
    }

    /// Observe one write and decide its fate.
    pub fn on_write(&mut self) -> Option<IoFault> {
        let n = self.writes;
        self.writes += 1;
        if self.plan.eio_writes.contains(&n) {
            self.eio_injected += 1;
            return Some(IoFault::Eio);
        }
        None
    }

    /// Seeded torn-write byte count for the next crash: how many of
    /// `pending` un-synced bytes land. The full range `0..=pending` is
    /// possible — a record may be entirely lost, torn mid-byte, or fully
    /// durable with only its ack lost (which is why updates must be
    /// idempotent full-row writes).
    pub fn torn_keep(&mut self, pending: usize) -> usize {
        self.crashes += 1;
        if pending == 0 {
            return 0;
        }
        (splitmix64(self.plan.seed ^ (0xC4A5 + self.crashes)) as usize) % (pending + 1)
    }

    /// Override-free accessors for tests.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    pub fn writes(&self) -> u64 {
        self.writes
    }
}

fn injected_eio() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "injected transient EIO")
}

/// A [`BackingFile`] decorator that consults a shared [`IoFaultInjector`]
/// on every read and write.
pub struct FaultFile {
    inner: Box<dyn BackingFile>,
    injector: Arc<Mutex<IoFaultInjector>>,
}

impl FaultFile {
    pub fn new(inner: Box<dyn BackingFile>, injector: Arc<Mutex<IoFaultInjector>>) -> Self {
        FaultFile { inner, injector }
    }
}

impl BackingFile for FaultFile {
    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        let fault = self.injector.lock().unwrap_or_else(|p| p.into_inner()).on_read(buf.len());
        match fault {
            Some(IoFault::Eio) => Err(injected_eio()),
            Some(IoFault::ShortRead { keep }) => self.inner.read_at(off, &mut buf[..keep]),
            None => self.inner.read_at(off, buf),
        }
    }

    fn write_at(&mut self, off: u64, data: &[u8]) -> io::Result<()> {
        let fault = self.injector.lock().unwrap_or_else(|p| p.into_inner()).on_write();
        match fault {
            Some(_) => Err(injected_eio()),
            None => self.inner.write_at(off, data),
        }
    }

    fn file_len(&mut self) -> io::Result<u64> {
        self.inner.file_len()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }

    fn pending_bytes(&self) -> usize {
        self.inner.pending_bytes()
    }

    fn crash(&mut self, keep: usize) -> io::Result<()> {
        self.inner.crash(keep)
    }
}

/// Read exactly `buf.len()` bytes at `off`, looping over short reads.
/// Transient (injected) EIO propagates so the caller's retry policy — not
/// this loop — decides how often to re-attempt.
pub(crate) fn read_exact_at(
    f: &mut dyn BackingFile,
    off: u64,
    buf: &mut [u8],
) -> Result<(), DiskError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let n = f.read_at(off + filled as u64, &mut buf[filled..])?;
        if n == 0 {
            return Err(DiskError::Truncated("unexpected end of file"));
        }
        filled += n;
    }
    Ok(())
}

// ================================ pager ===================================

/// Cumulative pager counters (mirrored into `store.disk.*` by the tier).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagerStats {
    pub page_reads: u64,
    pub page_writes: u64,
    /// Torn in-place page writes redone from the double-write slot at open.
    pub dw_redo: u64,
}

bgl_obs::ledger!(PagerStats { page_reads, page_writes, dw_redo = "dw_redos" });

/// One decoded page: `rows_per_page × dim` feature values, at the file's
/// precision.
#[derive(Clone, Debug, PartialEq)]
pub struct PageBuf {
    pub pid: u64,
    pub rows: RowBuf,
}

/// Fixed-size checksummed pages over a [`BackingFile`].
pub struct Pager {
    file: Box<dyn BackingFile>,
    page_size: u32,
    dim: u32,
    rows_per_page: u32,
    num_nodes: u64,
    num_pages: u64,
    precision: FeaturePrecision,
    /// The one page image [`Pager::read_page_into`] reads into.
    image: Vec<u8>,
    pub stats: PagerStats,
}

impl Pager {
    /// Create a paged file holding `rows` (`num_nodes × dim`, row-major),
    /// then sync it: the base image is durable before any update runs.
    pub fn create(
        file: Box<dyn BackingFile>,
        dim: usize,
        rows: &[f32],
        page_size: u32,
    ) -> Result<Pager, DiskError> {
        Self::create_with_precision(file, dim, rows, page_size, FeaturePrecision::F32)
    }

    /// [`Pager::create`] with an explicit on-disk scalar encoding. With
    /// [`FeaturePrecision::F16`] each row costs half the bytes (so twice
    /// the rows fit per page); values are narrowed round-to-nearest-even
    /// once, here.
    pub fn create_with_precision(
        mut file: Box<dyn BackingFile>,
        dim: usize,
        rows: &[f32],
        page_size: u32,
        precision: FeaturePrecision,
    ) -> Result<Pager, DiskError> {
        if dim == 0 {
            return Err(DiskError::Invariant("zero feature dim"));
        }
        if !rows.len().is_multiple_of(dim) {
            return Err(DiskError::Invariant("feature rows not a multiple of dim"));
        }
        let bps = precision.bytes_per_scalar();
        let payload = page_size as usize;
        if payload < PAGE_OVERHEAD + bps * dim || page_size > MAX_PAGE_SIZE {
            return Err(DiskError::Invariant("page size cannot hold one row"));
        }
        let rows_per_page = ((payload - PAGE_OVERHEAD) / (bps * dim)) as u32;
        let num_nodes = (rows.len() / dim) as u64;
        if num_nodes > u64::from(u32::MAX) {
            return Err(DiskError::Invariant("node count exceeds NodeId (u32) range"));
        }
        let num_pages = num_nodes.div_ceil(rows_per_page as u64);
        let version = match precision {
            FeaturePrecision::F32 => PAGE_VERSION,
            FeaturePrecision::F16 => PAGE_VERSION_F16,
        };
        let mut header = Vec::with_capacity(PAGE_HEADER_LEN as usize);
        header.extend_from_slice(PAGE_MAGIC);
        header.extend_from_slice(&version.to_le_bytes());
        header.extend_from_slice(&page_size.to_le_bytes());
        header.extend_from_slice(&(dim as u32).to_le_bytes());
        header.extend_from_slice(&rows_per_page.to_le_bytes());
        header.extend_from_slice(&num_nodes.to_le_bytes());
        header.extend_from_slice(&num_pages.to_le_bytes());
        file.truncate(0)?;
        file.write_at(0, &header)?;
        // An all-zero double-write slot never passes its checksum (no
        // all-zero image sums to zero: `hash::tests`), so it is ignored at
        // open until the first real page write lands there.
        file.write_at(PAGE_HEADER_LEN, &vec![0u8; payload])?;
        let mut pager = Pager {
            file,
            page_size,
            dim: dim as u32,
            rows_per_page,
            num_nodes,
            num_pages,
            precision,
            image: vec![0u8; payload],
            stats: PagerStats::default(),
        };
        let per_page = (rows_per_page as usize) * dim;
        for pid in 0..num_pages {
            let start = (pid as usize) * per_page;
            let end = (start + per_page).min(rows.len());
            // The last page's tail stays zero.
            let mut page_rows = RowBuf::zeros(precision, per_page);
            page_rows.set_row(0, RowRef::F32(&rows[start..end]));
            let image = pager.encode_page(&PageBuf { pid, rows: page_rows });
            pager.file.write_at(pager.page_off(pid), &image)?;
        }
        pager.stats = PagerStats::default(); // creation writes are not traffic
        pager.file.sync()?;
        Ok(pager)
    }

    /// Open an existing paged file: validate the header, then redo the
    /// double-write slot if it holds a valid page (a torn in-place write
    /// from the previous run).
    pub fn open(mut file: Box<dyn BackingFile>) -> Result<Pager, DiskError> {
        let mut header = [0u8; PAGE_HEADER_LEN as usize];
        if file.file_len()? < PAGE_HEADER_LEN {
            return Err(DiskError::Truncated("paged file header"));
        }
        read_exact_at(file.as_mut(), 0, &mut header)?;
        if &header[0..8] != PAGE_MAGIC {
            return Err(DiskError::BadMagic { expected: "BGLPAGE1" });
        }
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().unwrap());
        let version = word(8);
        let precision = match version {
            PAGE_VERSION => FeaturePrecision::F32,
            PAGE_VERSION_F16 => FeaturePrecision::F16,
            found => return Err(DiskError::BadVersion { found }),
        };
        let bps = precision.bytes_per_scalar();
        let page_size = word(12);
        let dim = word(16);
        let rows_per_page = word(20);
        let num_nodes = u64::from_le_bytes(header[24..32].try_into().unwrap());
        let num_pages = u64::from_le_bytes(header[32..40].try_into().unwrap());
        if dim == 0
            || page_size > MAX_PAGE_SIZE
            || (page_size as usize) < PAGE_OVERHEAD + bps * dim as usize
        {
            return Err(DiskError::Invariant("implausible page geometry"));
        }
        if rows_per_page != ((page_size as usize - PAGE_OVERHEAD) / (bps * dim as usize)) as u32 {
            return Err(DiskError::Invariant("rows_per_page disagrees with geometry"));
        }
        if num_pages != num_nodes.div_ceil(rows_per_page.max(1) as u64) {
            return Err(DiskError::Invariant("num_pages disagrees with num_nodes"));
        }
        // Node ids are u32 everywhere above this layer (`page_of` takes a
        // `NodeId`); a header claiming more rows than u32 can address would
        // otherwise be silently truncated by `as` casts downstream.
        if num_nodes > u64::from(u32::MAX) {
            return Err(DiskError::Invariant("node count exceeds NodeId (u32) range"));
        }
        // Length check BEFORE any per-page allocation: a 40-byte file
        // claiming 2^50 pages fails here, it cannot drive allocations
        // (checked arithmetic — the claimed count itself may overflow).
        let expect = num_pages
            .checked_add(1)
            .and_then(|n| n.checked_mul(page_size as u64))
            .and_then(|body| body.checked_add(PAGE_HEADER_LEN));
        if expect != Some(file.file_len()?) {
            return Err(DiskError::Truncated("paged file body"));
        }
        let mut pager = Pager {
            file,
            page_size,
            dim,
            rows_per_page,
            num_nodes,
            num_pages,
            precision,
            image: vec![0u8; page_size as usize],
            stats: PagerStats::default(),
        };
        // Double-write redo: if the slot holds a checksum-valid page, the
        // previous run may have torn that page's in-place write. Redoing it
        // unconditionally is idempotent.
        let mut slot = vec![0u8; pager.page_size as usize];
        read_exact_at(pager.file.as_mut(), PAGE_HEADER_LEN, &mut slot)?;
        let mut page = pager.blank_page();
        if pager.decode_page_into(&slot, None, &mut page).is_ok() && page.pid < pager.num_pages {
            let image = pager.encode_page(&page);
            pager.file.write_at(pager.page_off(page.pid), &image)?;
            pager.file.sync()?;
            pager.stats.dw_redo += 1;
        }
        Ok(pager)
    }

    fn page_off(&self, pid: u64) -> u64 {
        PAGE_HEADER_LEN + (pid + 1) * self.page_size as u64
    }

    /// Scalars in one page's row payload.
    fn page_scalars(&self) -> usize {
        (self.rows_per_page * self.dim) as usize
    }

    fn encode_page(&self, page: &PageBuf) -> Vec<u8> {
        let ps = self.page_size as usize;
        let mut image = vec![0u8; ps];
        image[0..8].copy_from_slice(&page.pid.to_le_bytes());
        page.rows.as_row().write_le_bytes(&mut image[8..8 + page.rows.byte_len()]);
        let sum = page_sum64(&image[..ps - 8]);
        image[ps - 8..].copy_from_slice(&sum.to_le_bytes());
        image
    }

    /// A page buffer at the file's precision holding nothing yet: what
    /// [`Pager::read_page_into`] fills when there is no frame to recycle.
    pub fn blank_page(&self) -> PageBuf {
        PageBuf { pid: 0, rows: RowBuf::with_capacity(self.precision, 0) }
    }

    /// Verify `image` (checksum, then page id) and only then decode it over
    /// whatever `into` held: a refused image leaves `into` as it was.
    fn decode_page_into(
        &self,
        image: &[u8],
        expect_pid: Option<u64>,
        into: &mut PageBuf,
    ) -> Result<(), DiskError> {
        let ps = self.page_size as usize;
        debug_assert_eq!(image.len(), ps);
        let stored = u64::from_le_bytes(image[ps - 8..].try_into().unwrap());
        let computed = page_sum64(&image[..ps - 8]);
        if stored != computed {
            return Err(DiskError::ChecksumMismatch {
                what: "page",
                expected: stored,
                found: computed,
            });
        }
        let pid = u64::from_le_bytes(image[0..8].try_into().unwrap());
        if let Some(want) = expect_pid {
            if pid != want {
                return Err(DiskError::Invariant("page id does not match its slot"));
            }
        }
        let row_bytes = self.page_scalars() * self.precision.bytes_per_scalar();
        let whole = into.rows.fill_from_le_bytes(self.precision, &image[8..8 + row_bytes]);
        assert!(whole, "page geometry holds whole scalars");
        into.pid = pid;
        Ok(())
    }

    /// Read and verify page `pid` into `into`, reusing its allocation — the
    /// buffer pool hands in the frame it just evicted. On any error `into`
    /// keeps what it held (and must not be served as `pid`).
    pub fn read_page_into(&mut self, pid: u64, into: &mut PageBuf) -> Result<(), DiskError> {
        if pid >= self.num_pages {
            return Err(DiskError::Invariant("page id out of range"));
        }
        let off = self.page_off(pid);
        read_exact_at(self.file.as_mut(), off, &mut self.image)?;
        self.stats.page_reads += 1;
        self.decode_page_into(&self.image, Some(pid), into)
    }

    /// [`Pager::read_page_into`] a fresh buffer.
    pub fn read_page(&mut self, pid: u64) -> Result<PageBuf, DiskError> {
        let mut page = self.blank_page();
        self.read_page_into(pid, &mut page)?;
        Ok(page)
    }

    /// Write page `pid` back: double-write slot first, then in place.
    /// Unsynced — durability comes from the WAL until the next checkpoint.
    pub fn write_page(&mut self, page: &PageBuf) -> Result<(), DiskError> {
        if page.pid >= self.num_pages {
            return Err(DiskError::Invariant("page id out of range"));
        }
        if page.rows.len() != self.page_scalars() || page.rows.precision() != self.precision {
            return Err(DiskError::Invariant("page row payload has the wrong shape"));
        }
        let image = self.encode_page(page);
        self.file.write_at(PAGE_HEADER_LEN, &image)?;
        self.file.write_at(self.page_off(page.pid), &image)?;
        self.stats.page_writes += 1;
        Ok(())
    }

    /// fsync the paged file (checkpoint step).
    pub fn sync(&mut self) -> Result<(), DiskError> {
        self.file.sync()?;
        Ok(())
    }

    /// `(page, slot-within-page)` of node `v`.
    pub fn page_of(&self, v: u32) -> (u64, usize) {
        (
            v as u64 / self.rows_per_page as u64,
            (v % self.rows_per_page) as usize,
        )
    }

    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    pub fn num_nodes(&self) -> u64 {
        self.num_nodes
    }

    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    pub fn rows_per_page(&self) -> usize {
        self.rows_per_page as usize
    }

    /// On-disk scalar encoding of this file (from the header version).
    pub fn precision(&self) -> FeaturePrecision {
        self.precision
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

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bgl-pager-test-{}-{}", std::process::id(), name));
        p
    }

    fn sample_rows(n: usize, dim: usize) -> Vec<f32> {
        (0..n * dim).map(|i| i as f32 * 0.5 - 3.0).collect()
    }

    /// Row `slot` of `page`, widened.
    fn row_of(page: &PageBuf, slot: usize, dim: usize) -> Vec<f32> {
        let mut out = vec![0.0; dim];
        page.rows.row(slot, dim).widen_into(&mut out);
        out
    }

    #[test]
    fn create_open_read_roundtrip() {
        let path = tmp("roundtrip");
        let rows = sample_rows(37, 5);
        {
            let f = Box::new(RealFile::open(&path).unwrap());
            Pager::create(f, 5, &rows, 128).unwrap();
        }
        let f = Box::new(RealFile::open(&path).unwrap());
        let mut p = Pager::open(f).unwrap();
        assert_eq!(p.dim(), 5);
        assert_eq!(p.num_nodes(), 37);
        for v in 0..37u32 {
            let (pid, slot) = p.page_of(v);
            let page = p.read_page(pid).unwrap();
            assert_eq!(row_of(&page, slot, 5), &rows[v as usize * 5..(v as usize + 1) * 5]);
        }
        assert!(p.stats.page_reads > 0);
        std::fs::remove_file(path).ok();
    }

    /// Every bit of page 0 — pid, rows, pad and the stored sum — flipped in
    /// turn: `page_sum64` misses no single-bit flip, so each is refused.
    #[test]
    fn corrupt_page_fails_its_checksum() {
        let path = tmp("corrupt");
        {
            let f = Box::new(RealFile::open(&path).unwrap());
            Pager::create(f, 2, &sample_rows(10, 2), 64).unwrap();
        }
        let good = std::fs::read(&path).unwrap();
        let page0 = (PAGE_HEADER_LEN + 64) as usize;
        for bit in 0..64 * 8 {
            let mut bytes = good.clone();
            bytes[page0 + bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bytes).unwrap();
            let f = Box::new(RealFile::open(&path).unwrap());
            let mut p = Pager::open(f).unwrap();
            assert!(
                matches!(p.read_page(0), Err(DiskError::ChecksumMismatch { what: "page", .. })),
                "bit {bit} of page 0 flipped and the page was served"
            );
            assert!(p.read_page(1).is_ok(), "page 1 is untouched");
        }
        std::fs::remove_file(path).ok();
    }

    /// `read_page_into` replaces everything its buffer held, whatever that
    /// was, and adopts nothing from a page that fails verification.
    #[test]
    fn read_page_into_overwrites_any_buffer_and_adopts_no_bad_page() {
        let path = tmp("into");
        let rows = sample_rows(30, 2); // 12 f16 rows per page: 3 pages
        {
            let f = Box::new(RealFile::open(&path).unwrap());
            Pager::create_with_precision(f, 2, &rows, 64, FeaturePrecision::F16).unwrap();
        }
        let f = Box::new(RealFile::open(&path).unwrap());
        let mut p = Pager::open(f).unwrap();
        // Longer than a page, full of other values, at the wrong precision.
        let dirty = PageBuf { pid: 77, rows: RowBuf::from(vec![9.5f32; 40]) };
        for pid in 0..p.num_pages() {
            let mut into = dirty.clone();
            p.read_page_into(pid, &mut into).unwrap();
            assert_eq!(into, p.read_page(pid).unwrap(), "page {pid}");
            assert_eq!(into.rows.precision(), FeaturePrecision::F16);
        }
        assert_eq!(p.read_page_into(p.num_pages(), &mut dirty.clone()), Err(DiskError::Invariant("page id out of range")));

        // Page 1 rots on disk; page 0 is written where page 1 belongs.
        let good = std::fs::read(&path).unwrap();
        let page = |pid: usize| (PAGE_HEADER_LEN as usize + 64 * (pid + 1))..(PAGE_HEADER_LEN as usize + 64 * (pid + 2));
        let mut rotten = good.clone();
        rotten[page(1).start + 20] ^= 0x10;
        let mut misplaced = good.clone();
        misplaced.copy_within(page(0), page(1).start);
        for bytes in [rotten, misplaced] {
            std::fs::write(&path, &bytes).unwrap();
            let f = Box::new(RealFile::open(&path).unwrap());
            let mut p = Pager::open(f).unwrap();
            let mut into = p.read_page(0).unwrap();
            let before = into.clone();
            assert!(p.read_page_into(1, &mut into).is_err());
            assert_eq!(into, before, "a refused page must not be adopted, in whole or in part");
        }
        std::fs::remove_file(path).ok();
    }

    /// `create` leaves the double-write slot zero-filled and relies on that
    /// image failing verification: a slot that passed would be redone over
    /// page 0 at the next open.
    #[test]
    fn fresh_files_zero_slot_is_not_redone_at_open() {
        let path = tmp("zeroslot");
        for ps in [64u32, 130, 4096] {
            let rows = sample_rows(10, 2);
            {
                let f = Box::new(RealFile::open(&path).unwrap());
                Pager::create(f, 2, &rows, ps).unwrap();
            }
            let bytes = std::fs::read(&path).unwrap();
            let slot = PAGE_HEADER_LEN as usize..(PAGE_HEADER_LEN + ps as u64) as usize;
            assert!(bytes[slot].iter().all(|&b| b == 0));
            let f = Box::new(RealFile::open(&path).unwrap());
            let mut p = Pager::open(f).unwrap();
            assert_eq!(p.stats.dw_redo, 0, "page size {ps}");
            assert_eq!(row_of(&p.read_page(0).unwrap(), 0, 2), &rows[..2]);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn header_corruption_is_typed() {
        let path = tmp("hdr");
        {
            let f = Box::new(RealFile::open(&path).unwrap());
            Pager::create(f, 2, &sample_rows(4, 2), 64).unwrap();
        }
        let good = std::fs::read(&path).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let f = Box::new(RealFile::open(&path).unwrap());
        assert!(matches!(Pager::open(f), Err(DiskError::BadMagic { .. })));

        let mut bad = good.clone();
        bad[8] = 9;
        std::fs::write(&path, &bad).unwrap();
        let f = Box::new(RealFile::open(&path).unwrap());
        assert!(matches!(Pager::open(f), Err(DiskError::BadVersion { found: 9 })));

        // Versions 1 (f32) and 2 (f16) carried FNV-1a page sums; no reader
        // for them is kept, so they are refused like any unknown version.
        for old in [1u8, 2] {
            let mut bad = good.clone();
            bad[8] = old;
            std::fs::write(&path, &bad).unwrap();
            let f = Box::new(RealFile::open(&path).unwrap());
            assert!(matches!(
                Pager::open(f),
                Err(DiskError::BadVersion { found }) if found == u32::from(old)
            ));
        }

        std::fs::write(&path, &good[..good.len() - 1]).unwrap();
        let f = Box::new(RealFile::open(&path).unwrap());
        assert!(matches!(Pager::open(f), Err(DiskError::Truncated(_))));
        std::fs::remove_file(path).ok();
    }

    fn crafted_header(num_nodes: u64) -> Vec<u8> {
        let mut header = Vec::new();
        header.extend_from_slice(PAGE_MAGIC);
        header.extend_from_slice(&PAGE_VERSION.to_le_bytes());
        header.extend_from_slice(&64u32.to_le_bytes());
        header.extend_from_slice(&2u32.to_le_bytes());
        header.extend_from_slice(&6u32.to_le_bytes());
        header.extend_from_slice(&num_nodes.to_le_bytes());
        header.extend_from_slice(&num_nodes.div_ceil(6).to_le_bytes());
        header
    }

    #[test]
    fn huge_claimed_page_count_fails_fast_without_allocating() {
        // A header claiming more nodes than NodeId (u32) can address is
        // rejected before any size arithmetic — `as u32` downstream would
        // silently truncate such an id.
        let path = tmp("huge");
        std::fs::write(&path, crafted_header(u64::from(u32::MAX) + 1)).unwrap();
        let f = Box::new(RealFile::open(&path).unwrap());
        assert!(matches!(Pager::open(f), Err(DiskError::Invariant(_))));

        // A node count that IS addressable but implies a body far larger
        // than the file still fails the length check without allocating.
        std::fs::write(&path, crafted_header(u64::from(u32::MAX))).unwrap();
        let f = Box::new(RealFile::open(&path).unwrap());
        assert!(matches!(Pager::open(f), Err(DiskError::Truncated(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn f16_pages_halve_row_bytes_and_roundtrip_quantized() {
        let dim = 5usize;
        let rows = sample_rows(37, dim);
        let path32 = tmp("f16-as32");
        let path16 = tmp("f16");
        {
            let f = Box::new(RealFile::open(&path32).unwrap());
            Pager::create(f, dim, &rows, 128).unwrap();
        }
        {
            let f = Box::new(RealFile::open(&path16).unwrap());
            Pager::create_with_precision(f, dim, &rows, 128, FeaturePrecision::F16).unwrap();
        }
        let f = Box::new(RealFile::open(&path16).unwrap());
        let mut p = Pager::open(f).unwrap();
        assert_eq!(p.precision(), FeaturePrecision::F16);
        // Twice the rows fit in the same page: (128-16)/(4*5)=5 vs /(2*5)=11.
        let f = Box::new(RealFile::open(&path32).unwrap());
        let p32 = Pager::open(f).unwrap();
        assert!(p.rows_per_page() >= 2 * p32.rows_per_page());
        // Every row reads back as its f16 quantization (exact for these
        // small half-integer sample values).
        for v in 0..37u32 {
            let (pid, slot) = p.page_of(v);
            let page = p.read_page(pid).unwrap();
            let want: Vec<f32> = rows[v as usize * dim..(v as usize + 1) * dim]
                .iter()
                .map(|&x| bgl_graph::half::quantize_f16(x))
                .collect();
            assert_eq!(row_of(&page, slot, dim), want, "node {}", v);
        }
        // Write-back keeps the f16 encoding: mutate a page, reopen, reread.
        let mut page = p.read_page(0).unwrap();
        page.rows.set_row(0, RowRef::F32(&[123.5])); // exactly representable in f16
        p.write_page(&page).unwrap();
        p.sync().unwrap();
        drop(p);
        let f = Box::new(RealFile::open(&path16).unwrap());
        let mut p = Pager::open(f).unwrap();
        assert_eq!(row_of(&p.read_page(0).unwrap(), 0, 1), [123.5]);
        // A frame at the wrong precision is refused, not re-encoded.
        page.rows = RowBuf::zeros(FeaturePrecision::F32, page.rows.len());
        assert!(matches!(p.write_page(&page), Err(DiskError::Invariant(_))));
        std::fs::remove_file(path32).ok();
        std::fs::remove_file(path16).ok();
    }

    /// The tentpole's page-atomicity claim, proven exhaustively: crash at
    /// EVERY byte offset of a page write's un-synced stream (double-write
    /// slot + in-place, 2 × page_size bytes) and the reopened file must
    /// serve every page checksum-valid, holding either the old or the new
    /// image.
    #[test]
    fn torn_page_write_at_every_byte_recovers_via_double_write_slot() {
        let dim = 2usize;
        let ps = 64u32;
        let rows = sample_rows(12, dim);
        let path = tmp("torn");
        for keep in 0..=(2 * ps as usize) {
            {
                let f = Box::new(RealFile::open(&path).unwrap());
                Pager::create(f, dim, &rows, ps).unwrap();
            }
            {
                let f = Box::new(ShadowFile::open(&path).unwrap());
                let mut p = Pager::open(f).unwrap();
                let mut page = p.read_page(1).unwrap();
                let RowBuf::F32(values) = &mut page.rows else { panic!("an f32 file") };
                for x in values {
                    *x += 100.0;
                }
                p.write_page(&page).unwrap();
                assert_eq!(p.pending_bytes(), 2 * ps as usize);
                p.crash(keep).unwrap();
            }
            let f = Box::new(RealFile::open(&path).unwrap());
            let mut p = Pager::open(f).unwrap();
            for pid in 0..p.num_pages() {
                let page = p.read_page(pid).unwrap();
                if pid == 1 {
                    let old = rows[p.rows_per_page() * dim..2 * p.rows_per_page() * dim].to_vec();
                    let new: Vec<f32> = old.iter().map(|x| x + 100.0).collect();
                    assert!(
                        page.rows == RowBuf::from(old) || page.rows == RowBuf::from(new),
                        "keep={}: page 1 is neither old nor new",
                        keep
                    );
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn injected_eio_is_transient_and_short_reads_are_absorbed() {
        let path = tmp("faults");
        {
            let f = Box::new(RealFile::open(&path).unwrap());
            Pager::create(f, 2, &sample_rows(10, 2), 64).unwrap();
        }
        // Operation 0 is the header read in open(); fault later reads.
        let plan = IoFaultPlan::new(42).eio_read(2).short_read(3);
        let inj = Arc::new(Mutex::new(IoFaultInjector::new(plan)));
        let f = Box::new(FaultFile::new(
            Box::new(RealFile::open(&path).unwrap()),
            inj.clone(),
        ));
        let mut p = Pager::open(f).unwrap();
        // Read op 2: EIO once, then the retry (op 3) hits the short read,
        // whose loop completes the page anyway.
        let err = p.read_page(0).unwrap_err();
        assert!(matches!(err, DiskError::TransientIo(_)));
        let page = p.read_page(0).unwrap();
        assert_eq!(page.pid, 0);
        let inj = inj.lock().unwrap();
        assert_eq!(inj.eio_injected, 1);
        assert_eq!(inj.short_injected, 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fault_plans_are_deterministic() {
        let plan = IoFaultPlan::new(7).eio_read(1).short_read(2);
        let mut a = IoFaultInjector::new(plan.clone());
        let mut b = IoFaultInjector::new(plan);
        for _ in 0..16 {
            assert_eq!(a.on_read(100), b.on_read(100));
            assert_eq!(a.on_write(), b.on_write());
        }
        assert_eq!(a.torn_keep(1000), b.torn_keep(1000));
        assert!(a.torn_keep(1000) <= 1000);
        assert_eq!(a.torn_keep(0), 0);
    }

    #[test]
    fn shadow_file_sync_then_crash_preserves_synced_state() {
        let path = tmp("shadow");
        {
            let mut f = ShadowFile::open(&path).unwrap();
            f.write_at(0, b"hello world").unwrap();
            f.sync().unwrap();
            f.write_at(6, b"WORLD").unwrap();
            assert_eq!(f.pending_bytes(), 5);
            f.crash(2).unwrap(); // only "WO" lands
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"hello WOrld");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn real_file_refuses_crash_simulation() {
        let path = tmp("nocrash");
        let mut f = RealFile::open(&path).unwrap();
        assert!(f.crash(0).is_err());
        std::fs::remove_file(path).ok();
    }
}
