//! The real threaded 8-stage pipeline executor (paper Fig. 10, §3.4).
//!
//! Where [`crate::build`] *simulates* the asynchronous training pipeline on
//! virtual time, this module actually runs it: one OS thread pool per
//! stage, bounded channels between stages enforcing backpressure exactly
//! like [`bgl_sim::pipeline::TandemPipeline`]'s finite buffers, and the
//! genuine substrate doing the work — `bgl-sampler` neighbor sampling,
//! `bgl-store` distributed feature fetch (with PR 1's replication / retry /
//! degraded-mode machinery intact), `bgl-cache` two-level lookup/admit,
//! `bgl-graph` subgraph construction and `bgl-gnn` training steps.
//!
//! ## Stage graph
//!
//! ```text
//! order → sample → subgraph → cache-lookup → store-fetch → cache-admit → transfer → train
//!  (1)     (c1)      (c2)       (c4/2)         (c3/2)        (c4/2)       (c3/2)    (1)
//! ```
//!
//! Worker-pool sizes come from a §3.4 [`Allocation`] via
//! [`ExecConfig::scaled_to`]: `c1` drives sampling, `c2` subgraph
//! construction, `c4` splits across the two cache stages and `c3` across
//! worker-side fetch and host→device transfer. `order` and `train` are
//! pinned to one worker each — batch order is produced and consumed
//! sequentially.
//!
//! ## Determinism contract
//!
//! Sampling randomness is keyed by **batch index**, never by worker
//! identity: batch `i` always samples from
//! `StdRng::seed_from_u64(seed ^ hash(i))`, so any interleaving of the
//! sample pool produces the same subgraphs. The train stage holds a
//! reorder buffer and applies batches strictly in index order, so optimizer
//! updates replay identically. [`run_serial`] drives the *same* stage
//! functions inline on one thread; [`run`] must produce bitwise-identical
//! model parameters (the differential test in `tests/exec_runtime.rs`).
//!
//! ## Shutdown protocol
//!
//! Channels close by sender-count (dropping a stage's last sender drains
//! and closes its downstream — the poison-pill equivalent), so a finished
//! epoch drains front to back. [`ExecHandle::stop`] raises a stop flag
//! that every blocked `send`/`recv` observes within one poll tick, so stop
//! under full buffers cannot deadlock. A worker panic is caught, converted
//! into [`ExecError::StagePanic`], and fails the whole pipeline; no thread
//! is ever detached.

use crate::allocator::Allocation;
use crate::checkpoint::{
    fingerprint_batches, AdamState, Checkpoint, CheckpointPolicy, CheckpointStore, CkptError,
    ExecFaultPlan,
};
use bgl_cache::FeatureCacheEngine;
use bgl_gnn::GnnModel;
use bgl_graph::{Csr, InducedSubgraph, NodeId};
use bgl_sampler::{MiniBatch, NeighborSampler};
use bgl_sim::pipeline::{PipelineReport, TandemPipeline};
use bgl_store::{StoreCluster, StoreError};
use bgl_tensor::{Adam, Matrix};
use rand::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The 8 stages, in pipeline order (Fig. 10).
pub const STAGE_NAMES: [&str; 8] = [
    "order",
    "sample",
    "subgraph",
    "cache-lookup",
    "store-fetch",
    "cache-admit",
    "transfer",
    "train",
];

/// Span names per stage (spans want `&'static str`).
const SPAN_NAMES: [&str; 8] = [
    "exec.order",
    "exec.sample",
    "exec.subgraph",
    "exec.cache_lookup",
    "exec.store_fetch",
    "exec.cache_admit",
    "exec.transfer",
    "exec.train",
];

/// How often a blocked channel operation re-checks the stop flag.
const STOP_POLL: Duration = Duration::from_millis(2);

/// Why a pipeline run failed.
#[derive(Debug)]
pub enum ExecError {
    /// A stage worker panicked; the panic is captured, not propagated raw.
    /// `stage_index` is the pipeline position (0..8) of the originating
    /// stage — it must survive propagation so recovery tooling can tell a
    /// sampler crash from a train-step crash.
    StagePanic { stage: &'static str, stage_index: usize, message: String },
    /// The store surfaced an error the fault-tolerance layer could not
    /// absorb (no replication / degradation configured, or budget spent).
    Store { stage: &'static str, error: StoreError },
    /// Checkpoint directory could not be opened, or a resume checkpoint
    /// failed validation against the configured run.
    Checkpoint(CkptError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::StagePanic { stage, stage_index, message } => {
                write!(f, "stage {stage} (index {stage_index}) panicked: {message}")
            }
            ExecError::Store { stage, error } => {
                write!(f, "stage {stage} store error: {error}")
            }
            ExecError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl From<CkptError> for ExecError {
    fn from(e: CkptError) -> Self {
        ExecError::Checkpoint(e)
    }
}

impl std::error::Error for ExecError {}

// ---------------------------------------------------------------------------
// Bounded MPMC channel (std-only: Mutex + Condvar), stop-aware.
// ---------------------------------------------------------------------------

struct ChanState<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct ChanCore<T> {
    state: Mutex<ChanState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
    stop: Arc<AtomicBool>,
    depth: bgl_obs::Gauge,
}

pub(crate) struct Sender<T>(Arc<ChanCore<T>>);
pub(crate) struct Receiver<T>(Arc<ChanCore<T>>);

fn channel<T>(
    cap: usize,
    stop: Arc<AtomicBool>,
    depth: bgl_obs::Gauge,
) -> (Sender<T>, Receiver<T>) {
    let core = Arc::new(ChanCore {
        state: Mutex::new(ChanState { queue: VecDeque::new(), senders: 1, receivers: 1 }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cap: cap.max(1),
        stop,
        depth,
    });
    (Sender(Arc::clone(&core)), Receiver(core))
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().unwrap().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut g = self.0.state.lock().unwrap();
        g.senders -= 1;
        if g.senders == 0 {
            // Closed: wake receivers so they can observe the drained end.
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().unwrap().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut g = self.0.state.lock().unwrap();
        g.receivers -= 1;
        if g.receivers == 0 {
            self.0.not_full.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Blocking bounded send. `Err` means the pipeline stopped or every
    /// receiver is gone; either way the caller should wind down.
    fn send(&self, item: T) -> Result<(), ()> {
        let core = &*self.0;
        let mut g = core.state.lock().unwrap();
        loop {
            if core.stop.load(Ordering::Relaxed) || g.receivers == 0 {
                return Err(());
            }
            if g.queue.len() < core.cap {
                g.queue.push_back(item);
                core.depth.add(1);
                core.not_empty.notify_one();
                return Ok(());
            }
            // Backpressure: wait, re-checking the stop flag each tick so a
            // stop under full buffers cannot deadlock.
            let (ng, _) = core.not_full.wait_timeout(g, STOP_POLL).unwrap();
            g = ng;
        }
    }
}

impl<T> Receiver<T> {
    /// Blocking receive. `None` means the channel is closed-and-drained or
    /// the pipeline stopped.
    fn recv(&self) -> Option<T> {
        let core = &*self.0;
        let mut g = core.state.lock().unwrap();
        loop {
            if let Some(item) = g.queue.pop_front() {
                core.depth.add(-1);
                core.not_full.notify_one();
                return Some(item);
            }
            if core.stop.load(Ordering::Relaxed) || g.senders == 0 {
                return None;
            }
            let (ng, _) = core.not_empty.wait_timeout(g, STOP_POLL).unwrap();
            g = ng;
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration and inputs
// ---------------------------------------------------------------------------

/// Executor knobs.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Per-hop fanouts handed to the neighbor sampler.
    pub fanouts: Vec<usize>,
    /// Base RNG seed; batch `i` samples from a stream keyed by `(seed, i)`.
    pub seed: u64,
    /// Worker-pool size per stage. Index 0 (`order`) and 7 (`train`) are
    /// forced to 1 — they must produce/consume batch indices sequentially.
    pub workers: [usize; 8],
    /// Capacity of every inter-stage buffer (the tandem model's `caps`).
    pub buffer_cap: usize,
    /// Artificial per-batch service-time floor per stage, in nanoseconds.
    /// Zero everywhere in production; tests use it to pin known stage
    /// times for simulator calibration and to force backpressure.
    pub synthetic_stage_ns: [u64; 8],
    /// When set, the train stage snapshots a [`Checkpoint`] every
    /// `every_batches` applied batches and hands it to a dedicated writer
    /// thread — the hot path never touches the filesystem.
    pub ckpt: Option<CheckpointPolicy>,
    /// Seeded chaos: kill/tear/panic injection for crash-recovery tests.
    /// `None` in production.
    pub faults: Option<ExecFaultPlan>,
}

impl ExecConfig {
    /// Single-worker pools, buffer capacity 4, no synthetic delays.
    pub fn new(fanouts: Vec<usize>, seed: u64) -> Self {
        ExecConfig {
            fanouts,
            seed,
            workers: [1; 8],
            buffer_cap: 4,
            synthetic_stage_ns: [0; 8],
            ckpt: None,
            faults: None,
        }
    }

    /// Enable periodic checkpointing under `policy`.
    pub fn with_checkpointing(mut self, policy: CheckpointPolicy) -> Self {
        self.ckpt = Some(policy);
        self
    }

    /// Install a seeded fault plan (crash-recovery chaos tests only).
    pub fn with_faults(mut self, plan: ExecFaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Override pool sizes (order/train clamped back to 1, zeros to 1).
    pub fn with_workers(mut self, workers: [usize; 8]) -> Self {
        self.workers = workers.map(|w| w.max(1));
        self.workers[0] = 1;
        self.workers[7] = 1;
        self
    }

    /// Size the pools from a §3.4 allocation, scaled down to `cores`
    /// available host threads: each of `c1`/`c2` maps to its stage, `c4`
    /// splits across the two cache stages, `c3` across store-fetch and
    /// transfer, all proportionally to the allocation's core shares.
    pub fn scaled_to(mut self, alloc: &Allocation, cores: usize) -> Self {
        let budget = cores.max(4) as f64;
        let total = (alloc.c1 + alloc.c2 + alloc.c3 + alloc.c4) as f64;
        let share = |c: usize| (((c as f64 / total) * budget).round() as usize).max(1);
        let (c3, c4) = (share(alloc.c3), share(alloc.c4));
        self.workers = [
            1,
            share(alloc.c1),
            share(alloc.c2),
            (c4 / 2).max(1),
            (c3 / 2).max(1),
            (c4 - c4 / 2).max(1),
            (c3 - c3 / 2).max(1),
            1,
        ];
        self
    }
}

/// Everything one epoch consumes. The executor takes ownership; results
/// (including the trained parameters) come back in the [`ExecReport`].
pub struct EpochTask {
    pub graph: Arc<Csr>,
    pub labels: Arc<Vec<u16>>,
    /// Seed batches in epoch order (the training-node ordering stage's
    /// output, e.g. from `bgl_sampler::TrainOrdering::epoch_batches`).
    pub batches: Vec<Vec<NodeId>>,
    pub cluster: StoreCluster,
    pub cache: FeatureCacheEngine,
    pub model: Box<dyn GnnModel + Send>,
    pub opt: Adam,
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// What a pipeline run measured and produced.
#[derive(Debug)]
pub struct ExecReport {
    /// Batches handed to the pipeline.
    pub batches_requested: usize,
    /// Batches that completed the train stage.
    pub batches_trained: usize,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Per-stage busy nanoseconds (service time only; queue waits excluded).
    pub stage_busy_ns: [u64; 8],
    /// Per-stage completed batch counts.
    pub stage_batches: [u64; 8],
    /// Batch indices in the order the train stage applied them.
    pub train_order: Vec<usize>,
    /// Per-step losses, parallel to `train_order`.
    pub losses: Vec<f32>,
    /// Sampled-subgraph fingerprints indexed by batch index (0 where the
    /// batch never reached the sample stage).
    pub digests: Vec<u64>,
    /// Flattened model parameters after the run.
    pub params: Vec<f32>,
    /// Store-layer reliability counters accumulated during the epoch.
    pub robustness: bgl_sim::network::RobustnessStats,
    /// Cache totals at the end of the run.
    pub cache: bgl_cache::CacheStats,
    /// True when the run ended via [`ExecHandle::stop`] rather than drain.
    pub stopped: bool,
}

impl ExecReport {
    /// End-to-end throughput in batches per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.batches_trained as f64 / s
        }
    }

    /// Mean measured service time per stage in nanoseconds per batch.
    pub fn mean_service_ns(&self) -> [u64; 8] {
        std::array::from_fn(|i| {
            self.stage_busy_ns[i]
                .checked_div(self.stage_batches[i])
                .unwrap_or(0)
        })
    }

    /// Feed the measured per-stage service times back into the tandem-queue
    /// model with the given pool sizes and buffer capacity, and predict the
    /// same run — the simulator-vs-executor validation loop.
    pub fn predict(&self, workers: &[usize; 8], buffer_cap: usize) -> PipelineReport {
        TandemPipeline::from_measured(
            &STAGE_NAMES,
            &self.mean_service_ns(),
            workers,
            buffer_cap,
        )
        .run(self.batches_trained.max(1))
    }
}

// ---------------------------------------------------------------------------
// Shared state and the stage functions (used by BOTH the threaded and the
// serial path — that sharing is what makes the differential test meaningful)
// ---------------------------------------------------------------------------

struct TrainOut {
    params: Vec<f32>,
    losses: Vec<f32>,
    order: Vec<usize>,
}

struct Shared {
    stop: Arc<AtomicBool>,
    error: Mutex<Option<ExecError>>,
    graph: Arc<Csr>,
    labels: Arc<Vec<u16>>,
    sampler: NeighborSampler,
    cluster: Mutex<StoreCluster>,
    cache: Mutex<FeatureCacheEngine>,
    dim: usize,
    seed: u64,
    worker_loc: usize,
    synthetic_ns: [u64; 8],
    faults: Option<ExecFaultPlan>,
    stage_busy_ns: [AtomicU64; 8],
    stage_batches: [AtomicU64; 8],
    digests: Mutex<Vec<u64>>,
    train_out: Mutex<Option<TrainOut>>,
    obs: bgl_obs::Registry,
    ctr_sampled_edges: bgl_obs::Counter,
    ctr_subgraph_edges: bgl_obs::Counter,
    ctr_miss_rows: bgl_obs::Counter,
    ctr_pcie_bytes: bgl_obs::Counter,
    ctr_trained: bgl_obs::Counter,
}

impl Shared {
    #[allow(clippy::too_many_arguments)]
    fn new(
        cfg: &ExecConfig,
        graph: Arc<Csr>,
        labels: Arc<Vec<u16>>,
        num_batches: usize,
        cluster: StoreCluster,
        cache: FeatureCacheEngine,
        obs: bgl_obs::Registry,
        stop: Arc<AtomicBool>,
    ) -> Self {
        let worker_loc = cluster.worker_location();
        let dim = cache.dim();
        Shared {
            stop,
            error: Mutex::new(None),
            graph,
            labels,
            sampler: NeighborSampler::new(cfg.fanouts.clone()).with_metrics(&obs),
            cluster: Mutex::new(cluster),
            cache: Mutex::new(cache),
            dim,
            seed: cfg.seed,
            worker_loc,
            synthetic_ns: cfg.synthetic_stage_ns,
            faults: cfg.faults.clone(),
            stage_busy_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            stage_batches: std::array::from_fn(|_| AtomicU64::new(0)),
            digests: Mutex::new(vec![0; num_batches]),
            train_out: Mutex::new(None),
            ctr_sampled_edges: obs.counter("exec.sample.edges"),
            ctr_subgraph_edges: obs.counter("exec.subgraph.edges"),
            ctr_miss_rows: obs.counter("exec.fetch.miss_rows"),
            ctr_pcie_bytes: obs.counter("exec.pcie.bytes"),
            ctr_trained: obs.counter("exec.batches.trained"),
            obs,
        }
    }

    /// Record the first failure and stop the pipeline.
    fn fail(&self, e: ExecError) {
        let mut slot = self.error.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(e);
        }
        self.stop.store(true, Ordering::Relaxed);
    }

    fn lock_cluster(&self) -> std::sync::MutexGuard<'_, StoreCluster> {
        self.cluster.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, FeatureCacheEngine> {
        self.cache.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Per-batch RNG stream: keyed by `(seed, batch index)` only, so sampling
/// is identical no matter which worker (or how many) runs the stage.
fn batch_rng(seed: u64, idx: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Every inter-stage item carries its batch index; [`process_one`] reads it
/// for seeded panic injection (tear the pipeline at exactly `(stage, batch)`).
trait Indexed {
    fn index(&self) -> usize;
}

impl Indexed for (usize, Vec<NodeId>) {
    fn index(&self) -> usize {
        self.0
    }
}

macro_rules! impl_indexed {
    ($($t:ty),*) => {
        $(impl Indexed for $t {
            fn index(&self) -> usize {
                self.idx
            }
        })*
    };
}

struct Task {
    idx: usize,
    seeds: Vec<NodeId>,
}

struct Sampled {
    idx: usize,
    mb: MiniBatch,
}

struct Built {
    idx: usize,
    mb: MiniBatch,
    labels: Vec<u16>,
    structure_bytes: u64,
}

struct Looked {
    idx: usize,
    mb: MiniBatch,
    labels: Vec<u16>,
    structure_bytes: u64,
    pending: bgl_cache::PendingFetch,
}

struct Fetched {
    idx: usize,
    mb: MiniBatch,
    labels: Vec<u16>,
    structure_bytes: u64,
    pending: bgl_cache::PendingFetch,
    rows: bgl_graph::FeatureBlock,
}

struct Ready {
    idx: usize,
    mb: MiniBatch,
    labels: Vec<u16>,
    structure_bytes: u64,
    features: Vec<f32>,
}

struct Loaded {
    idx: usize,
    mb: MiniBatch,
    labels: Vec<u16>,
    input: Matrix,
}

impl_indexed!(Task, Sampled, Built, Looked, Fetched, Ready, Loaded);

fn stage_sample(sh: &Shared, t: Task) -> Result<Sampled, ExecError> {
    let mut rng = batch_rng(sh.seed, t.idx);
    let mb = sh.sampler.sample(&sh.graph, &t.seeds, &mut rng);
    sh.ctr_sampled_edges.add(mb.num_edges() as u64);
    let digest = mb.digest();
    sh.digests.lock().unwrap_or_else(|p| p.into_inner())[t.idx] = digest;
    Ok(Sampled { idx: t.idx, mb })
}

fn stage_subgraph(sh: &Shared, s: Sampled) -> Result<Built, ExecError> {
    // Seed labels in seed order (what the loss consumes).
    let labels: Vec<u16> = s.mb.seeds.iter().map(|&v| sh.labels[v as usize]).collect();
    let structure_bytes = s.mb.structure_bytes() as u64;
    // The construct-subgraphs work of Fig. 10 stage 2: reindex the input
    // frontier into a local-ID subgraph (format conversion).
    let sub = InducedSubgraph::induce(&sh.graph, s.mb.input_nodes());
    sh.ctr_subgraph_edges.add(sub.graph.num_edges() as u64);
    Ok(Built { idx: s.idx, mb: s.mb, labels, structure_bytes })
}

fn stage_lookup(sh: &Shared, b: Built) -> Result<Looked, ExecError> {
    let pending = sh.lock_cache().lookup_batch(0, b.mb.input_nodes());
    Ok(Looked {
        idx: b.idx,
        mb: b.mb,
        labels: b.labels,
        structure_bytes: b.structure_bytes,
        pending,
    })
}

fn stage_fetch(sh: &Shared, l: Looked) -> Result<Fetched, ExecError> {
    let rows = if l.pending.is_complete() {
        bgl_graph::FeatureBlock::new(sh.dim, 0)
    } else {
        let missing = l.pending.missing_keys();
        let (rows, _elapsed) = sh
            .lock_cluster()
            .fetch_features(missing, sh.worker_loc)
            .map_err(|error| ExecError::Store { stage: STAGE_NAMES[4], error })?;
        sh.ctr_miss_rows.add(missing.len() as u64);
        rows
    };
    Ok(Fetched {
        idx: l.idx,
        mb: l.mb,
        labels: l.labels,
        structure_bytes: l.structure_bytes,
        pending: l.pending,
        rows,
    })
}

fn stage_admit(sh: &Shared, f: Fetched) -> Result<Ready, ExecError> {
    let res = sh.lock_cache().complete_batch(f.pending, &f.rows);
    Ok(Ready {
        idx: f.idx,
        mb: f.mb,
        labels: f.labels,
        structure_bytes: f.structure_bytes,
        features: res.features,
    })
}

fn stage_transfer(sh: &Shared, r: Ready) -> Result<Loaded, ExecError> {
    let rows = r.features.len() / sh.dim;
    let feature_bytes = (r.features.len() * std::mem::size_of::<f32>()) as u64;
    // The host→device copy of Fig. 10 stages 5/7: materialize the training
    // input in its final layout and account both PCIe flows.
    let input = Matrix::from_vec(rows, sh.dim, r.features);
    sh.ctr_pcie_bytes.add(feature_bytes + r.structure_bytes);
    Ok(Loaded { idx: r.idx, mb: r.mb, labels: r.labels, input })
}

/// Run one item through stage `stage`: synthetic floor, span, busy-time
/// accounting, panic capture (including injected panics from a fault plan).
fn process_one<I: Indexed, O>(
    stage: usize,
    sh: &Shared,
    item: I,
    f: impl FnOnce(&Shared, I) -> Result<O, ExecError>,
) -> Result<O, ExecError> {
    let idx = item.index();
    let span = sh.obs.span(SPAN_NAMES[stage]);
    let t0 = Instant::now();
    if sh.synthetic_ns[stage] > 0 {
        std::thread::sleep(Duration::from_nanos(sh.synthetic_ns[stage]));
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = &sh.faults {
            plan.maybe_panic(stage, idx);
        }
        f(sh, item)
    }));
    sh.stage_busy_ns[stage].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    span.end();
    match result {
        Ok(Ok(out)) => {
            sh.stage_batches[stage].fetch_add(1, Ordering::Relaxed);
            Ok(out)
        }
        Ok(Err(e)) => Err(e),
        Err(payload) => Err(ExecError::StagePanic {
            stage: STAGE_NAMES[stage],
            stage_index: stage,
            message: panic_message(payload),
        }),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn train_one(
    sh: &Shared,
    item: Loaded,
    model: &mut (dyn GnnModel + Send),
    opt: &mut Adam,
) -> Result<(usize, f32), ExecError> {
    let (loss, _acc) = model.train_step(&item.mb, &item.input, &item.labels, opt);
    sh.ctr_trained.incr();
    Ok((item.idx, loss))
}

// ---------------------------------------------------------------------------
// Threaded executor
// ---------------------------------------------------------------------------

/// A running pipeline. Call [`ExecHandle::join`] to wait for drain (or
/// failure), [`ExecHandle::stop`] for early shutdown.
pub struct ExecHandle {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    started: Instant,
    batches_requested: usize,
}

impl ExecHandle {
    /// Raise the stop flag: every blocked channel operation observes it
    /// within one poll tick and unwinds, full buffers or not.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
    }

    /// Wait for every stage thread, then assemble the report. Returns the
    /// first stage failure if the pipeline died.
    pub fn join(self) -> Result<ExecReport, ExecError> {
        for t in self.threads {
            // Worker bodies catch panics; a join error here would mean the
            // harness itself tore down, which fail() has already recorded.
            let _ = t.join();
        }
        let wall = self.started.elapsed();
        finish(self.shared, wall, self.batches_requested)
    }
}

fn finish(
    shared: Arc<Shared>,
    wall: Duration,
    batches_requested: usize,
) -> Result<ExecReport, ExecError> {
    if let Some(e) = shared.error.lock().unwrap_or_else(|p| p.into_inner()).take() {
        return Err(e);
    }
    let sh = &shared;
    let stopped = sh.stop.load(Ordering::Relaxed);
    let train = sh
        .train_out
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .take()
        .unwrap_or(TrainOut { params: Vec::new(), losses: Vec::new(), order: Vec::new() });
    let robustness = sh.lock_cluster().robustness;
    let cache = *sh.lock_cache().stats();
    // Surface the store's reliability ledger through the executor's own
    // namespace at join.
    bgl_obs::Mirror::attach(&sh.obs, "exec.store").publish(&robustness);
    let report = ExecReport {
        batches_requested,
        batches_trained: train.order.len(),
        wall,
        stage_busy_ns: std::array::from_fn(|i| sh.stage_busy_ns[i].load(Ordering::Relaxed)),
        stage_batches: std::array::from_fn(|i| sh.stage_batches[i].load(Ordering::Relaxed)),
        train_order: train.order,
        losses: train.losses,
        digests: sh.digests.lock().unwrap_or_else(|p| p.into_inner()).clone(),
        params: train.params,
        robustness,
        cache,
        stopped,
    };
    Ok(report)
}

fn spawn_pool<I: Indexed + Send + 'static, O: Send + 'static>(
    stage: usize,
    workers: usize,
    sh: &Arc<Shared>,
    rx: Receiver<I>,
    tx: Sender<O>,
    f: fn(&Shared, I) -> Result<O, ExecError>,
    threads: &mut Vec<JoinHandle<()>>,
) {
    for w in 0..workers.max(1) {
        let sh = Arc::clone(sh);
        let rx = rx.clone();
        let tx = tx.clone();
        let handle = std::thread::Builder::new()
            .name(format!("bgl-exec-{}-{}", STAGE_NAMES[stage], w))
            .spawn(move || {
                while let Some(item) = rx.recv() {
                    match process_one(stage, &sh, item, f) {
                        Ok(out) => {
                            if tx.send(out).is_err() {
                                break;
                            }
                        }
                        Err(e) => {
                            sh.fail(e);
                            break;
                        }
                    }
                }
            })
            .expect("spawn stage worker");
        threads.push(handle);
    }
    // The original rx/tx drop here; channel sender/receiver counts now
    // reflect exactly the pool's workers.
}

/// Check that `ckpt` was produced by a run identical to the one `cfg` and
/// the task describe — same seed, fanouts, batch plan and model shape.
/// Resuming a mismatched checkpoint would silently break the determinism
/// contract, so every divergence is a typed error.
fn validate_resume(
    cfg: &ExecConfig,
    ckpt: &Checkpoint,
    fingerprint: u64,
    num_batches: usize,
    param_len: usize,
) -> Result<(), CkptError> {
    if ckpt.seed != cfg.seed {
        return Err(CkptError::Mismatch(format!(
            "checkpoint seed {} != config seed {}",
            ckpt.seed, cfg.seed
        )));
    }
    if ckpt.fanouts != cfg.fanouts {
        return Err(CkptError::Mismatch(format!(
            "checkpoint fanouts {:?} != config fanouts {:?}",
            ckpt.fanouts, cfg.fanouts
        )));
    }
    if ckpt.batches_fingerprint != fingerprint {
        return Err(CkptError::Mismatch(
            "checkpoint batch plan differs from the task's seed batches".to_string(),
        ));
    }
    if ckpt.num_batches as usize != num_batches {
        return Err(CkptError::Mismatch(format!(
            "checkpoint expects {} batches, task has {}",
            ckpt.num_batches, num_batches
        )));
    }
    if ckpt.params.len() != param_len {
        return Err(CkptError::Mismatch(format!(
            "checkpoint has {} params, model has {}",
            ckpt.params.len(),
            param_len
        )));
    }
    if ckpt.cursor as usize > num_batches {
        return Err(CkptError::Mismatch(format!(
            "checkpoint cursor {} beyond {} batches",
            ckpt.cursor, num_batches
        )));
    }
    Ok(())
}

/// Start the threaded pipeline on `task`. Worker pools, buffer bounds and
/// synthetic delays come from `cfg`; metrics and spans go to `reg`.
///
/// Panics if a configured checkpoint directory cannot be opened — a fresh
/// spawn has no other failure mode; use [`spawn_resumed`] for the fallible
/// resume path.
pub fn spawn(cfg: &ExecConfig, task: EpochTask, reg: &bgl_obs::Registry) -> ExecHandle {
    spawn_inner(cfg, task, reg, None).expect("open checkpoint store")
}

/// Start the pipeline mid-epoch from `ckpt`: model parameters and Adam
/// state are restored, the order stage skips the first `ckpt.cursor`
/// batches, and the train stage's reorder buffer resumes at that cursor
/// with the checkpointed losses/order/digests already in place — the
/// continuation is bitwise-identical to never having crashed.
pub fn spawn_resumed(
    cfg: &ExecConfig,
    task: EpochTask,
    ckpt: &Checkpoint,
    reg: &bgl_obs::Registry,
) -> Result<ExecHandle, CkptError> {
    spawn_inner(cfg, task, reg, Some(ckpt))
}

/// [`spawn_resumed`] + join: restore from `ckpt`, run the remainder of the
/// epoch, return the completed report.
pub fn resume_from(
    cfg: &ExecConfig,
    task: EpochTask,
    ckpt: &Checkpoint,
    reg: &bgl_obs::Registry,
) -> Result<ExecReport, ExecError> {
    spawn_resumed(cfg, task, ckpt, reg)?.join()
}

fn spawn_inner(
    cfg: &ExecConfig,
    task: EpochTask,
    reg: &bgl_obs::Registry,
    resume: Option<&Checkpoint>,
) -> Result<ExecHandle, CkptError> {
    let stop = Arc::new(AtomicBool::new(false));
    let EpochTask { graph, labels, batches, cluster, cache, mut model, mut opt } = task;
    let batches_requested = batches.len();
    let fingerprint = fingerprint_batches(&batches);

    // Resume: restore parameters + optimizer, and precompute the state the
    // train stage starts from.
    let mut start_cursor = 0usize;
    let mut preload_losses: Vec<f32> = Vec::new();
    let mut preload_order: Vec<usize> = Vec::new();
    let mut preload_digests: Vec<u64> = Vec::new();
    if let Some(ckpt) = resume {
        validate_resume(cfg, ckpt, fingerprint, batches_requested, model.param_vec().len())?;
        model.load_param_vec(&ckpt.params);
        ckpt.opt.restore_into(&mut opt);
        start_cursor = ckpt.cursor as usize;
        preload_losses = ckpt.losses.clone();
        preload_order = ckpt.train_order.iter().map(|&i| i as usize).collect();
        preload_digests = ckpt.digests.clone();
        reg.counter("exec.ckpt.resumes").incr();
    }

    let sh = Arc::new(Shared::new(
        cfg,
        graph,
        labels,
        batches_requested,
        cluster,
        cache,
        reg.clone(),
        Arc::clone(&stop),
    ));
    if !preload_digests.is_empty() {
        sh.digests.lock().unwrap_or_else(|p| p.into_inner())[..start_cursor]
            .copy_from_slice(&preload_digests);
    }
    let cap = cfg.buffer_cap.max(1);
    let workers = {
        let mut w = cfg.workers.map(|x| x.max(1));
        w[0] = 1;
        w[7] = 1;
        w
    };
    let gauge = |name: &str| reg.gauge(&format!("exec.queue.{name}.depth"));

    let (tx_sample, rx_sample) = channel::<Task>(cap, Arc::clone(&stop), gauge("sample"));
    let (tx_sub, rx_sub) = channel::<Sampled>(cap, Arc::clone(&stop), gauge("subgraph"));
    let (tx_look, rx_look) = channel::<Built>(cap, Arc::clone(&stop), gauge("cache-lookup"));
    let (tx_fetch, rx_fetch) = channel::<Looked>(cap, Arc::clone(&stop), gauge("store-fetch"));
    let (tx_admit, rx_admit) = channel::<Fetched>(cap, Arc::clone(&stop), gauge("cache-admit"));
    let (tx_xfer, rx_xfer) = channel::<Ready>(cap, Arc::clone(&stop), gauge("transfer"));
    let (tx_train, rx_train) = channel::<Loaded>(cap, Arc::clone(&stop), gauge("train"));

    let mut threads = Vec::new();

    // Dedicated checkpoint writer: the train stage enqueues snapshots and
    // returns to the hot path immediately; all filesystem work (encode,
    // temp file, fsync, rename, prune) happens here. Opening the store is
    // the only fallible step of a fresh spawn, so it runs before any stage
    // thread starts.
    let ckpt_tx: Option<Sender<Checkpoint>> = if let Some(policy) = &cfg.ckpt {
        let store = CheckpointStore::open(policy, reg)?;
        let (tx, rx) = channel::<Checkpoint>(4, Arc::clone(&stop), gauge("ckpt"));
        let faults = cfg.faults.clone();
        let ctr_errors = reg.counter("exec.ckpt.write_errors");
        threads.push(
            std::thread::Builder::new()
                .name("bgl-exec-ckpt".to_string())
                .spawn(move || {
                    let mut nth = 0usize;
                    while let Some(ckpt) = rx.recv() {
                        // Seeded chaos: the nth write may be torn — a
                        // truncated file left at the final path, modeling a
                        // crash mid-write without atomic rename.
                        let torn = faults
                            .as_ref()
                            .filter(|p| p.tears_at(nth))
                            .and_then(|p| p.torn_keep_bytes(nth, ckpt.encode().len()));
                        let res = match torn {
                            Some(keep) => store.write_torn(&ckpt, keep).map(|_| ()),
                            None => store.write(&ckpt).map(|_| ()),
                        };
                        if res.is_err() {
                            ctr_errors.incr();
                        }
                        nth += 1;
                    }
                })
                .expect("spawn checkpoint writer"),
        );
        Some(tx)
    } else {
        None
    };

    // Stage 0 — order (source): emit the precomputed seed batches in epoch
    // order, skipping any prefix a resume checkpoint already applied. Its
    // "service" is just the ordering bookkeeping (plus any synthetic
    // floor); channel blocking time is not counted as busy.
    {
        let sh = Arc::clone(&sh);
        let tx = tx_sample.clone();
        threads.push(
            std::thread::Builder::new()
                .name("bgl-exec-order".to_string())
                .spawn(move || {
                    for (idx, seeds) in batches.into_iter().enumerate().skip(start_cursor) {
                        match process_one(0, &sh, (idx, seeds), |_, (idx, seeds)| {
                            Ok(Task { idx, seeds })
                        }) {
                            Ok(t) => {
                                if tx.send(t).is_err() {
                                    break;
                                }
                            }
                            Err(e) => {
                                sh.fail(e);
                                break;
                            }
                        }
                    }
                })
                .expect("spawn order stage"),
        );
        drop(tx_sample);
    }

    spawn_pool(1, workers[1], &sh, rx_sample, tx_sub, stage_sample, &mut threads);
    spawn_pool(2, workers[2], &sh, rx_sub, tx_look, stage_subgraph, &mut threads);
    spawn_pool(3, workers[3], &sh, rx_look, tx_fetch, stage_lookup, &mut threads);
    spawn_pool(4, workers[4], &sh, rx_fetch, tx_admit, stage_fetch, &mut threads);
    spawn_pool(5, workers[5], &sh, rx_admit, tx_xfer, stage_admit, &mut threads);
    spawn_pool(6, workers[6], &sh, rx_xfer, tx_train, stage_transfer, &mut threads);

    // Stage 7 — train (sink): a reorder buffer delivers batches to the
    // model strictly in index order, so the optimizer trajectory is
    // identical to the serial path no matter how stages interleave. The
    // buffer only absorbs out-of-order *skew* (bounded by total pipeline
    // capacity): while the next expected index is missing we block on
    // recv, so a slow train stage still backpressures upstream.
    //
    // On a resume the buffer starts at the checkpoint cursor with the
    // checkpointed losses/order preloaded; checkpoint snapshots are taken
    // here (the only thread with the model and optimizer) and handed to
    // the writer thread — snapshotting is a memory copy, never I/O.
    {
        let sh = Arc::clone(&sh);
        let mut model = model;
        let mut opt = opt;
        let every = cfg.ckpt.as_ref().map(|p| p.every_batches.max(1));
        let kill_at = cfg.faults.as_ref().and_then(|p| p.kill_batch());
        let seed = cfg.seed;
        let fanouts = cfg.fanouts.clone();
        threads.push(
            std::thread::Builder::new()
                .name("bgl-exec-train".to_string())
                .spawn(move || {
                    let mut pending: BTreeMap<usize, Loaded> = BTreeMap::new();
                    let mut next = start_cursor;
                    let mut losses = preload_losses;
                    let mut order = preload_order;
                    'outer: loop {
                        while let Some(item) = pending.remove(&next) {
                            match process_one(7, &sh, item, |sh, it| {
                                train_one(sh, it, model.as_mut(), &mut opt)
                            }) {
                                Ok((idx, loss)) => {
                                    order.push(idx);
                                    losses.push(loss);
                                    next += 1;
                                    if let (Some(every), Some(tx)) = (every, ckpt_tx.as_ref()) {
                                        if next.is_multiple_of(every) {
                                            let digests = sh
                                                .digests
                                                .lock()
                                                .unwrap_or_else(|p| p.into_inner())[..next]
                                                .to_vec();
                                            let snap = Checkpoint {
                                                seed,
                                                fanouts: fanouts.clone(),
                                                batches_fingerprint: fingerprint,
                                                num_batches: batches_requested as u64,
                                                cursor: next as u64,
                                                params: model.param_vec(),
                                                opt: AdamState::capture(&opt),
                                                losses: losses.clone(),
                                                train_order: order
                                                    .iter()
                                                    .map(|&i| i as u64)
                                                    .collect(),
                                                digests,
                                            };
                                            // A failed send means the pipeline
                                            // is stopping; the writer drains
                                            // whatever was already queued.
                                            let _ = tx.send(snap);
                                        }
                                    }
                                    if kill_at == Some(idx) {
                                        // Injected crash: raise the stop flag
                                        // exactly as a dying process would
                                        // leave the pipeline — no error is
                                        // recorded, the report says `stopped`.
                                        sh.stop.store(true, Ordering::Relaxed);
                                        break 'outer;
                                    }
                                }
                                Err(e) => {
                                    sh.fail(e);
                                    break 'outer;
                                }
                            }
                        }
                        match rx_train.recv() {
                            Some(item) => {
                                pending.insert(item.idx, item);
                            }
                            None => break,
                        }
                    }
                    // Drop our checkpoint sender so the writer thread sees
                    // the channel close and drains.
                    drop(ckpt_tx);
                    *sh.train_out.lock().unwrap_or_else(|p| p.into_inner()) =
                        Some(TrainOut { params: model.param_vec(), losses, order });
                })
                .expect("spawn train stage"),
        );
    }

    Ok(ExecHandle { shared: sh, threads, started: Instant::now(), batches_requested })
}

/// Run the threaded pipeline to completion.
pub fn run(cfg: &ExecConfig, task: EpochTask, reg: &bgl_obs::Registry) -> Result<ExecReport, ExecError> {
    spawn(cfg, task, reg).join()
}

/// The all-stages-on-one-thread baseline: the *same* stage functions, the
/// same accounting, run inline in batch order. This is both the §3.4
/// no-pipelining baseline and the reference side of the differential test.
///
/// Fault-plan kill/panic injection applies here too (the chaos tests
/// compare both paths); checkpoint *writing* does not — the serial path is
/// the reference trajectory, not a recoverable production run.
pub fn run_serial(
    cfg: &ExecConfig,
    task: EpochTask,
    reg: &bgl_obs::Registry,
) -> Result<ExecReport, ExecError> {
    let stop = Arc::new(AtomicBool::new(false));
    let EpochTask { graph, labels, batches, cluster, cache, mut model, mut opt } = task;
    let batches_requested = batches.len();
    let sh = Arc::new(Shared::new(
        cfg,
        graph,
        labels,
        batches_requested,
        cluster,
        cache,
        reg.clone(),
        Arc::clone(&stop),
    ));
    let started = Instant::now();
    let mut losses = Vec::new();
    let mut order = Vec::new();
    let mut failure = None;
    let kill_at = cfg.faults.as_ref().and_then(|p| p.kill_batch());

    for (idx, seeds) in batches.into_iter().enumerate() {
        let step = (|| -> Result<(usize, f32), ExecError> {
            let t = process_one(0, &sh, (idx, seeds), |_, (idx, seeds)| Ok(Task { idx, seeds }))?;
            let s = process_one(1, &sh, t, stage_sample)?;
            let b = process_one(2, &sh, s, stage_subgraph)?;
            let l = process_one(3, &sh, b, stage_lookup)?;
            let f = process_one(4, &sh, l, stage_fetch)?;
            let r = process_one(5, &sh, f, stage_admit)?;
            let loaded = process_one(6, &sh, r, stage_transfer)?;
            process_one(7, &sh, loaded, |sh, it| train_one(sh, it, model.as_mut(), &mut opt))
        })();
        match step {
            Ok((i, loss)) => {
                order.push(i);
                losses.push(loss);
                if kill_at == Some(i) {
                    sh.stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    *sh.train_out.lock().unwrap_or_else(|p| p.into_inner()) =
        Some(TrainOut { params: model.param_vec(), losses, order });
    if let Some(e) = failure {
        sh.fail(e);
    }
    finish(sh, started.elapsed(), batches_requested)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_gauge() -> bgl_obs::Gauge {
        bgl_obs::Gauge::noop()
    }

    #[test]
    fn channel_round_trips_in_order() {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel::<usize>(2, stop, test_gauge());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        drop(tx);
        assert_eq!(rx.recv(), None, "closed channel drains then ends");
    }

    #[test]
    fn bounded_send_blocks_until_recv() {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel::<usize>(1, stop, test_gauge());
        tx.send(0).unwrap();
        let t = std::thread::spawn(move || {
            // Blocks until the receiver drains one slot.
            tx.send(1).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "send must block on a full buffer");
        assert_eq!(rx.recv(), Some(0));
        t.join().unwrap();
        assert_eq!(rx.recv(), Some(1));
    }

    #[test]
    fn stop_wakes_blocked_sender() {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, _rx) = channel::<usize>(1, Arc::clone(&stop), test_gauge());
        tx.send(0).unwrap();
        let t = std::thread::spawn(move || tx.send(1));
        std::thread::sleep(Duration::from_millis(10));
        stop.store(true, Ordering::Relaxed);
        let r = t.join().unwrap();
        assert!(r.is_err(), "stop must fail the blocked send");
    }

    #[test]
    fn receiver_drop_fails_send() {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel::<usize>(1, stop, test_gauge());
        drop(rx);
        assert!(tx.send(7).is_err(), "no receivers -> send errors");
    }

    #[test]
    fn batch_rng_is_keyed_by_index_only() {
        let mut a = batch_rng(42, 3);
        let mut b = batch_rng(42, 3);
        let mut c = batch_rng(42, 4);
        let (xa, xb, xc): (u64, u64, u64) = (a.random(), b.random(), c.random());
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn scaled_allocation_keeps_order_and_train_single() {
        let alloc = crate::allocator::solve(
            &crate::StageProfile::paper_example(),
            &crate::allocator::Capacities::paper_testbed(),
        );
        let cfg = ExecConfig::new(vec![5, 5], 7).scaled_to(&alloc, 8);
        assert_eq!(cfg.workers[0], 1);
        assert_eq!(cfg.workers[7], 1);
        assert!(cfg.workers.iter().all(|&w| w >= 1));
        // The sampling pool should get a material share on 8 cores.
        assert!(cfg.workers[1] >= 1);
    }
}
