//! Every frozen parameter of the benchmark, in one place.
//!
//! The constants are the same at every scale. [`Params`] holds only what
//! `--smoke` shrinks so that the four workloads finish in seconds under
//! `cargo test`; `Params::full()` is what the committed baseline and every
//! later parent-vs-change pair run with. A later PR may not retune either
//! (README, "Calibration").

use bgl_obs::json::Json;

/// Default workload seed (the builder contract passes its own).
pub const DEFAULT_SEED: u64 = 11;

/// Store servers = graph partitions, on every workload.
pub const PARTS: usize = 4;

pub const FANOUTS: [usize; 2] = [10, 5];
pub const HIDDEN: usize = 64;
pub const LAYERS: usize = 2;
/// `ExecConfig::with_workers`; fixed, not derived from host cores.
pub const WORKERS: [usize; 8] = [1, 2, 2, 1, 1, 1, 1, 1];
pub const BUFFER_CAP: usize = 4;
/// Proximity-aware ordering: BFS sequences interleaved per batch.
pub const PO_SEQUENCES: usize = 5;
/// Distinct epoch orders generated (each costs `PO_SEQUENCES` full-graph
/// BFS passes); later epochs reuse them in rotation.
pub const DISTINCT_ORDERS: usize = 8;
/// train-remote / serve-sweep cache slots as a share of the node count.
pub const GPU_CACHE_FRAC: f64 = 0.05;
pub const CPU_CACHE_FRAC: f64 = 0.10;
/// Disk-tier buffer pool as a share of the tier's pages.
pub const POOL_FRAC: f64 = 0.10;
pub const PAGE_SIZE: u32 = 4096;
/// Batches re-run through `run_serial` for the bitwise check.
pub const SERIAL_PREFIX: usize = 8;
/// Traced train run: epochs the serial reference and the unrolled path
/// cover; the first is warm-up and is left out of the numbers.
pub const TRACE_EPOCHS: usize = 3;
/// Traced runs: request / response frame pairs kept for the codec replay.
pub const CAPTURE_FRAMES: usize = 256;
/// Traced train run: replays of one step's GEMM shapes.
pub const GEMM_REPLAYS: usize = 20;

/// The four serve-sweep legs, in the order they run.
pub const LEG_NAMES: [&str; 4] = ["low", "ref", "high", "over"];
/// Share of `--seconds` each leg runs for in the traced run.
pub const SERVE_LEG_SHARE: [f64; 4] = [0.2, 0.4, 0.2, 0.2];
/// The same for the timed run, which drives only the two legs its numbers
/// are read from (`ref`: latency, `over`: capacity), each for longer.
pub const SERVE_TIMED_LEG_SHARE: [f64; 4] = [0.0, 0.7, 0.0, 0.3];
/// Share of each leg discarded as warm-up.
pub const SERVE_DISCARD_SHARE: f64 = 1.0 / 6.0;
/// Equal windows of a leg's retained part; the leg's p50 / p90 / p99 is the
/// median of the windows' percentiles.
pub const SERVE_WINDOWS: usize = 5;

/// ingest-mixed: `ChurnPlan::mix(edge, node, update)`.
pub const CHURN_MIX: [u32; 3] = [5, 3, 2];
/// ingest-mixed: nodes per locality-biased read batch.
pub const READ_BATCH: usize = 64;
/// ingest-mixed: mutations scheduled per 10 s of `--seconds`; only has to
/// be more than the loop can apply in that time.
pub const CHURN_OPS_PER_10S: usize = 40_000;
/// ingest-mixed: cache slots (one GPU level) as a share of the node count.
pub const INGEST_CACHE_FRAC: f64 = 0.25;

/// What one run was asked to do.
pub struct Ctx<'a> {
    pub p: &'a Params,
    /// The workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
}

/// The parameters `--smoke` changes.
#[derive(Clone, Debug)]
pub struct Params {
    pub smoke: bool,
    /// `DatasetSpec::products_like().with_nodes(nodes)`.
    pub nodes: usize,
    pub batch: usize,
    /// Epochs planned per 10 s of `--seconds` for the timed threaded run;
    /// the run is stopped when the window closes, so this only has to be
    /// more than the stack can finish in that time.
    pub epochs_cap_per_10s: usize,
    /// Set-ups timed per run (`setup_s` is their median).
    pub setup_reps: usize,
    /// serve-sweep: frozen offered rates per leg, Hz.
    pub serve_rates_hz: [f64; 4],
    /// serve-sweep: latency limit, ms (5 x the `low` leg's p50 at
    /// calibration, rounded up to a whole ms).
    pub serve_slo_ms: f64,
    /// serve-sweep: replies compared bitwise with a fresh engine.
    pub serve_checked_replies: usize,
    /// serve-sweep: closed-loop queries before the first leg.
    pub serve_warmup_queries: usize,
    /// serve-sweep traced: direct `infer_batch` calls per batch size.
    pub serve_direct_reps: usize,
    /// ingest-mixed: `IngestConfig`.
    pub remerge_period: usize,
    pub moves_per_period: usize,
    /// ingest-mixed: mutations applied before the timed loop starts.
    pub ingest_warmup_ops: usize,
}

impl Params {
    pub fn full() -> Params {
        Params {
            smoke: false,
            nodes: 1 << 16,
            batch: 128,
            epochs_cap_per_10s: 160,
            setup_reps: 3,
            serve_rates_hz: [300.0, 600.0, 1000.0, 3400.0],
            serve_slo_ms: 8.0,
            serve_checked_replies: 32,
            serve_warmup_queries: 256,
            serve_direct_reps: 64,
            remerge_period: 256,
            moves_per_period: 16,
            ingest_warmup_ops: 256,
        }
    }

    pub fn smoke() -> Params {
        Params {
            smoke: true,
            nodes: 1 << 9,
            batch: 8,
            epochs_cap_per_10s: 2000,
            setup_reps: 1,
            serve_rates_hz: [100.0, 200.0, 400.0, 20_000.0],
            serve_slo_ms: 50.0,
            serve_checked_replies: 8,
            serve_warmup_queries: 32,
            serve_direct_reps: 8,
            remerge_period: 32,
            moves_per_period: 8,
            ingest_warmup_ops: 16,
        }
    }

    /// Every parameter, frozen or not, for the run document.
    pub fn to_json(&self) -> Json {
        let f = Json::F64;
        let u = |x: usize| Json::U64(x as u64);
        let arr = |xs: &[usize]| Json::Arr(xs.iter().map(|&x| u(x)).collect());
        let farr = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| f(x)).collect());
        let s = |x: &str| Json::Str(x.into());
        Json::Obj(vec![
            ("smoke".into(), Json::Bool(self.smoke)),
            ("dataset".into(), s("products_like")),
            ("nodes".into(), u(self.nodes)),
            ("parts".into(), u(PARTS)),
            ("partitioner".into(), s("bgl")),
            ("batch".into(), u(self.batch)),
            ("fanouts".into(), arr(&FANOUTS)),
            ("model".into(), s("graphsage")),
            ("hidden".into(), u(HIDDEN)),
            ("layers".into(), u(LAYERS)),
            ("exec_workers".into(), arr(&WORKERS)),
            ("buffer_cap".into(), u(BUFFER_CAP)),
            ("ordering".into(), s("proximity-aware")),
            ("po_sequences".into(), u(PO_SEQUENCES)),
            ("distinct_orders".into(), u(DISTINCT_ORDERS)),
            ("gpu_cache_frac".into(), f(GPU_CACHE_FRAC)),
            ("cpu_cache_frac".into(), f(CPU_CACHE_FRAC)),
            ("pool_frac".into(), f(POOL_FRAC)),
            ("page_size".into(), u(PAGE_SIZE as usize)),
            ("serial_prefix".into(), u(SERIAL_PREFIX)),
            ("setup_reps".into(), u(self.setup_reps)),
            ("trace_epochs".into(), u(TRACE_EPOCHS)),
            ("capture_frames".into(), u(CAPTURE_FRAMES)),
            ("gemm_replays".into(), u(GEMM_REPLAYS)),
            (
                "warmup_discarded".into(),
                s("train: first epoch; serve: serve_warmup_queries closed-loop queries and the first sixth of each leg; ingest: first ingest_warmup_ops mutations"),
            ),
            ("serve_rates_hz".into(), farr(&self.serve_rates_hz)),
            ("serve_leg_share".into(), farr(&SERVE_LEG_SHARE)),
            ("serve_timed_leg_share".into(), farr(&SERVE_TIMED_LEG_SHARE)),
            ("serve_discard_share".into(), f(SERVE_DISCARD_SHARE)),
            ("serve_slo_ms".into(), f(self.serve_slo_ms)),
            ("serve_checked_replies".into(), u(self.serve_checked_replies)),
            ("serve_windows".into(), u(SERVE_WINDOWS)),
            ("serve_warmup_queries".into(), u(self.serve_warmup_queries)),
            ("serve_direct_reps".into(), u(self.serve_direct_reps)),
            (
                "serve_config".into(),
                s("ServeConfig::default(): max_batch 16, max_delay 500 us, queue_depth 256"),
            ),
            ("remerge_period".into(), u(self.remerge_period)),
            ("moves_per_period".into(), u(self.moves_per_period)),
            (
                "churn_mix".into(),
                Json::Arr(CHURN_MIX.iter().map(|&x| Json::U64(x as u64)).collect()),
            ),
            ("read_batch".into(), u(READ_BATCH)),
            ("ingest_cache_frac".into(), f(INGEST_CACHE_FRAC)),
            ("ingest_warmup_ops".into(), u(self.ingest_warmup_ops)),
        ])
    }
}
