//! The benchmark's public names: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repository root lists the same names;
//! `tests/smoke.rs` fails when the two drift apart.

use crate::params::LEG_NAMES;
use crate::report::Outcome;
use bgl_exec::STAGE_NAMES;
use bgl_obs::json::Json;

/// Every workload the harness runs.
pub const WORKLOADS: [&str; 4] = ["train-remote", "train-local", "serve-sweep", "ingest-mixed"];

/// The workloads `BENCHMARK.json` lists, i.e. the ones a later change is
/// gated on. `ingest-mixed` is not among them: its wall-clock numbers are
/// bounded by the fsync latency of the sandbox's disk, which drifts by tens
/// of percent over minutes (README.md, "ingest-mixed").
pub const GATED_WORKLOADS: [(&str, &str); 3] = [
    (
        "train-remote",
        "working set larger than both caches: 4 TCP store servers, r=2, f16 rows, disk tier; bgl-net, the wire codec, the buffer pool and the cache miss path all work under the threaded pipeline",
    ),
    (
        "train-local",
        "working set fits the cache: in-process store, r=1, f32, no disk; bypasses net/codec/bufpool, so sampler, subgraph build and kernels do the work; a store/net/disk change predicts no change here",
    ),
    (
        "serve-sweep",
        "the same sampler, cache, store and forward pass used latency-bound with tiny batches behind ServeFrontend over TCP: a change that buys batch throughput with deeper buffers shows its cost here",
    ),
];

/// `run_seconds` in `BENCHMARK.json`: the default `--seconds`.
pub const RUN_SECONDS: f64 = 35.0;

/// One bit per workload, in [`WORKLOADS`] order: which workloads' runs must
/// produce a metric.
const TR: u8 = 1;
const TL: u8 = 2;
const SV: u8 = 4;
const IN: u8 = 8;
const TRAIN: u8 = TR | TL;
const ALL: u8 = TR | TL | SV | IN;

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// "higher" or "lower".
    pub better: &'static str,
    /// Workloads that must produce it; the others report 0.
    by: u8,
}

fn def(name: &str, unit: &'static str, better: &'static str, by: u8) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        by,
    }
}

/// End-to-end metrics, each with the share of the parent's median by which
/// it may get worse before a change counts as a regression. Every workload
/// reports every one; what each means per workload is in README.md.
///
/// Bounds: at least twice the widest interquartile spread (as a share of
/// the median) any gated workload showed over ten seeds on the reference
/// host, which for the timing metrics is the contract's cap of 0.25
/// (README.md, "Calibration" has the measured spreads).
pub fn end_to_end() -> Vec<(MetricDef, f64)> {
    vec![
        (def("ops_per_s", "1/s", "higher", ALL), 0.25),
        (def("latency_p50_ms", "ms", "lower", ALL), 0.25),
        (def("peak_rss_mb", "MB", "lower", ALL), 0.2),
        (def("setup_s", "s", "lower", ALL), 0.25),
    ]
}

/// Per-layer metrics, one block per crate, each with the workloads whose
/// traced run must produce it.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        // The workload-specific headline names of the issue. Every workload
        // must report every end-to-end metric, so the bounded list above is
        // generic and these sit here, unbounded.
        def("train_seeds_per_s", "seeds/s", "higher", TRAIN),
        def("serve_p50_ms", "ms", "lower", SV),
        def("serve_p99_ms", "ms", "lower", SV),
        def("serve_max_ok_rate_hz", "Hz", "higher", SV),
        def("serve_goodput_rps", "req/s", "higher", SV),
        def("ingest_ops_per_s", "ops/s", "higher", IN),
        def("ingest_ack_p99_ms", "ms", "lower", IN),
        def("ops_failed_share", "ratio", "lower", ALL),
        // bgl-sampler
        def("sampler.calls", "count", "lower", TRAIN),
        def("sampler.busy_ms", "ms", "lower", TRAIN),
        def("sampler.edges", "count", "lower", TRAIN),
        def("sampler.input_nodes_mean", "count", "lower", TRAIN),
        def("sampler.ns_per_edge", "ns", "lower", TRAIN),
        // bgl-graph
        def("graph.induce.calls", "count", "lower", TRAIN),
        def("graph.induce.busy_ms", "ms", "lower", TRAIN),
        def("graph.induce.edges", "count", "lower", TRAIN),
        def("graph.induce.ns_per_edge", "ns", "lower", TRAIN),
        // bgl-cache
        def("cache.lookup.busy_ms", "ms", "lower", TRAIN),
        def("cache.admit.busy_ms", "ms", "lower", TRAIN),
        def("cache.lookups", "count", "lower", TRAIN | IN),
        def("cache.misses", "count", "lower", TRAIN | IN),
        def("cache.hit_ratio", "ratio", "higher", TRAIN | IN),
        def("cache.gpu_hit_ratio", "ratio", "higher", TRAIN | IN),
        def("cache.ns_per_lookup", "ns", "lower", TRAIN),
        def("cache.invalidations", "count", "lower", TRAIN | IN),
        // bgl-store, client side
        def("store.fetch.calls", "count", "lower", TRAIN | IN),
        def("store.fetch.busy_ms", "ms", "lower", TRAIN | IN),
        def("store.fetch.self_ms", "ms", "lower", TRAIN),
        def("store.fetch.rows", "count", "lower", TRAIN | IN),
        def("store.fetch.retries", "count", "lower", TRAIN | IN),
        def("store.fetch.failovers", "count", "lower", TRAIN | IN),
        def("store.codec.encode_ns_per_row", "ns", "lower", TR | SV),
        def("store.codec.decode_ns_per_row", "ns", "lower", TR | SV),
        // bgl-store, disk tier
        def("store.disk.pool_hit_ratio", "ratio", "higher", TR | SV | IN),
        def("store.disk.page_reads", "count", "lower", TR | SV | IN),
        def("store.disk.evictions", "count", "lower", TR | SV | IN),
        def("store.disk.write_amp", "ratio", "lower", IN),
        def("store.disk.checkpoint_ms", "ms", "lower", TR | SV | IN),
        def("store.wal.appends", "count", "lower", IN),
        def("store.wal.fsyncs", "count", "lower", IN),
        def("store.wal.bytes", "bytes", "lower", IN),
        // bgl-net
        def("net.call.count", "count", "lower", TR | SV),
        def("net.call.busy_ms", "ms", "lower", TR | SV),
        def("net.call.us_p50", "us", "lower", TR | SV),
        def("net.call.us_p99", "us", "lower", TR | SV),
        def("net.bytes_sent", "bytes", "lower", TR | SV),
        def("net.bytes_received", "bytes", "lower", TR | SV),
        def("net.bytes_per_seed", "bytes", "lower", TR | SV),
        def("net.frame.encode_ns", "ns", "lower", TR | SV),
        def("net.frame.decode_ns", "ns", "lower", TR | SV),
        def("net.reconcile_ok", "bool", "higher", TR | SV),
        // bgl-gnn / bgl-tensor
        def("gnn.train_step.calls", "count", "lower", TRAIN),
        def("gnn.train_step.busy_ms", "ms", "lower", TRAIN),
        def("gnn.train_step.ms_p50", "ms", "lower", TRAIN),
        def("gnn.forward.ms_p50", "ms", "lower", SV),
        def("gnn.flops_per_step", "flop", "lower", TRAIN),
        def("gnn.gflops", "GFLOP/s", "higher", TRAIN),
        def("tensor.matmul.replay_ms", "ms", "lower", TRAIN),
        def("tensor.threads", "count", "higher", TRAIN | SV),
    ];
    // bgl-exec
    for stage in STAGE_NAMES {
        v.push(def(&format!("exec.busy_ms.{stage}"), "ms", "lower", TRAIN));
    }
    for stage in STAGE_NAMES {
        v.push(def(&format!("exec.util.{stage}"), "ratio", "lower", TRAIN));
    }
    v.extend([
        def("exec.bottleneck", "index", "lower", TRAIN),
        def("exec.pipeline_eff", "ratio", "higher", TRAIN),
        def("exec.serial_over_threaded", "ratio", "higher", TRAIN),
        def("exec.other_share", "ratio", "lower", TRAIN),
        def("exec.epoch_s_iqr", "s", "lower", TRAIN),
    ]);
    // bgl-serve
    for leg in LEG_NAMES {
        v.push(def(&format!("serve.{leg}.p50_ms"), "ms", "lower", SV));
        v.push(def(&format!("serve.{leg}.p99_ms"), "ms", "lower", SV));
        v.push(def(
            &format!("serve.{leg}.shed_share"),
            "ratio",
            "lower",
            SV,
        ));
        v.push(def(
            &format!("serve.{leg}.goodput_rps"),
            "req/s",
            "higher",
            SV,
        ));
        v.push(def(
            &format!("serve.{leg}.mean_batch"),
            "count",
            "higher",
            SV,
        ));
    }
    v.extend([
        def("serve.gen_late_us_p99", "us", "lower", SV),
        def("serve.infer_ms.b1", "ms", "lower", SV),
        def("serve.infer_ms.b16", "ms", "lower", SV),
        def("serve.wait_ms_p50", "ms", "lower", SV),
        // bgl-ingest
        def("ingest.apply.busy_ms", "ms", "lower", IN),
        def("ingest.apply.us_p50", "us", "lower", IN),
        def("ingest.remerge.calls", "count", "lower", IN),
        def("ingest.remerge.busy_ms", "ms", "lower", IN),
        def("ingest.read.busy_ms", "ms", "lower", IN),
        def("ingest.read.rows_per_s", "rows/s", "higher", IN),
        def("ingest.rejected", "count", "lower", IN),
        def("ingest.invalidations", "count", "lower", IN),
        def("ingest.migrate.committed", "count", "higher", IN),
        def("ingest.migrate.aborted", "count", "lower", IN),
        def("ingest.migrate.copy_bytes", "bytes", "lower", IN),
        def("ingest.stall_ms_max", "ms", "lower", IN),
        // bgl-partition
        def("partition.busy_s", "s", "lower", ALL),
        def("partition.edge_cut", "ratio", "lower", ALL),
        def("partition.train_balance", "ratio", "lower", ALL),
        // the tracing itself
        def("trace.overhead_share", "ratio", "lower", TRAIN),
        def("trace.spans", "count", "lower", ALL),
    ]);
    v
}

/// `BENCHMARK.json`, generated so that it cannot drift from the names above
/// (`bgl-bench manifest`; `tests/smoke.rs` compares it with the committed
/// file).
pub fn manifest() -> Json {
    let s = |x: &str| Json::Str(x.to_string());
    let command = ["bash", "crates/bgl-bench/run.sh"];
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths".into(), Json::Arr(vec![s("crates/bgl-bench")])),
        ("run_seconds".into(), Json::U64(RUN_SECONDS as u64)),
        (
            "workloads".into(),
            Json::Arr(
                GATED_WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::Obj(vec![("name".into(), s(name)), ("why".into(), s(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                end_to_end()
                    .iter()
                    .map(|(d, bound)| {
                        Json::Obj(vec![
                            ("name".into(), s(&d.name)),
                            ("unit".into(), s(d.unit)),
                            ("better".into(), s(d.better)),
                            ("bound".into(), Json::F64(*bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|d| {
                        Json::Obj(vec![
                            ("name".into(), s(&d.name)),
                            ("unit".into(), s(d.unit)),
                            ("better".into(), s(d.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The metrics a run of `workload` reports: end-to-end when untraced,
/// per-layer when traced.
fn wanted(traced: bool) -> Vec<MetricDef> {
    if traced {
        per_layer()
    } else {
        end_to_end().into_iter().map(|(d, _)| d).collect()
    }
}

/// Fail the run when it did not produce a metric this workload must
/// produce, then give the metrics it does not exercise the value 0, so
/// that the result line always carries the whole list. A metric the run
/// withheld (an invalid serve leg) counts as produced.
pub fn complete(workload: &str, traced: bool, out: &mut Outcome) {
    let bit = 1u8
        << WORKLOADS
            .iter()
            .position(|w| *w == workload)
            .expect("parse checked the workload name");
    let mut missing = Vec::new();
    for d in wanted(traced) {
        if out.metrics.contains_key(&d.name) {
            continue;
        }
        if d.by & bit != 0 {
            missing.push(d.name.clone());
        }
        out.put(&d.name, 0.0, d.unit);
    }
    out.check(
        "ledger.every_metric_produced",
        missing.is_empty(),
        format!("metrics {workload} must produce and did not: {missing:?}"),
    );
}

/// The builder contract's result line: `correct`, `attempted`, `failed`
/// and the end-to-end (untraced) or per-layer (traced) metrics.
pub fn contract_line(out: &Outcome, traced: bool) -> String {
    let metrics = wanted(traced)
        .iter()
        .map(|d| {
            let m = out.metrics.get(&d.name);
            (
                d.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::F64(m.map_or(0.0, |m| m.value))),
                    ("unit".into(), Json::Str(d.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct())),
        ("attempted".into(), Json::U64(out.attempted.max(1))),
        ("failed".into(), Json::U64(out.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}
