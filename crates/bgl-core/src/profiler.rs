//! Closing the §3.4 loop: a *measured* [`StageProfile`].
//!
//! The paper's resource allocator is profiling-based — `min max{T1/c1,
//! T2/c2, T_net, T3/c3, D_I/b_I, f(c4), D_II/b_II, T_gpu}` consumes
//! per-stage measurements taken from a short profiling run (§3.4). Until
//! now the repo's allocator only ever saw the hand-coded
//! [`StageProfile::paper_example`]; this module runs the *real* pipeline
//! stages on a synthetic dataset, times each with wall clocks, and fits
//! the cache stage's non-linear scaling law `f(c) = a/c + d` from timed
//! replays at several shard/core counts — so `figures --profile` can feed
//! an actually-measured profile into the same brute-force solver.
//!
//! Every stage is wrapped in [`bgl_obs`] spans, so a profiling run with an
//! enabled registry also yields a chrome-trace timeline of the pipeline.

use crate::experiments::{DatasetId, ExperimentCtx};
use crate::measure::{make_ordering, make_partitioner};
use crate::systems::SystemKind;
use bgl_cache::{CacheStats, PolicyKind, QueueShardedCache};
use bgl_exec::StageProfile;
use bgl_graph::{InducedSubgraph, NodeId};
use bgl_sim::as_secs;
use bgl_sim::network::NetworkModel;
use bgl_store::StoreCluster;
use std::hint::black_box;
use std::time::Instant;

/// One timed cache replay: `seconds_per_batch` at a given shard count.
#[derive(Clone, Copy, Debug)]
pub struct CacheScalingSample {
    pub cores: usize,
    pub seconds_per_batch: f64,
}

/// A profile measured from the real data path, plus the raw cache-scaling
/// samples the `cache_a`/`cache_d` fit was derived from.
#[derive(Clone, Debug)]
pub struct MeasuredProfile {
    pub dataset: &'static str,
    pub num_batches: usize,
    pub batch_size: usize,
    /// The fitted per-stage quantities, directly consumable by
    /// [`bgl_exec::allocator::solve`].
    pub profile: StageProfile,
    /// The timed cache replays behind `cache_a`/`cache_d`.
    pub cache_samples: Vec<CacheScalingSample>,
    /// RMS error of the `a/c + d` fit over the samples (seconds).
    pub fit_residual: f64,
    /// Total wall time of the profiling run.
    pub wall_seconds: f64,
    /// Wire/cache precision D_II was charged at.
    pub feature_precision: bgl_graph::FeaturePrecision,
}

/// Least-squares fit of `T(c) = a/c + d` over `(cores, seconds)` samples:
/// ordinary least squares in `x = 1/c`, with both coefficients clamped to
/// ≥ 0 (a negative parallel fraction or serial floor is measurement
/// noise, not physics). Returns `(a, d, rms_residual)`.
pub fn fit_inverse_cores(samples: &[CacheScalingSample]) -> (f64, f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    if samples.len() == 1 {
        return (0.0, samples[0].seconds_per_batch.max(0.0), 0.0);
    }
    let n = samples.len() as f64;
    let xs: Vec<f64> = samples.iter().map(|s| 1.0 / s.cores.max(1) as f64).collect();
    let ts: Vec<f64> = samples.iter().map(|s| s.seconds_per_batch).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let mt = ts.iter().sum::<f64>() / n;
    let var_x = xs.iter().map(|x| (x - mx) * (x - mx)).sum::<f64>();
    let cov = xs
        .iter()
        .zip(&ts)
        .map(|(x, t)| (x - mx) * (t - mt))
        .sum::<f64>();
    let mut a = if var_x > 0.0 { cov / var_x } else { 0.0 };
    if a < 0.0 {
        a = 0.0;
    }
    let d = (mt - a * mx).max(0.0);
    let residual = (xs
        .iter()
        .zip(&ts)
        .map(|(x, t)| {
            let e = a * x + d - t;
            e * e
        })
        .sum::<f64>()
        / n)
        .sqrt();
    (a, d, residual)
}

impl ExperimentCtx {
    /// Run the real pipeline stages on `id` and measure a [`StageProfile`]
    /// with wall clocks. `cores` lists the shard counts to time the cache
    /// stage at (the `f(c4) = a/c + d` fit needs ≥ 2 distinct counts).
    ///
    /// Stage mapping (Fig. 10):
    /// * `t1` — distributed `sample_batch` across the store cluster (the
    ///   servers' sampling work, including the per-owner fan-out);
    /// * `t2` — inducing the batch subgraph on the input frontier;
    /// * `t3` — gathering the frontier's feature rows (the worker-side
    ///   format-conversion stand-in: same memory-bound row movement);
    /// * `t_net` / `d_i` / `d_ii` — from measured wire/structure/miss
    ///   bytes, charged at the saturated-NIC rate `measure.rs` uses;
    /// * `cache_a`/`cache_d` — fitted from timed [`QueueShardedCache`]
    ///   replays of the measured input streams at each shard count;
    /// * `cache_knee`/`cache_degrade` — the paper's observed knee (≈ 40
    ///   cores, §3.4) and its degrade/parallel-work ratio (4·10⁻⁴ of
    ///   `cache_a` per core past the knee): the knee is a property of a
    ///   96-core NUMA box that a bench-scale run cannot reach, so these
    ///   two stay paper-calibrated while everything else is measured;
    /// * `t_gpu` — measured GraphSAGE FLOPs on the V100 device model.
    pub fn profile_stages(&self, id: DatasetId, cores: &[usize]) -> MeasuredProfile {
        let obs = &self.obs;
        let wall0 = Instant::now();
        let total_span = obs.span("profile.stages");
        let ds = self.dataset(id);
        let sys = SystemKind::Bgl.config();

        // --- Partition + distributed store, mirroring measure_data_path. ---
        let part_span = obs.span("profile.partition");
        let partitioner = make_partitioner(sys.partitioner, self.seed);
        let partition = partitioner.partition(&ds.graph, &ds.split.train, id.partitions());
        part_span.end();
        let mut cluster = StoreCluster::new(
            ds.graph.clone(),
            ds.features.clone(),
            &partition,
            NetworkModel::paper_fabric(),
            self.seed,
        );
        cluster.attach_metrics(obs);

        let ordering = make_ordering(sys.ordering, sys.po_sequences, self.batch_size, self.seed);
        let seed_batches =
            ordering.epoch_batches(&ds.graph, &ds.split.train, self.batch_size, 0);

        let dim = ds.features.dim();
        // Missed-feature bytes at the configured wire precision: f16 rows
        // cost half of f32, which is exactly what halves D_II.
        let bytes_per_node = (dim * self.feature_precision.bytes_per_scalar()) as f64;
        let hidden = 128usize;
        let mut dims = vec![dim];
        dims.extend(std::iter::repeat_n(hidden, self.fanouts.len().saturating_sub(1)));
        dims.push(ds.num_classes);

        // --- Timed pass over the mini-batch stream. ---
        let mut t1_total = 0.0f64;
        let mut t2_total = 0.0f64;
        let mut t3_total = 0.0f64;
        let mut flops_total = 0.0f64;
        let mut nodes_total = 0usize;
        let mut struct_total = 0usize;
        let mut streams: Vec<Vec<NodeId>> = Vec::new();
        for seeds in seed_batches.iter().take(self.num_batches) {
            let _batch_span = obs.span("profile.batch");
            let by_owner = cluster.group_by_owner(seeds).expect("seed inside partition map");

            let span1 = obs.span("profile.sample");
            let s1 = Instant::now();
            let mut input_nodes: Vec<NodeId> = Vec::new();
            let mut seen: std::collections::HashSet<NodeId> =
                std::collections::HashSet::new();
            for (home, (_, group)) in by_owner {
                let (mb, _timing) = cluster
                    .sample_batch(&self.fanouts, &group, home)
                    .expect("no failure injection while profiling");
                for &v in &mb.blocks[0].src_nodes {
                    if seen.insert(v) {
                        input_nodes.push(v);
                    }
                }
                nodes_total += mb.blocks.iter().map(|b| b.num_dst()).sum::<usize>();
                struct_total += mb.structure_bytes();
                flops_total +=
                    bgl_gnn::flops::batch_flops(bgl_gnn::ModelKind::GraphSage, &mb, &dims);
            }
            t1_total += s1.elapsed().as_secs_f64();
            span1.end();

            let span2 = obs.span("profile.induce");
            let s2 = Instant::now();
            let sub = InducedSubgraph::induce(&ds.graph, &input_nodes);
            t2_total += s2.elapsed().as_secs_f64();
            black_box(sub.num_nodes());
            span2.end();

            let span3 = obs.span("profile.gather");
            let s3 = Instant::now();
            let rows = ds.features.gather(&input_nodes);
            t3_total += s3.elapsed().as_secs_f64();
            black_box(rows.len());
            span3.end();

            streams.push(input_nodes);
        }
        let n = streams.len().max(1) as f64;
        let avg_remote_bytes = cluster.ledger.remote.bytes as f64 / n;

        // --- Cache-stage scaling: timed replays at each shard count. ---
        let warmup = streams.len() / 3;
        let mut cache_samples = Vec::with_capacity(cores.len());
        // Fallback D_II (cacheless): every frontier node misses.
        let mut d_ii = streams
            .iter()
            .skip(warmup)
            .map(|s| s.len() as f64 * bytes_per_node)
            .sum::<f64>()
            / (streams.len() - warmup).max(1) as f64;
        for &c in cores {
            let c = c.max(1);
            let cache_span = if obs.is_enabled() {
                obs.span_named(format!("profile.cache.c{}", c))
            } else {
                obs.span("profile.cache")
            };
            // 10% aggregate capacity split across shards, 1-wide rows: the
            // replay times the cache *machinery* (dedup, shard fan-out,
            // queue round-trips, admission), not feature memcpy.
            let per_shard = (ds.graph.num_nodes() / 10 / c).max(1);
            let cache = QueueShardedCache::new(c, 1, per_shard, PolicyKind::Fifo);
            cache.attach_metrics(obs);
            let mut src = |ids: &[NodeId]| vec![0.0f32; ids.len()];
            let mut timed = 0.0f64;
            let mut timed_batches = 0u64;
            let mut at_warmup = CacheStats::default();
            for (i, nodes) in streams.iter().enumerate() {
                if i == warmup {
                    at_warmup = cache.stats();
                }
                let t = Instant::now();
                let out = cache.fetch_batch(nodes, &mut src);
                let dt = t.elapsed().as_secs_f64();
                black_box(out.len());
                if i >= warmup {
                    timed += dt;
                    timed_batches += 1;
                }
            }
            let end = cache.shutdown();
            if c == 1 && timed_batches > 0 {
                // Steady-state missed-feature bytes per batch, from the
                // post-warmup unique-miss count at real feature width.
                let tail = end.delta_since(&at_warmup);
                d_ii = tail.misses as f64 * bytes_per_node / timed_batches as f64;
            }
            cache_samples.push(CacheScalingSample {
                cores: c,
                seconds_per_batch: timed / timed_batches.max(1) as f64,
            });
            cache_span.end();
        }
        let (cache_a, cache_d, fit_residual) = fit_inverse_cores(&cache_samples);

        // --- Assemble the profile. ---
        let avg_nodes = nodes_total as f64 / n;
        let activation_bytes = (avg_nodes * 128.0 * 4.0 * 3.0) as usize;
        let t_gpu = as_secs(self.machine.gpu.kernel_time(
            flops_total / n * sys.cost.gpu_factor,
            activation_bytes,
        ));
        let profile = StageProfile {
            t1: t1_total / n,
            t2: t2_total / n,
            // Saturated-NIC serialization of sampling traffic + missed
            // features (same rate measure.rs charges the shared stage).
            t_net: avg_remote_bytes / 11.0e9 + d_ii / 11.0e9,
            t3: t3_total / n,
            d_i: struct_total as f64 / n,
            cache_a,
            cache_d,
            cache_knee: 40,
            cache_degrade: cache_a * 4e-4,
            d_ii,
            t_gpu,
        };
        total_span.end();
        MeasuredProfile {
            dataset: id.name(),
            num_batches: streams.len(),
            batch_size: self.batch_size,
            profile,
            cache_samples,
            fit_residual,
            wall_seconds: wall0.elapsed().as_secs_f64(),
            feature_precision: self.feature_precision,
        }
    }
}

impl MeasuredProfile {
    /// Serialize for `figures --profile` (`profile_stages.json`) —
    /// rendered through [`bgl_obs::json`] so the artifact is identical
    /// under every build of the workspace.
    pub fn to_json(&self) -> String {
        use bgl_obs::json::Json;
        let p = &self.profile;
        let samples = self
            .cache_samples
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("cores".to_string(), Json::U64(s.cores as u64)),
                    (
                        "seconds_per_batch".to_string(),
                        Json::F64(s.seconds_per_batch),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("dataset".to_string(), Json::Str(self.dataset.to_string())),
            ("num_batches".to_string(), Json::U64(self.num_batches as u64)),
            ("batch_size".to_string(), Json::U64(self.batch_size as u64)),
            ("wall_seconds".to_string(), Json::F64(self.wall_seconds)),
            ("fit_residual".to_string(), Json::F64(self.fit_residual)),
            (
                "feature_precision".to_string(),
                Json::Str(
                    match self.feature_precision {
                        bgl_graph::FeaturePrecision::F32 => "f32",
                        bgl_graph::FeaturePrecision::F16 => "f16",
                    }
                    .to_string(),
                ),
            ),
            ("cache_samples".to_string(), Json::Arr(samples)),
            (
                "profile".to_string(),
                Json::Obj(vec![
                    ("t1".to_string(), Json::F64(p.t1)),
                    ("t2".to_string(), Json::F64(p.t2)),
                    ("t_net".to_string(), Json::F64(p.t_net)),
                    ("t3".to_string(), Json::F64(p.t3)),
                    ("d_i".to_string(), Json::F64(p.d_i)),
                    ("cache_a".to_string(), Json::F64(p.cache_a)),
                    ("cache_d".to_string(), Json::F64(p.cache_d)),
                    ("cache_knee".to_string(), Json::U64(p.cache_knee as u64)),
                    ("cache_degrade".to_string(), Json::F64(p.cache_degrade)),
                    ("d_ii".to_string(), Json::F64(p.d_ii)),
                    ("t_gpu".to_string(), Json::F64(p.t_gpu)),
                ]),
            ),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(cores: usize, t: f64) -> CacheScalingSample {
        CacheScalingSample { cores, seconds_per_batch: t }
    }

    #[test]
    fn fit_recovers_known_coefficients() {
        let samples: Vec<_> =
            [1usize, 2, 4, 8].iter().map(|&c| s(c, 0.9 / c as f64 + 0.1)).collect();
        let (a, d, r) = fit_inverse_cores(&samples);
        assert!((a - 0.9).abs() < 1e-9, "a = {}", a);
        assert!((d - 0.1).abs() < 1e-9, "d = {}", d);
        assert!(r < 1e-9, "residual = {}", r);
    }

    #[test]
    fn fit_clamps_nonphysical_slopes() {
        // Times *growing* with cores would fit a < 0; clamp to zero.
        let samples = vec![s(1, 0.1), s(2, 0.2), s(4, 0.4)];
        let (a, d, _) = fit_inverse_cores(&samples);
        assert_eq!(a, 0.0);
        assert!(d > 0.0);
    }

    #[test]
    fn fit_degenerate_inputs() {
        assert_eq!(fit_inverse_cores(&[]), (0.0, 0.0, 0.0));
        let (a, d, r) = fit_inverse_cores(&[s(4, 0.25)]);
        assert_eq!((a, r), (0.0, 0.0));
        assert!((d - 0.25).abs() < 1e-12);
    }

    #[test]
    fn f16_precision_halves_profiled_d_ii() {
        let ctx32 = ExperimentCtx::small();
        let mut ctx16 = ExperimentCtx::small();
        ctx16.feature_precision = bgl_graph::FeaturePrecision::F16;
        let p32 = ctx32.profile_stages(DatasetId::Products, &[1]);
        let p16 = ctx16.profile_stages(DatasetId::Products, &[1]);
        // Same seed, same streams, same miss counts — only the per-node
        // byte width differs, so D_II halves exactly.
        assert!(p32.profile.d_ii > 0.0);
        assert_eq!(p16.profile.d_ii * 2.0, p32.profile.d_ii);
        let art = bgl_obs::json::parse(&p16.to_json()).expect("artifact parses");
        assert_eq!(
            art.get("feature_precision").and_then(|j| j.as_str()),
            Some("f16")
        );
    }

    #[test]
    fn profiled_stages_are_positive_and_traced() {
        let mut ctx = ExperimentCtx::small();
        ctx.obs = bgl_obs::Registry::enabled();
        let m = ctx.profile_stages(DatasetId::Products, &[1, 2]);
        let p = &m.profile;
        assert!(m.num_batches > 0);
        assert!(p.t1 > 0.0 && p.t2 > 0.0 && p.t3 > 0.0, "wall times: {:?}", p);
        assert!(p.d_i > 0.0 && p.d_ii >= 0.0 && p.t_gpu > 0.0);
        assert_eq!(p.cache_knee, 40);
        assert!(p.cache_a >= 0.0 && p.cache_d >= 0.0);
        assert_eq!(m.cache_samples.len(), 2);
        assert!(m.cache_samples.iter().all(|s| s.seconds_per_batch > 0.0));
        assert!(m.wall_seconds > 0.0);
        // The run left a trace: spans recorded, exporter emits valid JSON.
        assert!(ctx.obs.span_count() > 0);
        let trace = ctx.obs.chrome_trace_json();
        let parsed = bgl_obs::json::parse(&trace).expect("trace parses");
        assert!(!parsed.as_array().expect("array").is_empty());
        // The artifact serializer emits valid JSON too.
        let art = bgl_obs::json::parse(&m.to_json()).expect("artifact parses");
        assert!(art.get("profile").is_some());
    }
}
