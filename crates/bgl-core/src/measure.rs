//! Drive the real data path and derive end-to-end performance.
//!
//! Two phases, split so the expensive part is shared:
//!
//! 1. [`measure_data_path`] — run partitioning, stand up the distributed
//!    store, and sample a stream of mini-batches under the system's
//!    training-node ordering, recording per-batch work (nodes sampled,
//!    edges built, structure bytes, simulated sampling wire time) and the
//!    input-node streams. This depends on (dataset, system) only.
//! 2. [`MeasuredSystem::derive`] — for a given model and GPU count, replay
//!    the input-node streams through the system's cache configuration,
//!    convert work into a [`StageProfile`] via the system's CPU cost
//!    constants, solve (or skip) resource isolation, and simulate the
//!    8-stage pipeline on the V100/NIC/PCIe device models.

use crate::config::{ModelKind, OrderingKind, PartitionerKind, SystemConfig};
use bgl_cache::{CacheStats, FeatureCacheEngine};
use bgl_exec::allocator::{solve, Capacities, ContentionModel};
use bgl_exec::build::{simulate, SystemReport};
use bgl_exec::StageProfile;
use bgl_graph::{Dataset, NodeId};
use bgl_obs::Ledger;
use bgl_partition::{
    BglPartitioner, GMinerPartitioner, MetisLikePartitioner, Partition, Partitioner,
    RandomPartitioner,
};
use bgl_sampler::{ProximityAware, RandomShuffle, TrainOrdering};
use bgl_sim::devices::{GpuSpec, LinkSpec, MachineSpec};
use bgl_sim::network::NetworkModel;
use bgl_sim::{as_secs, SimTime};
use bgl_store::StoreCluster;
use std::time::{Duration, Instant};

/// Replay `streams` through `engine`, batch `i` on worker `i % shards`, and
/// return the merged stats of all but the first third. That third (≥ 1
/// epoch) is warm-up: the paper's ratios are steady-state over long runs
/// (its footnote 4 likewise averages "when the cache is stable after
/// several batches"), and counting compulsory first-touch misses would
/// penalize every dynamic policy relative to the pre-warmed static cache.
pub(crate) fn replay_tail<'a>(
    engine: &mut FeatureCacheEngine,
    shards: usize,
    streams: impl ExactSizeIterator<Item = &'a [NodeId]>,
) -> CacheStats {
    let warmup = streams.len() / 3;
    let mut src = |ids: &[NodeId]| vec![0.0f32; ids.len()];
    let mut tail = CacheStats::default();
    for (i, input) in streams.enumerate() {
        let res = engine.fetch_batch(i % shards, input, &mut src);
        if i >= warmup {
            tail.merge(&res.stats);
        }
    }
    tail
}

/// Per-batch data-path record.
#[derive(Clone, Debug)]
pub struct BatchTrace {
    /// Input-frontier node IDs (feature fetch set).
    pub input_nodes: Vec<NodeId>,
    /// Total destination nodes across hops (sampling requests served).
    pub sampled_nodes: usize,
    /// Total sampled edges (subgraph construction work).
    pub sampled_edges: usize,
    /// Encoded subgraph structure bytes (the D_I payload).
    pub structure_bytes: usize,
    /// Simulated wire time of the distributed sampling (includes
    /// per-message latency — used for the Table 3 epoch metric).
    pub sample_wire: SimTime,
    /// Bytes of sampling traffic that crossed servers for this batch
    /// (bandwidth component — used for the pipeline's shared network
    /// stage, where per-message latency is hidden by pipelining).
    pub sample_remote_bytes: u64,
    /// Cross-server sampling requests issued for this batch.
    pub sample_remote_requests: u64,
    /// Per-model forward+backward FLOPs, indexed by `ModelKind as usize`.
    pub flops: [f64; 3],
}

/// The shared measurement of one (dataset, system) pair.
pub struct DataPathTrace {
    pub partition_wall: Duration,
    pub partition: Partition,
    pub batches: Vec<BatchTrace>,
    pub requests_per_server: Vec<u64>,
    pub graph_nodes: usize,
    pub feature_dim: usize,
    pub batch_size: usize,
    /// Training nodes per epoch (for per-epoch extrapolation).
    pub train_size: usize,
    /// Degree-ranked nodes (for the static cache).
    pub hot_nodes: Vec<NodeId>,
}

/// Build the partitioner named by the config.
pub fn make_partitioner(kind: PartitionerKind, seed: u64) -> Box<dyn Partitioner> {
    match kind {
        PartitionerKind::Random => Box::new(RandomPartitioner::new(seed)),
        PartitionerKind::MetisLike => Box::new(MetisLikePartitioner::default()),
        PartitionerKind::GMiner => Box::new(GMinerPartitioner::default()),
        PartitionerKind::Bgl => Box::new(BglPartitioner::default()),
    }
}

/// Build the ordering named by the config.
pub fn make_ordering(
    kind: OrderingKind,
    po_sequences: usize,
    batch_size: usize,
    seed: u64,
) -> Box<dyn TrainOrdering> {
    match kind {
        OrderingKind::RandomShuffle => Box::new(RandomShuffle::new(seed)),
        OrderingKind::ProximityAware => {
            Box::new(ProximityAware::for_batch(po_sequences.max(1), batch_size, seed))
        }
    }
}

/// Phase 1: run the real data path for `num_batches` mini-batches.
#[allow(clippy::too_many_arguments)]
pub fn measure_data_path(
    ds: &Dataset,
    sys: &SystemConfig,
    k_partitions: usize,
    fanouts: &[usize],
    batch_size: usize,
    num_batches: usize,
    seed: u64,
    obs: &bgl_obs::Registry,
) -> DataPathTrace {
    // Single-machine systems colocate the store with the worker: one
    // partition, loopback fabric.
    let k = if sys.single_machine { 1 } else { k_partitions.max(1) };
    let t0 = Instant::now();
    let span = obs.span("measure.partition");
    let partitioner = make_partitioner(sys.partitioner, seed);
    let partition = partitioner.partition(&ds.graph, &ds.split.train, k);
    span.end();
    let partition_wall = t0.elapsed();

    let net = if sys.single_machine {
        NetworkModel { local: LinkSpec::loopback(), remote: LinkSpec::loopback() }
    } else {
        NetworkModel::paper_fabric()
    };
    let mut cluster =
        StoreCluster::new(ds.graph.clone(), ds.features.clone(), &partition, net, seed);
    cluster.attach_metrics(obs);

    let ordering = make_ordering(sys.ordering, sys.po_sequences, batch_size, seed);
    let seed_batches = ordering.epoch_batches(&ds.graph, &ds.split.train, batch_size, 0);

    let hidden = 128usize;
    let mut dims = vec![ds.features.dim()];
    dims.extend(std::iter::repeat_n(hidden, fanouts.len() - 1));
    dims.push(ds.num_classes);

    let mut batches = Vec::with_capacity(num_batches);
    let mut remote_before = 0u64;
    for seeds in seed_batches.iter().take(num_batches) {
        let _batch_span = obs.span("measure.batch");
        // Samplers are colocated with the store servers (paper §3.1): each
        // seed's subgraph is sampled by the server owning it, and the
        // per-owner sub-batches proceed in parallel. This is where
        // partition locality pays — a seed whose multi-hop neighborhood
        // stays on its own server samples without touching the network.
        // Owner-ascending issue order keeps the servers' sampling RNG
        // streams (and thus the measured batches) reproducible run to run.
        let by_owner = cluster.group_by_owner(seeds).expect("seed inside partition map");
        let mut input_nodes: Vec<NodeId> = Vec::new();
        let mut seen: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
        let mut sampled_nodes = 0usize;
        let mut sampled_edges = 0usize;
        let mut structure_bytes = 0usize;
        let mut sample_wire: SimTime = 0;
        let mut sample_remote_requests = 0u64;
        let mut flops = [0.0f64; 3];
        for (home, (_, group)) in by_owner {
            let (mb, timing) = cluster
                .sample_batch(fanouts, &group, home)
                .expect("no failure injection during measurement");
            for &v in &mb.blocks[0].src_nodes {
                if seen.insert(v) {
                    input_nodes.push(v);
                }
            }
            sampled_nodes += mb.blocks.iter().map(|b| b.num_dst()).sum::<usize>();
            sampled_edges += mb.num_edges();
            structure_bytes += mb.structure_bytes();
            sample_wire = sample_wire.max(timing.elapsed);
            sample_remote_requests += timing.remote_requests;
            for kind in [ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gat] {
                flops[kind as usize] += bgl_gnn::flops::batch_flops(kind, &mb, &dims);
            }
        }
        let sample_remote_bytes = cluster.ledger.remote.bytes - remote_before;
        remote_before = cluster.ledger.remote.bytes;
        batches.push(BatchTrace {
            input_nodes,
            sampled_nodes,
            sampled_edges,
            structure_bytes,
            sample_wire,
            sample_remote_bytes,
            sample_remote_requests,
            flops,
        });
    }
    DataPathTrace {
        partition_wall,
        partition,
        batches,
        requests_per_server: cluster.requests_per_server(),
        graph_nodes: ds.graph.num_nodes(),
        feature_dim: ds.features.dim(),
        batch_size,
        train_size: ds.split.train.len(),
        hot_nodes: ds.graph.nodes_by_degree_desc(),
    }
}

/// The derived end-to-end result for one (system, model, gpu-count).
#[derive(Clone, Debug)]
pub struct MeasuredSystem {
    pub report: SystemReport,
    pub profile: StageProfile,
    pub stage_times: [f64; 8],
    pub cache: CacheStats,
    /// GPU-or-better cache hit ratio (0 when the system has no cache).
    pub hit_ratio: f64,
    /// Per-mini-batch feature retrieving time in ms (Fig. 14): network
    /// fetch of misses + cache overhead + PCIe transfer.
    pub feature_ms_per_batch: f64,
    /// Graph sampling time per epoch in seconds (Table 3): simulated wire
    /// + CPU sampling time, inflated by the sampler load imbalance.
    pub sampling_epoch_seconds: f64,
    /// One-time partition wall time (Table 4).
    pub partition_wall: Duration,
}

impl MeasuredSystem {
    /// Phase 2: derive the end-to-end numbers for `model` on `num_gpus`.
    pub fn derive(
        trace: &DataPathTrace,
        sys: &SystemConfig,
        model: ModelKind,
        num_gpus: usize,
        machine: &MachineSpec,
    ) -> MeasuredSystem {
        let num_gpus = num_gpus.max(1);
        let dim = trace.feature_dim;
        let bytes_per_node = dim * 4;

        // --- Cache replay over the recorded input-node streams. ---
        let mut cache_stats = CacheStats::default();
        let mut miss_bytes_tail = 0u64;
        let mut tail_batches = 0u64;
        if let Some(cc) = &sys.cache {
            let gpu_cap =
                ((trace.graph_nodes as f64 * cc.gpu_frac).ceil() as usize).max(1);
            let cpu_cap = (trace.graph_nodes as f64 * cc.cpu_frac).ceil() as usize;
            let shards = if cc.sharded_across_gpus { num_gpus } else { 1 };
            let mut engine = FeatureCacheEngine::new(
                shards,
                1, // 1-wide rows: we only need hit/miss accounting here
                gpu_cap,
                cpu_cap,
                cc.policy,
                &trace.hot_nodes,
            );
            let tail = replay_tail(
                &mut engine,
                shards,
                trace.batches.iter().map(|b| b.input_nodes.as_slice()),
            );
            miss_bytes_tail = tail.misses * bytes_per_node as u64;
            tail_batches = tail.batches;
            cache_stats = *engine.stats();
        } else {
            let warmup = trace.batches.len() / 3;
            for (i, b) in trace.batches.iter().enumerate() {
                if i >= warmup {
                    miss_bytes_tail += (b.input_nodes.len() * bytes_per_node) as u64;
                    tail_batches += 1;
                }
            }
            cache_stats.misses = trace
                .batches
                .iter()
                .map(|b| b.input_nodes.len() as u64)
                .sum();
            cache_stats.batches = trace.batches.len() as u64;
        }
        let d_ii = miss_bytes_tail as f64 / tail_batches.max(1) as f64;
        let hit_ratio = cache_stats.hit_ratio();

        // --- Per-batch averages of the measured work. ---
        let n = trace.batches.len().max(1) as f64;
        let avg_nodes =
            trace.batches.iter().map(|b| b.sampled_nodes).sum::<usize>() as f64 / n;
        let avg_edges =
            trace.batches.iter().map(|b| b.sampled_edges).sum::<usize>() as f64 / n;
        let avg_struct =
            trace.batches.iter().map(|b| b.structure_bytes).sum::<usize>() as f64 / n;
        let avg_sample_wire = trace
            .batches
            .iter()
            .map(|b| as_secs(b.sample_wire))
            .sum::<f64>()
            / n;
        let avg_sample_remote_bytes = trace
            .batches
            .iter()
            .map(|b| b.sample_remote_bytes as f64)
            .sum::<f64>()
            / n;
        let avg_flops =
            trace.batches.iter().map(|b| b.flops[model as usize]).sum::<f64>() / n;

        // --- Stage profile from work × framework cost constants. ---
        let cost = sys.cost;
        let gpu_factor = cost.gpu_factor
            * if model == ModelKind::Gat { cost.gat_gpu_factor / cost.gpu_factor.max(1.0) } else { 1.0 };
        // Feature wire time for the misses (workers are never colocated
        // with remote stores; single-machine systems fetch via local mem).
        // The *raw* wire time assumes a saturated link, which only BGL's
        // zero-copy shared-memory transport achieves; other frameworks pay
        // `1/eff − 1` extra in per-worker CPU (gRPC marshalling, pickle),
        // which lands in the replicated worker-CPU stage below.
        let feat_link = if sys.single_machine {
            LinkSpec::loopback()
        } else {
            machine.nic
        };
        let net_eff = cost.net_efficiency.clamp(0.01, 1.0);
        let t_net_features_raw = as_secs(feat_link.transfer_time(d_ii as usize));
        // Per-GPU view of feature fetching (Fig. 14's metric).
        let t_net_features = t_net_features_raw / net_eff;
        // Shared-NIC time per batch, *bandwidth only*: in the pipeline's
        // steady state, per-message latencies are hidden by in-flight
        // batches, so only serialization time gates the shared stage
        // (per-message latency still counts in the Table 3 metric below).
        let wire_bw = |bytes: f64| -> f64 {
            if sys.single_machine {
                bytes / 80.0e9 // loopback memory bandwidth
            } else {
                bytes / 11.0e9 // saturated 100 Gbps NIC
            }
        };
        let t_net_bandwidth = wire_bw(avg_sample_remote_bytes) + wire_bw(d_ii);
        // Framework transport overhead: per-worker CPU time spent to move
        // the batch's bytes (sampling responses + features).
        let transport_cpu =
            (1.0 / net_eff - 1.0) * (t_net_features_raw + avg_sample_wire);
        // Cache overhead folded into the cache stage: a = parallelizable
        // op cost, d = serial remainder (5%).
        let overhead_per_batch_s = if cache_stats.batches > 0 {
            cache_stats.overhead_ns as f64 / cache_stats.batches as f64 / 1e9
        } else {
            0.0
        };
        let gpu = GpuSpec { ..machine.gpu };
        let activation_bytes = (avg_nodes * 128.0 * 4.0 * 3.0) as usize;
        let profile = StageProfile {
            t1: avg_nodes * cost.sample_ns_per_node / 1e9,
            t2: avg_edges * cost.build_ns_per_edge / 1e9,
            t_net: t_net_bandwidth,
            t3: avg_edges * cost.convert_ns_per_edge / 1e9 + transport_cpu,
            d_i: avg_struct,
            cache_a: overhead_per_batch_s * 40.0 * 0.95,
            cache_d: overhead_per_batch_s * 0.05,
            cache_knee: 40,
            cache_degrade: overhead_per_batch_s * 2e-3,
            d_ii,
            t_gpu: as_secs(gpu.kernel_time(avg_flops * gpu_factor, activation_bytes)),
        };

        // --- Isolation vs free contention. ---
        // The store side is `k` separate servers, each with its own CPUs
        // (paper §5.1: 8 or 32 CPU store servers) — store capacity scales
        // with the partition count.
        let caps = Capacities {
            c_gs: machine.store_cores * trace.partition.k.max(1),
            c_wm: machine.worker_cores,
            b_pcie: 12,
            pcie_unit: 12.8e9 / 12.0,
        };
        let stage_times = if sys.isolation {
            solve(&profile, &caps).stage_times
        } else {
            ContentionModel::default().stage_times(&profile, &caps)
        };
        let report = simulate(&stage_times, num_gpus, trace.batch_size, 400, 4);

        // --- Fig. 14: feature retrieving time per batch. ---
        let pcie_s = as_secs(machine.pcie.transfer_time(d_ii as usize));
        let feature_ms_per_batch =
            (t_net_features + overhead_per_batch_s + pcie_s) * 1e3;

        // --- Table 3: sampling time per epoch. ---
        let batches_per_epoch =
            (trace.train_size + trace.batch_size - 1) / trace.batch_size.max(1);
        let imbalance = bgl_partition::metrics::balance_ratio(
            &trace
                .requests_per_server
                .iter()
                .map(|&r| r as usize)
                .collect::<Vec<_>>(),
        );
        let cpu_sampling =
            (profile.t1 + profile.t2) / machine.store_cores.max(1) as f64;
        let avg_remote_reqs = trace
            .batches
            .iter()
            .map(|b| b.sample_remote_requests as f64)
            .sum::<f64>()
            / n;
        // Per-batch sampling time: store-CPU work + cross-server traffic.
        // A remote neighbor request costs wire time *and* serialization /
        // deserialization CPU on both ends (~25 ns/byte, a gRPC-class
        // marshalling rate), plus a fixed per-RPC overhead. The partitioner
        // moves these locality terms and the imbalance factor
        // (training-node balance) — exactly Table 3's levers.
        let remote_cost = avg_sample_remote_bytes / 11.0e9
            + avg_sample_remote_bytes * 25e-9
            + avg_remote_reqs * 100e-6;
        let sampling_epoch_seconds =
            batches_per_epoch as f64 * (cpu_sampling + remote_cost) * imbalance;

        MeasuredSystem {
            report,
            profile,
            stage_times,
            cache: cache_stats,
            hit_ratio,
            feature_ms_per_batch,
            sampling_epoch_seconds,
            partition_wall: trace.partition_wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::SystemKind;
    use bgl_graph::DatasetSpec;

    fn small_ds() -> Dataset {
        DatasetSpec::products_like().with_nodes(1 << 11).build()
    }

    fn trace_for(ds: &Dataset, sys: SystemKind) -> DataPathTrace {
        measure_data_path(ds, &sys.config(), 2, &[5, 5], 64, 6, 9, &bgl_obs::Registry::disabled())
    }

    #[test]
    fn data_path_records_batches() {
        let ds = small_ds();
        let t = trace_for(&ds, SystemKind::Dgl);
        // At most 6 requested; fewer only when the epoch is shorter.
        assert!(!t.batches.is_empty() && t.batches.len() <= 6);
        for b in &t.batches {
            assert!(b.sampled_nodes > 0);
            assert!(b.sampled_edges > 0);
            assert!(!b.input_nodes.is_empty());
            assert!(b.flops.iter().all(|&f| f > 0.0));
        }
    }

    #[test]
    fn bgl_outperforms_dgl_on_throughput() {
        let ds = small_ds();
        let machine = MachineSpec::paper_testbed();
        let t_dgl = trace_for(&ds, SystemKind::Dgl);
        let t_bgl = trace_for(&ds, SystemKind::Bgl);
        let dgl = MeasuredSystem::derive(
            &t_dgl,
            &SystemKind::Dgl.config(),
            ModelKind::GraphSage,
            1,
            &machine,
        );
        let bgl = MeasuredSystem::derive(
            &t_bgl,
            &SystemKind::Bgl.config(),
            ModelKind::GraphSage,
            1,
            &machine,
        );
        assert!(
            bgl.report.samples_per_sec > 2.0 * dgl.report.samples_per_sec,
            "bgl {:.0} should be well above dgl {:.0}",
            bgl.report.samples_per_sec,
            dgl.report.samples_per_sec
        );
        assert!(bgl.hit_ratio > 0.05, "bgl cache should hit, got {}", bgl.hit_ratio);
        assert_eq!(dgl.hit_ratio, 0.0);
    }

    #[test]
    fn cache_cuts_feature_time() {
        let ds = small_ds();
        let machine = MachineSpec::paper_testbed();
        let t_dgl = trace_for(&ds, SystemKind::Dgl);
        let t_bgl = trace_for(&ds, SystemKind::Bgl);
        let dgl = MeasuredSystem::derive(
            &t_dgl,
            &SystemKind::Dgl.config(),
            ModelKind::GraphSage,
            1,
            &machine,
        );
        let bgl = MeasuredSystem::derive(
            &t_bgl,
            &SystemKind::Bgl.config(),
            ModelKind::GraphSage,
            1,
            &machine,
        );
        assert!(
            bgl.feature_ms_per_batch < dgl.feature_ms_per_batch,
            "bgl feature time {:.3}ms !< dgl {:.3}ms",
            bgl.feature_ms_per_batch,
            dgl.feature_ms_per_batch
        );
    }

    #[test]
    fn isolation_helps() {
        let ds = small_ds();
        let machine = MachineSpec::paper_testbed();
        let trace = trace_for(&ds, SystemKind::Bgl);
        let with = MeasuredSystem::derive(
            &trace,
            &SystemKind::Bgl.config(),
            ModelKind::GraphSage,
            4,
            &machine,
        );
        let without = MeasuredSystem::derive(
            &trace,
            &SystemKind::BglNoIsolation.config(),
            ModelKind::GraphSage,
            4,
            &machine,
        );
        assert!(
            with.report.samples_per_sec >= without.report.samples_per_sec,
            "isolation must not hurt: {} vs {}",
            with.report.samples_per_sec,
            without.report.samples_per_sec
        );
    }

    #[test]
    fn more_gpus_grow_bgl_cache_hit_ratio() {
        let ds = small_ds();
        let machine = MachineSpec::paper_testbed();
        let trace = trace_for(&ds, SystemKind::Bgl);
        let cfg = SystemKind::Bgl.config();
        let h1 = MeasuredSystem::derive(&trace, &cfg, ModelKind::GraphSage, 1, &machine)
            .hit_ratio;
        let h8 = MeasuredSystem::derive(&trace, &cfg, ModelKind::GraphSage, 8, &machine)
            .hit_ratio;
        assert!(
            h8 > h1,
            "aggregate sharded cache must grow with GPUs: {} vs {}",
            h8,
            h1
        );
    }
}
