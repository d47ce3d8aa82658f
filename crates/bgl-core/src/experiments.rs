//! One runner per paper table / figure (see DESIGN.md §5 for the index).
//!
//! All runners hang off [`ExperimentCtx`], which caches built datasets and
//! measured data-path traces so the bench harness can sweep models and GPU
//! counts without re-running the expensive phase.

use crate::config::ModelKind;
use crate::measure::{measure_data_path, replay_tail, DataPathTrace, MeasuredSystem};
use crate::systems::SystemKind;
use bgl_cache::{FeatureCacheEngine, PolicyKind};
use bgl_graph::{Dataset, DatasetSpec, NodeId};
use bgl_obs::Ledger;
use bgl_sampler::{NeighborSampler, ProximityAware, RandomShuffle, TrainOrdering};
use bgl_sim::devices::MachineSpec;
use bgl_sim::network::{NetworkModel, RobustnessStats};
use bgl_sim::MILLISECOND;
use bgl_store::{FaultPlan, RetryPolicy, StoreCluster};
use rand::prelude::*;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// The three evaluation datasets (Table 2 stand-ins).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum DatasetId {
    Products,
    Papers,
    UserItem,
}

impl DatasetId {
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Products => "ogbn-products-like",
            DatasetId::Papers => "ogbn-papers-like",
            DatasetId::UserItem => "user-item-like",
        }
    }

    /// Partition counts from Tables 3/4: products (2), papers (4),
    /// User-Item (4).
    pub fn partitions(self) -> usize {
        match self {
            DatasetId::Products => 2,
            _ => 4,
        }
    }
}

/// One epoch's sampled input-node stream, shared between cache configs.
type SharedStream = Arc<Vec<Vec<NodeId>>>;

/// Shared experiment context: scales, machine model, caches.
pub struct ExperimentCtx {
    pub products_nodes: usize,
    pub papers_nodes: usize,
    pub useritem_nodes: usize,
    pub batch_size: usize,
    pub fanouts: Vec<usize>,
    pub num_batches: usize,
    /// Batch size and fanouts for the Fig. 5 cache experiments. At paper
    /// scale one batch's input frontier (~400 K nodes) is far smaller than
    /// a 10% cache of a 111 M-node graph; at laptop scale the full fanout
    /// would make the frontier *larger* than the cache and drown the
    /// ordering effect, so the cache experiments use a lighter workload
    /// that restores the paper's frontier ≪ cache ≪ graph regime.
    pub cache_batch_size: usize,
    pub cache_fanouts: Vec<usize>,
    pub machine: MachineSpec,
    pub seed: u64,
    /// Observability sink for the whole experiment run. Disabled by
    /// default (every counter/span degrades to a no-op); `figures
    /// --profile` and the stage profiler swap in an enabled registry.
    pub obs: bgl_obs::Registry,
    datasets: RefCell<HashMap<DatasetId, Dataset>>,
    traces: RefCell<HashMap<(DatasetId, SystemKind), Arc<DataPathTrace>>>,
    /// Sampled input-node streams per (dataset, proximity-ordering?),
    /// shared across cache configurations: the stream depends only on the
    /// ordering, so Fig. 5's 20+ cache points reuse two sampling passes.
    streams: RefCell<HashMap<(DatasetId, bool), SharedStream>>,
    /// Single-machine memory budget for the OOM rule, scaled to the
    /// synthetic datasets (papers/User-Item stand-ins exceed it, products
    /// does not — mirroring §5.1).
    pub machine_memory: usize,
    /// Scalar precision feature rows travel and cache at. [`FeaturePrecision::F16`]
    /// halves D_II wire bytes and resident cache bytes at a bounded
    /// accuracy cost (Table 5 harness pins the delta).
    pub feature_precision: bgl_graph::FeaturePrecision,
}

impl ExperimentCtx {
    /// Bench-scale context (default dataset sizes from DESIGN.md).
    pub fn standard() -> Self {
        ExperimentCtx {
            products_nodes: 1 << 15,
            papers_nodes: 1 << 17,
            useritem_nodes: 1 << 17,
            batch_size: 256,
            fanouts: vec![15, 10, 5],
            num_batches: 15,
            cache_batch_size: 8,
            cache_fanouts: vec![5, 4, 3],
            machine: MachineSpec::paper_testbed(),
            seed: 0xB6,
            obs: bgl_obs::Registry::disabled(),
            datasets: RefCell::new(HashMap::new()),
            traces: RefCell::new(HashMap::new()),
            streams: RefCell::new(HashMap::new()),
            machine_memory: 24 << 20,
            feature_precision: bgl_graph::FeaturePrecision::default(),
        }
    }

    /// Test-scale context (seconds, not minutes).
    pub fn small() -> Self {
        ExperimentCtx {
            products_nodes: 1 << 11,
            papers_nodes: 1 << 12,
            useritem_nodes: 1 << 12,
            batch_size: 64,
            fanouts: vec![5, 5],
            num_batches: 6,
            cache_batch_size: 16,
            cache_fanouts: vec![4, 3],
            machine: MachineSpec::paper_testbed(),
            seed: 0xB6,
            obs: bgl_obs::Registry::disabled(),
            datasets: RefCell::new(HashMap::new()),
            traces: RefCell::new(HashMap::new()),
            streams: RefCell::new(HashMap::new()),
            machine_memory: 3 << 19, // 1.5 MiB
            feature_precision: bgl_graph::FeaturePrecision::default(),
        }
    }

    /// Build (or fetch the cached) dataset.
    pub fn dataset(&self, id: DatasetId) -> Dataset {
        if let Some(ds) = self.datasets.borrow().get(&id) {
            return ds.clone();
        }
        let ds = match id {
            DatasetId::Products => {
                DatasetSpec::products_like().with_nodes(self.products_nodes).build()
            }
            DatasetId::Papers => {
                DatasetSpec::papers_like().with_nodes(self.papers_nodes).build()
            }
            DatasetId::UserItem => {
                DatasetSpec::user_item_like().with_nodes(self.useritem_nodes).build()
            }
        };
        self.datasets.borrow_mut().insert(id, ds.clone());
        ds
    }

    /// Measure (or fetch the cached) data-path trace.
    pub fn trace(&self, id: DatasetId, sys: SystemKind) -> Arc<DataPathTrace> {
        if let Some(t) = self.traces.borrow().get(&(id, sys)) {
            return t.clone();
        }
        let ds = self.dataset(id);
        let t = Arc::new(measure_data_path(
            &ds,
            &sys.config(),
            id.partitions(),
            &self.fanouts,
            self.batch_size,
            self.num_batches,
            self.seed,
            &self.obs,
        ));
        self.traces.borrow_mut().insert((id, sys), t.clone());
        t
    }

    /// Whether `sys` can hold `id` (the OOM rule of §5.1: PyG and PaGraph
    /// only run Ogbn-products).
    pub fn fits(&self, id: DatasetId, sys: SystemKind) -> bool {
        sys.config().fits(self.dataset(id).memory_bytes(), self.machine_memory)
    }
}

// ---------------------------------------------------------------------
// Figs. 11/12/13 — training throughput
// ---------------------------------------------------------------------

/// One throughput measurement (a bar in Figs. 11-13).
#[derive(Clone, Debug, Serialize)]
pub struct ThroughputRow {
    pub dataset: &'static str,
    pub system: &'static str,
    pub model: &'static str,
    pub num_gpus: usize,
    pub samples_per_sec: f64,
    pub gpu_utilization: f64,
    pub hit_ratio: f64,
    pub oom: bool,
}

impl ExperimentCtx {
    /// A single bar of Figs. 11-13.
    pub fn throughput(
        &self,
        id: DatasetId,
        sys: SystemKind,
        model: ModelKind,
        num_gpus: usize,
    ) -> ThroughputRow {
        if !self.fits(id, sys) {
            return ThroughputRow {
                dataset: id.name(),
                system: sys.name(),
                model: model.name(),
                num_gpus,
                samples_per_sec: 0.0,
                gpu_utilization: 0.0,
                hit_ratio: 0.0,
                oom: true,
            };
        }
        let trace = self.trace(id, sys);
        let m =
            MeasuredSystem::derive(&trace, &sys.config(), model, num_gpus, &self.machine);
        ThroughputRow {
            dataset: id.name(),
            system: sys.name(),
            model: model.name(),
            num_gpus,
            samples_per_sec: m.report.samples_per_sec,
            gpu_utilization: m.report.gpu_utilization,
            hit_ratio: m.hit_ratio,
            oom: false,
        }
    }

    /// Full figure sweep: systems × models × GPU counts for one dataset.
    pub fn throughput_figure(&self, id: DatasetId) -> Vec<ThroughputRow> {
        let mut rows = Vec::new();
        for sys in SystemKind::all() {
            if sys == SystemKind::BglNoIsolation {
                continue; // Figs. 11-13 plot the full systems only.
            }
            for model in [ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gat] {
                for gpus in [1usize, 2, 4, 8] {
                    rows.push(self.throughput(id, sys, model, gpus));
                }
            }
        }
        rows
    }
}

// ---------------------------------------------------------------------
// Figs. 2 & 3 — motivation: per-batch breakdown and GPU utilization
// ---------------------------------------------------------------------

/// Per-batch time breakdown (Fig. 2) and utilization (Fig. 3).
#[derive(Clone, Debug, Serialize)]
pub struct BreakdownRow {
    pub system: &'static str,
    pub sampling_ms: f64,
    pub feature_ms: f64,
    pub compute_ms: f64,
    pub total_ms: f64,
    pub preprocessing_fraction: f64,
    pub gpu_utilization: f64,
}

impl ExperimentCtx {
    /// Fig. 2 / Fig. 3 for one baseline on Ogbn-products (GraphSAGE, 1 GPU).
    pub fn breakdown(&self, sys: SystemKind) -> BreakdownRow {
        let trace = self.trace(DatasetId::Products, sys);
        let m = MeasuredSystem::derive(
            &trace,
            &sys.config(),
            ModelKind::GraphSage,
            1,
            &self.machine,
        );
        // Stage groups: sampling = stages 1-3 (store + net), feature =
        // stages 4-7 (worker prep, PCIe, cache), compute = stage 8.
        let t = &m.stage_times;
        let sampling = (t[0] + t[1] + t[2]) * 1e3;
        let feature = (t[3] + t[4] + t[5] + t[6]) * 1e3;
        let compute = t[7] * 1e3;
        // In the serial view (what Fig. 2 plots per mini-batch), the batch
        // time is the sum of the three phases.
        let total = sampling + feature + compute;
        BreakdownRow {
            system: sys.name(),
            sampling_ms: sampling,
            feature_ms: feature,
            compute_ms: compute,
            total_ms: total,
            preprocessing_fraction: (sampling + feature) / total,
            gpu_utilization: m.report.gpu_utilization,
        }
    }
}

// ---------------------------------------------------------------------
// Fig. 5 — cache policies
// ---------------------------------------------------------------------

/// One cache configuration's result (a point in Fig. 5a / a bar in 5b).
#[derive(Clone, Debug, Serialize)]
pub struct CacheRow {
    pub policy: &'static str,
    pub proximity_ordering: bool,
    pub cache_frac: f64,
    pub hit_ratio: f64,
    pub overhead_ms_per_batch: f64,
}

impl ExperimentCtx {
    /// Replay an ordering's batch stream through one cache configuration
    /// on the papers-like dataset.
    pub fn cache_experiment(
        &self,
        policy: PolicyKind,
        proximity: bool,
        cache_frac: f64,
    ) -> CacheRow {
        self.cache_experiment_on(DatasetId::Papers, policy, proximity, cache_frac)
    }

    /// Same, on an explicit dataset. Replays epochs until `2 × num_batches`
    /// mini-batches have passed through the cache (multiple epochs is the
    /// realistic regime: a training run revisits every training node
    /// hundreds of times, which is where temporal locality pays).
    pub fn cache_experiment_on(
        &self,
        id: DatasetId,
        policy: PolicyKind,
        proximity: bool,
        cache_frac: f64,
    ) -> CacheRow {
        let ds = self.dataset(id);
        let streams = self.input_streams(id, proximity);
        let cap = ((ds.graph.num_nodes() as f64 * cache_frac).ceil() as usize).max(1);
        let hot = ds.graph.nodes_by_degree_desc();
        let mut engine = FeatureCacheEngine::new(1, 1, cap, 0, policy, &hot);
        engine.attach_metrics(&self.obs);
        if policy == PolicyKind::StaticDegree {
            engine.warm(&bgl_graph::FeatureStore::zeros(ds.graph.num_nodes(), 1));
        }
        let stats = replay_tail(&mut engine, 1, streams.iter().map(Vec::as_slice));
        CacheRow {
            policy: policy.name(),
            proximity_ordering: proximity,
            cache_frac,
            hit_ratio: stats.hit_ratio(),
            overhead_ms_per_batch: stats.overhead_ms_per_batch(),
        }
    }

    /// Sample (or fetch cached) `2 × num_batches` input-node streams for
    /// one ordering, spanning epochs so temporal reuse is visible.
    pub fn input_streams(&self, id: DatasetId, proximity: bool) -> Arc<Vec<Vec<NodeId>>> {
        if let Some(st) = self.streams.borrow().get(&(id, proximity)) {
            return st.clone();
        }
        let ds = self.dataset(id);
        let ordering: Box<dyn TrainOrdering> = if proximity {
            Box::new(ProximityAware::for_batch(5, self.cache_batch_size, self.seed))
        } else {
            Box::new(RandomShuffle::new(self.seed))
        };
        let sampler =
            NeighborSampler::new(self.cache_fanouts.clone()).with_metrics(&self.obs);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xCACE);
        let target = self.num_batches * 24;
        let mut out: Vec<Vec<NodeId>> = Vec::with_capacity(target);
        let mut epoch = 0usize;
        while out.len() < target {
            let batches = ordering.epoch_batches(
                &ds.graph,
                &ds.split.train,
                self.cache_batch_size,
                epoch,
            );
            if batches.is_empty() {
                break;
            }
            for seeds in &batches {
                let mb = sampler.sample(&ds.graph, seeds, &mut rng);
                out.push(mb.blocks[0].src_nodes.clone());
                if out.len() >= target {
                    break;
                }
            }
            epoch += 1;
        }
        let arc = Arc::new(out);
        self.streams.borrow_mut().insert((id, proximity), arc.clone());
        arc
    }

    /// Fig. 5a: hit ratio vs overhead at 10% cache.
    pub fn fig5a(&self) -> Vec<CacheRow> {
        let mut rows = Vec::new();
        for policy in [PolicyKind::Fifo, PolicyKind::Lru, PolicyKind::Lfu] {
            for po in [false, true] {
                rows.push(self.cache_experiment(policy, po, 0.10));
            }
        }
        rows
    }

    /// Fig. 5b: hit ratios across cache sizes.
    pub fn fig5b(&self) -> Vec<CacheRow> {
        let mut rows = Vec::new();
        for frac in [0.05, 0.10, 0.20, 0.40] {
            rows.push(self.cache_experiment(PolicyKind::StaticDegree, false, frac));
            rows.push(self.cache_experiment(PolicyKind::Fifo, false, frac));
            rows.push(self.cache_experiment(PolicyKind::Fifo, true, frac));
            rows.push(self.cache_experiment(PolicyKind::Lru, true, frac));
            rows.push(self.cache_experiment(PolicyKind::Lfu, true, frac));
        }
        rows
    }
}

// ---------------------------------------------------------------------
// Tables 3 & 4 — partition quality and cost
// ---------------------------------------------------------------------

/// One cell of Table 3 / Table 4.
#[derive(Clone, Debug, Serialize)]
pub struct PartitionRow {
    pub dataset: &'static str,
    pub partitioner: &'static str,
    pub sampling_epoch_seconds: f64,
    pub partition_seconds: f64,
    pub train_imbalance: f64,
}

impl ExperimentCtx {
    /// Table 3/4 row: run the BGL data path under a specific partitioner.
    pub fn partition_experiment(
        &self,
        id: DatasetId,
        partitioner: crate::config::PartitionerKind,
    ) -> PartitionRow {
        let ds = self.dataset(id);
        let mut cfg = SystemKind::Bgl.config();
        cfg.partitioner = partitioner;
        cfg.isolation = false;
        // Table 3 uses the lighter sampling workload: with the full fanout
        // a single batch's frontier covers a third of the scaled-down
        // graph, so every partition is touched regardless of partition
        // quality. At paper scale (frontier ≈ 0.4% of the graph) locality
        // is decisive; the light workload restores that ratio.
        let trace = measure_data_path(
            &ds,
            &cfg,
            id.partitions(),
            &self.cache_fanouts,
            self.cache_batch_size,
            self.num_batches * 4,
            self.seed,
            &self.obs,
        );
        let m = MeasuredSystem::derive(
            &trace,
            &cfg,
            ModelKind::GraphSage,
            1,
            &self.machine,
        );
        let train_counts = trace.partition.counts_of(&ds.split.train);
        PartitionRow {
            dataset: id.name(),
            partitioner: partitioner.name(),
            sampling_epoch_seconds: m.sampling_epoch_seconds,
            partition_seconds: trace.partition_wall.as_secs_f64(),
            train_imbalance: bgl_partition::metrics::balance_ratio(&train_counts),
        }
    }

    /// Table 3 sweep: Random / GMiner / BGL on every dataset.
    pub fn table3(&self) -> Vec<PartitionRow> {
        let mut rows = Vec::new();
        for id in [DatasetId::Products, DatasetId::Papers, DatasetId::UserItem] {
            for p in [
                crate::config::PartitionerKind::Random,
                crate::config::PartitionerKind::GMiner,
                crate::config::PartitionerKind::Bgl,
            ] {
                rows.push(self.partition_experiment(id, p));
            }
        }
        rows
    }
}

// ---------------------------------------------------------------------
// Fig. 14 — feature retrieving time
// ---------------------------------------------------------------------

/// One line-point of Fig. 14.
#[derive(Clone, Debug, Serialize)]
pub struct FeatureTimeRow {
    pub system: &'static str,
    pub num_gpus: usize,
    pub feature_ms_per_batch: f64,
    pub hit_ratio: f64,
}

impl ExperimentCtx {
    /// Fig. 14: per-batch feature retrieving time on papers-like.
    ///
    /// Hit ratios come from a *real replay* of the ordering's sampled
    /// batch streams through each system's cache configuration; the byte
    /// volumes are then evaluated at the paper's workload scale (batch
    /// 1000, fanout {15,10,5} ⇒ ~400 K input nodes, ~195 MB of features
    /// per batch) so the three cost components — network fetch of misses,
    /// cache-operation overhead, PCIe transfer — compete at the magnitudes
    /// the paper measures. PaGraph cannot hold the graph, so (as in the
    /// paper, §5.3.2) its *static policy* is run inside the BGL substrate.
    pub fn fig14(&self, num_gpus_list: &[usize]) -> Vec<FeatureTimeRow> {
        const PAPER_NODES_PER_BATCH: f64 = 400_000.0;
        const PAPER_DIM: f64 = 128.0;
        let paper_bytes = PAPER_NODES_PER_BATCH * PAPER_DIM * 4.0;
        let nic_bw = 11.0e9;
        let pcie_bw = 12.8e9;
        let ds = self.dataset(DatasetId::Papers);
        let hot = ds.graph.nodes_by_degree_desc();
        let mut rows = Vec::new();
        for (label, proximity, cache) in [
            ("euler", false, None),
            ("dgl", false, None),
            ("pagraph-static", false, Some((PolicyKind::StaticDegree, false, 0.0))),
            ("bgl", true, Some((PolicyKind::Fifo, true, 0.20))),
        ] {
            let streams = self.input_streams(DatasetId::Papers, proximity);
            let net_eff = match label {
                "euler" => 0.05,
                "dgl" => 0.15,
                _ => 1.0,
            };
            for &g in num_gpus_list {
                let (hit, policy) = match cache {
                    None => (0.0, None),
                    Some((policy, sharded, cpu_frac)) => {
                        let shards = if sharded { g } else { 1 };
                        let gpu_cap = (ds.graph.num_nodes() / 10).max(1);
                        let cpu_cap =
                            (ds.graph.num_nodes() as f64 * cpu_frac) as usize;
                        let mut engine = FeatureCacheEngine::new(
                            shards, 1, gpu_cap, cpu_cap, policy, &hot,
                        );
                        if policy == PolicyKind::StaticDegree {
                            engine.warm(&bgl_graph::FeatureStore::zeros(
                                ds.graph.num_nodes(),
                                1,
                            ));
                        }
                        let measured = replay_tail(
                            &mut engine,
                            shards,
                            streams.iter().map(Vec::as_slice),
                        );
                        (measured.hit_ratio(), Some(policy))
                    }
                };
                let miss_bytes = (1.0 - hit) * paper_bytes;
                let net_ms = miss_bytes / nic_bw / net_eff * 1e3;
                let pcie_ms = miss_bytes / pcie_bw * 1e3;
                let overhead_ms = match policy {
                    Some(p) => {
                        let model = bgl_cache::cost::CacheCostModel::for_policy(p);
                        let lookups = PAPER_NODES_PER_BATCH as u64;
                        let hits = (PAPER_NODES_PER_BATCH * hit) as u64;
                        let inserts = lookups - hits;
                        model.batch_cost_ns(lookups, hits, inserts) as f64 / 1e6
                    }
                    None => 0.0,
                };
                rows.push(FeatureTimeRow {
                    system: label,
                    num_gpus: g,
                    feature_ms_per_batch: net_ms + pcie_ms + overhead_ms,
                    hit_ratio: hit,
                });
            }
        }
        rows
    }

    /// Fig. 15: resource isolation ablation (GraphSAGE, 4 GPUs).
    pub fn fig15(&self, id: DatasetId) -> Vec<ThroughputRow> {
        [
            SystemKind::Euler,
            SystemKind::Dgl,
            SystemKind::BglNoIsolation,
            SystemKind::Bgl,
        ]
        .iter()
        .map(|&sys| self.throughput(id, sys, ModelKind::GraphSage, 4))
        .collect()
    }
}

// ---------------------------------------------------------------------
// Recovery under faults — the robustness experiment
// ---------------------------------------------------------------------

/// Outcome of one epoch of the data path under an injected mid-epoch
/// primary crash (plus background request drops).
#[derive(Clone, Debug, Serialize)]
pub struct RecoveryRow {
    pub dataset: &'static str,
    pub replication: usize,
    pub batches_total: usize,
    pub batches_completed: usize,
    pub batches_failed: usize,
    pub epoch_completed: bool,
    /// Full reliability counters from the cluster.
    pub robustness: RobustnessStats,
    /// Simulated time spent in retry backoff, in milliseconds.
    pub backoff_ms: f64,
    /// Simulated breaker-outage (open -> closed) span, in milliseconds.
    pub recovery_ms: f64,
}

impl ExperimentCtx {
    /// Run one epoch of distributed sampling + feature fetch while a
    /// seeded [`FaultPlan`] kills server 0 mid-epoch (long enough to cover
    /// the rest of the epoch) and drops 1% of requests in flight. With
    /// `replication >= 2` the epoch must complete via replica failover;
    /// with `replication == 1` the same plan visibly fails batches —
    /// that contrast is the experiment.
    pub fn recovery_experiment(&self, id: DatasetId, replication: usize) -> RecoveryRow {
        use bgl_partition::Partitioner;
        let ds = self.dataset(id);
        let k = id.partitions();
        let partition =
            bgl_partition::RoundRobinPartitioner.partition(&ds.graph, &ds.split.train, k);
        // Crash the first server ten requests in, for far longer than the
        // epoch's simulated span: recovery must come from failover, not
        // from the fault conveniently expiring.
        let plan = FaultPlan::new(self.seed).crash(0, 10, 500 * MILLISECOND).drops(0.01);
        let mut cluster = StoreCluster::new(
            ds.graph.clone(),
            ds.features.clone(),
            &partition,
            NetworkModel::paper_fabric(),
            self.seed,
        )
        .with_replication(replication)
        .with_retry_policy(RetryPolicy::default())
        .with_fault_plan(plan);
        let ordering = RandomShuffle::new(self.seed);
        let batches =
            ordering.epoch_batches(&ds.graph, &ds.split.train, self.batch_size, 0);
        let w = cluster.worker_location();
        let mut completed = 0usize;
        let mut failed = 0usize;
        let mut total = 0usize;
        for seeds in batches.iter().take(self.num_batches) {
            total += 1;
            let home = cluster.owner_of(seeds[0]).unwrap_or(0);
            let ok = match cluster.sample_batch(&self.fanouts, seeds, home) {
                Ok((mb, _)) => cluster.fetch_features(mb.input_nodes(), w).is_ok(),
                Err(_) => false,
            };
            if ok {
                completed += 1;
            } else {
                failed += 1;
            }
        }
        RecoveryRow {
            dataset: id.name(),
            replication: cluster.replication(),
            batches_total: total,
            batches_completed: completed,
            batches_failed: failed,
            epoch_completed: failed == 0,
            robustness: cluster.robustness,
            backoff_ms: cluster.robustness.backoff_time as f64 / 1e6,
            recovery_ms: cluster.robustness.recovery_time as f64 / 1e6,
        }
    }

    /// The recovery figure: the same fault plan against replication 1
    /// (fails visibly) and replication 2 (survives), per dataset.
    pub fn recovery_figure(&self, id: DatasetId) -> Vec<RecoveryRow> {
        vec![self.recovery_experiment(id, 1), self.recovery_experiment(id, 2)]
    }
}

// ---------------------------------------------------------------------
// Table 5 & Fig. 16 — accuracy / convergence (real training)
// ---------------------------------------------------------------------

/// One accuracy cell (Table 5) or convergence curve (Fig. 16).
#[derive(Clone, Debug, Serialize)]
pub struct AccuracyRow {
    pub dataset: &'static str,
    pub model: &'static str,
    pub ordering: &'static str,
    pub final_test_acc: f64,
    pub best_test_acc: f64,
    pub curve: Vec<f64>,
}

impl ExperimentCtx {
    /// Train for real (CPU tensor math) under both orderings.
    pub fn accuracy_experiment(
        &self,
        id: DatasetId,
        model: ModelKind,
        epochs: usize,
        hidden: usize,
    ) -> Vec<AccuracyRow> {
        let mut ds = self.dataset(id);
        // Table 5 pins the accuracy cost of the f16 feature path: train on
        // exactly the rows the store would serve, i.e. features squeezed
        // through the f16 wire/cache representation.
        if self.feature_precision == bgl_graph::FeaturePrecision::F16 {
            let quantized: Vec<f32> = ds
                .features
                .raw()
                .iter()
                .map(|&x| bgl_graph::half::quantize_f16(x))
                .collect();
            ds.features =
                std::sync::Arc::new(bgl_graph::FeatureStore::from_raw(ds.features.dim(), quantized));
        }
        let layers = self.fanouts.len();
        let cfg = bgl_gnn::TrainConfig {
            model,
            hidden,
            num_layers: layers,
            fanouts: self.fanouts.clone(),
            batch_size: self.batch_size,
            epochs,
            lr: 3e-3,
            seed: self.seed,
        };
        let trainer = bgl_gnn::Trainer::new(&ds, cfg);
        let mut rows = Vec::new();
        for (name, ordering) in [
            (
                "random-shuffle (DGL)",
                Box::new(RandomShuffle::new(self.seed)) as Box<dyn TrainOrdering>,
            ),
            (
                "proximity-aware (BGL)",
                Box::new(ProximityAware::for_batch(5, self.batch_size, self.seed)),
            ),
        ] {
            let hist = trainer.run(ordering.as_ref());
            rows.push(AccuracyRow {
                dataset: id.name(),
                model: model.name(),
                ordering: name,
                final_test_acc: hist.final_test_acc(),
                best_test_acc: hist.best_test_acc(),
                curve: hist.epochs.iter().map(|e| e.test_acc).collect(),
            });
        }
        rows
    }
}

// ---------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md)
// ---------------------------------------------------------------------

/// One row of the proximity-ordering sequence-count ablation (§3.2.2).
#[derive(Clone, Debug, Serialize)]
pub struct SequenceAblationRow {
    pub num_sequences: usize,
    /// Mean per-batch TV distance from the global label distribution.
    pub shuffling_error: f64,
    /// FIFO hit ratio at 10% cache under this ordering.
    pub fifo_hit_ratio: f64,
    /// The `sqrt(bM)/n` convergence bound for this configuration.
    pub bound: f64,
}

/// One row of the cache-level ablation (§3.2.3, "Maximizing Cache Size").
#[derive(Clone, Debug, Serialize)]
pub struct CacheLevelRow {
    pub levels: &'static str,
    pub hit_ratio: f64,
    pub cpu_hits_fraction: f64,
}

/// One row of the partitioner j-hop ablation (§3.3.2, paper uses j = 2).
#[derive(Clone, Debug, Serialize)]
pub struct JhopRow {
    pub jhop: usize,
    pub khop_locality: f64,
    pub edge_cut: f64,
}

impl ExperimentCtx {
    /// §3.2.2 ablation: more BFS sequences mix labels better (lower ε) but
    /// dilute temporal locality (lower hit ratio) — the trade-off the
    /// paper's tuner navigates ("use the minimum number of sequences").
    pub fn ablate_sequences(&self, counts: &[usize]) -> Vec<SequenceAblationRow> {
        use bgl_sampler::shuffle_error::{convergence_bound, shuffling_error};
        // ε is measured on products-like with the full training batch size:
        // at 8-node batches over 172 classes every ordering's per-batch
        // label histogram is pure finite-sample noise and ε saturates near
        // 1 regardless of ordering.
        let eps_ds = self.dataset(DatasetId::Products);
        let ds = self.dataset(DatasetId::Papers);
        let mut rows = Vec::new();
        for &s in counts {
            let eps_ordering = ProximityAware::for_batch(s, self.batch_size, self.seed);
            let eps_order = eps_ordering.epoch_order(&eps_ds.graph, &eps_ds.split.train, 0);
            let eps = shuffling_error(
                &eps_order,
                &eps_ds.labels,
                eps_ds.num_classes,
                self.batch_size,
            );
            let ordering = ProximityAware::for_batch(s, self.cache_batch_size, self.seed);
            // Hit ratio with the same sequence count driving the stream.
            let sampler =
                NeighborSampler::new(self.cache_fanouts.clone()).with_metrics(&self.obs);
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0xAB1);
            let cap = (ds.graph.num_nodes() / 10).max(1);
            let mut engine =
                FeatureCacheEngine::new(1, 1, cap, 0, PolicyKind::Fifo, &[]);
            let mut src = |ids: &[NodeId]| vec![0.0f32; ids.len()];
            let mut measured = bgl_cache::CacheStats::default();
            let mut processed = 0usize;
            let target = self.num_batches * 12;
            let warmup = target / 3;
            'outer: for epoch in 0..64 {
                for seeds in ordering.epoch_batches(
                    &ds.graph,
                    &ds.split.train,
                    self.cache_batch_size,
                    epoch,
                ) {
                    let mb = sampler.sample(&ds.graph, &seeds, &mut rng);
                    let res = engine.fetch_batch(0, &mb.blocks[0].src_nodes, &mut src);
                    if processed >= warmup {
                        measured.merge(&res.stats);
                    }
                    processed += 1;
                    if processed >= target {
                        break 'outer;
                    }
                }
            }
            rows.push(SequenceAblationRow {
                num_sequences: s,
                shuffling_error: eps,
                fifo_hit_ratio: measured.hit_ratio(),
                bound: convergence_bound(self.batch_size, 1, eps_ds.split.train.len()),
            });
        }
        rows
    }

    /// §3.2.3 ablation: GPU-only vs two-level (GPU + CPU) cache.
    pub fn ablate_cache_levels(&self) -> Vec<CacheLevelRow> {
        let ds = self.dataset(DatasetId::Papers);
        let streams = self.input_streams(DatasetId::Papers, true);
        let gpu_cap = (ds.graph.num_nodes() / 20).max(1); // 5% on GPU
        let cpu_cap = ds.graph.num_nodes() / 5; // +20% on CPU
        let mut rows = Vec::new();
        for (name, cpu) in [("gpu-only", 0usize), ("gpu+cpu", cpu_cap)] {
            let mut engine =
                FeatureCacheEngine::new(1, 1, gpu_cap, cpu, PolicyKind::Fifo, &[]);
            let measured = replay_tail(&mut engine, 1, streams.iter().map(Vec::as_slice));
            rows.push(CacheLevelRow {
                levels: name,
                hit_ratio: measured.hit_ratio(),
                cpu_hits_fraction: if measured.total() > 0 {
                    measured.cpu_hits as f64 / measured.total() as f64
                } else {
                    0.0
                },
            });
        }
        rows
    }

    /// §3.3.2 ablation: hop depth of the multi-hop locality term.
    pub fn ablate_jhop(&self, hops: &[usize]) -> Vec<JhopRow> {
        use bgl_partition::{BglConfig, BglPartitioner, Partitioner};
        let ds = self.dataset(DatasetId::Products);
        let mut rows = Vec::new();
        for &j in hops {
            let p = BglPartitioner::new(BglConfig { jhop: j, ..Default::default() })
                .partition(&ds.graph, &ds.split.train, 4);
            rows.push(JhopRow {
                jhop: j,
                khop_locality: bgl_partition::metrics::khop_locality(
                    &ds.graph,
                    &p,
                    &ds.split.train,
                    2,
                    100,
                    self.seed,
                ),
                edge_cut: bgl_partition::metrics::edge_cut_fraction(&ds.graph, &p),
            });
        }
        rows
    }
}

// ---------------------------------------------------------------------
// Serving — the online-inference stack (bgl-serve)
// ---------------------------------------------------------------------

impl ExperimentCtx {
    /// Build the online-serving stack over the User-Item dataset (the
    /// paper's recommendation workload): BGL-partitioned 4-server store
    /// cluster, two-level feature cache, and a GraphSAGE model, wrapped
    /// in a [`bgl_serve::ServeEngine`]. Returns the engine plus the
    /// query population (test-split users — nodes the model was not
    /// trained on, as a recommendation front-end would see).
    pub fn serve_stack(
        &self,
        replication: usize,
        plan: Option<FaultPlan>,
    ) -> (bgl_serve::ServeEngine, Vec<NodeId>) {
        let id = DatasetId::UserItem;
        let ds = self.dataset(id);
        let partition = crate::measure::make_partitioner(
            SystemKind::Bgl.config().partitioner,
            self.seed,
        )
        .partition(&ds.graph, &ds.split.train, id.partitions());
        let mut cluster = StoreCluster::new(
            ds.graph.clone(),
            ds.features.clone(),
            &partition,
            NetworkModel::paper_fabric(),
            self.seed,
        )
        .with_replication(replication)
        .with_retry_policy(RetryPolicy::default());
        if let Some(plan) = plan {
            cluster = cluster.with_fault_plan(plan);
        }
        // Small enough that both cache levels see traffic at test scale.
        let cache = FeatureCacheEngine::new(
            1,
            ds.features.dim(),
            256,
            512,
            PolicyKind::Fifo,
            &[],
        );
        let model = bgl_gnn::make_model(
            ModelKind::GraphSage,
            ds.features.dim(),
            16,
            ds.num_classes,
            self.fanouts.len(),
            self.seed,
        );
        let users: Vec<NodeId> = ds.split.test.iter().copied().take(512).collect();
        let engine = bgl_serve::ServeEngine::new(
            cluster,
            cache,
            model,
            self.fanouts.clone(),
            self.seed,
        );
        (engine, users)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_orders_systems() {
        let ctx = ExperimentCtx::small();
        let bgl = ctx.throughput(
            DatasetId::Products,
            SystemKind::Bgl,
            ModelKind::GraphSage,
            2,
        );
        let euler = ctx.throughput(
            DatasetId::Products,
            SystemKind::Euler,
            ModelKind::GraphSage,
            2,
        );
        assert!(!bgl.oom && !euler.oom);
        assert!(
            bgl.samples_per_sec > 3.0 * euler.samples_per_sec,
            "bgl {:.0} vs euler {:.0}",
            bgl.samples_per_sec,
            euler.samples_per_sec
        );
    }

    #[test]
    fn oom_rule_matches_paper() {
        let ctx = ExperimentCtx::small();
        assert!(ctx.fits(DatasetId::Products, SystemKind::Pyg));
        assert!(!ctx.fits(DatasetId::Papers, SystemKind::Pyg));
        assert!(!ctx.fits(DatasetId::UserItem, SystemKind::PaGraph));
        assert!(ctx.fits(DatasetId::UserItem, SystemKind::Bgl));
        let row = ctx.throughput(
            DatasetId::Papers,
            SystemKind::PaGraph,
            ModelKind::Gcn,
            1,
        );
        assert!(row.oom);
        assert_eq!(row.samples_per_sec, 0.0);
    }

    #[test]
    fn breakdown_is_preprocessing_dominated_for_baselines() {
        let ctx = ExperimentCtx::small();
        for sys in [SystemKind::Dgl, SystemKind::Euler] {
            let row = ctx.breakdown(sys);
            assert!(
                row.preprocessing_fraction > 0.6,
                "{}: preprocessing fraction {:.2}",
                row.system,
                row.preprocessing_fraction
            );
            assert!(row.gpu_utilization < 0.4);
        }
    }

    #[test]
    fn cache_experiment_po_beats_random_for_fifo() {
        // Papers-like at a size where the community structure is real
        // (the small context's 4K-node variant has too few communities for
        // ordering to matter either way).
        // The epoch must not fit inside the cache window, or ordering
        // cannot matter: 2^15 nodes / 5% cache gives epoch ≈ 2× window.
        let mut ctx = ExperimentCtx::small();
        ctx.papers_nodes = 1 << 15;
        let plain = ctx.cache_experiment(PolicyKind::Fifo, false, 0.05);
        let po = ctx.cache_experiment(PolicyKind::Fifo, true, 0.05);
        assert!(
            po.hit_ratio > plain.hit_ratio,
            "po {:.3} !> plain {:.3}",
            po.hit_ratio,
            plain.hit_ratio
        );
    }

    #[test]
    fn sequence_ablation_tradeoff_shape() {
        // More sequences -> lower shuffling error (better mixing).
        let mut ctx = ExperimentCtx::small();
        ctx.papers_nodes = 1 << 14;
        let rows = ctx.ablate_sequences(&[1, 8]);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].shuffling_error < rows[0].shuffling_error,
            "8 sequences ({:.4}) should mix better than 1 ({:.4})",
            rows[1].shuffling_error,
            rows[0].shuffling_error
        );
        assert!(rows.iter().all(|r| r.fifo_hit_ratio >= 0.0));
    }

    #[test]
    fn cache_level_ablation_two_level_wins() {
        let ctx = ExperimentCtx::small();
        let rows = ctx.ablate_cache_levels();
        let gpu_only = rows.iter().find(|r| r.levels == "gpu-only").unwrap();
        let two = rows.iter().find(|r| r.levels == "gpu+cpu").unwrap();
        assert!(
            two.hit_ratio > gpu_only.hit_ratio,
            "two-level {:.3} should beat gpu-only {:.3}",
            two.hit_ratio,
            gpu_only.hit_ratio
        );
        assert!(two.cpu_hits_fraction > 0.0);
    }

    #[test]
    fn jhop_ablation_runs() {
        let ctx = ExperimentCtx::small();
        let rows = ctx.ablate_jhop(&[1, 2]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.edge_cut));
            assert!((0.0..=1.0).contains(&r.khop_locality));
        }
    }

    #[test]
    fn recovery_epoch_survives_primary_crash_with_replication() {
        let ctx = ExperimentCtx::small();
        let rows = ctx.recovery_figure(DatasetId::Products);
        let (unreplicated, replicated) = (&rows[0], &rows[1]);
        // Without replicas the mid-epoch crash visibly fails batches.
        assert!(
            unreplicated.batches_failed > 0,
            "replication 1 should fail batches under a primary crash"
        );
        // With r = 2 the whole epoch completes via failover — zero panics,
        // zero failed batches.
        assert!(replicated.epoch_completed, "{:?}", replicated);
        assert_eq!(replicated.batches_completed, replicated.batches_total);
        assert!(replicated.robustness.failovers > 0);
        assert!(replicated.robustness.any_faults());
        // Same seed, same plan -> identical recovery outcome.
        let again = ctx.recovery_experiment(DatasetId::Products, 2);
        assert_eq!(again.robustness, replicated.robustness);
    }

    #[test]
    fn fig15_shape() {
        let ctx = ExperimentCtx::small();
        let rows = ctx.fig15(DatasetId::Products);
        assert_eq!(rows.len(), 4);
        let by_name = |n: &str| {
            rows.iter()
                .find(|r| r.system == n)
                .unwrap()
                .samples_per_sec
        };
        assert!(by_name("bgl") >= by_name("bgl-noiso"));
        assert!(by_name("bgl-noiso") > by_name("dgl"));
    }
}
