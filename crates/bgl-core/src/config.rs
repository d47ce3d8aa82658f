//! System configuration: every knob that distinguishes the evaluated
//! systems, plus the CPU/framework cost constants that translate measured
//! work (nodes sampled, edges built, bytes moved) into stage times.

use bgl_cache::PolicyKind;
use serde::{Deserialize, Serialize};

/// Which partitioner a system uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionerKind {
    Random,
    MetisLike,
    GMiner,
    Bgl,
}

impl PartitionerKind {
    pub fn name(self) -> &'static str {
        match self {
            PartitionerKind::Random => "random",
            PartitionerKind::MetisLike => "metis",
            PartitionerKind::GMiner => "gminer",
            PartitionerKind::Bgl => "bgl",
        }
    }
}

/// Which training-node ordering a system uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OrderingKind {
    RandomShuffle,
    ProximityAware,
}

/// GNN model selector: the one enum, named here so experiment code finds
/// it beside the rest of a run's configuration.
pub use bgl_gnn::ModelKind;

/// Feature-cache configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CacheConfig {
    pub policy: PolicyKind,
    /// GPU cache capacity per GPU, as a fraction of graph nodes.
    pub gpu_frac: f64,
    /// CPU cache capacity as a fraction of graph nodes (0 disables).
    pub cpu_frac: f64,
    /// Whether the multi-GPU shards pool their capacity (BGL's mod-sharded
    /// design). PaGraph replicates the same hot set on every GPU instead,
    /// so its aggregate capacity does not grow with the GPU count.
    pub sharded_across_gpus: bool,
}

/// Framework path-efficiency constants: single-core nanoseconds of CPU
/// work per unit of data-path work. These encode *how efficient each
/// framework's implementation of the same stage is* — the paper's Euler
/// (TensorFlow ops + gRPC) spends far more CPU per sampled edge than BGL's
/// hand-written C++ path. Calibrated so the end-to-end speedup ratios land
/// in the paper's reported ranges (§5.2).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CpuCostModel {
    /// Stage 1: per sampled node (request processing, hash probes).
    pub sample_ns_per_node: f64,
    /// Stage 2: per sampled edge (subgraph construction + serialization).
    pub build_ns_per_edge: f64,
    /// Stage 4: per sampled edge (format conversion on the worker).
    pub convert_ns_per_edge: f64,
    /// Multiplier on GPU kernel time (1.0 = tuned kernels; Euler's
    /// unoptimized irregular kernels are slower, especially on GAT).
    pub gpu_factor: f64,
    /// Extra GPU multiplier applied to GAT only (Euler "does not optimize
    /// the GPU kernels for irregular graph structures", §5.2).
    pub gat_gpu_factor: f64,
    /// Fraction of raw wire bandwidth the framework's transport actually
    /// achieves (1.0 = saturates the NIC, which only BGL's shared-memory +
    /// zero-copy path does; gRPC/pickle paths land at a few percent).
    pub net_efficiency: f64,
}

/// A complete system description.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SystemConfig {
    pub partitioner: PartitionerKind,
    pub ordering: OrderingKind,
    pub cache: Option<CacheConfig>,
    /// Profiling-based resource isolation (§3.4) vs free contention.
    pub isolation: bool,
    /// Store colocated with the worker on one machine (PyG, PaGraph).
    /// Colocated systems cannot hold graphs beyond one machine's memory.
    pub single_machine: bool,
    pub cost: CpuCostModel,
    /// Number of proximity-aware BFS sequences (ignored for RandomShuffle).
    pub po_sequences: usize,
}

impl SystemConfig {
    /// Whether this system can train a dataset of `memory_bytes` footprint
    /// given a single machine holds `machine_memory` (OOM check that makes
    /// PyG/PaGraph fail on papers/User-Item, §5.1).
    pub fn fits(&self, memory_bytes: usize, machine_memory: usize) -> bool {
        !self.single_machine || memory_bytes <= machine_memory
    }
}
