//! The one rig every workload is built from:
//!
//! `DatasetSpec::products_like().with_nodes(N)` -> BGL partitioner, 4 parts
//! -> `StoreCluster` -> optional loopback TCP servers + `TcpTransport` +
//! replication + f16 rows + one `DurableFeatures` tier per server ->
//! `FeatureCacheEngine` -> `make_model(GraphSage)`.
//!
//! It deliberately shares nothing with `tests/common` or the legacy
//! `bench::churn_cell` rigs: the benchmark may not change when they do.

use crate::params::{
    Params, CPU_CACHE_FRAC, GPU_CACHE_FRAC, HIDDEN, INGEST_CACHE_FRAC, LAYERS, PAGE_SIZE, PARTS,
    POOL_FRAC,
};
use crate::timed::{Recorder, TimedTransport, TransportLog};
use bgl_cache::{FeatureCacheEngine, PolicyKind};
use bgl_gnn::{make_model, GnnModel, ModelKind};
use bgl_graph::{Dataset, DatasetSpec, FeaturePrecision};
use bgl_net::{
    spawn_loopback_cluster, LoopbackCluster, NetClientConfig, NetServerConfig, TcpTransport,
};
use bgl_obs::Registry;
use bgl_partition::{BglPartitioner, Partition, Partitioner};
use bgl_sim::network::NetworkModel;
use bgl_store::{
    DiskTierConfig, DurableFeatures, GraphStoreServer, InProcessTransport, StoreCluster,
    StoreTransport,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a workload wires the rig.
#[derive(Clone, Copy, Debug)]
pub struct RigSpec {
    /// Servers behind loopback TCP (`TcpTransport`) instead of in-process.
    pub tcp: bool,
    pub replication: usize,
    pub precision: FeaturePrecision,
    /// One `DurableFeatures` tier per server.
    pub disk: bool,
    /// GPU / CPU cache slots as shares of the node count.
    pub gpu_frac: f64,
    pub cpu_frac: f64,
    pub cache_policy: PolicyKind,
}

impl RigSpec {
    /// train-remote and serve-sweep: everything on.
    pub fn remote() -> RigSpec {
        RigSpec {
            tcp: true,
            replication: 2,
            precision: FeaturePrecision::F16,
            disk: true,
            gpu_frac: GPU_CACHE_FRAC,
            cpu_frac: CPU_CACHE_FRAC,
            cache_policy: PolicyKind::Fifo,
        }
    }

    /// train-local: in-process, r=1, f32, no disk, cache holds every node.
    pub fn local() -> RigSpec {
        RigSpec {
            tcp: false,
            replication: 1,
            precision: FeaturePrecision::F32,
            disk: false,
            gpu_frac: 1.0,
            cpu_frac: 0.0,
            cache_policy: PolicyKind::Fifo,
        }
    }

    /// ingest-mixed: in-process, r=2, durable tiers (WAL fsync-to-ack).
    pub fn ingest() -> RigSpec {
        RigSpec {
            tcp: false,
            replication: 2,
            precision: FeaturePrecision::F32,
            disk: true,
            gpu_frac: INGEST_CACHE_FRAC,
            cpu_frac: 0.0,
            cache_policy: PolicyKind::Lru,
        }
    }
}

/// Scratch space for disk tiers, inside the checkout (the build directory
/// when cargo names one), removed when the rig drops.
pub fn scratch_root() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| "target".into());
    base.join("bgl-bench")
}

static RIG_SEQ: AtomicU64 = AtomicU64::new(0);

/// Seeds derived from the workload seed, one per consumer.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub dataset: u64,
    pub cluster: u64,
    pub model: u64,
    pub ordering: u64,
    pub exec: u64,
    pub load: u64,
}

impl Seeds {
    pub fn from_workload_seed(seed: u64) -> Seeds {
        let mix = |salt: u64| bgl_store::wire::mix64(seed, salt);
        Seeds {
            dataset: mix(1),
            cluster: mix(2),
            model: mix(3),
            ordering: mix(4),
            exec: mix(5),
            load: mix(6),
        }
    }
}

pub struct Rig {
    pub ds: Dataset,
    pub partition: Partition,
    pub cluster: Option<StoreCluster>,
    pub cache: Option<FeatureCacheEngine>,
    pub model: Option<Box<dyn GnnModel + Send>>,
    pub reg: Registry,
    /// Present when built with a recorder: what `TimedTransport` saw.
    pub transport_log: Option<Arc<Mutex<TransportLog>>>,
    pub seeds: Seeds,
    pub spec: RigSpec,
    lc: Option<LoopbackCluster>,
    tier_root: Option<PathBuf>,
    pub partition_s: f64,
}

impl Rig {
    /// Build the whole substrate. `reg` receives the stack's own counters
    /// (pass `Registry::disabled()` for the untraced timed run); with a
    /// recorder the transport is wrapped in a `TimedTransport`.
    pub fn build(
        p: &Params,
        spec: RigSpec,
        seed: u64,
        reg: Registry,
        recorder: Option<(&Arc<Recorder>, usize)>,
    ) -> Rig {
        let seeds = Seeds::from_workload_seed(seed);
        let ds = DatasetSpec::products_like()
            .with_nodes(p.nodes)
            .with_seed(seeds.dataset)
            .build();

        let t1 = Instant::now();
        let partition = BglPartitioner::default().partition(&ds.graph, &ds.split.train, PARTS);
        let partition_s = t1.elapsed().as_secs_f64();
        let owner = Arc::new(partition.assignment.clone());

        let tier_root = spec.disk.then(|| {
            scratch_root().join("tmp").join(format!(
                "{}-{}",
                std::process::id(),
                RIG_SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        });
        let (transport, lc): (Box<dyn StoreTransport>, Option<LoopbackCluster>) = if spec.tcp {
            let lc = spawn_loopback_cluster(
                ds.graph.clone(),
                ds.features.clone(),
                owner.clone(),
                PARTS,
                seeds.cluster,
                NetServerConfig::default(),
                &reg,
            )
            .expect("spawn loopback store servers");
            if let Some(root) = &tier_root {
                for i in 0..PARTS {
                    let tier = make_tier(&spec, &ds, &reg, &root.join(format!("tier{i}")));
                    lc.store(i)
                        .expect("server is running")
                        .attach_disk_tier(tier);
                }
            }
            let tcp = TcpTransport::connect(&lc.addrs(), NetClientConfig::default(), &reg)
                .expect("dial loopback store servers");
            (Box::new(tcp), Some(lc))
        } else {
            let t = InProcessTransport::new(
                ds.graph.clone(),
                ds.features.clone(),
                owner.clone(),
                PARTS,
                seeds.cluster,
            );
            if let Some(root) = &tier_root {
                for i in 0..PARTS {
                    let tier = make_tier(&spec, &ds, &reg, &root.join(format!("tier{i}")));
                    t.server(i).expect("server exists").attach_disk_tier(tier);
                }
            }
            (Box::new(t), None)
        };
        let (transport, transport_log) = match recorder {
            Some((rec, cap)) => {
                let (t, log) = TimedTransport::wrap(transport, rec, cap);
                (t, Some(log))
            }
            None => (transport, None),
        };
        let mut cluster =
            StoreCluster::with_transport(transport, owner, NetworkModel::paper_fabric())
                .with_replication(spec.replication)
                .with_feature_precision(spec.precision);
        cluster.attach_metrics(&reg);

        let slots = |frac: f64| (p.nodes as f64 * frac).ceil() as usize;
        let mut cache = FeatureCacheEngine::with_precision(
            1,
            ds.features.dim(),
            slots(spec.gpu_frac).max(1),
            slots(spec.cpu_frac),
            spec.cache_policy,
            &[],
            spec.precision,
        );
        cache.attach_metrics(&reg);

        let model = make_model(
            ModelKind::GraphSage,
            ds.features.dim(),
            HIDDEN,
            ds.num_classes,
            LAYERS,
            seeds.model,
        );
        Rig {
            ds,
            partition,
            cluster: Some(cluster),
            cache: Some(cache),
            model: Some(model),
            reg,
            transport_log,
            seeds,
            spec,
            lc,
            tier_root,
            partition_s,
        }
    }

    /// The store server `i`, wherever it lives (behind TCP or in-process).
    /// `cluster` is the rig's cluster when it has not been moved out.
    pub fn with_server<R>(
        &self,
        cluster: Option<&StoreCluster>,
        i: usize,
        f: impl FnOnce(&GraphStoreServer) -> R,
    ) -> Option<R> {
        if let Some(lc) = &self.lc {
            return lc.store(i).map(|s| f(s));
        }
        cluster
            .or(self.cluster.as_ref())
            .and_then(|c| c.in_process_server(i))
            .map(f)
    }

    pub fn tier_dir(&self, i: usize) -> Option<PathBuf> {
        self.tier_root.as_ref().map(|r| r.join(format!("tier{i}")))
    }

    /// The disk-tier configuration this rig's tiers were created with
    /// (re-used to reopen them for the WAL-replay check).
    pub fn tier_config(&self, reg: &Registry) -> DiskTierConfig {
        tier_config(&self.spec, &self.ds, reg)
    }

    /// Gracefully stop the TCP servers (joins every server thread).
    pub fn shutdown_servers(&mut self) {
        if let Some(lc) = self.lc.take() {
            lc.shutdown();
        }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        // The client side goes first so server handlers see EOF, then the
        // servers are joined, then the tier files are removed.
        self.cluster = None;
        self.shutdown_servers();
        if let Some(root) = self.tier_root.take() {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

fn tier_config(spec: &RigSpec, ds: &Dataset, reg: &Registry) -> DiskTierConfig {
    let row_bytes = ds.features.dim() * spec.precision.bytes_per_scalar();
    let rows_per_page = (PAGE_SIZE as usize / row_bytes).max(1);
    let pages = ds.features.num_nodes().div_ceil(rows_per_page);
    DiskTierConfig::default()
        .with_page_size(PAGE_SIZE)
        .with_pool_pages(((pages as f64 * POOL_FRAC).ceil() as usize).max(4))
        .with_precision(spec.precision)
        .with_registry(reg)
}

fn make_tier(spec: &RigSpec, ds: &Dataset, reg: &Registry, dir: &Path) -> DurableFeatures {
    DurableFeatures::create(dir, &ds.features, tier_config(spec, ds, reg))
        .expect("create durable feature tier")
}
