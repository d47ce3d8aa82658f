//! The registry's counter-name set, pinned.
//!
//! Dashboards, `bgl-bench` and the per-layer rows of `BENCHMARK.json` read
//! counters by name, so a rename or a dropped counter is a silent break.
//! One small cluster exercises every attach site in the workspace that
//! mirrors a typed ledger — the store cluster (r=2, disk tier on every
//! server), the cache engine, the queue-sharded cache, the ingest
//! coordinator with its migration planner, and the threaded executor —
//! against one enabled registry, then compares the sorted counter names
//! with the literal list below. Adding a counter means adding its name
//! here; nothing may leave the list.

mod common;

use bgl_cache::{PolicyKind, QueueShardedCache};
use bgl_exec::{run, ExecConfig};
use bgl_graph::NodeId;
use bgl_ingest::{ChurnOp, IngestConfig, IngestCoordinator};
use bgl_obs::Registry;
use bgl_partition::Partition;
use bgl_store::{DiskTierConfig, DurableFeatures, InProcessTransport};
use common::{EpochRig, RigSpec};

const EXPECTED: &[&str] = &[
    "cache.engine.batches",
    "cache.engine.cpu_hits",
    "cache.engine.gpu_local_hits",
    "cache.engine.gpu_peer_hits",
    "cache.engine.invalidations",
    "cache.engine.miss_bytes",
    "cache.engine.misses",
    "cache.engine.overhead_ns",
    "cache.queue.batches",
    "cache.queue.cpu_hits",
    "cache.queue.gpu_local_hits",
    "cache.queue.gpu_peer_hits",
    "cache.queue.invalidations",
    "cache.queue.miss_bytes",
    "cache.queue.misses",
    "cache.queue.overhead_ns",
    "exec.batches.trained",
    "exec.fetch.miss_rows",
    "exec.pcie.bytes",
    "exec.sample.edges",
    "exec.store.backoff_ns",
    "exec.store.breaker_opens",
    "exec.store.breaker_probes",
    "exec.store.corrupt_frames",
    "exec.store.deadline_misses",
    "exec.store.degraded_batches",
    "exec.store.degraded_rows",
    "exec.store.drops",
    "exec.store.failovers",
    "exec.store.recovery_ns",
    "exec.store.redirects",
    "exec.store.retries",
    "exec.subgraph.edges",
    "ingest.applied",
    "ingest.invalidations",
    "ingest.reassignments",
    "ingest.rejected",
    "ingest.remerges",
    "migrate.aborted",
    "migrate.committed",
    "migrate.copy_bytes",
    "migrate.invalidations",
    "migrate.planned",
    "migrate.repaired",
    "migrate.requeued",
    "migrate.skipped",
    "sampler.batches",
    "sampler.edges",
    "store.backoff_ns",
    "store.breaker_opens",
    "store.breaker_probes",
    "store.corrupt_frames",
    "store.deadline_misses",
    "store.degraded_batches",
    "store.degraded_rows",
    "store.disk.dw_redos",
    "store.disk.eio_retries",
    "store.disk.evictions",
    "store.disk.hits",
    "store.disk.misses",
    "store.disk.page_reads",
    "store.disk.page_writes",
    "store.disk.recoveries",
    "store.disk.wal_appends",
    "store.disk.wal_replayed",
    "store.disk.wal_resets",
    "store.disk.wal_syncs",
    "store.disk.wal_torn_truncations",
    "store.disk.writebacks",
    "store.drops",
    "store.failovers",
    "store.recovery_ns",
    "store.redirects",
    "store.retries",
    "store.wire.local_bytes",
    "store.wire.local_messages",
    "store.wire.remote_bytes",
    "store.wire.remote_messages",
];

#[test]
fn counter_names_are_pinned() {
    let reg = Registry::enabled();
    let spec = RigSpec::default();
    let rig = EpochRig::build(&spec);
    let owner = rig.cluster.owner_map();
    let k = rig.cluster.num_servers();
    let dim = rig.ds.features.dim();

    // r=2 in-process cluster, every server fronting a durable tier.
    let transport = InProcessTransport::new(
        rig.ds.graph.clone(),
        rig.ds.features.clone(),
        owner.clone(),
        k,
        spec.cluster_seed,
    );
    let mut dirs = Vec::new();
    for i in 0..k {
        let mut dir = std::env::temp_dir();
        dir.push(format!("bgl-metric-names-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DiskTierConfig::default().with_registry(&reg);
        let tier = DurableFeatures::create(&dir, &rig.ds.features, cfg).expect("create tier");
        transport
            .server(i)
            .expect("in-process server")
            .attach_disk_tier(tier);
        dirs.push(dir);
    }
    let mut rig = rig.map_cluster(|c| c.swap_transport(Box::new(transport)).with_replication(2));
    rig.cluster.attach_metrics(&reg);
    rig.cache.attach_metrics(&reg);

    // Ingest: one feature update (invalidating through the cache), one
    // edge, then a re-merge that drains migrations with a non-zero budget.
    let partition = Partition::new(k, owner.to_vec());
    let mut coord = IngestCoordinator::new(
        &partition,
        IngestConfig {
            moves_per_period: 4,
            ..IngestConfig::default()
        },
    );
    coord.attach_metrics(&reg);
    let v = rig.ds.split.train[0];
    let update = ChurnOp::UpdateFeature {
        v,
        row: vec![0.5; dim],
    };
    coord
        .apply(&mut rig.cluster, Some(&mut rig.cache), &update)
        .expect("update acks");
    coord
        .apply(
            &mut rig.cluster,
            Some(&mut rig.cache),
            &ChurnOp::AddEdge { u: 1, v: 2 },
        )
        .expect("edge acks");
    let mut order = rig.ds.split.train.clone();
    coord.remerge_with_cache(&mut rig.cluster, Some(&mut rig.cache), &mut order, &[]);
    for i in 0..k {
        rig.cluster
            .in_process_server(i)
            .expect("in-process server")
            .publish_disk_metrics();
    }

    // The queue-sharded front-end.
    let queue = QueueShardedCache::new(2, dim, 16, PolicyKind::Fifo);
    queue.attach_metrics(&reg);
    let features = rig.ds.features.clone();
    queue.fetch_batch(&[1, 2, 3], &mut |ids: &[NodeId]| features.gather(ids));
    queue.shutdown();

    // A few executor batches over the same cluster and cache.
    let report = run(
        &ExecConfig::new(vec![4, 4], 0x4E41),
        rig.into_task(16, 4),
        &reg,
    )
    .expect("epoch");
    assert_eq!(report.batches_trained, 4);
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }

    let names: Vec<String> = reg.counters().into_iter().map(|(name, _)| name).collect();
    assert_eq!(names, EXPECTED, "the counter-name set changed");
}
