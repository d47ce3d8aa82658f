//! Crash-recovery chaos harness for the durable disk tier: seeded I/O
//! crashes against the WAL-backed feature store, with a bitwise-identical
//! subsequent epoch as the acceptance bar.
//!
//! The claims that close the loop on `bgl_store::{pager, bufpool, wal,
//! tier}` (DESIGN.md §11):
//!
//! 1. **Acked means durable** — every feature update acknowledged by the
//!    cluster (WAL appended + fsynced on every replica) survives a crash
//!    that tears the *unsynced* page writes at a seeded byte prefix. After
//!    recovery, a full training epoch over the recovered store is
//!    bitwise-identical — losses, sampled-subgraph digests, parameters —
//!    to an epoch over a store that never crashed.
//! 2. **Checkpoints bound replay, not correctness** — a mid-stream
//!    checkpoint (page flush + WAL reset) shrinks what replay has to redo
//!    but changes nothing about the recovered bytes.
//! 3. **It composes with the network** — the same crash/recover cycle
//!    behind real loopback TCP servers under r=2 replication still
//!    reproduces the uninterrupted in-process epoch down to the bit; the
//!    write-all update path keeps the replicas bitwise-converged, so reads
//!    may land on either replica.
//!
//! Every tier runs the default configuration — the SIEVE buffer pool at
//! its production size — which decides which pages are resident, never
//! what their bytes are.

mod common;

use bgl_exec::{run, ExecConfig};
use bgl_graph::NodeId;
use bgl_net::{
    spawn_loopback_cluster, NetClientConfig, NetServerConfig, TcpTransport,
};
use bgl_obs::Registry;
use bgl_store::tier::{DiskTierConfig, DurableFeatures};
use bgl_store::{InProcessTransport, IoFaultPlan, RetryPolicy, StoreCluster};
use common::{EpochRig, RigSpec};
use std::path::PathBuf;

const FANOUTS: [usize; 2] = [4, 4];
const BATCH: usize = 16;
const N_BATCHES: usize = 6;
const N_UPDATES: usize = 12;
const REPLICATION: usize = 2;

fn tier_dir(tag: &str, server: usize) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bgl-disk-recovery-{}-{}-{}", std::process::id(), tag, server));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn cleanup(dirs: &[PathBuf]) {
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The update workload: a deterministic subset of training nodes (their
/// rows are certainly read by the epoch, so a lost update cannot hide)
/// with exactly representable new values.
fn update_workload(rig: &EpochRig) -> (Vec<NodeId>, Vec<f32>) {
    let nodes: Vec<NodeId> =
        rig.ds.split.train.iter().copied().step_by(3).take(N_UPDATES).collect();
    assert_eq!(nodes.len(), N_UPDATES, "rig too small for the update workload");
    let dim = rig.ds.features.dim();
    let mut rows = Vec::with_capacity(nodes.len() * dim);
    for &v in &nodes {
        for j in 0..dim {
            rows.push(v as f32 * 0.25 + j as f32 * 0.125);
        }
    }
    (nodes, rows)
}

fn apply_updates(cluster: &mut StoreCluster, nodes: &[NodeId], rows: &[f32]) {
    let w = cluster.worker_location();
    let (applied, _) = cluster.update_features(nodes, rows, w).expect("updates must ack");
    assert_eq!(applied as usize, nodes.len());
}

/// Rebuild the rig's cluster over a fresh in-process transport whose every
/// server fronts a durable disk tier (optionally chaos-backed), with r=2
/// replication — feature reads and writes now go through the
/// pager/bufpool/WAL stack.
fn durable_rig(spec: &RigSpec, tag: &str, fault_seed: Option<u64>) -> (EpochRig, Vec<PathBuf>) {
    let rig = EpochRig::build(spec);
    let owner = rig.cluster.owner_map();
    let k = rig.cluster.num_servers();
    let transport = InProcessTransport::new(
        rig.ds.graph.clone(),
        rig.ds.features.clone(),
        owner,
        k,
        spec.cluster_seed,
    );
    let mut dirs = Vec::new();
    for i in 0..k {
        let dir = tier_dir(tag, i);
        let mut cfg = DiskTierConfig::default();
        if let Some(seed) = fault_seed {
            cfg = cfg.with_fault_plan(IoFaultPlan::new(
                seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
        }
        let tier = DurableFeatures::create(&dir, &rig.ds.features, cfg)
            .expect("create durable tier");
        transport.server(i).expect("in-process server").attach_disk_tier(tier);
        dirs.push(dir);
    }
    let rig = rig.map_cluster(move |c| {
        c.swap_transport(Box::new(transport))
            .with_replication(REPLICATION)
            .with_retry_policy(RetryPolicy { deadline: None, ..RetryPolicy::default() })
    });
    (rig, dirs)
}

/// Crash every server's tier at its seeded point, then recover each from
/// disk and re-attach. Returns the total updates replayed from the WALs.
fn crash_and_recover(rig: &EpochRig, dirs: &[PathBuf]) -> usize {
    for s in 0..dirs.len() {
        let tier = rig
            .cluster
            .in_process_server(s)
            .expect("in-process server")
            .detach_disk_tier()
            .expect("tier attached");
        tier.crash().expect("seeded crash");
    }
    let mut replayed = 0;
    for (s, dir) in dirs.iter().enumerate() {
        let (tier, report) = DurableFeatures::open(dir, DiskTierConfig::default()).expect("recovery");
        replayed += report.replayed_updates;
        rig.cluster.in_process_server(s).unwrap().attach_disk_tier(tier);
    }
    replayed
}

fn exec_cfg() -> ExecConfig {
    ExecConfig::new(FANOUTS.to_vec(), 0xD15C)
}

/// The uninterrupted reference: clean durable tiers, updates applied, one
/// epoch. Everything downstream must reproduce `losses`/`digests`/`params`
/// bitwise.
fn reference_epoch(spec: &RigSpec, tag: &str) -> bgl_exec::ExecReport {
    let (mut rig, dirs) = durable_rig(spec, tag, None);
    let (nodes, rows) = update_workload(&rig);
    apply_updates(&mut rig.cluster, &nodes, &rows);
    let result = run(&exec_cfg(), rig.into_task(BATCH, N_BATCHES), &Registry::disabled())
        .expect("uninterrupted epoch");
    cleanup(&dirs);
    result
}

/// Claim 1, quantified over crash seeds: every seeded torn-write crash
/// point recovers to the same bits.
#[test]
fn crash_at_every_seeded_point_recovers_bitwise_in_process() {
    let spec = RigSpec::default();
    let reference = reference_epoch(&spec, "ref");
    assert_eq!(reference.batches_trained, N_BATCHES);

    for (i, seed) in [0xA1u64, 0xB2, 0xC3, 0xD4].into_iter().enumerate() {
        let tag = format!("crash-{i}");
        let (mut rig, dirs) = durable_rig(&spec, &tag, Some(seed));
        let (nodes, rows) = update_workload(&rig);
        apply_updates(&mut rig.cluster, &nodes, &rows);

        let replayed = crash_and_recover(&rig, &dirs);
        // Write-all replication: every acked update is WAL-durable on its
        // primary AND its replica, and nothing was checkpointed away.
        assert_eq!(
            replayed,
            N_UPDATES * REPLICATION,
            "seed {seed:#x}: all acked updates must replay from the WALs"
        );

        // Direct read-back before the epoch: the recovered tiers serve the
        // updated rows.
        let w = rig.cluster.worker_location();
        let (got, _) = rig.cluster.fetch_features(&nodes, w).expect("fetch after recovery");
        assert_eq!(got.to_vec(), rows, "seed {seed:#x}: recovered rows must match acked updates");

        let recovered =
            run(&exec_cfg(), rig.into_task(BATCH, N_BATCHES), &Registry::disabled())
                .expect("epoch over recovered store");
        assert_eq!(recovered.losses, reference.losses, "seed {seed:#x}: losses");
        assert_eq!(recovered.digests, reference.digests, "seed {seed:#x}: digests");
        assert_eq!(recovered.params, reference.params, "seed {seed:#x}: params");
        cleanup(&dirs);
    }
}

/// Claim 2: a checkpoint between two update waves bounds WAL replay to the
/// second wave — and the recovered bytes are still identical.
#[test]
fn checkpoint_bounds_wal_replay_but_not_recovery() {
    let spec = RigSpec::default();
    let reference = reference_epoch(&spec, "ckpt-ref");

    let (mut rig, dirs) = durable_rig(&spec, "ckpt", Some(0x5EED));
    let (nodes, rows) = update_workload(&rig);
    let dim = rig.ds.features.dim();
    let half = N_UPDATES / 2;

    apply_updates(&mut rig.cluster, &nodes[..half], &rows[..half * dim]);
    for s in 0..dirs.len() {
        rig.cluster
            .in_process_server(s)
            .unwrap()
            .checkpoint_disk()
            .expect("checkpoint flushes pages then resets the WAL");
    }
    apply_updates(&mut rig.cluster, &nodes[half..], &rows[half * dim..]);

    let replayed = crash_and_recover(&rig, &dirs);
    assert_eq!(
        replayed,
        (N_UPDATES - half) * REPLICATION,
        "only the post-checkpoint wave should need replay"
    );

    let w = rig.cluster.worker_location();
    let (got, _) = rig.cluster.fetch_features(&nodes, w).expect("fetch after recovery");
    assert_eq!(got.to_vec(), rows, "both waves must be present after recovery");

    let recovered = run(&exec_cfg(), rig.into_task(BATCH, N_BATCHES), &Registry::disabled())
        .expect("epoch over recovered store");
    assert_eq!(recovered.losses, reference.losses);
    assert_eq!(recovered.digests, reference.digests);
    assert_eq!(recovered.params, reference.params);
    cleanup(&dirs);
}

/// Claim 3: the same crash/recover cycle behind real loopback TCP servers
/// with r=2 replication, compared bitwise against the in-process
/// uninterrupted reference.
#[test]
fn tcp_r2_crash_recovery_is_bitwise_identical() {
    let spec = RigSpec::default();
    let reference = reference_epoch(&spec, "tcp-ref");

    let reg = Registry::disabled();
    let rig = EpochRig::build(&spec);
    let owner = rig.cluster.owner_map();
    let k = rig.cluster.num_servers();
    let lc = spawn_loopback_cluster(
        rig.ds.graph.clone(),
        rig.ds.features.clone(),
        owner,
        k,
        spec.cluster_seed,
        NetServerConfig::default(),
        &reg,
    )
    .expect("spawn loopback cluster");

    // Chaos-backed tiers behind the live TCP servers.
    let mut dirs = Vec::new();
    for i in 0..k {
        let dir = tier_dir("tcp", i);
        let cfg = DiskTierConfig::default().with_fault_plan(IoFaultPlan::new(0xF00D + i as u64));
        let tier =
            DurableFeatures::create(&dir, &rig.ds.features, cfg).expect("create tier");
        lc.store(i).expect("live server").attach_disk_tier(tier);
        dirs.push(dir);
    }

    let addrs = lc.addrs();
    let mut rig = rig.map_cluster(|c| {
        c.swap_transport(Box::new(
            TcpTransport::connect(&addrs, NetClientConfig::default(), &reg)
                .expect("dial loopback cluster"),
        ))
        .with_replication(REPLICATION)
        .with_retry_policy(RetryPolicy { deadline: None, ..RetryPolicy::default() })
    });

    // Updates travel the full wire path: client → TCP → server → WAL-first
    // tier on every replica.
    let (nodes, rows) = update_workload(&rig);
    apply_updates(&mut rig.cluster, &nodes, &rows);

    // Crash the storage under the still-running servers, recover, re-attach.
    let mut replayed = 0;
    for (i, dir) in dirs.iter().enumerate() {
        let tier = lc.store(i).unwrap().detach_disk_tier().expect("tier attached");
        tier.crash().expect("seeded crash");
        let (tier, report) = DurableFeatures::open(dir, DiskTierConfig::default()).expect("recovery");
        replayed += report.replayed_updates;
        lc.store(i).unwrap().attach_disk_tier(tier);
    }
    assert_eq!(replayed, N_UPDATES * REPLICATION);

    let w = rig.cluster.worker_location();
    let (got, _) = rig.cluster.fetch_features(&nodes, w).expect("fetch over tcp");
    assert_eq!(got.to_vec(), rows, "recovered rows must round-trip the wire");

    let recovered = run(&exec_cfg(), rig.into_task(BATCH, N_BATCHES), &reg)
        .expect("epoch over recovered tcp store");
    assert_eq!(recovered.losses, reference.losses, "losses over TCP after recovery");
    assert_eq!(recovered.digests, reference.digests, "digests over TCP after recovery");
    assert_eq!(recovered.params, reference.params, "params over TCP after recovery");

    lc.shutdown();
    cleanup(&dirs);
}
