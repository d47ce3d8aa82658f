//! Chaos acceptance suite for live owner migration (DESIGN.md §10).
//!
//! Four claims close the loop on the crash-safe data-movement protocol:
//!
//! 1. **Every phase boundary is survivable** — killing the source, the
//!    destination, or a bystander at each of the four protocol phases
//!    (prepare / copy / commit / tombstone), in-process and over real TCP
//!    under r=2 replication, always recovers to a consistent cluster:
//!    every server agrees on one owner, exactly the owner's replica chain
//!    serves the node, the row's bytes survive, and a stale client
//!    redirects instead of hanging.
//! 2. **WAL replay restores migration state** — a crash after any prefix
//!    of the protocol reopens into the same committed-or-aborted state the
//!    protocol's commit point dictates: no node lost, none double-owned,
//!    half-done migrations repairable forward.
//! 3. **Training cannot tell** — a full threaded epoch over a migrated
//!    cluster (in-process, and over TCP under r=2) is bitwise-identical to
//!    the same epoch over a never-migrated cluster: same losses, digests,
//!    and final parameters.
//! 4. **Churn + faults stay deterministic** — the ingest pipeline's
//!    rate-limited migration drain under a seeded fault plan produces a
//!    byte-identical outcome per seed, with both the commit and the abort
//!    paths exercised.

mod common;

use bgl_exec::{run, ExecConfig};
use bgl_graph::{FeatureStore, NodeId};
use bgl_ingest::{ChurnPlan, IngestConfig, IngestCoordinator, MigrateReport};
use bgl_net::{spawn_loopback_cluster, NetClientConfig, NetServerConfig, TcpTransport};
use bgl_obs::Registry;
use bgl_partition::{Partition, Partitioner, RoundRobinPartitioner};
use bgl_sim::network::NetworkModel;
use bgl_sim::MILLISECOND;
use bgl_store::{
    DiskTierConfig, DurableFeatures, FaultPlan, InProcessTransport, MigratePhase, Migration,
    RetryPolicy, StoreCluster, StoreError,
};
use common::{EpochRig, RigSpec};
use std::sync::Arc;

const DIM: usize = 2;

fn dataset(n: usize, k: usize) -> (Arc<bgl_graph::Csr>, Arc<FeatureStore>, Partition) {
    let g = Arc::new(bgl_graph::generate::barabasi_albert(n, 3, 7));
    let mut f = FeatureStore::zeros(n, DIM);
    for v in 0..n as u32 {
        f.row_mut(v).copy_from_slice(&[v as f32, v as f32 + 0.5]);
    }
    let p = RoundRobinPartitioner.partition(&g, &[], k);
    (g, Arc::new(f), p)
}

/// The four protocol steps, indexable so the kill matrix can stop before
/// any one of them.
type Step = fn(&mut Migration, &mut StoreCluster) -> Result<(), StoreError>;
const STEPS: [Step; 4] = [
    Migration::step_prepare,
    Migration::step_copy,
    Migration::step_commit,
    Migration::step_tombstone,
];
const PHASE_NAMES: [&str; 4] = ["prepare", "copy", "commit", "tombstone"];

/// Post-recovery consistency: one agreed owner everywhere, exactly the
/// owner's r=2 chain serving, tombstone iff committed, bytes intact,
/// sampling alive.
fn assert_consistent_in_process(
    c: &mut StoreCluster,
    v: NodeId,
    source: u32,
    dest: u32,
    committed: bool,
    ctx: &str,
) {
    let owner = if committed { dest } else { source };
    let k = c.num_servers();
    assert_eq!(c.owner_of(v).unwrap(), owner as usize, "{ctx}: routing map");
    let chain = [owner as usize, (owner as usize + 1) % k];
    for i in 0..k {
        let s = c.in_process_server(i).unwrap();
        assert_eq!(s.owner_view(v), Some(owner), "{ctx}: server {i} owner view");
        assert_eq!(s.serves(v), chain.contains(&i), "{ctx}: server {i} serving set");
    }
    assert_eq!(
        c.in_process_server(source as usize).unwrap().is_tombstoned(v),
        committed,
        "{ctx}: tombstone only after commit"
    );
    let w = c.worker_location();
    let (rows, _) = c.fetch_features(&[v], w).unwrap();
    assert_eq!(rows.to_vec(), vec![v as f32, v as f32 + 0.5], "{ctx}: row bytes");
    let (mb, _) = c.sample_batch_seeded(&[2, 2], &[v], 0, 0xC0FFEE).unwrap();
    assert_eq!(mb.seeds, vec![v], "{ctx}: post-recovery sampling");
}

/// Claim 1, in-process: the kill matrix. For every phase × victim pair the
/// victim dies right before the phase runs; whatever the step reports, the
/// cluster must converge — forward past the commit point, abort before it.
#[test]
fn in_process_kill_at_every_phase_and_victim_recovers_consistently() {
    let v: NodeId = 6; // round-robin k=3: owned by server 0
    let (source, dest) = (0u32, 2u32);
    for (pi, phase) in PHASE_NAMES.iter().enumerate() {
        for victim in 0..3usize {
            let ctx = format!("phase={phase} victim={victim}");
            let (g, f, p) = dataset(120, 3);
            let mut c = StoreCluster::new(g, f, &p, NetworkModel::paper_fabric(), 3)
                .with_replication(2)
                .with_retry_policy(RetryPolicy { deadline: None, ..RetryPolicy::default() });
            let mut m = c.begin_migration(v, dest).unwrap();
            assert_eq!((m.source, m.dest), (source, dest), "{ctx}");
            for step in &STEPS[..pi] {
                step(&mut m, &mut c).unwrap_or_else(|e| panic!("{ctx}: pre-phase {e}"));
            }
            c.set_server_down(victim, true).unwrap();
            let res = STEPS[pi](&mut m, &mut c);
            c.set_server_down(victim, false).unwrap();
            let committed = match res {
                // The victim wasn't on this phase's path: finish normally.
                Ok(()) => {
                    for step in &STEPS[pi + 1..] {
                        step(&mut m, &mut c).unwrap_or_else(|e| panic!("{ctx}: tail {e}"));
                    }
                    assert_eq!(m.phase, MigratePhase::Done, "{ctx}");
                    true
                }
                // The kill landed: repair either completes a committed
                // move or confirms the abort.
                Err(_) => c.repair_migration(v, m.source, m.dest).unwrap(),
            };
            assert_consistent_in_process(&mut c, v, source, dest, committed, &ctx);
            // A kill strictly before the commit phase can never have
            // committed; a kill at or after it can go either way.
            if pi < 2 && res.is_err() {
                assert!(!committed, "{ctx}: pre-commit kill must abort");
            }
            if pi == 3 {
                assert!(committed, "{ctx}: ownership flipped before the tombstone phase");
            }
        }
    }
}

/// Claim 1 corollary: repair works while the source is *still dead* — the
/// owner question fails over to the source's r=2 ring successor.
#[test]
fn repair_confirms_abort_while_the_source_is_still_dead() {
    let (g, f, p) = dataset(120, 3);
    let mut c = StoreCluster::new(g, f, &p, NetworkModel::paper_fabric(), 3)
        .with_replication(2)
        .with_retry_policy(RetryPolicy { deadline: None, ..RetryPolicy::default() });
    let v: NodeId = 6; // owner 0
    let mut m = c.begin_migration(v, 2).unwrap();
    c.set_server_down(0, true).unwrap();
    assert!(m.step_prepare(&mut c).is_err(), "prepare needs the source");
    // Repair with the source down: server 1 (replica of 0) answers the
    // owner question and confirms nothing committed.
    assert!(!c.repair_migration(v, m.source, m.dest).unwrap());
    assert_eq!(c.owner_of(v).unwrap(), 0);
    // The node keeps serving through the replica while the owner is dead.
    let w = c.worker_location();
    let (rows, _) = c.fetch_features(&[v], w).unwrap();
    assert_eq!(rows.to_vec(), vec![6.0, 6.5]);
    c.set_server_down(0, false).unwrap();
    assert!(!c.in_process_server(0).unwrap().is_tombstoned(v));
}

/// Claim 1, over real TCP under r=2: the same kill matrix driven through
/// loopback sockets (`SetDown` control frames play the kill), with the
/// added check that a *stale* second client — dialed with the original
/// owner map — redirects via `NotOwner` over the wire and converges.
#[test]
fn tcp_kill_at_every_phase_and_victim_recovers_consistently_under_r2() {
    let v: NodeId = 6; // owner 0
    // dest = 1 keeps the source out of the destination's replica chain
    // ([1, 2] under r=2), so a stale client routed to the retired source
    // must take the `NotOwner` redirect — nothing serves it locally.
    let (source, dest) = (0u32, 1u32);
    for (pi, phase) in PHASE_NAMES.iter().enumerate() {
        for victim in 0..3usize {
            let ctx = format!("tcp phase={phase} victim={victim}");
            let (g, f, p) = dataset(120, 3);
            let owner = Arc::new(p.assignment.clone());
            let reg = Registry::enabled();
            let lc = spawn_loopback_cluster(
                g.clone(),
                f.clone(),
                owner.clone(),
                3,
                3,
                NetServerConfig::default(),
                &reg,
            )
            .unwrap();
            let addrs = lc.addrs();
            let tcp = TcpTransport::connect(&addrs, NetClientConfig::default(), &reg).unwrap();
            let mut c =
                StoreCluster::with_transport(Box::new(tcp), owner.clone(), NetworkModel::paper_fabric())
                    .with_replication(2)
                    .with_retry_policy(RetryPolicy { deadline: None, ..RetryPolicy::default() });

            let mut m = c.begin_migration(v, dest).unwrap();
            for step in &STEPS[..pi] {
                step(&mut m, &mut c).unwrap_or_else(|e| panic!("{ctx}: pre-phase {e}"));
            }
            c.set_server_down(victim, true).unwrap();
            let res = STEPS[pi](&mut m, &mut c);
            c.set_server_down(victim, false).unwrap();
            let committed = match res {
                Ok(()) => {
                    for step in &STEPS[pi + 1..] {
                        step(&mut m, &mut c).unwrap_or_else(|e| panic!("{ctx}: tail {e}"));
                    }
                    true
                }
                Err(_) => c.repair_migration(v, m.source, m.dest).unwrap(),
            };
            let expect = if committed { dest } else { source };
            assert_eq!(c.owner_of(v).unwrap(), expect as usize, "{ctx}: routing map");
            let w = c.worker_location();
            let (rows, _) = c.fetch_features(&[v], w).unwrap();
            assert_eq!(rows.to_vec(), vec![6.0, 6.5], "{ctx}: row bytes");
            let (mb, _) = c.sample_batch_seeded(&[2, 2], &[v], 0, 0xC0FFEE).unwrap();
            assert_eq!(mb.seeds, vec![v], "{ctx}: sampling");

            if committed {
                // A second client with the pre-migration owner map chases
                // the stale owner; the `NotOwner` frame crosses the wire
                // and redirects it in one hop.
                let stale_t =
                    TcpTransport::connect(&addrs, NetClientConfig::default(), &reg).unwrap();
                let mut stale = StoreCluster::with_transport(
                    Box::new(stale_t),
                    owner.clone(),
                    NetworkModel::paper_fabric(),
                )
                .with_replication(2);
                let ws = stale.worker_location();
                let (rows, _) = stale.fetch_features(&[v], ws).unwrap();
                assert_eq!(rows.to_vec(), vec![6.0, 6.5], "{ctx}: stale client bytes");
                assert!(stale.robustness.redirects > 0, "{ctx}: must have redirected");
                assert_eq!(stale.owner_of(v).unwrap(), dest as usize, "{ctx}: learned owner");
            }
            lc.shutdown();
        }
    }
}

/// Claim 2: crash + WAL replay. Three migrations stop at three different
/// points (complete / commit-but-no-tombstone / copy-only); the cluster is
/// dropped cold and rebuilt from the reopened tiers. Replay must restore
/// exactly the committed prefix of each protocol run.
#[test]
fn wal_replay_restores_committed_flips_and_repairs_half_done_migrations() {
    let (g, f, p) = dataset(90, 3);
    let owner = Arc::new(p.assignment.clone());
    let cfg = DiskTierConfig::default().with_page_size(64).with_pool_pages(8);
    let mut dirs = Vec::new();
    let transport = InProcessTransport::new(g.clone(), f.clone(), owner.clone(), 3, 5);
    for i in 0..3 {
        let mut dir = std::env::temp_dir();
        dir.push(format!("bgl-migrate-wal-{}-{}", std::process::id(), i));
        let tier = DurableFeatures::create(&dir, &f, cfg.clone()).unwrap();
        transport.server(i).unwrap().attach_disk_tier(tier);
        dirs.push(dir);
    }
    let mut c = StoreCluster::with_transport(
        Box::new(transport),
        owner.clone(),
        NetworkModel::paper_fabric(),
    );

    // v1: the full protocol. v2: everything but the tombstone. v3: only
    // prepare + copy (inert — the crash must erase nothing).
    let v1: NodeId = 3; // owner 0 → 1
    c.migrate_node(v1, 1).unwrap();
    let v2: NodeId = 4; // owner 1 → 2
    let mut m2 = c.begin_migration(v2, 2).unwrap();
    m2.step_prepare(&mut c).unwrap();
    m2.step_copy(&mut c).unwrap();
    m2.step_commit(&mut c).unwrap();
    let v3: NodeId = 5; // owner 2 → 0
    let mut m3 = c.begin_migration(v3, 0).unwrap();
    m3.step_prepare(&mut c).unwrap();
    m3.step_copy(&mut c).unwrap();

    // Crash: no checkpoint, no shutdown. Only the WALs survive.
    drop(c);

    let transport = InProcessTransport::new(g.clone(), f.clone(), owner.clone(), 3, 5);
    let mut replayed_owner_sets = 0;
    let mut replayed_tombstones = 0;
    for (i, dir) in dirs.iter().enumerate() {
        let (tier, report) = DurableFeatures::open(dir, cfg.clone()).unwrap();
        assert_eq!(report.torn_wal_bytes, 0, "server {i}");
        replayed_owner_sets += report.replayed_owner_sets;
        replayed_tombstones += report.replayed_tombstones;
        transport.server(i).unwrap().attach_disk_tier(tier);
    }
    // v1 committed on all three servers, v2 on all three; v1's tombstone
    // journaled on its source only.
    assert_eq!(replayed_owner_sets, 6, "committed flips replay everywhere");
    assert_eq!(replayed_tombstones, 1, "only v1 tombstoned before the crash");
    let mut c = StoreCluster::with_transport(
        Box::new(transport),
        owner.clone(),
        NetworkModel::paper_fabric(),
    );

    // v1: fully migrated; the rebuilt cluster starts from the stale base
    // map and must *redirect* its way to the truth, not hang.
    for i in 0..3 {
        assert_eq!(c.in_process_server(i).unwrap().owner_view(v1), Some(1), "server {i}");
    }
    assert!(c.in_process_server(0).unwrap().is_tombstoned(v1));
    let w = c.worker_location();
    let (rows, _) = c.fetch_features(&[v1], w).unwrap();
    assert_eq!(rows.to_vec(), vec![3.0, 3.5]);
    assert!(c.robustness.redirects > 0, "stale base map must redirect");
    assert_eq!(c.owner_of(v1).unwrap(), 1);

    // v2: committed but not tombstoned. Repair drives it forward.
    for i in 0..3 {
        assert_eq!(c.in_process_server(i).unwrap().owner_view(v2), Some(2), "server {i}");
    }
    assert!(!c.in_process_server(1).unwrap().is_tombstoned(v2));
    assert!(c.repair_migration(v2, 1, 2).unwrap(), "commit point was durable");
    assert!(c.in_process_server(1).unwrap().is_tombstoned(v2));

    // v3: never committed — the inert copy changed nothing observable.
    for i in 0..3 {
        assert_eq!(c.in_process_server(i).unwrap().owner_view(v3), Some(2), "server {i}");
    }
    assert!(!c.in_process_server(2).unwrap().is_tombstoned(v3));
    assert!(!c.repair_migration(v3, 2, 0).unwrap(), "pre-commit crash aborts");

    // Global invariant: every node has exactly one owner, all views agree,
    // and exactly that owner serves it.
    for v in 0..90u32 {
        let views: Vec<_> =
            (0..3).map(|i| c.in_process_server(i).unwrap().owner_view(v).unwrap()).collect();
        assert!(views.windows(2).all(|w| w[0] == w[1]), "node {v} views diverge: {views:?}");
        let serving: Vec<usize> =
            (0..3).filter(|&i| c.in_process_server(i).unwrap().serves(v)).collect();
        assert_eq!(serving, vec![views[0] as usize], "node {v} serving set");
    }
    let (rows, _) = c.fetch_features(&[v2, v3], w).unwrap();
    assert_eq!(rows.to_vec(), vec![4.0, 4.5, 5.0, 5.5]);
    for dir in dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Claim 3: training cannot tell. One seeded threaded epoch over a
/// never-migrated in-process cluster is the baseline; the same epoch over
/// a heavily migrated in-process cluster and over a migrated TCP cluster
/// under r=2 must match it bitwise — losses, sampled-subgraph digests,
/// and final parameters.
#[test]
fn epoch_after_migration_is_bitwise_identical_to_never_migrated() {
    const BATCH: usize = 16;
    const FANOUTS: [usize; 2] = [5, 5];
    let cfg = ExecConfig::new(FANOUTS.to_vec(), 0x31A).with_workers([1, 3, 2, 2, 2, 2, 2, 1]);
    let baseline = run(
        &cfg,
        EpochRig::build(&RigSpec::exec_sized()).into_task(BATCH, 8),
        &Registry::disabled(),
    )
    .expect("baseline epoch");

    // A burst of migrations before the epoch: every 97th node hops to its
    // owner's ring successor, and one node is chained through two moves.
    let migrate_all = |cluster: &mut StoreCluster| {
        let k = cluster.num_servers() as u32;
        let total = cluster.total_nodes() as u32;
        let mut moved = 0u32;
        for v in (0..total).step_by(97) {
            let o = cluster.owner_of(v).unwrap() as u32;
            cluster.migrate_node(v, (o + 1) % k).unwrap();
            moved += 1;
        }
        let o = cluster.owner_of(0).unwrap() as u32;
        cluster.migrate_node(0, (o + 1) % k).unwrap();
        assert!(moved > 20, "the burst must actually move nodes: {moved}");
    };

    let mut rig = EpochRig::build(&RigSpec::exec_sized());
    migrate_all(&mut rig.cluster);
    let migrated = run(&cfg, rig.into_task(BATCH, 8), &Registry::disabled())
        .expect("migrated epoch");
    assert_eq!(migrated.losses, baseline.losses, "in-process losses diverged");
    assert_eq!(migrated.digests, baseline.digests, "in-process digests diverged");
    assert_eq!(migrated.params, baseline.params, "in-process params diverged");

    // Same again over real sockets with r=2: the migrations themselves
    // run through the wire protocol before the epoch starts.
    let reg = Registry::enabled();
    let rig = EpochRig::build(&RigSpec::exec_sized());
    let lc = spawn_loopback_cluster(
        rig.ds.graph.clone(),
        rig.ds.features.clone(),
        rig.cluster.owner_map(),
        rig.cluster.num_servers(),
        RigSpec::default().cluster_seed,
        NetServerConfig::default(),
        &reg,
    )
    .expect("spawn loopback cluster");
    let addrs = lc.addrs();
    let mut rig = rig.map_cluster(|c| {
        c.swap_transport(Box::new(
            TcpTransport::connect(&addrs, NetClientConfig::default(), &reg).unwrap(),
        ))
        .with_replication(2)
    });
    migrate_all(&mut rig.cluster);
    let tcp = run(&cfg, rig.into_task(BATCH, 8), &reg).expect("tcp migrated epoch");
    lc.shutdown();
    assert_eq!(tcp.losses, baseline.losses, "tcp losses diverged");
    assert_eq!(tcp.digests, baseline.digests, "tcp digests diverged");
    assert_eq!(tcp.params, baseline.params, "tcp params diverged");
}

/// One churn-plus-chaos run: seeded churn through the ingest coordinator
/// with physical migration draining each re-merge, under a seeded fault
/// plan (a crash window, drops, a slow server). Returns everything
/// observable so the determinism claim can compare runs bitwise.
fn chaos_churn(seed: u64) -> (MigrateReport, Vec<u64>, Vec<u32>, usize) {
    let g = Arc::new(bgl_graph::generate::community_graph(
        bgl_graph::generate::CommunityConfig { n: 300, communities: 6, intra: 6, inter: 1 },
        17,
    ));
    let mut f = FeatureStore::zeros(300, DIM);
    for v in 0..300u32 {
        f.row_mut(v)[0] = v as f32;
    }
    let p = bgl_partition::LdgPartitioner::new(5).partition(&g, &[], 3);
    let plan = FaultPlan::new(seed)
        .crash(1, 60, 20 * MILLISECOND)
        .crash(2, 200, 20 * MILLISECOND)
        .drops(0.02);
    let mut c = StoreCluster::new(g, Arc::new(f), &p, NetworkModel::paper_fabric(), seed)
        .with_replication(2)
        .with_retry_policy(RetryPolicy { deadline: None, ..RetryPolicy::default() })
        .with_fault_plan(plan);
    let mut coord = IngestCoordinator::new(
        &p,
        IngestConfig { remerge_period: 24, capacity_slack: 1.1, moves_per_period: 6 },
    );
    // No feature updates in the mix — the fault plan already exercises the
    // write path through arrivals and edge inserts.
    let schedule = ChurnPlan::new(seed ^ 0xC0DE).ops(260).mix(5, 3, 0).schedule(300, DIM);
    let mut order: Vec<NodeId> = Vec::new();
    for op in &schedule {
        // A crash window can fail the write-all broadcast mid-stream;
        // re-applying is idempotent (duplicate edges reject, node ids are
        // only consumed on ack), so drive each op until it lands.
        let mut attempts = 0;
        while coord.apply(&mut c, None, op).is_err() {
            attempts += 1;
            assert!(attempts < 400, "op never landed: {op:?}");
        }
        if coord.remerge_due() {
            coord.remerge(&mut c, &mut order, &[]);
        }
    }
    // One drain with a server down: the commit broadcast spans the whole
    // cluster, so every move drained in this window trips over server 1
    // somewhere — pre-commit failures abort cleanly, post-commit ones
    // park as ambiguous repairs. Both failure paths run on real backlog.
    c.set_server_down(1, true).unwrap();
    coord.remerge(&mut c, &mut order, &[]);
    c.set_server_down(1, false).unwrap();
    // Parked repairs retry first on each later drain; they must all
    // confirm an outcome now that the fault cleared.
    let mut rounds = 0;
    while coord.planner().pending_repairs() > 0 {
        coord.remerge(&mut c, &mut order, &[]);
        rounds += 1;
        assert!(rounds < 16, "repairs must converge once the fault cleared");
    }

    // Invariants regardless of where the faults landed: every node has
    // exactly one agreed owner and is fetchable.
    let total = c.total_nodes();
    let mut owners = Vec::with_capacity(total);
    for v in 0..total as u32 {
        let views: Vec<u32> =
            (0..3).map(|i| c.in_process_server(i).unwrap().owner_view(v).unwrap()).collect();
        assert!(views.windows(2).all(|w| w[0] == w[1]), "node {v} views diverge: {views:?}");
        owners.push(views[0]);
    }
    let w = c.worker_location();
    for v in (0..total as u32).step_by(13) {
        let (rows, _) = c.fetch_features(&[v], w).unwrap();
        assert_eq!(rows.to_vec().len(), DIM, "node {v} must stay fetchable");
    }
    let report = coord.planner().report();
    assert_eq!(
        report.planned,
        report.committed + report.aborted + report.skipped
            + coord.planner().backlog_len() as u64,
        "every planned move is accounted for: {report:?}"
    );
    let counters = vec![
        c.robustness.retries,
        c.robustness.failovers,
        c.robustness.drops,
        c.robustness.redirects,
        coord.report().applied,
        coord.report().reassignments,
    ];
    (report, counters, owners, total)
}

/// Claim 4: chaos determinism plus both protocol outcomes exercised.
#[test]
fn churn_with_faults_drains_migrations_deterministically() {
    let (rep_a, ct_a, own_a, tot_a) = chaos_churn(0xB61);
    let (rep_b, ct_b, own_b, tot_b) = chaos_churn(0xB61);
    assert_eq!(rep_a, rep_b, "planner outcome must be seed-deterministic");
    assert_eq!(ct_a, ct_b, "robustness counters must be seed-deterministic");
    assert_eq!(own_a, own_b, "final owner map must be seed-deterministic");
    assert_eq!(tot_a, tot_b);

    // Across a handful of seeds both paths must fire: migrations that
    // commit, and migrations the fault plan forces to abort cleanly.
    let mut committed = rep_a.committed;
    let mut aborted = rep_a.aborted;
    for seed in [0x5EED, 0xFACE] {
        let (r, _, _, _) = chaos_churn(seed);
        committed += r.committed;
        aborted += r.aborted;
    }
    assert!(committed > 0, "the sweep must commit some migrations");
    assert!(aborted > 0, "the sweep must abort some migrations");
}
