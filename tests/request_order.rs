//! Pins the order in which `StoreCluster` issues its per-server requests.
//!
//! Every public operation fans one logical request out to several servers
//! — owner groups in ascending owner order, replica chains in chain order,
//! broadcasts as `0..k` — and the fault injector decides each attempt's
//! fate from the *global request counter*. Reordering two requests
//! therefore moves every later crash window, retry, failover, breaker
//! transition, ledger byte and clock tick. This suite runs each operation
//! once under a scripted plan and asserts the whole trace literally, so a
//! refactor of the fan-out code has to reproduce it byte for byte.
//!
//! Nothing here consults an RNG: the plan has only `crash` and `slow`
//! entries (keyed by the request counter), the graph is a hand-built ring
//! lattice of degree 4, and every fanout is >= 4 so servers return whole
//! neighbor lists. The literals hold under any `rand` implementation.

use bgl_graph::{FeatureStore, GraphBuilder, NodeId};
use bgl_sim::network::{NetworkModel, RobustnessStats};
use bgl_sim::MICROSECOND;
use bgl_store::RobustEvent::*;
use bgl_store::{
    CircuitBreaker, DiskTierConfig, DurableFeatures, FaultPlan, InProcessTransport, MigratePhase,
    RetryPolicy, StoreCluster,
};
use std::sync::Arc;

const N: usize = 64;
const K: usize = 4;
const DIM: usize = 2;

/// 4 servers, r = 2, every server with a disk tier (so updates have a WAL
/// to land on), node `v` owned by server `v % 4`, ring lattice `v ~ v+1,
/// v ~ v+5`.
fn cluster(plan: FaultPlan) -> (StoreCluster, Vec<std::path::PathBuf>) {
    let mut b = GraphBuilder::new(N);
    for v in 0..N as NodeId {
        b.add_undirected(v, (v + 1) % N as NodeId);
        b.add_undirected(v, (v + 5) % N as NodeId);
    }
    let g = Arc::new(b.build());
    let mut f = FeatureStore::zeros(N, DIM);
    for v in 0..N as NodeId {
        f.row_mut(v).copy_from_slice(&[v as f32, v as f32 + 0.5]);
    }
    let f = Arc::new(f);
    let owner: Arc<Vec<u32>> = Arc::new((0..N as u32).map(|v| v % K as u32).collect());
    let transport = InProcessTransport::new(g, f.clone(), owner.clone(), K, 5);
    let mut dirs = Vec::new();
    for i in 0..K {
        let mut dir = std::env::temp_dir();
        dir.push(format!("bgl-request-order-{}-{}", std::process::id(), i));
        let cfg = DiskTierConfig::default()
            .with_page_size(64)
            .with_pool_pages(8);
        let tier = DurableFeatures::create(&dir, &f, cfg).unwrap();
        transport.server(i).unwrap().attach_disk_tier(tier);
        dirs.push(dir);
    }
    let cluster =
        StoreCluster::with_transport(Box::new(transport), owner, NetworkModel::paper_fabric())
            .with_replication(2)
            .with_retry_policy(RetryPolicy {
                deadline: None,
                ..RetryPolicy::default()
            })
            // Cooldown shorter than the run, so the opened breaker is also
            // probed and closed again inside the trace.
            .with_breaker(CircuitBreaker::new(3, 300 * MICROSECOND))
            .with_fault_plan(plan);
    (cluster, dirs)
}

#[test]
fn every_operation_issues_its_requests_in_the_pinned_order() {
    // Crash 1 lands inside the first feature fetch (a read: retry ladder,
    // breaker, failover to the replica); the slow window covers both
    // sampling calls; crash 2 lands inside the update's write-all chain (no
    // failover: the ladder must outlast the window on the same replica);
    // crash 3 lands in the migration's commit broadcast.
    let plan = FaultPlan::new(1)
        .crash(1, 2, 400 * MICROSECOND)
        .slow(2, 4.0, 8, 24)
        .crash(3, 27, 120 * MICROSECOND)
        .crash(1, 44, 100 * MICROSECOND);
    let (mut c, dirs) = cluster(plan);
    let w = c.worker_location();

    // (sequential clock after the op, the op's modelled-parallel elapsed)
    let mut times = Vec::new();
    let (rows, t) = c.fetch_features(&[0, 1, 2, 3, 5, 6, 7, 9], w).unwrap();
    assert_eq!(rows.row(4), &[5.0, 5.5]);
    times.push((c.clock, t));
    let (mb, timing) = c.sample_batch(&[4, 4], &[0, 1, 2, 3], 0).unwrap();
    assert_eq!(mb.blocks.len(), 2);
    assert_eq!((timing.local_requests, timing.remote_requests), (2, 6));
    let mut hops = vec![timing.per_hop];
    times.push((c.clock, timing.elapsed));
    let (mb, timing) = c
        .sample_batch_seeded(&[4, 4], &[4, 9, 14], 1, 0xA11CE)
        .unwrap();
    assert_eq!(mb.seeds, vec![4, 9, 14]);
    hops.push(timing.per_hop);
    times.push((c.clock, timing.elapsed));
    let (applied, t) = c
        .update_features(
            &[2, 7, 8, 13],
            &[20.0, 20.5, 70.0, 70.5, 80.0, 80.5, 130.0, 130.5],
            w,
        )
        .unwrap();
    assert_eq!(applied, 4);
    times.push((c.clock, t));
    let (applied, rejected, t) = c.ingest_add_edges(&[(0, 2), (0, 1), (10, 20)], w).unwrap();
    assert_eq!((applied, rejected), (2, 1));
    times.push((c.clock, t));
    let (id, t) = c.ingest_add_node(2, &[9.0, 9.5], w).unwrap();
    assert_eq!(id as usize, N);
    times.push((c.clock, t));
    let m = c.migrate_node(6, 0).unwrap();
    assert_eq!((m.source, m.dest, m.phase), (2, 0, MigratePhase::Done));
    times.push((c.clock, m.total_time()));
    assert!(c.repair_migration(6, 2, 0).unwrap());
    times.push((c.clock, 0));
    let (rows, t) = c.fetch_features(&[6, 7, id], w).unwrap();
    assert_eq!(rows.to_vec(), vec![6.0, 6.5, 70.0, 70.5, 9.0, 9.5]);
    times.push((c.clock, t));

    for dir in dirs {
        std::fs::remove_dir_all(dir).ok();
    }

    assert_eq!(
        c.events,
        vec![
            // fetch 1: owner group 1 rides the ladder into the breaker,
            // then fails over to its ring successor.
            Crashed {
                server: 1,
                at_request: 2
            },
            Retried {
                server: 1,
                attempt: 0
            },
            Retried {
                server: 1,
                attempt: 1
            },
            BreakerOpened { server: 1 },
            FailedOver { from: 1, to: 2 },
            // sampling: the open breaker routes group 1 around server 1
            // without an attempt, until the cooldown admits a probe.
            FailedOver { from: 1, to: 2 },
            FailedOver { from: 1, to: 2 },
            BreakerProbed { server: 1 },
            BreakerClosed { server: 1 },
            // update: write-all retries on the same replica, no failover.
            Crashed {
                server: 3,
                at_request: 27
            },
            Retried {
                server: 3,
                attempt: 0
            },
            Retried {
                server: 3,
                attempt: 1
            },
            // migration: the commit broadcast waits out server 1.
            Crashed {
                server: 1,
                at_request: 44
            },
            Retried {
                server: 1,
                attempt: 0
            },
        ]
    );
    assert_eq!(
        times,
        vec![
            (260_020, 200_011),   // fetch_features
            (620_922, 160_044),   // sample_batch
            (841_784, 160_040),   // sample_batch_seeded
            (1_171_804, 190_006), // update_features
            (1_251_820, 20_004),  // ingest_add_edges
            (1_331_828, 20_002),  // ingest_add_node
            (1_551_851, 140_013), // migrate_node
            (1_671_861, 0),       // repair_migration
            (1_731_870, 20_003),  // fetch_features after the move
        ]
    );
    assert_eq!(hops, vec![vec![80_012, 80_032], vec![80_016, 80_024]]);
    assert_eq!(
        (m.phase_times, m.copy_bytes),
        ([20_005, 20_004, 80_003, 20_001], 82)
    );
    assert_eq!(c.requests_per_server(), vec![13, 9, 19, 11]);
    assert_eq!(
        c.robustness,
        RobustnessStats {
            retries: 5,
            failovers: 3,
            breaker_opens: 1,
            breaker_probes: 1,
            backoff_time: 350_000,
            recovery_time: 441_317,
            ..RobustnessStats::default()
        }
    );
    let (local, remote) = (&c.ledger.local, &c.ledger.remote);
    assert_eq!(
        (local.messages, local.bytes, local.wire_time),
        (8, 288, 1_602)
    );
    assert_eq!(
        (remote.messages, remote.bytes, remote.wire_time),
        (102, 1_870, 1_380_268)
    );
    assert_eq!(c.clock, 1_731_870);
}
