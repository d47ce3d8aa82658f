//! The TCP transport under the real training executor.
//!
//! Three claims close the loop on `bgl-net`:
//!
//! 1. **Transparency** — a full threaded epoch over loopback TCP is
//!    bitwise-identical to the same epoch over the in-process transport:
//!    same batch order, sampled subgraphs, losses and final parameters.
//! 2. **Robustness** — killing a live TCP server mid-epoch (sockets shut
//!    down, port refuses redials) under r=2 replication does not abort
//!    the epoch; recovery surfaces through `exec.store.*` and
//!    `net.reconnects`.
//! 3. **Accounting** — client and server wire-byte counters reconcile
//!    exactly, and the cluster's simulated-traffic ledger agrees with the
//!    measured payload bytes.

mod common;

use bgl_exec::{run, spawn, ExecConfig};
use bgl_net::{
    spawn_loopback_cluster, LoopbackCluster, NetClientConfig, NetServerConfig, TcpTransport,
};
use bgl_obs::Registry;
use bgl_store::RetryPolicy;
use common::{EpochRig, RigSpec};
use std::time::{Duration, Instant};

const FANOUTS: [usize; 2] = [5, 5];
const BATCH: usize = 16;

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.counters()
        .into_iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

/// Stand up one loopback TCP server per partition of `rig`'s cluster and
/// swap the rig onto a [`TcpTransport`] dialed at them. The servers are
/// seeded with the rig's cluster seed so replica sampling streams match
/// the in-process transport exactly.
fn over_tcp(rig: EpochRig, reg: &Registry) -> (EpochRig, LoopbackCluster) {
    let lc = spawn_loopback_cluster(
        rig.ds.graph.clone(),
        rig.ds.features.clone(),
        rig.cluster.owner_map(),
        rig.cluster.num_servers(),
        RigSpec::default().cluster_seed,
        NetServerConfig::default(),
        reg,
    )
    .expect("spawn loopback cluster");
    let addrs = lc.addrs();
    let rig = rig.map_cluster(|c| {
        c.swap_transport(Box::new(
            TcpTransport::connect(&addrs, NetClientConfig::default(), reg)
                .expect("dial loopback cluster"),
        ))
    });
    assert_eq!(rig.cluster.transport_kind(), "tcp");
    (rig, lc)
}

/// Claim 1: the transport is invisible to training. One seeded epoch over
/// real sockets must agree with the in-process epoch on everything
/// observable, down to the bit.
#[test]
fn tcp_epoch_is_bitwise_identical_to_in_process() {
    let cfg = ExecConfig::new(FANOUTS.to_vec(), 0x7C9).with_workers([1, 3, 2, 2, 2, 2, 2, 1]);
    let baseline = run(
        &cfg,
        EpochRig::build(&RigSpec::exec_sized()).into_task(BATCH, 8),
        &Registry::disabled(),
    )
    .expect("in-process epoch");

    let reg = Registry::enabled();
    let (rig, lc) = over_tcp(EpochRig::build(&RigSpec::exec_sized()), &reg);
    let tcp = run(&cfg, rig.into_task(BATCH, 8), &reg).expect("tcp epoch");
    lc.shutdown();

    assert_eq!(tcp.batches_trained, 8, "tcp epoch must drain fully");
    assert_eq!(tcp.train_order, baseline.train_order);
    assert_eq!(tcp.digests, baseline.digests, "sampled subgraphs must match over TCP");
    assert_eq!(tcp.losses, baseline.losses, "per-step losses must be bitwise equal");
    assert_eq!(tcp.params, baseline.params, "parameters must be bitwise identical");
    // And it really went over the wire, cleanly: frames flowed, nothing
    // forced a redial.
    assert!(counter(&reg, "net.frames_sent") > 0, "epoch must have used the socket");
    assert_eq!(counter(&reg, "net.reconnects"), 0, "a clean epoch never redials");
}

/// Claim 2: a mid-epoch server kill is survivable. With r=2 the cluster
/// fails requests over to the ring successor; the dead socket surfaces as
/// transient `ServerDown` errors, redial attempts are counted, and the
/// epoch still trains every batch.
#[test]
fn tcp_epoch_survives_mid_epoch_server_kill() {
    let reg = Registry::enabled();
    let (rig, mut lc) = over_tcp(
        EpochRig::build(&RigSpec::exec_sized()).map_cluster(|c| {
            c.with_replication(2)
                .with_retry_policy(RetryPolicy { deadline: None, ..RetryPolicy::default() })
                .with_degraded_features(true)
        }),
        &reg,
    );
    let mut cfg =
        ExecConfig::new(FANOUTS.to_vec(), 0x6E7).with_workers([1, 2, 1, 1, 2, 1, 1, 1]);
    // Bound prefetch so a healthy pipeline cannot race ahead and fetch
    // the whole epoch before the kill lands.
    cfg.buffer_cap = 2;
    let handle = spawn(&cfg, rig.into_task(BATCH, 20), &reg);

    // Let training get going, then kill server 0 for real: every socket
    // shut down mid-conversation, the port refusing redials afterwards.
    let t0 = Instant::now();
    while counter(&reg, "exec.batches.trained") < 1 {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "epoch never trained its first batch"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    lc.kill(0);

    let report = handle.join().expect("epoch survives the TCP server kill");
    assert_eq!(report.batches_trained, report.batches_requested);
    assert!(!report.stopped);
    let r = &report.robustness;
    assert!(
        r.retries + r.failovers > 0,
        "the kill must surface as store recovery work: {r:?}"
    );
    assert_eq!(counter(&reg, "exec.store.retries"), r.retries);
    assert_eq!(counter(&reg, "exec.store.failovers"), r.failovers);
    assert!(
        counter(&reg, "net.reconnects") > 0,
        "the client must have redialed the dead server"
    );
    lc.shutdown();
}

/// Claim 3: the accounting closes. Client wire counters equal server wire
/// counters on a clean epoch; the cluster's simulated-traffic ledger
/// (charged per request/response payload) equals the measured payload
/// bytes.
#[test]
fn wire_and_ledger_bytes_reconcile() {
    let cfg = ExecConfig::new(FANOUTS.to_vec(), 0xB0B).with_workers([1, 3, 2, 2, 2, 2, 2, 1]);
    let in_proc = run(
        &cfg,
        EpochRig::build(&RigSpec::exec_sized()).into_task(BATCH, 12),
        &Registry::disabled(),
    )
    .expect("in-process epoch");

    let reg = Registry::enabled();
    let (rig, lc) = over_tcp(EpochRig::build(&RigSpec::exec_sized()), &reg);
    let tcp = run(&cfg, rig.into_task(BATCH, 12), &reg).expect("tcp epoch");
    lc.shutdown();
    assert_eq!(tcp.batches_trained, 12);
    assert_eq!(in_proc.batches_trained, 12);

    // Both sides of every socket must agree exactly: what the client sent
    // the servers received, and vice versa — frames and bytes.
    let bytes_sent = counter(&reg, "net.bytes_sent");
    let bytes_received = counter(&reg, "net.bytes_received");
    assert!(bytes_sent > 0 && bytes_received > 0);
    assert_eq!(bytes_sent, counter(&reg, "net.server.bytes_received"));
    assert_eq!(bytes_received, counter(&reg, "net.server.bytes_sent"));
    assert_eq!(
        counter(&reg, "net.frames_sent"),
        counter(&reg, "net.server.frames_received")
    );
    assert_eq!(
        counter(&reg, "net.frames_received"),
        counter(&reg, "net.server.frames_sent")
    );

    // The ledger charges exactly the request and response payloads, so on
    // a clean run it must equal the client's payload-byte counters.
    let reg2 = Registry::enabled();
    let (mut rig2, lc2) = over_tcp(EpochRig::build(&RigSpec::exec_sized()), &reg2);
    let worker = rig2.cluster.worker_location();
    for batch in rig2.seed_batches(BATCH, 6) {
        rig2.cluster.fetch_features(&batch, worker).expect("feature fetch over tcp");
    }
    let ledger_bytes = rig2.cluster.ledger.local.bytes + rig2.cluster.ledger.remote.bytes;
    let payload_bytes =
        counter(&reg2, "net.payload_bytes_sent") + counter(&reg2, "net.payload_bytes_received");
    assert!(ledger_bytes > 0);
    assert_eq!(
        ledger_bytes, payload_bytes,
        "simulated ledger and measured payload bytes must reconcile"
    );
    lc2.shutdown();
}
