//! Per-layer numbers every traced run reads the same way: the disk tiers'
//! and the TCP transport's own counters, and the partition's quality.

use crate::params::{PAGE_SIZE, PARTS};
use crate::report::{percentile, ratio, sorted, Outcome};
use crate::rig::Rig;
use std::collections::BTreeMap;
use std::time::Instant;

fn counter(counters: &BTreeMap<String, u64>, name: &str) -> f64 {
    counters.get(name).copied().unwrap_or(0) as f64
}

/// `store.disk.*` / `store.wal.*` from the stack's own counters (published
/// by every server on request) plus one timed checkpoint per server.
pub fn put_disk_metrics(
    out: &mut Outcome,
    rig: &Rig,
    cluster: Option<&bgl_store::StoreCluster>,
    user_row_bytes: f64,
) {
    let wal_bytes: u64 = (0..PARTS)
        .filter_map(|i| rig.tier_dir(i))
        .filter_map(|d| std::fs::metadata(d.join("features.wal")).ok())
        .map(|m| m.len())
        .sum();
    let t = Instant::now();
    for i in 0..PARTS {
        rig.with_server(cluster, i, |s| {
            let _ = s.checkpoint_disk();
            s.publish_disk_metrics();
        });
    }
    let checkpoint_ms = if rig.spec.disk {
        t.elapsed().as_secs_f64() * 1e3
    } else {
        0.0
    };
    let c: BTreeMap<String, u64> = rig.reg.counters().into_iter().collect();
    let (hits, misses) = (
        counter(&c, "store.disk.hits"),
        counter(&c, "store.disk.misses"),
    );
    out.put(
        "store.disk.pool_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    out.put(
        "store.disk.page_reads",
        counter(&c, "store.disk.page_reads"),
        "count",
    );
    out.put(
        "store.disk.evictions",
        counter(&c, "store.disk.evictions"),
        "count",
    );
    let file_bytes = wal_bytes as f64 + counter(&c, "store.disk.page_writes") * PAGE_SIZE as f64;
    out.put(
        "store.disk.write_amp",
        ratio(file_bytes, user_row_bytes),
        "ratio",
    );
    out.put("store.disk.checkpoint_ms", checkpoint_ms, "ms");
    out.put(
        "store.wal.appends",
        counter(&c, "store.disk.wal_appends"),
        "count",
    );
    out.put(
        "store.wal.fsyncs",
        counter(&c, "store.disk.wal_syncs"),
        "count",
    );
    out.put("store.wal.bytes", wal_bytes as f64, "bytes");
}

/// `net.*` from what `TimedTransport` saw on a TCP rig plus the client and
/// server wire-byte counters, which must agree once the servers are joined.
pub fn put_net_metrics(out: &mut Outcome, rig: &mut Rig, seeds: f64) {
    let log = rig.transport_log.clone();
    let tcp = rig.spec.tcp;
    // Joining the servers makes their byte counters final.
    rig.shutdown_servers();
    let c: BTreeMap<String, u64> = rig.reg.counters().into_iter().collect();
    let (sent, received) = (
        counter(&c, "net.bytes_sent"),
        counter(&c, "net.bytes_received"),
    );
    let reconciled = sent == counter(&c, "net.server.bytes_received")
        && received == counter(&c, "net.server.bytes_sent");
    if tcp {
        out.check(
            "net.wire_bytes_reconcile",
            reconciled && sent > 0.0,
            format!(
                "client sent {sent} / server received {}, server sent {} / client received {received}",
                counter(&c, "net.server.bytes_received"),
                counter(&c, "net.server.bytes_sent")
            ),
        );
    }
    let call_us: Vec<f64> = match (&log, tcp) {
        (Some(log), true) => {
            let g = crate::timed::lock(log);
            sorted(g.call_ns.iter().map(|&ns| ns as f64 / 1e3).collect())
        }
        _ => Vec::new(),
    };
    out.put("net.call.count", call_us.len() as f64, "count");
    out.put(
        "net.call.busy_ms",
        call_us.iter().fold(0.0, |a, b| a + b) / 1e3,
        "ms",
    );
    out.put_n(
        "net.call.us_p50",
        percentile(&call_us, 0.5),
        "us",
        call_us.len(),
    );
    out.put_n(
        "net.call.us_p99",
        percentile(&call_us, 0.99),
        "us",
        call_us.len(),
    );
    out.put("net.bytes_sent", sent, "bytes");
    out.put("net.bytes_received", received, "bytes");
    out.put("net.bytes_per_seed", ratio(sent + received, seeds), "bytes");
    out.put(
        "net.reconcile_ok",
        if tcp && reconciled { 1.0 } else { 0.0 },
        "bool",
    );
}

pub fn put_partition_metrics(out: &mut Outcome, rig: &Rig) {
    out.put("partition.busy_s", rig.partition_s, "s");
    out.put(
        "partition.edge_cut",
        bgl_partition::metrics::edge_cut_fraction(&rig.ds.graph, &rig.partition),
        "ratio",
    );
    out.put(
        "partition.train_balance",
        bgl_partition::metrics::balance_ratio(&rig.partition.counts_of(&rig.ds.split.train)),
        "ratio",
    );
}
