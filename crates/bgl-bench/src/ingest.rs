//! `ingest-mixed`: writes beside reads. One closed-loop client alternates
//! one mutation (through `IngestCoordinator::apply`: WAL fsync on every
//! replica, write-all broadcast, cache invalidation) with one 64-node
//! locality-biased read batch through the invalidation-coherent
//! `FeatureCacheEngine::fetch_batch`, re-merging and draining physical
//! migrations whenever the coordinator says a pass is due.

use crate::layers::{put_disk_metrics, put_partition_metrics};
use crate::params::{Ctx, Params, CHURN_MIX, CHURN_OPS_PER_10S, PARTS, READ_BATCH};
use crate::report::{self, bits, median, ns_to_ms, percentile, ratio, sorted, Outcome};
use crate::rig::{Rig, RigSpec};
use crate::timed::Recorder;
use bgl_graph::NodeId;
use bgl_ingest::{ChurnOp, ChurnPlan, IngestConfig, IngestCoordinator};
use bgl_obs::json::Json;
use bgl_obs::Registry;
use bgl_store::{DurableFeatures, StoreCluster};
use rand::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Consecutive read batches drawn around one anchor before it moves: a
/// proximity-aware order revisits a neighbourhood, which is the reuse the
/// cache captures and invalidation disturbs.
const ANCHOR_STICKS: usize = 8;
/// Half-width of the id window a read batch is drawn from.
const READ_WINDOW: u32 = 256;

fn coordinator(p: &Params, rig: &Rig) -> IngestCoordinator {
    IngestCoordinator::new(
        &rig.partition,
        IngestConfig {
            remerge_period: p.remerge_period,
            capacity_slack: 1.1,
            moves_per_period: p.moves_per_period,
        },
    )
}

/// What the closed loop measured.
#[derive(Default)]
struct Loop {
    apply_ns: Vec<u64>,
    read_ns: Vec<u64>,
    /// `StoreCluster::fetch_features` calls the reads' misses made.
    fetch_ns: Vec<u64>,
    fetch_rows: u64,
    remerge_ns: Vec<u64>,
    iteration_ns_max: u64,
    /// Seconds since the timed loop started at which each op was acked.
    acked_at_s: Vec<f64>,
    acked: u64,
    failed_ops: u64,
    reads: u64,
    failed_reads: u64,
    rows_read: u64,
    user_row_bytes: u64,
    wall_s: f64,
    warmup_ops: usize,
    /// The last acked row of every node a mutation wrote.
    shadow: BTreeMap<NodeId, Vec<f32>>,
    added_nodes: u64,
}

/// Run warm-up ops, then the timed closed loop for `seconds`.
fn closed_loop(
    warmup_ops: usize,
    seconds: f64,
    rig: &mut Rig,
    cluster: &mut StoreCluster,
    coord: &mut IngestCoordinator,
    schedule: &[ChurnOp],
    rec: Option<&Recorder>,
) -> Loop {
    let mut cache = rig.cache.take().expect("rig cache already used");
    let home = cluster.worker_location();
    let dim = cache.dim();
    let mut reader = StdRng::seed_from_u64(rig.seeds.load);
    let mut order: Vec<NodeId> = Vec::new();
    let mut anchor = 0u32;
    let mut l = Loop {
        warmup_ops: warmup_ops.min(schedule.len()),
        ..Default::default()
    };
    let mut started = Instant::now();
    let mut deadline = started + Duration::from_secs(3600);
    for (i, op) in schedule.iter().enumerate() {
        if i == l.warmup_ops {
            // Warm-up over: forget its timings, keep its rows.
            l.apply_ns.clear();
            l.read_ns.clear();
            l.fetch_ns.clear();
            l.fetch_rows = 0;
            l.remerge_ns.clear();
            l.iteration_ns_max = 0;
            l.acked_at_s.clear();
            l.acked = 0;
            l.reads = 0;
            l.rows_read = 0;
            l.user_row_bytes = 0;
            started = Instant::now();
            deadline = started + Duration::from_secs_f64(seconds);
        }
        if Instant::now() >= deadline {
            break;
        }
        if let Some(rec) = rec {
            rec.set_req(i as u64);
        }
        let iteration = Instant::now();
        let span = rec.map(|r| r.span("ingest.apply"));
        let t = Instant::now();
        let result = coord.apply(cluster, Some(&mut cache), op);
        l.apply_ns.push(t.elapsed().as_nanos() as u64);
        drop(span);
        match result {
            Ok(_) => {
                l.acked += 1;
                l.acked_at_s.push(started.elapsed().as_secs_f64());
                match op {
                    ChurnOp::UpdateFeature { v, row } => {
                        l.user_row_bytes += (row.len() * 4) as u64;
                        l.shadow.insert(*v, row.clone());
                    }
                    ChurnOp::AddNode { row, .. } => {
                        l.user_row_bytes += (row.len() * 4) as u64;
                        l.added_nodes += 1;
                        l.shadow
                            .insert((cluster.total_nodes() - 1) as NodeId, row.clone());
                    }
                    ChurnOp::AddEdge { .. } => {}
                }
            }
            Err(_) => l.failed_ops += 1,
        }
        if coord.remerge_due() {
            let _span = rec.map(|r| r.span("ingest.remerge_with_cache"));
            let t = Instant::now();
            coord.remerge_with_cache(cluster, Some(&mut cache), &mut order, &[]);
            l.remerge_ns.push(t.elapsed().as_nanos() as u64);
        }
        // The reader: a locality-biased batch through the cache, misses
        // filled from the store the writer is mutating.
        let total = cluster.total_nodes() as u32;
        if i % ANCHOR_STICKS == 0 {
            anchor = reader.random_range(0..total);
        }
        let (lo, hi) = (
            anchor.saturating_sub(READ_WINDOW),
            anchor.saturating_add(READ_WINDOW).min(total - 1),
        );
        let batch: Vec<NodeId> = (0..READ_BATCH)
            .map(|_| reader.random_range(lo..=hi))
            .collect();
        let mut fill_failed = false;
        let span = rec.map(|r| r.span("cache.fetch_batch"));
        let t = Instant::now();
        let got = cache.fetch_batch(0, &batch, &mut |ids| {
            let t = Instant::now();
            let rows = cluster.fetch_features(ids, home);
            l.fetch_ns.push(t.elapsed().as_nanos() as u64);
            l.fetch_rows += ids.len() as u64;
            match rows {
                Ok((rows, _)) => rows.to_vec(),
                Err(_) => {
                    fill_failed = true;
                    vec![0.0; ids.len() * dim]
                }
            }
        });
        l.read_ns.push(t.elapsed().as_nanos() as u64);
        drop(span);
        l.reads += 1;
        l.rows_read += (got.features.len() / dim) as u64;
        if fill_failed {
            l.failed_reads += 1;
        }
        l.iteration_ns_max = l
            .iteration_ns_max
            .max(iteration.elapsed().as_nanos() as u64);
    }
    l.wall_s = started.elapsed().as_secs_f64();
    rig.cache = Some(cache);
    l
}

/// The end-state checks: every row is the last acked one (nothing lost,
/// nothing duplicated), every node has exactly one owner, and every acked
/// row is readable from each replica's tier after a WAL replay.
fn check_end_state(out: &mut Outcome, rig: &Rig, mut cluster: StoreCluster, l: &Loop) {
    let base = rig.ds.features.clone();
    let total = cluster.total_nodes();
    let home = cluster.worker_location();
    let dim = base.dim();
    let grown = total == base.num_nodes() + l.added_nodes as usize;
    let mut wrong_rows = 0usize;
    let mut unreadable = 0usize;
    let ids: Vec<NodeId> = (0..total as NodeId).collect();
    for chunk in ids.chunks(4096) {
        match cluster.fetch_features(chunk, home) {
            Ok((rows, _)) => {
                for (k, &v) in chunk.iter().enumerate() {
                    let want: &[f32] = match l.shadow.get(&v) {
                        Some(row) => row,
                        None if (v as usize) < base.num_nodes() => base.row(v),
                        None => {
                            wrong_rows += 1;
                            continue;
                        }
                    };
                    if bits(rows.row(k)) != bits(want) {
                        wrong_rows += 1;
                    }
                }
            }
            Err(_) => unreadable += chunk.len(),
        }
    }
    out.check(
        "ingest.no_row_lost_or_duplicated",
        grown && wrong_rows == 0 && unreadable == 0,
        format!(
            "{total} nodes = {} base + {} added: {grown}; {wrong_rows} rows differ from the last acked write, {unreadable} unreadable",
            base.num_nodes(),
            l.added_nodes
        ),
    );

    let mut not_single = 0usize;
    for &v in &ids {
        let owners: Vec<usize> = (0..PARTS)
            .filter(|&i| cluster.in_process_server(i).is_some_and(|s| s.owns(v)))
            .collect();
        if owners.len() != 1 || cluster.owner_of(v).ok() != Some(owners[0]) {
            not_single += 1;
        }
    }
    out.check(
        "ingest.exactly_one_owner",
        not_single == 0,
        format!("{not_single} of {total} nodes without exactly one owner agreed by every server and the client map"),
    );

    // Durability: drop every tier without a checkpoint, reopen it (WAL
    // replay), and read each acked row from each replica that serves it.
    let chains: BTreeMap<NodeId, Vec<usize>> = l
        .shadow
        .keys()
        .map(|&v| (v, cluster.replicas_of(v).unwrap_or_default()))
        .collect();
    let mut reopened: Vec<Option<DurableFeatures>> = Vec::new();
    for i in 0..PARTS {
        drop(
            cluster
                .in_process_server(i)
                .and_then(|s| s.detach_disk_tier()),
        );
        reopened.push(
            rig.tier_dir(i)
                .and_then(|dir| {
                    DurableFeatures::open(&dir, rig.tier_config(&Registry::disabled())).ok()
                })
                .map(|(tier, _)| tier),
        );
    }
    let (mut checked, mut stale) = (0usize, 0usize);
    let mut buf = Vec::with_capacity(dim);
    for (&v, row) in &l.shadow {
        for &i in &chains[&v] {
            checked += 1;
            let Some(tier) = reopened[i].as_mut() else {
                stale += 1;
                continue;
            };
            let ok = if (v as u64) < tier.num_nodes() {
                buf.clear();
                tier.read_row_into(v, &mut buf).is_ok() && bits(&buf) == bits(row)
            } else {
                tier.pending_nodes()
                    .iter()
                    .rev()
                    .find(|n| n.0 == v)
                    .is_some_and(|n| bits(&n.2) == bits(row))
            };
            if !ok {
                stale += 1;
            }
        }
    }
    out.check(
        "ingest.acked_rows_survive_wal_replay",
        stale == 0 && reopened.iter().all(Option::is_some) && checked >= l.shadow.len(),
        format!("{checked} replica copies of {} acked rows read after reopening every tier: {stale} stale or missing", l.shadow.len()),
    );
}

/// The first `ops` mutations of the run's seeded churn schedule.
fn schedule(rig: &Rig, ops: usize) -> Vec<ChurnOp> {
    ChurnPlan::new(rig.seeds.load)
        .ops(ops)
        .mix(CHURN_MIX[0], CHURN_MIX[1], CHURN_MIX[2])
        .schedule(rig.ds.num_nodes(), rig.ds.features.dim())
}

/// Warm-up ops plus more than the loop can apply in `seconds`.
fn timed_ops(p: &Params, seconds: f64) -> usize {
    p.ingest_warmup_ops + (CHURN_OPS_PER_10S as f64 * seconds / 10.0).ceil() as usize
}

/// Set-up, timed `p.setup_reps` times: the rig with its four durable tiers,
/// the coordinator, and the first mutation and read.
fn cold_starts(p: &Params, ctx: &Ctx<'_>, out: &mut Outcome) -> Option<Vec<f64>> {
    let off = Registry::disabled();
    let mut samples = Vec::new();
    for _ in 0..p.setup_reps.max(1) {
        let t0 = Instant::now();
        let mut rig = Rig::build(p, RigSpec::ingest(), ctx.seed, off.clone(), None);
        let mut cluster = rig.cluster.take().expect("fresh rig");
        let mut coord = coordinator(p, &rig);
        let schedule = schedule(&rig, 1);
        let first = closed_loop(
            0,
            3600.0,
            &mut rig,
            &mut cluster,
            &mut coord,
            &schedule,
            None,
        );
        out.attempted += 2;
        if first.failed_ops + first.failed_reads > 0 {
            out.failed += first.failed_ops + first.failed_reads;
            out.check("ingest.cold_op", false, "the first mutation or read failed");
            return None;
        }
        samples.push(t0.elapsed().as_secs_f64());
    }
    Some(samples)
}

fn put_loop_metrics(out: &mut Outcome, l: &Loop) {
    let apply_ms = sorted(l.apply_ns.iter().map(|&ns| ns_to_ms(ns)).collect());
    out.put_n(
        "ingest_ops_per_s",
        ratio(l.acked as f64, l.wall_s),
        "ops/s",
        l.acked as usize,
    );
    out.put_n(
        "ingest_ack_p99_ms",
        percentile(&apply_ms, 0.99),
        "ms",
        apply_ms.len(),
    );
    out.attempted += l.acked + l.failed_ops + l.reads;
    out.failed += l.failed_ops + l.failed_reads;
    out.note("ingest_timed_wall_s", Json::F64(l.wall_s));

    let mut per_s = vec![0u64; l.wall_s.ceil() as usize + 1];
    for &t in &l.acked_at_s {
        per_s[t as usize] += 1;
    }
    out.note(
        "acked_per_second",
        Json::Arr(per_s.iter().map(|&n| Json::U64(n)).collect()),
    );
    out.note("ingest_warmup_ops", Json::U64(l.warmup_ops as u64));
    out.note("ingest_reads", Json::U64(l.reads));
    out.note("ingest_remerges", Json::U64(l.remerge_ns.len() as u64));
    out.note("ingest_added_nodes", Json::U64(l.added_nodes));
}

/// The untraced timed run: the end-to-end metrics.
pub fn run_timed(ctx: &Ctx<'_>) -> Outcome {
    let p = ctx.p;
    let mut out = Outcome::default();
    let Some(setup_s) = cold_starts(p, ctx, &mut out) else {
        return out;
    };
    let mut rig = Rig::build(p, RigSpec::ingest(), ctx.seed, Registry::disabled(), None);
    let mut cluster = rig.cluster.take().expect("fresh rig");
    let mut coord = coordinator(p, &rig);
    let schedule = schedule(&rig, timed_ops(p, ctx.seconds));
    let l = closed_loop(
        p.ingest_warmup_ops,
        ctx.seconds,
        &mut rig,
        &mut cluster,
        &mut coord,
        &schedule,
        None,
    );
    put_loop_metrics(&mut out, &l);
    check_end_state(&mut out, &rig, cluster, &l);
    drop(rig);
    let apply_ms = sorted(l.apply_ns.iter().map(|&ns| ns_to_ms(ns)).collect());
    out.put_n("setup_s", median(&setup_s), "s", setup_s.len());
    out.put("ops_per_s", out.get("ingest_ops_per_s"), "1/s");
    out.put_n(
        "latency_p50_ms",
        percentile(&apply_ms, 0.5),
        "ms",
        apply_ms.len(),
    );
    out.put(
        "ops_failed_share",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );
    out.note(
        "setup_samples_s",
        Json::Arr(setup_s.iter().map(|&w| Json::F64(w)).collect()),
    );
    out.put("peak_rss_mb", report::peak_rss_mb(), "MB");
    out
}

/// The traced run: the same loop with spans around `apply`,
/// `remerge_with_cache` and `fetch_batch`, the stack's `ingest.*` /
/// `migrate.*` / `store.disk.*` counters on, and the tiers' own statistics
/// read when the loop ends.
pub fn run_traced(ctx: &Ctx<'_>) -> Outcome {
    let p = ctx.p;
    let mut out = Outcome::default();
    let reg = Registry::enabled();
    let rec = Recorder::new();
    let mut rig = Rig::build(p, RigSpec::ingest(), ctx.seed, reg.clone(), Some((&rec, 0)));
    put_partition_metrics(&mut out, &rig);
    let mut cluster = rig.cluster.take().expect("fresh rig");
    let mut coord = coordinator(p, &rig);
    coord.attach_metrics(&reg);
    let schedule = schedule(&rig, timed_ops(p, ctx.seconds));
    let l = closed_loop(
        p.ingest_warmup_ops,
        ctx.seconds,
        &mut rig,
        &mut cluster,
        &mut coord,
        &schedule,
        Some(&rec),
    );
    put_loop_metrics(&mut out, &l);

    let apply_us = sorted(l.apply_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
    out.put(
        "ingest.apply.busy_ms",
        ns_to_ms(l.apply_ns.iter().sum()),
        "ms",
    );
    out.put_n(
        "ingest.apply.us_p50",
        percentile(&apply_us, 0.5),
        "us",
        apply_us.len(),
    );
    out.put("ingest.remerge.calls", l.remerge_ns.len() as f64, "count");
    out.put(
        "ingest.remerge.busy_ms",
        ns_to_ms(l.remerge_ns.iter().sum()),
        "ms",
    );
    let read_ns: u64 = l.read_ns.iter().sum();
    out.put("ingest.read.busy_ms", ns_to_ms(read_ns), "ms");
    out.put(
        "ingest.read.rows_per_s",
        ratio(l.rows_read as f64, read_ns as f64 / 1e9),
        "rows/s",
    );
    out.put("ingest.stall_ms_max", ns_to_ms(l.iteration_ns_max), "ms");
    let report = coord.report();
    let migrate = coord.planner().report();
    out.put("ingest.rejected", report.rejected as f64, "count");
    out.put(
        "ingest.invalidations",
        (report.invalidations + migrate.invalidations) as f64,
        "count",
    );
    out.put(
        "ingest.migrate.committed",
        migrate.committed as f64,
        "count",
    );
    out.put("ingest.migrate.aborted", migrate.aborted as f64, "count");
    out.put(
        "ingest.migrate.copy_bytes",
        migrate.copy_bytes as f64,
        "bytes",
    );
    if let Some(cache) = &rig.cache {
        let s = cache.stats();
        out.put("cache.lookups", s.total() as f64, "count");
        out.put("cache.misses", s.misses as f64, "count");
        out.put("cache.hit_ratio", s.hit_ratio(), "ratio");
        out.put("cache.gpu_hit_ratio", s.gpu_hit_ratio(), "ratio");
        out.put("cache.invalidations", s.invalidations as f64, "count");
    }
    let robustness = cluster.robustness;
    out.put("store.fetch.retries", robustness.retries as f64, "count");
    out.put(
        "store.fetch.failovers",
        robustness.failovers as f64,
        "count",
    );
    out.put("store.fetch.calls", l.fetch_ns.len() as f64, "count");
    out.put(
        "store.fetch.busy_ms",
        ns_to_ms(l.fetch_ns.iter().sum()),
        "ms",
    );
    out.put("store.fetch.rows", l.fetch_rows as f64, "count");
    out.put("trace.spans", rec.len() as f64, "count");
    rec.write_chrome_trace(&mut out, "ingest-mixed");
    // WAL bytes are read before the timed checkpoint empties the logs; the
    // replay check below then reopens checkpointed tiers.
    put_disk_metrics(&mut out, &rig, Some(&cluster), l.user_row_bytes as f64);
    check_end_state(&mut out, &rig, cluster, &l);
    drop(rig);
    out.put(
        "ops_failed_share",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );
    out.put("peak_rss_mb", report::peak_rss_mb(), "MB");
    out
}
