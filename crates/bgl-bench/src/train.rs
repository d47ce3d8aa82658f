//! `train-remote` and `train-local`: the threaded executor over the real
//! data path, timed from outside through [`TimedModel`] stamps.

use crate::layers::{put_disk_metrics, put_net_metrics, put_partition_metrics};
use crate::params::{
    Ctx, Params, BUFFER_CAP, CAPTURE_FRAMES, DISTINCT_ORDERS, FANOUTS, GEMM_REPLAYS, PO_SEQUENCES,
    SERIAL_PREFIX, TRACE_EPOCHS, WORKERS,
};
use crate::replay;
use crate::report::{
    self, bits, mean, median, ns_to_ms, percentile, quartiles, ratio, sorted, Outcome,
};
use crate::rig::{Rig, RigSpec};
use crate::timed::{Recorder, StepStamps, TimedModel, Turns};
use bgl_cache::CacheStats;
use bgl_exec::{run_serial, spawn, EpochTask, ExecConfig, ExecReport, STAGE_NAMES};
use bgl_graph::{FeatureBlock, InducedSubgraph, NodeId};
use bgl_obs::json::Json;
use bgl_obs::Registry;
use bgl_sampler::{MiniBatch, NeighborSampler, ProximityAware, TrainOrdering};
use bgl_tensor::{Adam, Matrix};
use rand::prelude::*;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainKind {
    Remote,
    Local,
}

impl TrainKind {
    pub fn name(self) -> &'static str {
        match self {
            TrainKind::Remote => "train-remote",
            TrainKind::Local => "train-local",
        }
    }

    pub fn spec(self) -> RigSpec {
        match self {
            TrainKind::Remote => RigSpec::remote(),
            TrainKind::Local => RigSpec::local(),
        }
    }
}

fn exec_config(rig: &Rig) -> ExecConfig {
    let mut cfg = ExecConfig::new(FANOUTS.to_vec(), rig.seeds.exec).with_workers(WORKERS);
    cfg.buffer_cap = BUFFER_CAP;
    cfg
}

/// `epochs` epochs of proximity-aware seed batches, concatenated; also the
/// number of batches in one epoch. Only `DISTINCT_ORDERS` orders are
/// generated (each costs `PO_SEQUENCES` full-graph BFS passes); later
/// epochs reuse them in rotation, which keeps a plan long enough to
/// outlast any `--seconds` window cheap to build.
fn epoch_plan(p: &Params, rig: &Rig, epochs: usize) -> (Vec<Vec<NodeId>>, usize) {
    let ordering = ProximityAware::for_batch(PO_SEQUENCES, p.batch, rig.seeds.ordering);
    let distinct: Vec<Vec<Vec<NodeId>>> = (0..epochs.min(DISTINCT_ORDERS))
        .map(|e| ordering.epoch_batches(&rig.ds.graph, &rig.ds.split.train, p.batch, e))
        .collect();
    let per_epoch = distinct.first().map_or(0, Vec::len);
    let plan = (0..epochs)
        .flat_map(|e| distinct[e % distinct.len()].iter().cloned())
        .collect();
    (plan, per_epoch)
}

/// Move the rig's cluster, cache and model into an executor task.
fn into_task(rig: &mut Rig, batches: Vec<Vec<NodeId>>) -> EpochTask {
    EpochTask {
        graph: rig.ds.graph.clone(),
        labels: rig.ds.labels.clone(),
        batches,
        cluster: rig.cluster.take().expect("rig cluster already used"),
        cache: rig.cache.take().expect("rig cache already used"),
        model: rig.model.take().expect("rig model already used"),
        opt: Adam::new(1e-3),
    }
}

/// What the stop-bounded threaded run measured.
struct ThreadedRun {
    report: ExecReport,
    /// Exit stamps (ns) of every train step, in order.
    exits_ns: Vec<u64>,
    spawn_ns: u64,
    batches_per_epoch: usize,
}

impl ThreadedRun {
    /// Walls (s) of the complete epochs after the warm-up epoch.
    fn timed_epoch_walls(&self) -> Vec<f64> {
        let b = self.batches_per_epoch;
        let mut walls = Vec::new();
        let mut k = 1;
        while (k + 1) * b <= self.exits_ns.len() {
            walls.push((self.exits_ns[(k + 1) * b - 1] - self.exits_ns[k * b - 1]) as f64 / 1e9);
            k += 1;
        }
        walls
    }

    /// Gaps (ms, ascending) between consecutive train-step exits over the
    /// first `epochs` timed epochs.
    fn timed_intervals_ms(&self, epochs: usize) -> Vec<f64> {
        let b = self.batches_per_epoch;
        let from = b.min(self.exits_ns.len());
        let to = (b * (1 + epochs)).min(self.exits_ns.len());
        sorted(
            self.exits_ns[from.saturating_sub(1)..to]
                .windows(2)
                .map(|w| (w[1] - w[0]) as f64 / 1e6)
                .collect(),
        )
    }

    fn warmup_s(&self) -> f64 {
        let b = self.batches_per_epoch;
        if self.exits_ns.len() < b {
            return 0.0;
        }
        (self.exits_ns[b - 1] - self.spawn_ns) as f64 / 1e9
    }
}

/// Run the threaded executor over `plan`: one warm-up epoch, then a timed
/// window of at least `seconds`, then stop. `plan` only has to outlast the window.
fn run_threaded_window(
    cfg: &ExecConfig,
    mut rig: Rig,
    plan: Vec<Vec<NodeId>>,
    batches_per_epoch: usize,
    seconds: f64,
    reg: &Registry,
) -> Result<(ThreadedRun, Rig), String> {
    let planned = plan.len();
    let stamps = StepStamps::new(Instant::now());
    let inner = rig.model.take().expect("rig model already used");
    rig.model = Some(TimedModel::wrap(inner, &stamps, None));
    let task = into_task(&mut rig, plan);
    let spawn_ns = stamps.now_ns();
    let handle = spawn(cfg, task, reg);

    // Warm-up: wait for the first epoch's last train step. A pipeline that
    // died never gets there, so the wait is bounded.
    let give_up = Instant::now() + Duration::from_secs(150);
    while stamps.steps_done() < batches_per_epoch.min(planned) && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(2));
    }
    // The window stays open until one whole timed epoch is in it, however
    // slow the build or the host (an unoptimised smoke run under `cargo
    // test` needs that).
    let window_end = Instant::now() + Duration::from_secs_f64(seconds);
    let one_timed_epoch = (2 * batches_per_epoch).min(planned);
    while (Instant::now() < window_end || stamps.steps_done() < one_timed_epoch)
        && stamps.steps_done() < planned
        && Instant::now() < give_up
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.stop();
    let report = handle
        .join()
        .map_err(|e| format!("threaded run failed: {e}"))?;
    let steps = stamps.train_steps();
    let run = ThreadedRun {
        report,
        exits_ns: steps.iter().map(|s| s.1).collect(),
        spawn_ns,
        batches_per_epoch,
    };
    Ok((run, rig))
}

/// The correctness checks every train run makes against the serial prefix.
fn check_against_serial(
    out: &mut Outcome,
    run: &ThreadedRun,
    serial: &ExecReport,
    prefix_len: usize,
) {
    let r = &run.report;
    let in_order = r.train_order.iter().enumerate().all(|(i, &idx)| i == idx);
    let all_stamped = r.batches_trained == run.exits_ns.len();
    let complete = r.stopped || r.batches_trained == r.batches_requested;
    out.check(
        "train.batches_ledger",
        in_order && all_stamped && complete,
        format!(
            "trained {} of {} requested (stopped={}), stamped {}, in index order {}",
            r.batches_trained,
            r.batches_requested,
            r.stopped,
            run.exits_ns.len(),
            in_order
        ),
    );
    let n = prefix_len.min(r.losses.len()).min(serial.losses.len());
    let same_losses = n == prefix_len && bits(&r.losses[..n]) == bits(&serial.losses[..n]);
    let same_digests = n == prefix_len && r.digests[..n] == serial.digests[..n];
    out.check(
        "train.threaded_equals_serial",
        same_losses && same_digests,
        format!("first {prefix_len} batches: losses bitwise equal {same_losses}, sample digests equal {same_digests}"),
    );
    let b = run.batches_per_epoch;
    let epochs_done = r.losses.len() / b.max(1);
    if epochs_done >= 2 {
        let first = mean(&r.losses[..b].iter().map(|&x| x as f64).collect::<Vec<_>>());
        let last_at = (epochs_done - 1) * b;
        let last = mean(
            &r.losses[last_at..last_at + b]
                .iter()
                .map(|&x| x as f64)
                .collect::<Vec<_>>(),
        );
        out.check(
            "train.loss_decreases",
            last < first,
            format!(
                "mean loss epoch 0 = {first:.4}, epoch {} = {last:.4}",
                epochs_done - 1
            ),
        );
    } else {
        out.check(
            "train.loss_decreases",
            false,
            format!("only {epochs_done} complete epoch(s)"),
        );
    }
}

/// Set-up, timed `p.setup_reps` times: build the rig, then run the first
/// `SERIAL_PREFIX` batches cold through `run_serial` (empty caches, first
/// connections, lazy initialisation). The prefix reports double as the
/// bitwise reference; all of them must agree.
struct ColdStarts {
    samples_s: Vec<f64>,
    serial: ExecReport,
    prefix_len: usize,
}

fn cold_starts(kind: TrainKind, ctx: &Ctx<'_>, out: &mut Outcome) -> Option<ColdStarts> {
    let p = ctx.p;
    let off = Registry::disabled();
    let mut samples_s = Vec::new();
    let mut reports: Vec<ExecReport> = Vec::new();
    let mut prefix_len = 0;
    for _ in 0..p.setup_reps.max(1) {
        let t0 = Instant::now();
        let mut rig = Rig::build(p, kind.spec(), ctx.seed, off.clone(), None);
        let cfg = exec_config(&rig);
        let (first_epoch, _) = epoch_plan(p, &rig, 1);
        prefix_len = SERIAL_PREFIX.min(first_epoch.len());
        let prefix = first_epoch[..prefix_len].to_vec();
        match run_serial(&cfg, into_task(&mut rig, prefix), &off) {
            Ok(r) => reports.push(r),
            Err(e) => {
                out.attempted += prefix_len as u64;
                out.failed += prefix_len as u64;
                out.check(
                    "train.serial_prefix",
                    false,
                    format!("run_serial failed: {e}"),
                );
                return None;
            }
        }
        samples_s.push(t0.elapsed().as_secs_f64());
    }
    let first = &reports[0];
    let repeatable = reports
        .iter()
        .all(|r| bits(&r.losses) == bits(&first.losses) && r.digests == first.digests);
    out.check(
        "train.serial_prefix_repeats",
        repeatable,
        format!(
            "{} cold serial prefixes of {prefix_len} batches agree bitwise: {repeatable}",
            reports.len()
        ),
    );
    out.attempted += (prefix_len * reports.len()) as u64;
    Some(ColdStarts {
        samples_s,
        serial: reports.swap_remove(0),
        prefix_len,
    })
}

/// `{"p50": .., "p90": ..}` of an ascending sample.
fn quantiles_json(sorted_ms: &[f64], qs: &[f64]) -> Json {
    Json::Obj(
        qs.iter()
            .map(|&q| {
                (
                    format!("p{}", (q * 100.0) as u32),
                    Json::F64(percentile(sorted_ms, q)),
                )
            })
            .collect(),
    )
}

/// The untraced timed run: the end-to-end metrics.
pub fn run_timed(kind: TrainKind, ctx: &Ctx<'_>) -> Outcome {
    let p = ctx.p;
    let mut out = Outcome::default();
    let off = Registry::disabled();
    let Some(cold) = cold_starts(kind, ctx, &mut out) else {
        return out;
    };

    let rig = Rig::build(p, kind.spec(), ctx.seed, off.clone(), None);
    let cfg = exec_config(&rig);
    let epochs = 1 + (p.epochs_cap_per_10s as f64 * ctx.seconds / 10.0).ceil() as usize;
    let (plan, per_epoch) = epoch_plan(p, &rig, epochs);
    let seeds_per_epoch = rig.ds.split.train.len();
    let (run, rig) = match run_threaded_window(&cfg, rig, plan, per_epoch, ctx.seconds, &off) {
        Ok(ok) => ok,
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.check("train.threaded_run", false, e);
            return out;
        }
    };
    drop(rig);

    check_against_serial(&mut out, &run, &cold.serial, cold.prefix_len);
    let walls = run.timed_epoch_walls();
    // The median of fewer than three epochs is not a median; a smoke run
    // makes no timing claim.
    out.check(
        "train.timed_epochs",
        walls.len() >= if p.smoke { 1 } else { 3 },
        format!(
            "{} complete timed epochs in {:.1} s",
            walls.len(),
            ctx.seconds
        ),
    );
    out.attempted += run.report.batches_trained as u64;
    let intervals_ms = run.timed_intervals_ms(walls.len());
    let seeds_per_s = ratio(seeds_per_epoch as f64, median(&walls));
    out.put_n(
        "setup_s",
        median(&cold.samples_s),
        "s",
        cold.samples_s.len(),
    );
    out.put_n("train_seeds_per_s", seeds_per_s, "seeds/s", walls.len());
    out.put_n("ops_per_s", seeds_per_s, "1/s", walls.len());
    // Iteration time: the mean gap between batch completions in the median
    // timed epoch. The median of the single gaps is not used: batches leave
    // a pipeline in bursts, and it moves with where the bursts fall.
    out.put_n(
        "latency_p50_ms",
        ratio(median(&walls) * 1e3, per_epoch as f64),
        "ms",
        walls.len(),
    );
    out.put(
        "ops_failed_share",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );
    out.note(
        "step_gap_quantiles_ms",
        quantiles_json(&intervals_ms, &[0.5, 0.75, 0.9, 0.95, 0.98, 0.99]),
    );
    let (q1, q3) = quartiles(&walls);
    out.note(
        "epoch_walls_s",
        Json::Arr(walls.iter().map(|&w| Json::F64(w)).collect()),
    );
    out.note("epoch_s_iqr", Json::F64(q3 - q1));
    out.note(
        "setup_samples_s",
        Json::Arr(cold.samples_s.iter().map(|&w| Json::F64(w)).collect()),
    );
    out.note("warmup_epoch_s", Json::F64(run.warmup_s()));
    out.note("epochs_planned", Json::U64(epochs as u64));
    out.note("batches_per_epoch", Json::U64(per_epoch as u64));
    out.note("seeds_per_epoch", Json::U64(seeds_per_epoch as u64));
    out.note(
        "cache_hit_ratio_incl_warmup",
        Json::F64(run.report.cache.hit_ratio()),
    );
    out.put("peak_rss_mb", report::peak_rss_mb(), "MB");
    out
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// The executor keys batch `idx`'s sampling stream this way
/// (`bgl_exec::runtime::batch_rng`, private there). Repeated here so the
/// unrolled path samples the same subgraphs; if the program changes its
/// keying, the bitwise check against `run_serial` fails and says so.
fn batch_rng(seed: u64, idx: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What the bench's own serial data path produced.
struct Unrolled {
    losses: Vec<f32>,
    digests: Vec<u64>,
    /// Sampled edges / induced edges / input nodes / missed rows per batch.
    sampled_edges: Vec<u64>,
    induced_edges: Vec<u64>,
    input_nodes: Vec<u64>,
    missed_rows: Vec<u64>,
    /// Cache totals at the end of the warm-up epoch and at the end.
    cache_warm: CacheStats,
    cache_end: CacheStats,
    /// The last batch and the model's layer widths, for the GEMM replay.
    probe: Option<MiniBatch>,
    dims: Vec<usize>,
}

/// The data path of one batch, unrolled: one span per public call, all on
/// this thread, in the order `run_serial` makes the same calls. Batch `i`
/// starts when `serial_done` says `run_serial` has finished its batch `i`,
/// and `serial_go` lets `run_serial` start its batch `i + 1` afterwards.
fn unrolled_path(
    rec: &Recorder,
    rig: &mut Rig,
    cfg: &ExecConfig,
    plan: &[Vec<NodeId>],
    warm_batches: usize,
    serial_done: &Receiver<()>,
    serial_go: &Sender<()>,
) -> Result<Unrolled, String> {
    let graph = rig.ds.graph.clone();
    let labels_all = rig.ds.labels.clone();
    let sampler = NeighborSampler::new(cfg.fanouts.clone());
    let mut cluster = rig.cluster.take().expect("rig cluster already used");
    let mut cache = rig.cache.take().expect("rig cache already used");
    let mut model = rig.model.take().expect("rig model already used");
    let mut opt = Adam::new(1e-3);
    let home = cluster.worker_location();
    let dim = cache.dim();
    let mut u = Unrolled {
        losses: Vec::with_capacity(plan.len()),
        digests: Vec::with_capacity(plan.len()),
        sampled_edges: Vec::new(),
        induced_edges: Vec::new(),
        input_nodes: Vec::new(),
        missed_rows: Vec::new(),
        cache_warm: CacheStats::default(),
        cache_end: CacheStats::default(),
        probe: None,
        dims: model.dims().to_vec(),
    };
    for (idx, seeds) in plan.iter().enumerate() {
        if idx == warm_batches {
            u.cache_warm = *cache.stats();
        }
        // A closed channel means `run_serial` has ended early; its report
        // says why, so carry on alone.
        let _ = serial_done.recv();
        rec.set_req(idx as u64);
        let batch_span = rec.span("batch");
        let mb = {
            let _s = rec.span("sampler.sample");
            sampler.sample(&graph, seeds, &mut batch_rng(cfg.seed, idx))
        };
        u.digests.push({
            let _s = rec.span("sampler.digest");
            mb.digest()
        });
        let labels: Vec<u16> = mb.seeds.iter().map(|&v| labels_all[v as usize]).collect();
        u.induced_edges.push({
            let _s = rec.span("graph.induce");
            InducedSubgraph::induce(&graph, mb.input_nodes())
                .graph
                .num_edges() as u64
        });
        let pending = {
            let _s = rec.span("cache.lookup_batch");
            cache.lookup_batch(0, mb.input_nodes())
        };
        u.missed_rows.push(pending.missing_keys().len() as u64);
        let rows = {
            let _s = rec.span("store.fetch_features");
            if pending.is_complete() {
                FeatureBlock::new(dim, 0)
            } else {
                cluster
                    .fetch_features(pending.missing_keys(), home)
                    .map_err(|e| format!("unrolled fetch_features failed at batch {idx}: {e}"))?
                    .0
            }
        };
        let features = {
            let _s = rec.span("cache.complete_batch");
            cache.complete_batch(pending, &rows).features
        };
        let input = {
            let _s = rec.span("tensor.from_vec");
            Matrix::from_vec(features.len() / dim, dim, features)
        };
        let (loss, _acc) = {
            let _s = rec.span("gnn.train_step");
            model.train_step(&mb, &input, &labels, &mut opt)
        };
        drop(batch_span);
        u.losses.push(loss);
        u.sampled_edges.push(mb.num_edges() as u64);
        u.input_nodes.push(mb.num_input_nodes() as u64);
        u.probe = Some(mb);
        let _ = serial_go.send(());
    }
    u.cache_end = *cache.stats();
    Ok(u)
}

/// Multiply-adds x 2 of one GraphSage train step on `batch`: per layer the
/// forward product and the two backward products over `[dst, 2*in] x [2*in, out]`.
fn flops_per_step(batch: &MiniBatch, dims: &[usize]) -> f64 {
    batch
        .blocks
        .iter()
        .enumerate()
        .map(|(l, b)| 3.0 * 2.0 * b.num_dst() as f64 * (2 * dims[l]) as f64 * dims[l + 1] as f64)
        .sum()
}

/// The traced run: per-layer numbers, separate from the timed run.
///
/// A. `run_serial` over `TRACE_EPOCHS` epochs: the reference losses and the
///    serial wall. B. the bench's own unrolled path over the same batches,
///    one span per public call; its losses must equal A's bitwise. A and B
///    run on two rigs and take turns batch by batch, so that both see the
///    same host from one moment to the next. C. one threaded run with an
///    enabled registry and a `TimedTransport` for the stage busy times and
///    the stack's own counters. D. the same threaded window untraced, for
///    the tracing overhead. The first epoch of every phase is warm-up and is
///    left out of the numbers.
pub fn run_traced(kind: TrainKind, ctx: &Ctx<'_>) -> Outcome {
    let p = ctx.p;
    let mut out = Outcome::default();
    let off = Registry::disabled();
    let window = ctx.seconds / 4.0;

    // A and B.
    let mut rig_a = Rig::build(p, kind.spec(), ctx.seed, off.clone(), None);
    put_partition_metrics(&mut out, &rig_a);
    let seeds_per_epoch = rig_a.ds.split.train.len();
    let cfg = exec_config(&rig_a);
    let (plan, per_epoch) = epoch_plan(p, &rig_a, TRACE_EPOCHS);
    let warm = per_epoch.min(plan.len());
    let timed_batches = plan.len() - warm;
    let rec = Recorder::new();
    let mut rig_b = Rig::build(
        p,
        kind.spec(),
        ctx.seed,
        off.clone(),
        Some((&rec, CAPTURE_FRAMES)),
    );
    let stamps = StepStamps::new(Instant::now());
    let (done_tx, done_rx) = channel();
    let (go_tx, go_rx) = channel();
    let inner = rig_a.model.take().expect("fresh rig");
    let turns = Turns {
        done: done_tx,
        go: go_rx,
    };
    rig_a.model = Some(TimedModel::wrap(inner, &stamps, Some(turns)));
    let task_a = into_task(&mut rig_a, plan.clone());
    let serial_start_ns = stamps.now_ns();
    let (serial, unrolled) = std::thread::scope(|s| {
        let a = s.spawn(|| run_serial(&cfg, task_a, &off));
        let u = unrolled_path(&rec, &mut rig_b, &cfg, &plan, warm, &done_rx, &go_tx);
        // Should B have stopped early, this lets A run on alone.
        drop(go_tx);
        (a.join(), u)
    });
    drop(rig_a);
    out.attempted += 2 * plan.len() as u64;
    let serial = match serial {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => {
            out.failed += plan.len() as u64;
            out.check(
                "train.serial_reference",
                false,
                format!("run_serial failed: {e}"),
            );
            return out;
        }
        Err(_) => {
            out.failed += plan.len() as u64;
            out.check("train.serial_reference", false, "run_serial panicked");
            return out;
        }
    };
    let u = match unrolled {
        Ok(u) => u,
        Err(e) => {
            out.failed += plan.len() as u64;
            out.check("train.unrolled_path", false, e);
            return out;
        }
    };
    // A's wall per batch: from its release after the previous batch (or the
    // start) to the exit of this batch's train step.
    let released = stamps.released();
    let serial_batch_ns: Vec<u64> = stamps
        .train_steps()
        .iter()
        .enumerate()
        .map(|(i, step)| {
            let from = match i {
                0 => serial_start_ns,
                _ => released.get(i - 1).copied().unwrap_or(step.0),
            };
            step.1 - from
        })
        .collect();
    let serial_warm_ns: u64 = serial_batch_ns.iter().skip(warm).sum();
    let same_losses = bits(&u.losses) == bits(&serial.losses);
    let same_digests = u.digests == serial.digests;
    out.check(
        "train.unrolled_equals_serial",
        same_losses && same_digests,
        format!(
            "{} batches: losses bitwise equal {same_losses}, sample digests equal {same_digests}",
            plan.len()
        ),
    );
    let totals = rec.totals(warm as u64);
    let get = |name: &str| totals.get(name).cloned().unwrap_or_default();
    let after_warm = |v: &[u64]| v[warm.min(v.len())..].iter().sum::<u64>() as f64;

    let s = get("sampler.sample");
    out.put("sampler.calls", s.calls as f64, "count");
    out.put("sampler.busy_ms", ns_to_ms(s.total_ns), "ms");
    out.put("sampler.edges", after_warm(&u.sampled_edges), "count");
    out.put(
        "sampler.input_nodes_mean",
        ratio(after_warm(&u.input_nodes), timed_batches as f64),
        "count",
    );
    out.put(
        "sampler.ns_per_edge",
        ratio(s.total_ns as f64, after_warm(&u.sampled_edges)),
        "ns",
    );
    let g = get("graph.induce");
    out.put("graph.induce.calls", g.calls as f64, "count");
    out.put("graph.induce.busy_ms", ns_to_ms(g.total_ns), "ms");
    out.put("graph.induce.edges", after_warm(&u.induced_edges), "count");
    out.put(
        "graph.induce.ns_per_edge",
        ratio(g.total_ns as f64, after_warm(&u.induced_edges)),
        "ns",
    );
    let cache = u.cache_end.delta_since(&u.cache_warm);
    let lookup = get("cache.lookup_batch");
    out.put("cache.lookup.busy_ms", ns_to_ms(lookup.total_ns), "ms");
    out.put(
        "cache.admit.busy_ms",
        ns_to_ms(get("cache.complete_batch").total_ns),
        "ms",
    );
    out.put("cache.lookups", cache.total() as f64, "count");
    out.put("cache.misses", cache.misses as f64, "count");
    out.put("cache.hit_ratio", cache.hit_ratio(), "ratio");
    out.put("cache.gpu_hit_ratio", cache.gpu_hit_ratio(), "ratio");
    out.put(
        "cache.ns_per_lookup",
        ratio(lookup.total_ns as f64, cache.total() as f64),
        "ns",
    );
    out.put("cache.invalidations", cache.invalidations as f64, "count");
    let f = get("store.fetch_features");
    let fetch_calls = u.missed_rows[warm.min(u.missed_rows.len())..]
        .iter()
        .filter(|&&m| m > 0)
        .count();
    out.put("store.fetch.calls", fetch_calls as f64, "count");
    out.put("store.fetch.busy_ms", ns_to_ms(f.total_ns), "ms");
    out.put("store.fetch.self_ms", ns_to_ms(f.self_ns), "ms");
    out.put("store.fetch.rows", after_warm(&u.missed_rows), "count");
    let t = get("gnn.train_step");
    let step_ms = sorted(t.durations_ns.iter().map(|&ns| ns_to_ms(ns)).collect());
    out.put("gnn.train_step.calls", t.calls as f64, "count");
    out.put("gnn.train_step.busy_ms", ns_to_ms(t.total_ns), "ms");
    out.put_n(
        "gnn.train_step.ms_p50",
        percentile(&step_ms, 0.5),
        "ms",
        step_ms.len(),
    );
    if let Some(probe) = &u.probe {
        let flops = flops_per_step(probe, &u.dims);
        out.put("gnn.flops_per_step", flops, "flop");
        out.put(
            "gnn.gflops",
            ratio(flops, percentile(&step_ms, 0.5) * 1e6),
            "GFLOP/s",
        );
        out.put_n(
            "tensor.matmul.replay_ms",
            replay::gemm(probe, &u.dims, GEMM_REPLAYS),
            "ms",
            GEMM_REPLAYS,
        );
    }
    out.put(
        "tensor.threads",
        bgl_tensor::pool::global().threads() as f64,
        "count",
    );
    if let Some(log) = &rig_b.transport_log {
        replay::codec(&mut out, &crate::timed::lock(log));
    }
    // Everything the unrolled path did in a batch, against the wall of the
    // same batch under `run_serial` a moment earlier: what no span accounts
    // for. The median batch, so that a stall that hits one side of a few
    // batches does not decide it.
    let spanned_by_batch = rec.child_ns_by_req("batch");
    let covered: Vec<f64> = (warm..plan.len())
        .map(|i| {
            let spanned = spanned_by_batch.get(&(i as u64)).copied().unwrap_or(0);
            ratio(spanned as f64, serial_batch_ns[i] as f64)
        })
        .collect();
    let spanned_ns: u64 = spanned_by_batch
        .range(warm as u64..)
        .map(|(_, ns)| ns)
        .sum();
    let other_share = 1.0 - median(&covered);
    out.put("exec.other_share", other_share, "ratio");
    // Fails when the batches agree that the two differ by more than 5 %:
    // the whole interquartile band of the per-batch cover is beyond it. A
    // band that straddles the limit resolves nothing (for minutes at a time
    // this sandbox runs at half speed and unevenly), and unresolved is not
    // failed. A smoke run's batches take about a millisecond each, which
    // the clock and the scheduler do not resolve to 5 % at all.
    let (q1, q3) = quartiles(&covered);
    out.check(
        "train.spans_reconcile_with_serial_wall",
        p.smoke || (q1 <= 1.05 && q3 >= 0.95),
        format!(
            "over {timed_batches} batches the unrolled path's spans cover {:.1} % of run_serial's wall in the median batch, {:.1} % to {:.1} % between the quartiles",
            100.0 * (1.0 - other_share),
            100.0 * q1,
            100.0 * q3
        ),
    );
    out.note(
        "serial_timed_wall_s",
        Json::F64(serial_warm_ns as f64 / 1e9),
    );
    out.note("unrolled_spanned_s", Json::F64(spanned_ns as f64 / 1e9));
    out.note(
        "unrolled_loop_self_s",
        Json::F64(get("batch").self_ns as f64 / 1e9),
    );
    rec.write_chrome_trace(&mut out, kind.name());
    let unrolled_spans = rec.len();
    drop(rig_b);

    // C: threaded, traced.
    let reg = Registry::enabled();
    let rec_c = Recorder::new();
    let rig_c = Rig::build(p, kind.spec(), ctx.seed, reg.clone(), Some((&rec_c, 0)));
    let epochs = 1 + (p.epochs_cap_per_10s as f64 * window / 10.0).ceil() as usize;
    let (long_plan, _) = epoch_plan(p, &rig_c, epochs);
    let (traced, mut rig_c) =
        match run_threaded_window(&cfg, rig_c, long_plan.clone(), per_epoch, window, &reg) {
            Ok(ok) => ok,
            Err(e) => {
                out.check("train.threaded_traced_run", false, e);
                return out;
            }
        };
    out.attempted += traced.report.batches_trained as u64;
    let r = &traced.report;
    let wall_ns = r.wall.as_nanos() as f64;
    let per_worker: Vec<f64> = (0..8)
        .map(|i| r.stage_busy_ns[i] as f64 / cfg.workers[i] as f64)
        .collect();
    for (i, stage) in STAGE_NAMES.iter().enumerate() {
        out.put(
            &format!("exec.busy_ms.{stage}"),
            ns_to_ms(r.stage_busy_ns[i]),
            "ms",
        );
        out.put(
            &format!("exec.util.{stage}"),
            ratio(per_worker[i], wall_ns),
            "ratio",
        );
    }
    let bottleneck = (0..8)
        .max_by(|&a, &b| per_worker[a].total_cmp(&per_worker[b]))
        .unwrap_or(0);
    out.put("exec.bottleneck", bottleneck as f64, "index");
    out.note(
        "exec_bottleneck_stage",
        Json::Str(STAGE_NAMES[bottleneck].into()),
    );
    out.put(
        "exec.pipeline_eff",
        ratio(per_worker[bottleneck], wall_ns),
        "ratio",
    );
    out.put("store.fetch.retries", r.robustness.retries as f64, "count");
    out.put(
        "store.fetch.failovers",
        r.robustness.failovers as f64,
        "count",
    );
    let user_bytes = 0.0; // training writes no rows
    put_disk_metrics(&mut out, &rig_c, None, user_bytes);
    put_net_metrics(&mut out, &mut rig_c, (r.batches_trained * p.batch) as f64);
    // The two train workloads must really stress different layers: the
    // local one is served by its cache and never touches the network, the
    // remote one misses into the store servers.
    let (hit_ratio, net_calls) = (out.get("cache.hit_ratio"), out.get("net.call.count"));
    out.check(
        "train.stresses_its_layers",
        match kind {
            TrainKind::Local => hit_ratio >= 0.99 && net_calls == 0.0,
            TrainKind::Remote => hit_ratio < 0.9 && net_calls > 0.0,
        },
        format!("cache.hit_ratio {hit_ratio:.4} after warm-up, net.call.count {net_calls}"),
    );
    let traced_walls = traced.timed_epoch_walls();
    let spans_total = unrolled_spans + rec_c.len();
    drop(rig_c);

    // D: the same window, untraced.
    let rig_d = Rig::build(p, kind.spec(), ctx.seed, off.clone(), None);
    let (plain, rig_d) = match run_threaded_window(&cfg, rig_d, long_plan, per_epoch, window, &off)
    {
        Ok(ok) => ok,
        Err(e) => {
            out.check("train.threaded_plain_run", false, e);
            return out;
        }
    };
    drop(rig_d);
    out.attempted += plain.report.batches_trained as u64;
    check_against_serial(&mut out, &plain, &serial, SERIAL_PREFIX.min(plan.len()));
    let plain_walls = plain.timed_epoch_walls();
    let (q1, q3) = quartiles(&plain_walls);
    let serial_epoch_s = ratio(serial_warm_ns as f64 / 1e9, (TRACE_EPOCHS - 1) as f64);
    out.put_n(
        "exec.serial_over_threaded",
        ratio(serial_epoch_s, median(&plain_walls)),
        "ratio",
        plain_walls.len(),
    );
    out.put_n("exec.epoch_s_iqr", q3 - q1, "s", plain_walls.len());
    let overhead = ratio(median(&traced_walls), median(&plain_walls)) - 1.0;
    out.put_n(
        "trace.overhead_share",
        overhead,
        "ratio",
        traced_walls.len().min(plain_walls.len()),
    );
    // C and D run one after the other; a difference inside the spread of
    // D's own epochs says nothing about the tracing.
    out.note(
        "trace_overhead_resolved",
        Json::Bool(overhead.abs() > ratio(q3 - q1, median(&plain_walls))),
    );
    out.put("trace.spans", spans_total as f64, "count");
    out.put_n(
        "train_seeds_per_s",
        ratio(seeds_per_epoch as f64, median(&plain_walls)),
        "seeds/s",
        plain_walls.len(),
    );
    out.put(
        "ops_failed_share",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );
    out.put("peak_rss_mb", report::peak_rss_mb(), "MB");
    out
}
