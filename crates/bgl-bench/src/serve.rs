//! `serve-sweep`: the train-remote cluster behind `ServeEngine` +
//! `ServeFrontend`, driven by the bench's own seeded open-loop Poisson
//! generator over four legs at frozen rates. The timed and the traced run
//! drive the same sweep; the traced one adds the instruments.
//!
//! Latency is measured from the instant a request was *due*, not from when
//! it was admitted: a stalled generator or a full queue delays later
//! requests, and that delay is the user's. `bgl_serve::open_loop` times
//! from admission, so it is not used. The generator runs on this (the
//! main) thread only; how late it ran is reported per leg, and a leg below
//! saturation whose generator ran more than 1 ms late at p99 is marked
//! invalid rather than reported.

use crate::layers::{put_disk_metrics, put_net_metrics, put_partition_metrics};
use crate::params::{
    Ctx, Params, CAPTURE_FRAMES, FANOUTS, LEG_NAMES, SERVE_DISCARD_SHARE, SERVE_LEG_SHARE,
    SERVE_TIMED_LEG_SHARE, SERVE_WINDOWS,
};
use crate::replay;
use crate::report::{self, bits, mean, median, ns_to_ms, percentile, ratio, sorted, Outcome};
use crate::rig::{Rig, RigSpec, Seeds};
use crate::timed::{Recorder, StepStamps, TimedModel};
use bgl_graph::NodeId;
use bgl_obs::json::Json;
use bgl_obs::Registry;
use bgl_serve::{ServeConfig, ServeEngine, ServeFrontend, ServeHandle, Ticket};
use bgl_store::wire::mix64;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A generator later than this at p99 invalidates its leg. The `over` leg
/// is exempt: it offers well over what the front-end can take, so its queue
/// is full throughout and a request a millisecond late is shed or waits
/// ~110 ms just the same, while on a 2-core host whose cores the saturated
/// system under test owns, no generator thread is scheduled within 1 ms
/// 99 times in 100 (p99 there is 0.85-1.3 ms).
const MAX_GEN_LATE_US: f64 = 1000.0;

fn engine_of(rig: &mut Rig) -> ServeEngine {
    ServeEngine::new(
        rig.cluster.take().expect("rig cluster already used"),
        rig.cache.take().expect("rig cache already used"),
        rig.model.take().expect("rig model already used"),
        FANOUTS.to_vec(),
        rig.seeds.exec,
    )
}

/// A started front-end over a fresh remote rig, and the users it serves.
struct Live {
    rig: Rig,
    front: ServeFrontend,
    users: Vec<NodeId>,
}

/// With a recorder the transport is a `TimedTransport`; with stamps the
/// model is a `TimedModel`.
fn start(
    ctx: &Ctx<'_>,
    reg: &Registry,
    recorder: Option<(&Arc<Recorder>, usize)>,
    stamps: Option<&Arc<StepStamps>>,
) -> Live {
    let mut rig = Rig::build(ctx.p, RigSpec::remote(), ctx.seed, reg.clone(), recorder);
    let users = std::mem::take(&mut rig.ds.split.test);
    if let Some(stamps) = stamps {
        let inner = rig.model.take().expect("fresh rig");
        rig.model = Some(TimedModel::wrap(inner, stamps, None));
    }
    let mut front = ServeFrontend::new(engine_of(&mut rig), ServeConfig::default(), reg);
    front.start();
    Live { rig, front, users }
}

/// `n` closed-loop queries; returns how many failed.
fn closed_queries(handle: &ServeHandle, users: &[NodeId], n: usize) -> u64 {
    (0..n)
        .filter(|i| {
            handle
                .try_submit(users[i % users.len()])
                .ok()
                .and_then(|t| t.wait().ok())
                .is_none()
        })
        .count() as u64
}

/// Closed-loop warm-up before the first leg: fills the feature cache to its
/// steady state and pages the model in, so the `low` leg is not a cold start.
fn warm_up(p: &Params, handle: &ServeHandle, users: &[NodeId], out: &mut Outcome) {
    out.attempted += p.serve_warmup_queries as u64;
    out.failed += closed_queries(handle, users, p.serve_warmup_queries);
}

/// Uniform in (0, 1] from a counter-keyed hash.
fn unit(seed: u64, i: u64) -> f64 {
    ((mix64(seed, i) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// One request of a leg, as the generator saw it.
struct Sent {
    user: NodeId,
    due_ns: u64,
    submit_ns: u64,
    /// `None`: shed at admission.
    ticket: Option<Ticket>,
}

/// One request's outcome. Latencies are from the due instant.
struct Done {
    user: NodeId,
    due_ns: u64,
    submit_ns: u64,
    /// `Some(latency_ns)` when completed; `None` when shed or failed.
    latency_ns: Option<u64>,
    scores: Option<Vec<f32>>,
    shed: bool,
}

struct LegResult {
    name: &'static str,
    rate_hz: f64,
    seconds: f64,
    retained_s: f64,
    offered: u64,
    accepted: u64,
    shed: u64,
    completed: u64,
    failed: u64,
    /// Completed requests due after the discarded head of the leg.
    latency_samples: usize,
    /// Percentiles of each of `SERVE_WINDOWS` equal windows of the retained
    /// part, and the completed requests in each.
    window_p50_ms: Vec<f64>,
    window_p90_ms: Vec<f64>,
    window_p99_ms: Vec<f64>,
    window_counts: Vec<usize>,
    /// Requests due in the retained part that completed within the SLO,
    /// per second of it.
    goodput_rps: f64,
    /// Requests due in the retained part that completed, per second of it.
    completed_rps: f64,
    retained_offered: u64,
    retained_missed: u64,
    backlog_growth: f64,
    gen_late_us_p99: f64,
    valid: bool,
    /// From the front-end's own counters; 0 when they are off.
    mean_batch: f64,
}

impl LegResult {
    fn p50_ms(&self) -> f64 {
        median(&self.window_p50_ms)
    }

    fn p90_ms(&self) -> f64 {
        median(&self.window_p90_ms)
    }

    fn p99_ms(&self) -> f64 {
        median(&self.window_p99_ms)
    }

    fn fewest_in_a_window(&self) -> usize {
        self.window_counts.iter().copied().min().unwrap_or(0)
    }

    /// Meets the limit: window p99 within the SLO, nothing shed or failed,
    /// and no backlog building up over the leg.
    fn ok(&self, slo_ms: f64) -> bool {
        self.valid
            && self.shed == 0
            && self.failed == 0
            && self.latency_samples > 0
            && self.p99_ms() <= slo_ms
            && self.backlog_growth <= 2.0
    }
}

/// Offer requests at Poisson rate `rate_hz` for `seconds`, then wait for
/// every admitted one. `salt` separates the legs' schedules and user picks.
fn run_leg(
    handle: &ServeHandle,
    users: &[NodeId],
    rate_hz: f64,
    seconds: f64,
    seed: u64,
    salt: u64,
) -> (Vec<Done>, Vec<f64>) {
    let horizon_ns = (seconds * 1e9) as u64;
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -unit(mix64(seed, salt), due.len() as u64).ln() / rate_hz;
        let ns = (t * 1e9) as u64;
        if ns >= horizon_ns {
            break;
        }
        due.push(ns);
    }
    let pick =
        |i: u64| users[(mix64(mix64(seed, salt ^ 0x7573_6572), i) % users.len() as u64) as usize];
    let start = Instant::now();
    let mut sent: Vec<Sent> = Vec::with_capacity(due.len());
    for (i, &due_ns) in due.iter().enumerate() {
        // Hold the schedule by yielding until the request is due. A sleep
        // overshoots by up to ~0.7 ms here, and a generator that sleeps lets
        // the vCPU halt, after which every thread wake-up of the system
        // under test costs a trip through the hypervisor: latencies then
        // read 1.2x to 2x higher, switching from run to run. A yield hands
        // the core to any runnable thread of the system under test, so the
        // generator only uses cycles nobody else wants.
        while (start.elapsed().as_nanos() as u64) < due_ns {
            std::thread::yield_now();
        }
        let user = pick(i as u64);
        let submit_ns = start.elapsed().as_nanos() as u64;
        let ticket = handle.try_submit(user).ok();
        sent.push(Sent {
            user,
            due_ns,
            submit_ns,
            ticket,
        });
    }
    let late_us = sent
        .iter()
        .map(|s| (s.submit_ns - s.due_ns) as f64 / 1e3)
        .collect();
    let done = sent
        .into_iter()
        .map(|s| {
            let shed = s.ticket.is_none();
            let reply = s.ticket.and_then(|t| t.wait().ok());
            // The front-end stamps admission inside `try_submit`; the wait
            // before it (generator lateness) is added back here.
            let latency_ns = reply
                .as_ref()
                .map(|r| (s.submit_ns - s.due_ns) + r.latency.as_nanos() as u64);
            Done {
                user: s.user,
                due_ns: s.due_ns,
                submit_ns: s.submit_ns,
                latency_ns,
                scores: reply.map(|r| r.scores),
                shed,
            }
        })
        .collect();
    (done, late_us)
}

fn summarize(
    slo_ms: f64,
    name: &'static str,
    rate_hz: f64,
    seconds: f64,
    done: &[Done],
    late_us: Vec<f64>,
) -> LegResult {
    let discard_ns = (seconds * SERVE_DISCARD_SHARE * 1e9) as u64;
    let retained_ns = (seconds * 1e9) as u64 - discard_ns;
    let retained_s = retained_ns as f64 / 1e9;
    let retained: Vec<&Done> = done.iter().filter(|d| d.due_ns >= discard_ns).collect();
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); SERVE_WINDOWS];
    for d in &retained {
        if let Some(ns) = d.latency_ns {
            let w = (((d.due_ns - discard_ns) as u128 * SERVE_WINDOWS as u128)
                / retained_ns.max(1) as u128) as usize;
            per_window[w.min(SERVE_WINDOWS - 1)].push(ns_to_ms(ns));
        }
    }
    let window_counts: Vec<usize> = per_window.iter().map(Vec::len).collect();
    let per_window: Vec<Vec<f64>> = per_window
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(sorted)
        .collect();
    let window_q = |q: f64| {
        per_window
            .iter()
            .map(|w| percentile(w, q))
            .collect::<Vec<f64>>()
    };
    let good = retained
        .iter()
        .filter(|d| d.latency_ns.is_some_and(|ns| ns_to_ms(ns) <= slo_ms))
        .count();
    // Mean latency over the last fifth of the retained part against the
    // first fifth: a queue that keeps growing shows as a ratio well over 1.
    let fifth = retained_ns / 5;
    let mean_in = |from: u64, to: u64| {
        mean(
            &retained
                .iter()
                .filter(|d| (from..to).contains(&(d.due_ns - discard_ns)))
                .filter_map(|d| d.latency_ns)
                .map(ns_to_ms)
                .collect::<Vec<_>>(),
        )
    };
    let shed = done.iter().filter(|d| d.shed).count() as u64;
    let completed = done.iter().filter(|d| d.latency_ns.is_some()).count() as u64;
    let offered = done.len() as u64;
    let gen_late_us_p99 = percentile(&sorted(late_us), 0.99);
    LegResult {
        name,
        rate_hz,
        seconds,
        retained_s,
        offered,
        accepted: offered - shed,
        shed,
        completed,
        failed: offered - shed - completed,
        latency_samples: window_counts.iter().sum(),
        window_p50_ms: window_q(0.5),
        window_p90_ms: window_q(0.9),
        window_p99_ms: window_q(0.99),
        completed_rps: ratio(window_counts.iter().sum::<usize>() as f64, retained_s),
        window_counts,
        goodput_rps: ratio(good as f64, retained_s),
        retained_offered: retained.len() as u64,
        retained_missed: (retained.len() - good) as u64,
        backlog_growth: ratio(mean_in(retained_ns - fifth, u64::MAX), mean_in(0, fifth)),
        gen_late_us_p99,
        valid: name == "over" || gen_late_us_p99 <= MAX_GEN_LATE_US,
        mean_batch: 0.0,
    }
}

fn leg_json(l: &LegResult) -> Json {
    let counts = |v: &[usize]| Json::Arr(v.iter().map(|&n| Json::U64(n as u64)).collect());
    let floats = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::F64(x)).collect());
    Json::Obj(vec![
        ("rate_hz".into(), Json::F64(l.rate_hz)),
        ("seconds".into(), Json::F64(l.seconds)),
        ("retained_s".into(), Json::F64(l.retained_s)),
        ("offered".into(), Json::U64(l.offered)),
        ("accepted".into(), Json::U64(l.accepted)),
        ("shed".into(), Json::U64(l.shed)),
        ("completed".into(), Json::U64(l.completed)),
        ("failed".into(), Json::U64(l.failed)),
        (
            "latency_samples".into(),
            Json::U64(l.latency_samples as u64),
        ),
        ("p50_ms".into(), Json::F64(l.p50_ms())),
        ("p90_ms".into(), Json::F64(l.p90_ms())),
        ("p99_ms".into(), Json::F64(l.p99_ms())),
        ("completed_rps".into(), Json::F64(l.completed_rps)),
        ("goodput_rps".into(), Json::F64(l.goodput_rps)),
        ("window_samples".into(), counts(&l.window_counts)),
        ("window_p99_ms".into(), floats(&l.window_p99_ms)),
        ("retained_offered".into(), Json::U64(l.retained_offered)),
        ("retained_missed_slo".into(), Json::U64(l.retained_missed)),
        ("backlog_growth".into(), Json::F64(l.backlog_growth)),
        ("gen_late_us_p99".into(), Json::F64(l.gen_late_us_p99)),
        ("valid".into(), Json::Bool(l.valid)),
    ])
}

/// Everything the sweep produced besides the leg summaries.
struct Sweep {
    legs: Vec<LegResult>,
    /// `(user, scores)` of completed requests, spread over the sweep.
    sampled_replies: Vec<(NodeId, Vec<f32>)>,
}

impl Sweep {
    fn leg(&self, name: &str) -> &LegResult {
        self.legs
            .iter()
            .find(|l| l.name == name)
            .expect("the sweep runs every leg")
    }
}

/// Run the open-loop legs with a non-zero share of `--seconds` (in
/// `LEG_NAMES` order) against a started front-end, check each leg's
/// ledger, and note the leg summaries. With a recorder every
/// completed request leaves a `serve.request` span (due -> reply) with a
/// `serve.admit_wait` child (due -> submit); with an enabled registry the
/// legs' mean batch sizes are read from the front-end's own counters.
fn sweep(
    ctx: &Ctx<'_>,
    leg_share: [f64; 4],
    handle: &ServeHandle,
    users: &[NodeId],
    reg: &Registry,
    rec: Option<&Recorder>,
    out: &mut Outcome,
) -> Sweep {
    let p = ctx.p;
    let mut legs = Vec::new();
    let mut sampled_replies = Vec::new();
    let legs_run = leg_share.iter().filter(|&&share| share > 0.0).count();
    let per_leg_checked = p.serve_checked_replies.div_ceil(legs_run.max(1));
    let mut query_id = 0u64;
    let load_seed = Seeds::from_workload_seed(ctx.seed).load;
    for (i, name) in LEG_NAMES.into_iter().enumerate() {
        if leg_share[i] <= 0.0 {
            continue;
        }
        let seconds = ctx.seconds * leg_share[i];
        let rate_hz = p.serve_rates_hz[i];
        let before = batch_counts(reg);
        let leg_start_ns = rec.map_or(0, Recorder::now_ns);
        let (done, late_us) = run_leg(handle, users, rate_hz, seconds, load_seed, i as u64 + 1);
        let mut leg = summarize(p.serve_slo_ms, name, rate_hz, seconds, &done, late_us);
        let after = batch_counts(reg);
        leg.mean_batch = ratio((after.1 - before.1) as f64, (after.0 - before.0) as f64);
        out.check(
            &format!("serve.ledger.{name}"),
            leg.offered == leg.accepted + leg.shed && leg.accepted == leg.completed + leg.failed,
            format!(
                "offered {} = accepted {} + shed {}; accepted = completed {} + failed {}",
                leg.offered, leg.accepted, leg.shed, leg.completed, leg.failed
            ),
        );
        if let Some(rec) = rec {
            for d in &done {
                let Some(latency_ns) = d.latency_ns else {
                    continue;
                };
                let start = leg_start_ns + d.due_ns;
                let parent = rec.record("serve.request", query_id, start, start + latency_ns, None);
                rec.record(
                    "serve.admit_wait",
                    query_id,
                    start,
                    leg_start_ns + d.submit_ns,
                    Some(parent),
                );
                query_id += 1;
            }
        }
        let replies: Vec<(NodeId, &Vec<f32>)> = done
            .iter()
            .filter_map(|d| d.scores.as_ref().map(|s| (d.user, s)))
            .collect();
        let step = (replies.len() / per_leg_checked).max(1);
        sampled_replies.extend(
            replies
                .iter()
                .step_by(step)
                .take(per_leg_checked)
                .map(|(user, scores)| (*user, (*scores).clone())),
        );
        // `failed` follows the front-end's own ledger: a request it
        // accepted and did not complete. A shed request was refused, not
        // failed; it misses the SLO (`retained_missed`), and a leg below
        // saturation that sheds more than a stray few fails the run. A
        // stall of the host longer than queue_depth / rate sheds some on
        // any leg, and `failed` must repeat between runs of one commit.
        out.attempted += leg.offered;
        out.failed += leg.failed;
        if name != "over" {
            out.check(
                &format!("serve.not_shedding.{name}"),
                leg.shed * 20 <= leg.offered,
                format!(
                    "shed {} of {} offered at {rate_hz} Hz, at most 5 % allowed below saturation",
                    leg.shed, leg.offered
                ),
            );
        }
        legs.push(leg);
    }
    let invalid: Vec<Json> = legs
        .iter()
        .filter(|l| !l.valid)
        .map(|l| Json::Str(l.name.into()))
        .collect();
    out.note("serve_invalid_legs", Json::Arr(invalid));
    out.note("serve_slo_ms", Json::F64(p.serve_slo_ms));
    out.note(
        "serve_legs",
        Json::Obj(
            legs.iter()
                .map(|l| (l.name.to_string(), leg_json(l)))
                .collect(),
        ),
    );
    Sweep {
        legs,
        sampled_replies,
    }
}

/// `(serve.batches, requests in them)` so far, from the front-end's own
/// counters.
fn batch_counts(reg: &Registry) -> (u64, u64) {
    let batches = reg
        .counters()
        .into_iter()
        .find(|(k, _)| k == "serve.batches")
        .map_or(0, |(_, v)| v);
    let requests = reg
        .histograms()
        .into_iter()
        .find(|(k, _)| k == "serve.batch_size")
        .map_or(0, |(_, h)| h.sum);
    (batches, requests)
}

/// `wanted` replies sampled from the sweep must equal a fresh engine's
/// `infer_batch`, one user at a time, bitwise.
fn check_replies(
    out: &mut Outcome,
    fresh: &mut ServeEngine,
    sampled: &[(NodeId, Vec<f32>)],
    wanted: usize,
) {
    let mut same = 0;
    let mut detail = String::new();
    for (user, scores) in sampled {
        match fresh.infer_batch(&[*user]) {
            Ok(rows) if rows.len() == 1 && bits(&rows[0]) == bits(scores) => same += 1,
            Ok(_) => detail = format!("; user {user}: reply differs from a fresh engine"),
            Err(e) => detail = format!("; user {user}: fresh engine failed: {e}"),
        }
    }
    out.check(
        "serve.replies_equal_fresh_engine",
        same == sampled.len() && sampled.len() >= wanted,
        format!(
            "{same} of {} sampled replies bitwise equal, {wanted} wanted{detail}",
            sampled.len()
        ),
    );
}

/// The untraced timed run: the end-to-end metrics, with every instrument
/// off. Set-up is timed `setup_reps` times, each from nothing to the first
/// (cold) query answered; the last set-up then serves the sweep.
pub fn run_timed(ctx: &Ctx<'_>) -> Outcome {
    let p = ctx.p;
    let mut out = Outcome::default();
    let off = Registry::disabled();
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..p.setup_reps.max(1) {
        if let Some(Live { front, rig, .. }) = live.take() {
            front.shutdown();
            drop(rig);
        }
        let t0 = Instant::now();
        let l = start(ctx, &off, None, None);
        out.attempted += 1;
        let cold_failed = closed_queries(&l.front.handle(), &l.users, 1);
        setup_s.push(t0.elapsed().as_secs_f64());
        out.failed += cold_failed;
        live = Some(l);
    }
    let Live { rig, front, users } = live.expect("at least one set-up");
    let handle = front.handle();
    warm_up(p, &handle, &users, &mut out);
    let s = sweep(
        ctx,
        SERVE_TIMED_LEG_SHARE,
        &handle,
        &users,
        &off,
        None,
        &mut out,
    );
    front.shutdown();
    drop(rig);

    let mut fresh_rig = Rig::build(p, RigSpec::remote(), ctx.seed, off.clone(), None);
    check_replies(
        &mut out,
        &mut engine_of(&mut fresh_rig),
        &s.sampled_replies,
        p.serve_checked_replies,
    );
    drop(fresh_rig);

    // A leg whose generator ran late still gives these: latency is counted
    // from the due instant, so the lateness is in it. `serve_invalid_legs`
    // in the run document says when that happened.
    let (reference, over) = (s.leg("ref"), s.leg("over"));
    out.put_n("setup_s", median(&setup_s), "s", setup_s.len());
    out.put_n("ops_per_s", over.completed_rps, "1/s", over.latency_samples);
    out.put_n(
        "latency_p50_ms",
        reference.p50_ms(),
        "ms",
        reference.latency_samples,
    );
    // A smoke run makes no timing claim.
    let needed = if p.smoke { 1 } else { 100 };
    out.check(
        "serve.enough_samples",
        reference.fewest_in_a_window() >= needed,
        format!(
            "fewest `ref` latencies in a window: {}, need {needed}",
            reference.fewest_in_a_window()
        ),
    );
    out.note(
        "setup_samples_s",
        Json::Arr(setup_s.iter().map(|&x| Json::F64(x)).collect()),
    );
    out.put("peak_rss_mb", report::peak_rss_mb(), "MB");
    out
}

/// The sweep's headline and per-leg numbers. A leg whose generator ran late
/// is withheld, and so is a headline number read from it.
fn put_leg_metrics(p: &Params, out: &mut Outcome, s: &Sweep) {
    let late = |l: &LegResult| {
        format!(
            "leg {}: generator {:.0} us late at p99",
            l.name, l.gen_late_us_p99
        )
    };
    let (reference, over) = (s.leg("ref"), s.leg("over"));
    if reference.valid {
        out.put_n(
            "serve_p50_ms",
            reference.p50_ms(),
            "ms",
            reference.latency_samples,
        );
        out.put_n(
            "serve_p99_ms",
            reference.p99_ms(),
            "ms",
            reference.fewest_in_a_window(),
        );
    } else {
        out.withhold("serve_p50_ms", "ms", late(reference));
        out.withhold("serve_p99_ms", "ms", late(reference));
    }
    if over.valid {
        out.put_n(
            "serve_goodput_rps",
            over.goodput_rps,
            "req/s",
            over.retained_offered as usize,
        );
    } else {
        out.withhold("serve_goodput_rps", "req/s", late(over));
    }
    let max_ok = s
        .legs
        .iter()
        .filter(|l| l.ok(p.serve_slo_ms))
        .map(|l| l.rate_hz)
        .fold(0.0, f64::max);
    out.put("serve_max_ok_rate_hz", max_ok, "Hz");
    for l in &s.legs {
        let n = l.name;
        let per_leg = [
            ("p50_ms", l.p50_ms(), "ms", l.latency_samples),
            ("p99_ms", l.p99_ms(), "ms", l.fewest_in_a_window()),
            (
                "shed_share",
                ratio(l.shed as f64, l.offered as f64),
                "ratio",
                l.offered as usize,
            ),
            (
                "goodput_rps",
                l.goodput_rps,
                "req/s",
                l.retained_offered as usize,
            ),
            ("mean_batch", l.mean_batch, "count", l.completed as usize),
        ];
        for (metric, value, unit, samples) in per_leg {
            let name = format!("serve.{n}.{metric}");
            if l.valid {
                out.put_n(&name, value, unit, samples);
            } else {
                out.withhold(&name, unit, late(l));
            }
        }
    }
    let worst_late = s.legs.iter().map(|l| l.gen_late_us_p99).fold(0.0, f64::max);
    out.put("serve.gen_late_us_p99", worst_late, "us");
}

/// The traced run: the same sweep with the stack's own `serve.*` counters
/// on, request spans, a `TimedTransport` and a `TimedModel`, then a direct
/// drive of `ServeEngine::infer_batch` at batch 1 and 16.
pub fn run_traced(ctx: &Ctx<'_>) -> Outcome {
    let p = ctx.p;
    let mut out = Outcome::default();
    let reg = Registry::enabled();
    let rec = Recorder::new();
    let stamps = StepStamps::new(Instant::now());

    let Live {
        mut rig,
        front,
        users,
    } = start(ctx, &reg, Some((&rec, 0)), Some(&stamps));
    put_partition_metrics(&mut out, &rig);
    let handle = front.handle();
    warm_up(p, &handle, &users, &mut out);
    let s = sweep(
        ctx,
        SERVE_LEG_SHARE,
        &handle,
        &users,
        &reg,
        Some(&rec),
        &mut out,
    );
    front.shutdown();

    // The stack's own ledger must agree with what the generator saw.
    let c: BTreeMap<String, u64> = reg.counters().into_iter().collect();
    let n = |k: &str| c.get(k).copied().unwrap_or(0);
    let ours: u64 = s.legs.iter().map(|l| l.offered).sum::<u64>() + p.serve_warmup_queries as u64;
    out.check(
        "serve.counters_agree",
        n("serve.offered") == ours
            && n("serve.offered") == n("serve.accepted") + n("serve.shed")
            && n("serve.accepted") == n("serve.completed") + n("serve.failed"),
        format!(
            "generator offered {ours}; serve.offered {} accepted {} shed {} completed {} failed {}",
            n("serve.offered"),
            n("serve.accepted"),
            n("serve.shed"),
            n("serve.completed"),
            n("serve.failed")
        ),
    );
    put_leg_metrics(p, &mut out, &s);
    let forwards = sorted(
        stamps
            .forwards()
            .iter()
            .map(|f| ns_to_ms(f.1 - f.0))
            .collect(),
    );
    out.put_n(
        "gnn.forward.ms_p50",
        percentile(&forwards, 0.5),
        "ms",
        forwards.len(),
    );
    out.put(
        "tensor.threads",
        bgl_tensor::pool::global().threads() as f64,
        "count",
    );
    put_disk_metrics(&mut out, &rig, None, 0.0);
    let queries: u64 = s.legs.iter().map(|l| l.completed).sum();
    put_net_metrics(&mut out, &mut rig, queries as f64);
    let sweep_spans = rec.len();
    rec.write_chrome_trace(&mut out, "serve-sweep");
    drop(rig);

    // Direct drive: inference alone, no queue and no batching window.
    let rec_d = Recorder::new();
    let mut rig_d = Rig::build(
        p,
        RigSpec::remote(),
        ctx.seed,
        Registry::disabled(),
        Some((&rec_d, CAPTURE_FRAMES)),
    );
    let mut engine = engine_of(&mut rig_d);
    check_replies(
        &mut out,
        &mut engine,
        &s.sampled_replies,
        p.serve_checked_replies,
    );
    let mut infer_ms = |batch: usize, from: usize| -> (f64, usize) {
        let mut walls = Vec::new();
        for r in 0..p.serve_direct_reps {
            let at = (from + r * batch) % (users.len() - batch);
            rec_d.set_req(r as u64);
            let _s = rec_d.span(if batch == 1 {
                "serve.infer_batch.b1"
            } else {
                "serve.infer_batch.b16"
            });
            let t = Instant::now();
            if engine.infer_batch(&users[at..at + batch]).is_ok() {
                walls.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        (median(&walls), walls.len())
    };
    let (b1, n1) = infer_ms(1, 0);
    let (b16, n16) = infer_ms(16.min(users.len() - 1), 1 << 10);
    out.put_n("serve.infer_ms.b1", b1, "ms", n1);
    out.put_n("serve.infer_ms.b16", b16, "ms", n16);
    // Waiting = due-time latency minus inference at the batch size the
    // front-end actually formed on the `ref` leg (interpolated).
    let reference = s.leg("ref");
    if reference.valid {
        let at_batch = b1 + (b16 - b1) * ((reference.mean_batch - 1.0) / 15.0).clamp(0.0, 1.0);
        out.put(
            "serve.wait_ms_p50",
            (reference.p50_ms() - at_batch).max(0.0),
            "ms",
        );
    } else {
        out.withhold(
            "serve.wait_ms_p50",
            "ms",
            "leg ref: generator ran late".into(),
        );
    }
    if let Some(log) = &rig_d.transport_log {
        replay::codec(&mut out, &crate::timed::lock(log));
    }
    out.put("trace.spans", (sweep_spans + rec_d.len()) as f64, "count");
    drop(engine);
    drop(rig_d);
    out.put(
        "ops_failed_share",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );
    out
}
