//! The online-serving path end to end (`bgl-serve`).
//!
//! Four claims close the loop on the serving front-end:
//!
//! 1. **Determinism** — micro-batching is a latency knob, not a numerics
//!    knob: a user's scores are bitwise-identical whether the query runs
//!    alone on the engine, inside a batch, or over loopback TCP. Batches
//!    form from what queued while the driver was busy, never from a timer.
//! 2. **Backpressure** — a full admission queue sheds with the typed,
//!    retryable `Overloaded` error, the ledger counts it, and everything
//!    actually admitted still completes.
//! 3. **Robustness** — killing a TCP store server mid-load under r=2
//!    leaves no request hanging: every accepted query completes via
//!    failover or fails typed-retryable, and the `serve.*` /
//!    `net.reconnects` counters reconcile with the load report; an
//!    in-process crash under r=2 fails no accepted query at all.
//! 4. **SLO accounting** — the `serve.latency_us` log2 histogram's
//!    percentile (upper-bound-of-bucket semantics) never undercuts the
//!    exact reference sort over the same latencies.

use bgl::experiments::{DatasetId, ExperimentCtx};
use bgl::measure::make_partitioner;
use bgl::systems::SystemKind;
use bgl_cache::{FeatureCacheEngine, PolicyKind};
use bgl_net::query::QueryError;
use bgl_net::{spawn_loopback_cluster, NetClientConfig, NetServerConfig, TcpTransport};
use bgl_obs::Registry;
use bgl_serve::{
    open_loop, spawn_serve_server, ServeClient, ServeConfig, ServeEngine, ServeFrontend,
};
use bgl_sim::network::NetworkModel;
use bgl_sim::MILLISECOND;
use bgl_store::{FaultPlan, RetryPolicy, StoreCluster};
use std::time::{Duration, Instant};

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.counters()
        .into_iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

fn histogram(reg: &Registry, name: &str) -> bgl_obs::HistogramSnapshot {
    reg.histograms()
        .into_iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("histogram {name} exists"))
}

/// Serial ground truth: a fresh identical stack queried one user at a
/// time, straight on the engine — no queue, no batching.
fn serial_baseline(ctx: &ExperimentCtx, users: &[u32]) -> Vec<Vec<f32>> {
    let (mut engine, _) = ctx.serve_stack(1, None);
    users
        .iter()
        .map(|&u| {
            engine
                .infer_batch(&[u])
                .expect("serial inference")
                .pop()
                .expect("one row per user")
        })
        .collect()
}

/// Claim 1a, in process: queue a full wave of queries *before* starting
/// the driver so real multi-request batches form, then pin every reply to
/// the one-at-a-time baseline down to the bit.
#[test]
fn batched_replies_are_bitwise_identical_to_serial() {
    let ctx = ExperimentCtx::small();
    let (_, population) = ctx.serve_stack(1, None);
    // Repeats included: duplicate users inside one batch must get
    // identical rows from the seeded sampler.
    let mut users: Vec<u32> = population.into_iter().take(20).collect();
    users.extend_from_slice(&[users[0], users[7], users[13], users[0]]);
    let baseline = serial_baseline(&ctx, &users);

    let (engine, _) = ctx.serve_stack(1, None);
    let reg = Registry::enabled();
    let cfg = ServeConfig { max_batch: 8, queue_depth: 64 };
    let mut fe = ServeFrontend::new(engine, cfg, &reg);
    let handle = fe.handle();
    let tickets: Vec<_> = users
        .iter()
        .map(|&u| handle.try_submit(u).expect("queue admits under depth"))
        .collect();
    fe.start();
    let replies: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("batched query completes"))
        .collect();
    fe.shutdown();

    for ((u, want), got) in users.iter().zip(&baseline).zip(&replies) {
        assert_eq!(
            &got.scores, want,
            "user {u}: batched reply must be bitwise-identical to serial"
        );
    }
    // It really batched — the pre-filled queue drains max_batch at a
    // time, not one pass per request — and the ledger closes.
    let n = users.len() as u64;
    assert_eq!(counter(&reg, "serve.batches"), n.div_ceil(8));
    assert_eq!(counter(&reg, "serve.offered"), n);
    assert_eq!(counter(&reg, "serve.accepted"), n);
    assert_eq!(counter(&reg, "serve.completed"), n);
    assert_eq!(counter(&reg, "serve.shed"), 0);
    assert_eq!(counter(&reg, "serve.failed"), 0);
}

/// Claim 1a, under load: nothing but a busy driver forms batches. The
/// driver starts on a full pre-filled batch; 64 more requests arrive from
/// another thread while it works, so they must share passes (half as many
/// passes as requests is a loose bound: the expected count is 64 / 8) —
/// and every reply is still the serial one.
#[test]
fn batches_form_under_load_without_a_timer() {
    let ctx = ExperimentCtx::small();
    let (_, population) = ctx.serve_stack(1, None);
    let users: Vec<u32> = population.iter().copied().cycle().take(8 + 64).collect();
    let baseline = serial_baseline(&ctx, &users);

    let (engine, _) = ctx.serve_stack(1, None);
    let reg = Registry::enabled();
    let cfg = ServeConfig { max_batch: 8, queue_depth: 128 };
    let mut fe = ServeFrontend::new(engine, cfg, &reg);
    let handle = fe.handle();
    let submit = |us: &[u32]| -> Vec<_> {
        us.iter().map(|&u| handle.try_submit(u).expect("queue admits under depth")).collect()
    };
    let mut tickets = submit(&users[..8]);
    fe.start();
    tickets.extend(std::thread::scope(|s| {
        s.spawn(|| submit(&users[8..])).join().expect("submitter thread")
    }));
    let replies: Vec<_> =
        tickets.into_iter().map(|t| t.wait().expect("query completes")).collect();
    fe.shutdown();

    for ((u, want), got) in users.iter().zip(&baseline).zip(&replies) {
        assert_eq!(&got.scores, want, "user {u}: reply must be bitwise-identical to serial");
    }
    let batches = counter(&reg, "serve.batches");
    assert!(batches <= 1 + 32, "64 requests behind a busy driver took {batches} passes");
    assert_eq!(counter(&reg, "serve.completed"), users.len() as u64);
    assert_eq!(counter(&reg, "serve.failed"), 0);
}

/// The other half of work-conserving: an idle driver answers a lone
/// request in a pass of its own instead of holding it for company.
#[test]
fn a_lone_request_on_an_idle_driver_is_a_batch_of_one() {
    let ctx = ExperimentCtx::small();
    let (engine, users) = ctx.serve_stack(1, None);
    let reg = Registry::enabled();
    let mut fe = ServeFrontend::new(engine, ServeConfig::default(), &reg);
    fe.start();
    fe.handle().try_submit(users[0]).expect("admit").wait().expect("query completes");
    fe.shutdown();
    assert_eq!(counter(&reg, "serve.batches"), 1);
    let sizes = histogram(&reg, "serve.batch_size");
    assert_eq!((sizes.count, sizes.max), (1, 1));
}

/// "No ticket ever hangs" without a driver: a front-end shut down before
/// `start` has nobody to drain its queue, and the live handle keeps every
/// queued reply sender alive — so shutdown itself must resolve them.
/// Polled, not waited on: a regression fails here instead of hanging.
#[test]
fn shutdown_before_start_resolves_every_queued_ticket() {
    let ctx = ExperimentCtx::small();
    let (engine, users) = ctx.serve_stack(1, None);
    let reg = Registry::enabled();
    let fe = ServeFrontend::new(engine, ServeConfig::default(), &reg);
    let handle = fe.handle();
    let tickets: Vec<_> =
        users.iter().take(3).map(|&u| handle.try_submit(u).expect("admit")).collect();
    fe.shutdown();
    for t in &tickets {
        match t.try_wait() {
            Some(Err(QueryError::ShuttingDown)) => {}
            Some(other) => panic!("expected ShuttingDown, got {other:?}"),
            None => panic!("a ticket queued before shutdown is still unresolved"),
        }
    }
    assert_eq!(counter(&reg, "serve.accepted"), 3);
    assert_eq!(counter(&reg, "serve.failed"), 3);
    assert_eq!(counter(&reg, "serve.completed"), 0);
    assert!(matches!(handle.try_submit(users[0]), Err(QueryError::ShuttingDown)));
}

/// Claim 1b, over loopback TCP: the same wave pipelined through a real
/// socket — queries share batches server-side — must produce the
/// same bits as the serial baseline.
#[test]
fn tcp_replies_are_bitwise_identical_to_serial() {
    let ctx = ExperimentCtx::small();
    let (_, population) = ctx.serve_stack(1, None);
    let users: Vec<u32> = population.into_iter().take(16).collect();
    let baseline = serial_baseline(&ctx, &users);

    let (engine, _) = ctx.serve_stack(1, None);
    let reg = Registry::enabled();
    let mut fe = ServeFrontend::new(engine, ServeConfig::default(), &reg);
    fe.start();
    let server = spawn_serve_server(fe.handle(), NetServerConfig::default(), &reg)
        .expect("bind serve listener");
    let patient = NetClientConfig { read_timeout: Duration::from_secs(60), ..Default::default() };
    let mut client = ServeClient::connect(server.addr(), patient, &reg).expect("dial front-end");

    let replies = client.query_pipelined(&users).expect("pipelined queries");
    assert_eq!(replies.len(), users.len());
    for ((u, want), got) in users.iter().zip(&baseline).zip(&replies) {
        let resp = got.as_ref().expect("query succeeds over TCP");
        assert_eq!(
            &resp.scores, want,
            "user {u}: TCP reply must be bitwise-identical to serial"
        );
        assert!(resp.latency_us > 0, "server must report a measured latency");
    }
    server.shutdown();
    fe.shutdown();
    // The queries really crossed the wire and the ledger closes.
    assert!(counter(&reg, "serve.net.server.frames_received") > users.len() as u64);
    assert_eq!(counter(&reg, "serve.completed"), users.len() as u64);
    assert_eq!(counter(&reg, "serve.failed"), 0);
}

/// Claim 2: beyond `queue_depth` the front-end sheds typed and retryable,
/// without losing anything it admitted; a shut-down handle sheds too.
#[test]
fn overload_sheds_typed_and_admitted_work_still_completes() {
    let ctx = ExperimentCtx::small();
    let (engine, users) = ctx.serve_stack(1, None);
    let reg = Registry::enabled();
    let cfg = ServeConfig { max_batch: 4, queue_depth: 4 };
    // Driver not started: the queue fills to exactly `queue_depth`.
    let mut fe = ServeFrontend::new(engine, cfg, &reg);
    let handle = fe.handle();
    let tickets: Vec<_> = (0..4)
        .map(|i| handle.try_submit(users[i]).expect("under depth admits"))
        .collect();
    match handle.try_submit(users[4]) {
        Err(QueryError::Overloaded { depth }) => {
            assert_eq!(depth, 4, "shed error must carry the configured depth");
            assert!(QueryError::Overloaded { depth }.is_retryable());
        }
        Ok(_) => panic!("fifth submission must shed"),
        Err(e) => panic!("expected Overloaded, got {e}"),
    }
    fe.start();
    for t in tickets {
        t.wait().expect("admitted requests all complete");
    }
    fe.shutdown();
    assert_eq!(counter(&reg, "serve.offered"), 5);
    assert_eq!(counter(&reg, "serve.accepted"), 4);
    assert_eq!(counter(&reg, "serve.shed"), 1);
    assert_eq!(counter(&reg, "serve.completed"), 4);
    // After shutdown the handle sheds immediately, typed.
    match handle.try_submit(users[0]) {
        Err(QueryError::ShuttingDown) => {}
        Ok(_) => panic!("post-shutdown submission must shed"),
        Err(e) => panic!("expected ShuttingDown, got {e}"),
    }
    assert_eq!(counter(&reg, "serve.shed"), 2);
}

/// Claim 1c: one bad request inside a batch fails alone. Its batch-mates
/// still complete, still bitwise-equal to serial, and the failure is the
/// permanent (non-retryable) `InvalidNode`.
#[test]
fn invalid_node_poisons_only_its_own_reply() {
    let ctx = ExperimentCtx::small();
    let (_, population) = ctx.serve_stack(1, None);
    let users: Vec<u32> = population.into_iter().take(6).collect();
    let baseline = serial_baseline(&ctx, &users);

    let (engine, _) = ctx.serve_stack(1, None);
    let reg = Registry::enabled();
    let cfg = ServeConfig { max_batch: 8, queue_depth: 16 };
    let mut fe = ServeFrontend::new(engine, cfg, &reg);
    let handle = fe.handle();
    let good: Vec<_> = users
        .iter()
        .map(|&u| handle.try_submit(u).expect("admit"))
        .collect();
    let bad = handle.try_submit(u32::MAX).expect("admission does not validate");
    fe.start();
    for ((u, want), t) in users.iter().zip(&baseline).zip(good) {
        let reply = t.wait().expect("batch-mates of a bad request still complete");
        assert_eq!(&reply.scores, want, "user {u}: reply unchanged by the bad batch-mate");
    }
    match bad.wait() {
        Err(QueryError::InvalidNode(v)) => {
            assert_eq!(v, u32::MAX);
            assert!(!QueryError::InvalidNode(v).is_retryable());
        }
        Ok(_) => panic!("out-of-universe user must fail"),
        Err(e) => panic!("expected InvalidNode, got {e}"),
    }
    fe.shutdown();
    assert_eq!(counter(&reg, "serve.completed"), users.len() as u64);
    assert_eq!(counter(&reg, "serve.failed"), 1);
}

/// Claim 4: the histogram percentile upper-bounds the exact sort. Both
/// sides see the identical latency samples (the driver records each reply
/// once), so any undercut is a percentile bug, not noise.
#[test]
fn latency_histogram_percentiles_upper_bound_the_exact_sort() {
    let ctx = ExperimentCtx::small();
    let (engine, users) = ctx.serve_stack(1, None);
    let reg = Registry::enabled();
    let mut fe = ServeFrontend::new(engine, ServeConfig::default(), &reg);
    fe.start();
    let handle = fe.handle();
    let report = open_loop(&handle, &users, 2_000.0, 120, 0x510);
    fe.shutdown();

    assert_eq!(report.offered, 120);
    assert_eq!(report.accepted, report.completed + report.failed());
    assert_eq!(counter(&reg, "serve.offered"), report.offered);
    assert_eq!(counter(&reg, "serve.accepted"), report.accepted);
    assert_eq!(counter(&reg, "serve.shed"), report.shed);
    assert_eq!(counter(&reg, "serve.completed"), report.completed);
    let hist = histogram(&reg, "serve.latency_us");
    assert_eq!(hist.count, report.completed);
    for p in [0.5, 0.9, 0.99, 0.999] {
        assert!(
            hist.percentile(p) >= report.percentile_us(p),
            "p{p}: bucketed {} undercuts exact {}",
            hist.percentile(p),
            report.percentile_us(p)
        );
    }
}

/// Claim 3, in-process: a seeded [`FaultPlan`] crashes store server 0 a
/// quarter of the way into the run and the outage outlives it, so under
/// r=2 every later request must be answered by the replica — failover,
/// not failure: no accepted query may fail.
#[test]
fn store_crash_under_replication_fails_no_accepted_query() {
    let ctx = ExperimentCtx::small();
    let n = 200;
    let plan = FaultPlan::new(ctx.seed).crash(0, n as u64 / 4, 500 * MILLISECOND);
    let (mut engine, users) = ctx.serve_stack(2, Some(plan));
    let reg = Registry::enabled();
    engine.cluster_mut().attach_metrics(&reg);
    let mut fe = ServeFrontend::new(engine, ServeConfig::default(), &reg);
    fe.start();
    let handle = fe.handle();
    let report = open_loop(&handle, &users, 2_000.0, n, 0xC4A05);
    fe.shutdown();

    assert_eq!(report.offered, n as u64);
    assert_eq!(report.offered, report.accepted + report.shed);
    assert_eq!(report.failed(), 0, "r=2 must fail over, not fail requests: {:?}", report.failures);
    assert_eq!(report.accepted, report.completed);
    assert!(counter(&reg, "store.failovers") > 0, "the crash must have fired");
}

/// Claim 3: the chaos leg. The engine's store transport runs over real
/// loopback TCP with r=2; server 0 is killed (sockets shut down, port
/// refusing redials) while the open-loop generator is mid-run. Nothing
/// may hang: every accepted query completes via replica failover or fails
/// typed-retryable, and the counters reconcile with the report's ledger.
#[test]
fn tcp_store_kill_mid_load_completes_or_fails_typed() {
    let ctx = ExperimentCtx::small();
    let ds = ctx.dataset(DatasetId::UserItem);
    let parts = DatasetId::UserItem.partitions();
    let partition = make_partitioner(SystemKind::Bgl.config().partitioner, ctx.seed)
        .partition(&ds.graph, &ds.split.train, parts);
    let reg = Registry::enabled();
    let cluster = StoreCluster::new(
        ds.graph.clone(),
        ds.features.clone(),
        &partition,
        NetworkModel::paper_fabric(),
        ctx.seed,
    )
    .with_replication(2)
    .with_retry_policy(RetryPolicy { deadline: None, ..RetryPolicy::default() })
    .with_degraded_features(true);
    let mut lc = spawn_loopback_cluster(
        ds.graph.clone(),
        ds.features.clone(),
        cluster.owner_map(),
        cluster.num_servers(),
        ctx.seed,
        NetServerConfig::default(),
        &reg,
    )
    .expect("spawn loopback store cluster");
    let addrs = lc.addrs();
    let cluster = cluster.swap_transport(Box::new(
        TcpTransport::connect(&addrs, NetClientConfig::default(), &reg)
            .expect("dial loopback store cluster"),
    ));
    assert_eq!(cluster.transport_kind(), "tcp");
    let cache = FeatureCacheEngine::new(1, ds.features.dim(), 256, 512, PolicyKind::Fifo, &[]);
    let model = bgl_gnn::make_model(
        bgl_gnn::ModelKind::GraphSage,
        ds.features.dim(),
        16,
        ds.num_classes,
        ctx.fanouts.len(),
        ctx.seed,
    );
    let engine = ServeEngine::new(cluster, cache, model, ctx.fanouts.clone(), ctx.seed);
    let users: Vec<u32> = ds.split.test.iter().copied().take(64).collect();

    let mut fe = ServeFrontend::new(engine, ServeConfig::default(), &reg);
    fe.start();
    let handle = fe.handle();
    let loader = {
        let users = users.clone();
        std::thread::spawn(move || open_loop(&handle, &users, 600.0, 400, 0xC1A05))
    };

    // Let serving get going, then kill store server 0 for real.
    let t0 = Instant::now();
    while counter(&reg, "serve.completed") < 20 {
        assert!(t0.elapsed() < Duration::from_secs(60), "serving never got going");
        std::thread::sleep(Duration::from_millis(2));
    }
    lc.kill(0);

    // Watchdog join: "no request hangs" is the claim under test, so a
    // stuck ticket must fail the test, not wedge the suite.
    let t1 = Instant::now();
    while !loader.is_finished() {
        assert!(
            t1.elapsed() < Duration::from_secs(120),
            "in-flight requests hung after the server kill"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = loader.join().expect("load generator thread");
    fe.shutdown();
    lc.shutdown();

    // The ledger closes exactly: nothing admitted was dropped.
    assert_eq!(report.offered, 400);
    assert_eq!(report.accepted, report.completed + report.failed());
    assert!(
        report.completed > 0,
        "failover must keep completing queries after the kill"
    );
    for e in &report.failures {
        assert!(e.is_retryable(), "post-kill failures must be retryable, got {e}");
    }
    // And the metrics agree with it, counter for counter.
    assert_eq!(counter(&reg, "serve.offered"), report.offered);
    assert_eq!(counter(&reg, "serve.accepted"), report.accepted);
    assert_eq!(counter(&reg, "serve.shed"), report.shed);
    assert_eq!(counter(&reg, "serve.completed"), report.completed);
    assert_eq!(counter(&reg, "serve.failed"), report.failed());
    assert!(
        counter(&reg, "net.reconnects") > 0,
        "the store client must have redialed the dead server"
    );
}
