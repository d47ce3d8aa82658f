//! Conformance of the one connection runtime (`bgl_net::server`), written
//! once and run over both frame handlers: the store plane
//! (`bgl_net::store_server::StoreHandler`, replies inline) and the query
//! plane (`bgl_serve::QueryHandler`, replies deferred behind tickets).
//!
//! Every case below is a generic function over [`Plane`]; the `#[test]`s
//! at the bottom instantiate each for both planes, and talk to the
//! listeners through the one dialer (`bgl_net::client::Connection`) or a
//! raw socket — never through a plane's typed client — so what is checked
//! is the runtime's contract, not a wrapper's:
//!
//! * a dialer beyond the connection bound, and a dialer with a bad hello,
//!   each get the plane's explicit refusal frame (a silent close would
//!   read as a transient server death);
//! * graceful `shutdown` answers every frame already buffered and every
//!   reply still deferred — unresolved tickets included — before closing;
//! * `kill` mid-conversation surfaces as a retryable transport error;
//! * a connection that goes quiet is closed at `idle_timeout`;
//! * truncated, bit-flipped, padded and oversize-announcing `Control` /
//!   `Query` / `Req` frames never panic or hang a connection thread, and a
//!   `Req` that arrives whole is always answered.
//!
//! Two plane-specific cases close the loop on this PR's fixes: the typed
//! permanent refusal `ServeClient` sees for a wrong-version hello, and
//! the per-plane byte ledgers reconciling side by side in one registry.

#[path = "../crates/bgl-net/tests/support/mod.rs"]
mod hostile;

use bgl::experiments::{DatasetId, ExperimentCtx};
use bgl::measure::make_partitioner;
use bgl::systems::SystemKind;
use bgl_cache::{FeatureCacheEngine, PolicyKind};
use bgl_graph::{generate, FeatureStore};
use bgl_net::client::{ConnectError, Connection};
use bgl_net::obs::ClientMetrics;
use bgl_net::proto::{ControlOp, Frame, FrameKind, Hello, DEFAULT_MAX_FRAME};
use bgl_net::query::{QueryError, QueryReq};
use bgl_net::server::{FrameHandler, ServerHandle};
use bgl_net::store_server::{serve, StoreHandler};
use bgl_net::{
    spawn_loopback_cluster, FrameDecoder, NetClientConfig, NetError, NetServerConfig,
    TcpTransport,
};
use bgl_obs::Registry;
use bgl_serve::{
    spawn_serve_server, QueryHandler, ServeClient, ServeConfig, ServeEngine, ServeFrontend,
};
use bgl_sim::network::NetworkModel;
use bgl_store::wire::Message;
use bgl_store::{GraphStoreServer, StoreCluster, StoreError};
use proptest::test_runner::{Config as ProptestConfig, TestRunner};
use proptest::{prop_assert, prop_assert_eq, strategy::Strategy};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One plane under test: a running listener plus the frames that drive it.
trait Plane: Sized {
    type Handler: FrameHandler;
    /// Kind of a successful reply to [`Plane::request`].
    const OK: FrameKind;
    /// Kind of the plane's error frame — what a refusal looks like.
    const ERR: FrameKind;

    /// Bind a listener. With `held`, replies to requests are withheld (or
    /// slow) until [`Plane::release`], so a test can stop the listener
    /// while work is provably outstanding.
    fn spawn(config: NetServerConfig, reg: &Registry, held: bool) -> Self;
    fn release(&mut self);
    fn addr(&self) -> SocketAddr;
    /// Take the listener out, to `shutdown` or `kill` it.
    fn listener(&mut self) -> ServerHandle<Self::Handler>;
    /// The `i`-th valid request frame.
    fn request(&self, corr: u64, i: usize) -> Frame;
    /// A request whose reply is never held, and the reply kind it earns.
    fn probe(&self, corr: u64) -> (Frame, FrameKind);
    /// Stop whatever is still running.
    fn finish(self);

    fn prefix() -> &'static str {
        <Self::Handler as FrameHandler>::METRIC_PREFIX
    }
}

struct StorePlane {
    listener: Option<ServerHandle<StoreHandler>>,
    addr: SocketAddr,
}

impl Plane for StorePlane {
    type Handler = StoreHandler;
    const OK: FrameKind = FrameKind::Resp;
    const ERR: FrameKind = FrameKind::Err;

    fn spawn(config: NetServerConfig, reg: &Registry, held: bool) -> Self {
        const NODES: usize = 64;
        let store = Arc::new(GraphStoreServer::new(
            0,
            Arc::new(generate::barabasi_albert(NODES, 3, 7)),
            Arc::new(FeatureStore::from_raw(2, (0..NODES * 2).map(|i| i as f32).collect())),
            Arc::new(vec![0; NODES]),
            42,
        ));
        let listener = serve(store, config, reg).expect("bind store listener");
        let plane = StorePlane { addr: listener.addr(), listener: Some(listener) };
        if held {
            // Inline replies cannot be withheld, only slowed: 40 ms each
            // keeps a pipelined burst outstanding long enough to stop the
            // listener under it.
            let mut conn = dial(&plane, &Registry::disabled()).expect("dial to slow the store");
            let slow = ControlOp::SetSlow { micros: 40_000 }.encode();
            conn.send(Frame::new(1, FrameKind::Control, slow)).expect("send control");
            assert_eq!(conn.recv_corr(1).expect("control ack").kind, FrameKind::ControlAck);
        }
        plane
    }

    fn release(&mut self) {}

    fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn listener(&mut self) -> ServerHandle<StoreHandler> {
        self.listener.take().expect("listener already taken")
    }

    fn request(&self, corr: u64, i: usize) -> Frame {
        let req = Message::FeatureReq { nodes: vec![i as u32] };
        Frame::new(corr, FrameKind::Req, req.encode().expect("request encodes"))
    }

    fn probe(&self, corr: u64) -> (Frame, FrameKind) {
        (Frame::new(corr, FrameKind::Control, ControlOp::Stats.encode()), FrameKind::ControlAck)
    }

    fn finish(mut self) {
        if let Some(l) = self.listener.take() {
            l.shutdown();
        }
    }
}

struct QueryPlane {
    listener: Option<ServerHandle<QueryHandler>>,
    addr: SocketAddr,
    frontend: ServeFrontend,
    started: bool,
    users: Vec<u32>,
}

impl Plane for QueryPlane {
    type Handler = QueryHandler;
    const OK: FrameKind = FrameKind::QueryOk;
    const ERR: FrameKind = FrameKind::QueryErr;

    fn spawn(config: NetServerConfig, reg: &Registry, held: bool) -> Self {
        let (engine, users) = ExperimentCtx::small().serve_stack(1, None);
        // Held = driver not started: queries are admitted and their
        // tickets stay unresolved until `release`.
        let frontend = ServeFrontend::new(engine, ServeConfig::default(), reg);
        let listener =
            spawn_serve_server(frontend.handle(), config, reg).expect("bind serve listener");
        let mut plane = QueryPlane {
            addr: listener.addr(),
            listener: Some(listener),
            frontend,
            started: false,
            users,
        };
        if !held {
            plane.release();
        }
        plane
    }

    fn release(&mut self) {
        if !self.started {
            self.frontend.start();
            self.started = true;
        }
    }

    fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn listener(&mut self) -> ServerHandle<QueryHandler> {
        self.listener.take().expect("listener already taken")
    }

    fn request(&self, corr: u64, i: usize) -> Frame {
        let user = self.users[i % self.users.len()];
        Frame::new(corr, FrameKind::Query, QueryReq { user }.encode())
    }

    fn probe(&self, corr: u64) -> (Frame, FrameKind) {
        (self.request(corr, 0), FrameKind::QueryOk)
    }

    fn finish(mut self) {
        if let Some(l) = self.listener.take() {
            l.shutdown();
        }
        self.frontend.shutdown();
    }
}

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.counters().into_iter().find(|(k, _)| k == name).map(|(_, v)| v).unwrap_or(0)
}

fn server_counter<P: Plane>(reg: &Registry, name: &str) -> u64 {
    counter(reg, &format!("{}.server.{name}", P::prefix()))
}

/// Spin until `cond` holds; the runtime's threads tick counters a beat
/// after the client-visible effect, so asserts on them wait (bounded).
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(20), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn dial_with<P: Plane>(
    plane: &P,
    config: &NetClientConfig,
    reg: &Registry,
) -> Result<Connection, ConnectError> {
    Connection::connect(&plane.addr(), config, ClientMetrics::new(reg, P::prefix()))
}

fn dial<P: Plane>(plane: &P, reg: &Registry) -> Result<Connection, ConnectError> {
    dial_with(plane, &NetClientConfig::default(), reg)
}

/// One request, one reply, over an established connection.
fn exchange<P: Plane>(plane: &P, conn: &mut Connection, i: usize) -> Result<Frame, NetError> {
    let corr = conn.fresh_corr();
    conn.send(plane.request(corr, i))?;
    conn.recv_corr(corr)
}

fn refusal_of(result: Result<Connection, ConnectError>) -> Frame {
    match result {
        Err(ConnectError::Refused(frame)) => frame,
        Err(ConnectError::Net(e)) => panic!("expected an explicit refusal frame, got {e}"),
        Ok(_) => panic!("expected an explicit refusal frame, got a connection"),
    }
}

/// Read frames off a raw socket until the server closes it.
fn read_to_eof(sock: &mut TcpStream) -> Vec<Frame> {
    sock.set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
    let mut frames = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match sock.read(&mut chunk) {
            // A kill or a close with unread input resets instead of EOF.
            Ok(0) | Err(_) => return frames,
            Ok(n) => decoder.feed(&chunk[..n]),
        }
        while let Some(f) = decoder.next_frame().expect("server frames are well formed") {
            frames.push(f);
        }
    }
}

fn bound_refusal_is_explicit<P: Plane>() {
    let reg = Registry::enabled();
    let config = NetServerConfig { max_connections: 1, ..NetServerConfig::default() };
    let plane = P::spawn(config, &reg, false);

    let mut first = dial(&plane, &reg).expect("first dialer fits the bound");
    assert_eq!(exchange(&plane, &mut first, 0).expect("served").kind, P::OK);

    let refusal = refusal_of(dial(&plane, &reg));
    assert_eq!(refusal.kind, P::ERR, "the plane's own error frame, on the wire");
    assert!(server_counter::<P>(&reg, "rejected") >= 1);

    // The first client is unaffected.
    assert_eq!(exchange(&plane, &mut first, 1).expect("still served").kind, P::OK);
    plane.finish();
}

fn bad_hello_refusal_is_explicit<P: Plane>() {
    let reg = Registry::enabled();
    let plane = P::spawn(NetServerConfig::default(), &reg, false);
    let wrong = NetClientConfig { protocol_version: 99, ..NetClientConfig::default() };
    let refusal = refusal_of(dial_with(&plane, &wrong, &reg));
    assert_eq!(refusal.kind, P::ERR);
    eventually("the handshake failure to be counted", || {
        server_counter::<P>(&reg, "handshake_failures") >= 1
    });
    assert_eq!(server_counter::<P>(&reg, "handshakes"), 0);
    plane.finish();
}

fn shutdown_answers_buffered_and_deferred<P: Plane>() {
    const BURST: usize = 8;
    let reg = Registry::enabled();
    let mut plane = P::spawn(NetServerConfig::default(), &reg, true);

    // Hello and the whole burst in one write, so one server read buffers
    // all of it in the connection's decoder.
    let mut wire = Frame::new(0, FrameKind::Hello, Hello::ours().encode()).encode();
    for i in 0..BURST {
        wire.extend_from_slice(&plane.request(i as u64 + 1, i).encode());
    }
    let mut sock = TcpStream::connect(plane.addr()).expect("dial");
    sock.write_all(&wire).expect("write burst");
    eventually("the burst to reach the handler", || server_counter::<P>(&reg, "requests") >= 1);

    // Stop the listener with the burst outstanding: buffered frames still
    // to handle on the store plane, unresolved tickets on the query plane.
    let listener = plane.listener();
    let stopper = std::thread::spawn(move || listener.shutdown());
    // Give every connection thread several turns to notice the stop
    // before anything resolves: a runtime that closed without waiting for
    // deferred replies would have hung up by now. (Waiting longer can
    // only make that failure surer; it cannot fail a correct runtime.)
    std::thread::sleep(10 * NetServerConfig::default().read_poll);
    plane.release();

    let frames = read_to_eof(&mut sock);
    stopper.join().expect("shutdown returns once everything is answered");
    assert_eq!(frames[0].kind, FrameKind::HelloAck);
    let mut answered: Vec<u64> = frames[1..]
        .iter()
        .map(|f| {
            assert_eq!(f.kind, P::OK, "request {} answered with an error", f.corr_id);
            f.corr_id
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, (1..=BURST as u64).collect::<Vec<_>>(), "every request answered once");
    plane.finish();
}

fn kill_mid_conversation_is_retryable<P: Plane>() {
    let reg = Registry::enabled();
    let mut plane = P::spawn(NetServerConfig::default(), &reg, false);
    let mut conn = dial(&plane, &reg).expect("dial");
    assert_eq!(exchange(&plane, &mut conn, 0).expect("served").kind, P::OK);

    plane.listener().kill();
    let err = exchange(&plane, &mut conn, 1).expect_err("the socket is dead");
    assert!(!matches!(err, NetError::Store(_)), "a transport error, got {err:?}");
    assert!(err.into_store_error(0).is_transient(), "a kill must read as retryable");
    plane.finish();
}

fn idle_connections_close_at_the_deadline<P: Plane>() {
    let reg = Registry::enabled();
    let config = NetServerConfig {
        idle_timeout: Some(Duration::from_millis(60)),
        ..NetServerConfig::default()
    };
    let plane = P::spawn(config, &reg, false);
    let mut conn = dial(&plane, &reg).expect("dial");
    assert_eq!(exchange(&plane, &mut conn, 0).expect("served").kind, P::OK);

    eventually("the idle deadline to fire", || server_counter::<P>(&reg, "idle_closed") >= 1);
    let err = exchange(&plane, &mut conn, 1).expect_err("the server hung up");
    assert!(err.into_store_error(0).is_transient());
    // Only the stale connection went away: the listener still serves.
    let mut fresh = dial(&plane, &reg).expect("redial");
    assert_eq!(exchange(&plane, &mut fresh, 2).expect("served").kind, P::OK);
    plane.finish();
}

/// Fire mutated `seed` frames at a live listener, one connection each.
/// Whatever the bytes say, the connection must end (a reply and/or a
/// close — the idle deadline reaps a peer that stops mid-frame), no
/// connection thread may die or wedge, and the listener must go on
/// serving well-formed clients.
fn hostile_frames_never_panic_or_hang<P: Plane>(seed: impl Strategy<Value = Frame>) {
    let reg = Registry::enabled();
    let config = NetServerConfig {
        idle_timeout: Some(Duration::from_millis(30)),
        max_frame: 1 << 16,
        ..NetServerConfig::default()
    };
    let plane = P::spawn(config, &reg, false);
    let hello = Frame::new(0, FrameKind::Hello, Hello::ours().encode()).encode();

    let mut runner = TestRunner::new(ProptestConfig::with_cases(48));
    runner
        .run(&(seed, hostile::arb_mutation()), |(frame, mutation)| {
            let mut wire = hello.clone();
            wire.extend_from_slice(&hostile::mutate(&frame, &mutation));
            let mut sock = TcpStream::connect(plane.addr()).expect("dial");
            sock.write_all(&wire).expect("write");
            let t0 = Instant::now();
            let frames = read_to_eof(&mut sock);
            prop_assert!(t0.elapsed() < Duration::from_secs(20), "connection hung");
            prop_assert!(
                frames.first().is_some_and(|f| f.kind == FrameKind::HelloAck),
                "the valid hello is acked before the damage is read"
            );
            // A `Req` whose framing is intact reaches the store handler,
            // which owes every payload an answer — a reply or a typed
            // error, never a silent close — and owes a payload with bytes
            // after its message the error: no kind has slack.
            if frame.kind == FrameKind::Req {
                let answer = frames.get(1).map(|f| f.kind);
                match mutation {
                    hostile::Mutation::Append(_) => prop_assert_eq!(answer, Some(FrameKind::Err)),
                    hostile::Mutation::Payload(_) => prop_assert!(
                        matches!(answer, Some(FrameKind::Resp | FrameKind::Err)),
                        "unanswered: {:?}",
                        answer
                    ),
                    _ => {}
                }
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{e}"));

    // A connection thread that panicked never gives its slot back.
    eventually("every connection slot to be returned", || {
        reg.gauges()
            .into_iter()
            .any(|(k, v)| k == format!("{}.server.connections", P::prefix()) && v == 0)
    });
    let mut conn = dial(&plane, &reg).expect("the listener still accepts");
    let (probe, want) = plane.probe(conn.fresh_corr());
    let corr = probe.corr_id;
    conn.send(probe).expect("send probe");
    assert_eq!(conn.recv_corr(corr).expect("probe answered").kind, want);
    plane.finish();
}

macro_rules! conformance {
    ($($case:ident => $store:ident, $query:ident;)+) => {$(
        #[test]
        fn $store() {
            $case::<StorePlane>();
        }

        #[test]
        fn $query() {
            $case::<QueryPlane>();
        }
    )+};
}

conformance! {
    bound_refusal_is_explicit => store_bound_refusal_is_explicit, query_bound_refusal_is_explicit;
    bad_hello_refusal_is_explicit =>
        store_bad_hello_refusal_is_explicit, query_bad_hello_refusal_is_explicit;
    shutdown_answers_buffered_and_deferred =>
        store_shutdown_answers_buffered_frames, query_shutdown_answers_unresolved_tickets;
    kill_mid_conversation_is_retryable =>
        store_kill_mid_conversation_is_retryable, query_kill_mid_conversation_is_retryable;
    idle_connections_close_at_the_deadline =>
        store_idle_connections_close_at_the_deadline, query_idle_connections_close_at_the_deadline;
}

#[test]
fn store_hostile_control_frames_never_panic_or_hang() {
    hostile_frames_never_panic_or_hang::<StorePlane>(hostile::arb_control_frame());
}

/// The `Req` plane, all 23 message kinds — migration tags 14–23 included —
/// at a live store server.
#[test]
fn store_hostile_req_frames_never_panic_or_hang() {
    hostile_frames_never_panic_or_hang::<StorePlane>(hostile::arb_req_frame());
}

#[test]
fn query_hostile_query_frames_never_panic_or_hang() {
    hostile_frames_never_panic_or_hang::<QueryPlane>(hostile::arb_query_frame());
}

/// The handshake fix, as the typed client sees it: a wrong-version hello
/// used to be closed on silently (a *transient* death to the dialer);
/// now it is refused in words, permanent and typed.
#[test]
fn serve_client_sees_a_wrong_version_hello_refused_permanently() {
    let reg = Registry::enabled();
    let plane = QueryPlane::spawn(NetServerConfig::default(), &reg, false);
    let wrong = NetClientConfig { protocol_version: 99, ..NetClientConfig::default() };
    match ServeClient::connect(plane.addr(), wrong, &reg) {
        Err(e) => {
            assert_eq!(e, QueryError::Store(StoreError::Malformed("handshake refused")));
            assert!(!e.is_retryable(), "a version mismatch never heals by retrying");
        }
        Ok(_) => panic!("a wrong-version hello must be refused"),
    }
    eventually("the handshake failure to be counted", || {
        counter(&reg, "serve.net.server.handshake_failures") == 1
    });
    plane.finish();
}

/// The ledger fix: a TCP store cluster and a serve listener share one
/// registry, queries cross both, and each plane's client↔server byte and
/// frame identities hold on their own.
#[test]
fn both_planes_reconcile_independently_in_one_registry() {
    let ctx = ExperimentCtx::small();
    let ds = ctx.dataset(DatasetId::UserItem);
    let partition = make_partitioner(SystemKind::Bgl.config().partitioner, ctx.seed).partition(
        &ds.graph,
        &ds.split.train,
        DatasetId::UserItem.partitions(),
    );
    let reg = Registry::enabled();
    let cluster = StoreCluster::new(
        ds.graph.clone(),
        ds.features.clone(),
        &partition,
        NetworkModel::paper_fabric(),
        ctx.seed,
    );
    let stores = spawn_loopback_cluster(
        ds.graph.clone(),
        ds.features.clone(),
        cluster.owner_map(),
        cluster.num_servers(),
        ctx.seed,
        NetServerConfig::default(),
        &reg,
    )
    .expect("spawn loopback store cluster");
    let cluster = cluster.swap_transport(Box::new(
        TcpTransport::connect(&stores.addrs(), NetClientConfig::default(), &reg)
            .expect("dial loopback store cluster"),
    ));
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
    let users: Vec<u32> = ds.split.test.iter().copied().take(24).collect();

    let mut frontend = ServeFrontend::new(engine, ServeConfig::default(), &reg);
    frontend.start();
    let listener = spawn_serve_server(frontend.handle(), NetServerConfig::default(), &reg)
        .expect("bind serve listener");
    let mut client = ServeClient::connect(listener.addr(), NetClientConfig::default(), &reg)
        .expect("dial front-end");
    for reply in client.query_pipelined(&users).expect("pipelined queries") {
        reply.expect("query succeeds");
    }
    // Every query is answered, so every store call behind it has been too:
    // both directions of both planes have fully drained.
    for plane in ["net", "serve.net"] {
        for (sent, received) in [
            ("bytes_sent", "server.bytes_received"),
            ("server.bytes_sent", "bytes_received"),
            ("frames_sent", "server.frames_received"),
            ("server.frames_sent", "frames_received"),
        ] {
            let out = counter(&reg, &format!("{plane}.{sent}"));
            assert!(out > 0, "{plane}.{sent} saw no traffic");
            assert_eq!(out, counter(&reg, &format!("{plane}.{received}")), "{plane}: {sent}");
        }
    }
    assert_eq!(counter(&reg, "serve.net.server.requests"), users.len() as u64);
    listener.shutdown();
    frontend.shutdown();
    stores.shutdown();
}
