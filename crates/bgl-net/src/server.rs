//! The connection runtime: the workspace's only `TcpListener`, generic
//! over what the frames mean.
//!
//! A [`FrameHandler`] supplies the plane — the handshake ack, the refusal
//! frame, what to do with each frame, and (optionally) replies it owes
//! later. Everything else lives here once: accept, the connection bound,
//! the handshake check, the socket registry, drain, kill and the idle
//! deadline. Two handlers exist: [`crate::store_server::StoreHandler`]
//! (`Req`/`Control` → a `GraphStoreServer`, answered inline) and
//! `bgl_serve::net::QueryHandler` (`Query` → tickets, answered from
//! [`FrameHandler::poll`]).
//!
//! Threading model — bounded thread-per-connection:
//! * the accept thread runs a nonblocking accept poll; at the connection
//!   bound, new sockets are sent the handler's refusal frame and closed
//!   (counted as `rejected`) — explicit, because a silent close during
//!   the handshake reads as a transient server death on the client side;
//! * each accepted connection gets its own thread; all of them share the
//!   handler, which is `Sync`, and call it with static dispatch.
//!
//! Shutdown protocol:
//! * [`ServerHandle::shutdown`] is *graceful*: the accept loop stops,
//!   every connection drains the frames already buffered in its decoder,
//!   blocks out the handler's deferred replies, and then closes. No
//!   accepted request is dropped.
//! * [`ServerHandle::kill`] is a *crash*: sockets are shut down
//!   immediately, mid-conversation — exactly what a process kill looks
//!   like to the client. Chaos tests use this.
//!
//! Per-connection deadlines: reads poll with `read_poll` — which is also
//! how often deferred replies are flushed on a quiet socket — and a
//! connection that has read nothing for `idle_timeout` and is owed
//! nothing is closed (`idle_closed`), so abandoned clients can't pin
//! threads forever.

use crate::decoder::FrameDecoder;
use crate::obs::ServerMetrics;
use crate::proto::{Frame, FrameKind, Hello, HelloAck, MAGIC, PROTOCOL_VERSION};
use bgl_obs::Registry;
use bytes::Bytes;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs for one listener.
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Address to bind; use port 0 for an OS-assigned loopback port.
    pub addr: String,
    /// Connection bound; sockets beyond it are refused.
    pub max_connections: usize,
    /// Read poll interval — how often connections check shutdown flags,
    /// deadlines and deferred replies while idle.
    pub read_poll: Duration,
    /// Close connections with no traffic for this long.
    pub idle_timeout: Option<Duration>,
    /// Frame size cap for the per-connection decoder.
    pub max_frame: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            read_poll: Duration::from_millis(5),
            idle_timeout: None,
            max_frame: crate::proto::DEFAULT_MAX_FRAME,
        }
    }
}

/// Why the runtime is turning a dialer away before any request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The listener already holds `max` connections.
    ConnectionBound {
        /// The configured bound.
        max: usize,
    },
    /// Bad magic, wrong version, or data before the hello.
    BadHello,
}

/// What [`FrameHandler::poll`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deferred {
    /// Nothing is owed on this connection.
    None,
    /// Replies are still owed; the idle deadline does not run.
    Pending,
    /// A write failed; close the connection.
    Dead,
}

/// The write half of one connection, as a handler sees it.
pub struct Wire<'a> {
    stream: &'a mut TcpStream,
    /// The listener's counters; handlers tick `requests` themselves
    /// because only they know which frames are requests.
    pub metrics: &'a ServerMetrics,
}

impl Wire<'_> {
    /// Encode, count, write. Returns `false` on a dead socket.
    pub fn send(&mut self, frame: Frame) -> bool {
        let wire = frame.encode();
        // Count before the write: a client that has already read this
        // frame must observe it counted, so cross-side byte
        // reconciliation is exact the moment the response lands. (A
        // failed write overcounts by one frame, but that connection is
        // dying anyway.)
        self.metrics.bytes_sent.add(wire.len() as u64);
        self.metrics.frames_sent.incr();
        self.stream.write_all(&wire).is_ok()
    }
}

/// One plane served over the connection runtime.
pub trait FrameHandler: Send + Sync + 'static {
    /// Registry-name prefix of this plane: the listener counts under
    /// `<PREFIX>.server.*`, its dialers under `<PREFIX>.*`, so each plane
    /// reconciles client↔server on its own even in a shared registry.
    const METRIC_PREFIX: &'static str;

    /// Per-connection state, e.g. replies owed.
    type Conn: Default;

    /// The answer to a valid hello.
    fn hello_ack(&self) -> HelloAck;

    /// Kind and payload of the frame that turns a dialer away.
    fn refusal(&self, why: Refusal) -> (FrameKind, Bytes);

    /// Handle one post-handshake frame. Returns `false` if the
    /// connection must close.
    fn on_frame(&self, conn: &mut Self::Conn, frame: Frame, wire: &mut Wire<'_>) -> bool;

    /// Send whatever deferred replies have resolved; with `block`
    /// (graceful shutdown), wait for and send all of them. Called once
    /// per read-loop turn, after the buffered frames are handled.
    fn poll(&self, _conn: &mut Self::Conn, _block: bool, _wire: &mut Wire<'_>) -> Deferred {
        Deferred::None
    }
}

/// Shared state of one running listener.
struct Listener<H> {
    handler: H,
    metrics: ServerMetrics,
    config: NetServerConfig,
    /// Graceful stop: drain, then close.
    stop: AtomicBool,
    /// Hard stop: sockets are already shut down; exit now.
    kill: AtomicBool,
    /// Live connection count, for the accept bound.
    live: AtomicUsize,
    /// Connection id allocator for the socket registry.
    next_conn: AtomicU64,
    /// Clones of live sockets so `kill` can shut them down from outside,
    /// keyed by connection id so connections deregister on exit (a
    /// lingering clone would hold the socket open past the close).
    streams: Mutex<HashMap<u64, TcpStream>>,
}

/// Handle to a running listener; dropping it without calling
/// [`shutdown`](ServerHandle::shutdown) or [`kill`](ServerHandle::kill)
/// leaves the threads running detached.
pub struct ServerHandle<H: FrameHandler> {
    addr: SocketAddr,
    state: Arc<Listener<H>>,
    accept_join: Option<JoinHandle<()>>,
}

impl<H: FrameHandler> ServerHandle<H> {
    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The handler behind this listener.
    pub fn handler(&self) -> &H {
        &self.state.handler
    }

    /// Graceful shutdown: stop accepting, answer every buffered frame and
    /// every deferred reply on every connection, close, join all threads.
    pub fn shutdown(mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        self.join();
    }

    /// Crash the listener: shut every socket down mid-conversation and
    /// join. Clients observe exactly what a process kill produces.
    pub fn kill(mut self) {
        self.state.kill.store(true, Ordering::SeqCst);
        self.state.stop.store(true, Ordering::SeqCst);
        if let Ok(streams) = self.state.streams.lock() {
            for s in streams.values() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        self.join();
    }

    fn join(&mut self) {
        if let Some(j) = self.accept_join.take() {
            let _ = j.join();
        }
    }
}

/// Bind a listener and run `handler` behind it until shutdown.
pub fn listen<H: FrameHandler>(
    handler: H,
    config: NetServerConfig,
    registry: &Registry,
) -> io::Result<ServerHandle<H>> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(Listener {
        handler,
        metrics: ServerMetrics::new(registry, H::METRIC_PREFIX),
        config,
        stop: AtomicBool::new(false),
        kill: AtomicBool::new(false),
        live: AtomicUsize::new(0),
        next_conn: AtomicU64::new(0),
        streams: Mutex::new(HashMap::new()),
    });
    let accept_state = state.clone();
    let accept_join = thread::Builder::new()
        .name(format!("bgl-{}-accept", H::METRIC_PREFIX))
        .spawn(move || accept_loop(listener, accept_state))?;
    Ok(ServerHandle { addr, state, accept_join: Some(accept_join) })
}

fn accept_loop<H: FrameHandler>(listener: TcpListener, state: Arc<Listener<H>>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !state.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let max = state.config.max_connections;
                if state.live.load(Ordering::SeqCst) >= max {
                    // At the bound: refuse explicitly (corr 0 is what the
                    // dialing client awaits for its hello ack), then close.
                    state.metrics.rejected.incr();
                    let (kind, payload) = state.handler.refusal(Refusal::ConnectionBound { max });
                    let mut wire = Wire { stream: &mut stream, metrics: &state.metrics };
                    let _ = wire.send(Frame::new(0, kind, payload));
                    continue;
                }
                state.metrics.accepted.incr();
                state.live.fetch_add(1, Ordering::SeqCst);
                state.metrics.connections.add(1);
                let cid = state.next_conn.fetch_add(1, Ordering::SeqCst);
                if let Ok(clone) = stream.try_clone() {
                    if let Ok(mut streams) = state.streams.lock() {
                        streams.insert(cid, clone);
                    }
                }
                let conn_state = state.clone();
                if let Ok(j) = thread::Builder::new()
                    .name(format!("bgl-{}-conn", H::METRIC_PREFIX))
                    .spawn(move || {
                        handle_connection(&mut stream, &conn_state);
                        // Close for real: the registered clone would keep
                        // the socket half-open otherwise, and the peer
                        // must see EOF promptly.
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        if let Ok(mut streams) = conn_state.streams.lock() {
                            streams.remove(&cid);
                        }
                        conn_state.live.fetch_sub(1, Ordering::SeqCst);
                        conn_state.metrics.connections.add(-1);
                    })
                {
                    conns.push(j);
                }
                // Opportunistically reap finished connections so the vec
                // doesn't grow unboundedly on long-lived servers.
                conns.retain(|h| !h.is_finished());
            }
            // WouldBlock is the idle case; anything else is transient too.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

fn handle_connection<H: FrameHandler>(stream: &mut TcpStream, state: &Listener<H>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(state.config.read_poll));
    let mut decoder = FrameDecoder::new(state.config.max_frame);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut last_activity = Instant::now();
    let mut shaken = false;
    let mut conn = H::Conn::default();
    let mut wire = Wire { stream, metrics: &state.metrics };

    loop {
        // Handle every complete frame currently buffered. During graceful
        // shutdown this is the "drain" phase: buffered requests still get
        // answers before the socket closes.
        loop {
            if state.kill.load(Ordering::SeqCst) {
                return;
            }
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    state.metrics.frames_received.incr();
                    if !shaken {
                        if !finish_handshake(&mut wire, &state.handler, &frame) {
                            return;
                        }
                        shaken = true;
                    } else if !state.handler.on_frame(&mut conn, frame, &mut wire) {
                        return;
                    }
                }
                Ok(None) => break,
                // Framing lost (oversized/malformed): nothing sane can
                // follow on this byte stream; close.
                Err(_) => return,
            }
        }
        // Stopping: the socket is drained, so block out the deferred tail
        // and no accepted request goes unanswered.
        let stopping = state.stop.load(Ordering::SeqCst);
        let deferred = state.handler.poll(&mut conn, stopping, &mut wire);
        if stopping || deferred == Deferred::Dead {
            return;
        }
        match wire.stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                state.metrics.bytes_received.add(n as u64);
                decoder.feed(&chunk[..n]);
                last_activity = Instant::now();
            }
            // The read poll expired with nothing to read.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if let Some(idle) = state.config.idle_timeout {
                    if deferred == Deferred::None && last_activity.elapsed() >= idle {
                        state.metrics.idle_closed.incr();
                        return;
                    }
                }
            }
            Err(_) => return,
        }
    }
}

/// Validate the first frame as a Hello and answer it. Returns `false` if
/// the connection must close.
fn finish_handshake<H: FrameHandler>(wire: &mut Wire<'_>, handler: &H, frame: &Frame) -> bool {
    let ok = frame.kind == FrameKind::Hello
        && matches!(
            Hello::decode(frame.payload.clone()),
            Ok(h) if h.magic == MAGIC && h.version == PROTOCOL_VERSION
        );
    if !ok {
        // Refuse with an explicit frame, then close. The refusal must be
        // on the wire because a *silent* close during the handshake is
        // how a dying server looks (chaos kill racing a reconnect), and
        // the client treats that as transient; only this frame makes it
        // permanent.
        wire.metrics.handshake_failures.incr();
        let (kind, payload) = handler.refusal(Refusal::BadHello);
        let _ = wire.send(Frame::new(frame.corr_id, kind, payload));
        return false;
    }
    wire.metrics.handshakes.incr();
    wire.send(Frame::new(frame.corr_id, FrameKind::HelloAck, handler.hello_ack().encode()))
}
