//! The client side: one pooled connection per server, pipelining over
//! correlation ids, reconnect-on-failure.
//!
//! [`NetClient`] holds at most one connection per server address and
//! (re)dials lazily: the first request after a failure pays the connect +
//! handshake cost, counted as `net.reconnects`. It deliberately does *no*
//! internal retry — retries, backoff, failover and circuit breaking
//! belong to `bgl-store`'s cluster layer, which sits above the
//! [`crate::TcpTransport`] and treats every socket failure as a transient
//! [`bgl_store::StoreError::ServerDown`].
//!
//! Pipelining: [`NetClient::request_pipelined`] writes a whole batch of
//! `Req` frames before reading any response, then collects responses by
//! correlation id, tolerating arbitrary arrival order. One in-flight
//! request ([`NetClient::request`]) is the depth-1 special case the
//! cluster uses, keeping its simulated-clock accounting exact.

use crate::decoder::FrameDecoder;
use crate::obs::ClientMetrics;
use crate::proto::{
    decode_store_error, ControlOp, Frame, FrameKind, Hello, HelloAck, StatsReply, MAGIC,
    PROTOCOL_VERSION,
};
use crate::server::FrameHandler;
use crate::store_server::StoreHandler;
use crate::NetError;
use bgl_obs::Registry;
use bytes::Bytes;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Tuning knobs for the client pool.
#[derive(Clone, Debug)]
pub struct NetClientConfig {
    /// Dial timeout per connect attempt.
    pub connect_timeout: Duration,
    /// Deadline for a response (and for the handshake ack).
    pub read_timeout: Duration,
    /// Frame size cap for the per-connection decoder.
    pub max_frame: usize,
    /// Version byte sent in the hello — overridable so tests can provoke
    /// a version-mismatch rejection.
    pub protocol_version: u32,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        NetClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(5),
            max_frame: crate::proto::DEFAULT_MAX_FRAME,
            protocol_version: PROTOCOL_VERSION,
        }
    }
}

/// Why a dial produced no [`Connection`].
#[derive(Debug)]
pub enum ConnectError {
    /// The socket or the protocol failed before the server gave a verdict.
    Net(NetError),
    /// The server answered the hello with something other than an ack:
    /// its plane's refusal frame, for the caller to decode.
    Refused(Frame),
}

impl From<NetError> for ConnectError {
    fn from(e: NetError) -> ConnectError {
        ConnectError::Net(e)
    }
}

/// Resolve the first socket address `addr` names.
pub fn resolve(addr: impl ToSocketAddrs) -> Result<SocketAddr, NetError> {
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .ok_or(NetError::Malformed("unresolvable server address"))
}

/// One live, handshaken connection — the workspace's only dialer. Both
/// planes' clients ([`NetClient`], `bgl_serve::ServeClient`) wrap it.
pub struct Connection {
    stream: TcpStream,
    decoder: FrameDecoder,
    next_corr: u64,
    /// Responses that arrived for correlation ids we weren't awaiting at
    /// the moment they landed (pipelining reorders arrivals).
    parked: HashMap<u64, Frame>,
    /// The server's side of the handshake.
    ack: HelloAck,
    read_timeout: Duration,
    /// Where socket reads land before the decoder takes them.
    chunk: Vec<u8>,
    metrics: ClientMetrics,
}

impl Connection {
    /// Dial `addr` and complete the hello handshake.
    pub fn connect(
        addr: &SocketAddr,
        config: &NetClientConfig,
        metrics: ClientMetrics,
    ) -> Result<Connection, ConnectError> {
        let stream = TcpStream::connect_timeout(addr, config.connect_timeout)
            .map_err(|e| NetError::from_io(&e, "connect"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_millis(2)))
            .map_err(|e| NetError::from_io(&e, "connect"))?;
        let mut conn = Connection {
            stream,
            decoder: FrameDecoder::new(config.max_frame),
            next_corr: 1,
            parked: HashMap::new(),
            ack: HelloAck { version: 0, server_id: 0, num_servers: 0, feature_dim: 0 },
            read_timeout: config.read_timeout,
            chunk: vec![0u8; 64 * 1024],
            metrics,
        };
        let hello = Hello { magic: MAGIC, version: config.protocol_version };
        // Socket-level failures (reset, EOF, timeout) from here on mean
        // the peer died mid-handshake — e.g. a chaos kill racing this
        // dial — so they keep their Io/Closed/Timeout variants and map to
        // a *transient* ServerDown downstream, where retry/failover
        // absorbs them. A server that refuses us says so with an
        // explicit frame; only that (or a protocol violation) is a
        // permanent handshake failure.
        conn.send(Frame::new(0, FrameKind::Hello, hello.encode()))?;
        let ack_frame = conn.recv_corr(0)?;
        if ack_frame.kind != FrameKind::HelloAck {
            return Err(ConnectError::Refused(ack_frame));
        }
        let ack = HelloAck::decode(ack_frame.payload)?;
        if ack.version != config.protocol_version {
            return Err(NetError::VersionMismatch {
                ours: config.protocol_version,
                theirs: ack.version,
            }
            .into());
        }
        conn.ack = ack;
        Ok(conn)
    }

    /// The server's side of the handshake.
    pub fn ack(&self) -> HelloAck {
        self.ack
    }

    /// The counters this connection ticks.
    pub fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    /// Write one frame.
    pub fn send(&mut self, frame: Frame) -> Result<(), NetError> {
        let wire = frame.encode();
        self.stream
            .write_all(&wire)
            .map_err(|e| NetError::from_io(&e, "send"))?;
        self.metrics.bytes_sent.add(wire.len() as u64);
        self.metrics.frames_sent.incr();
        Ok(())
    }

    /// Read frames until the one with `corr` arrives (parking others) or
    /// the read deadline passes.
    pub fn recv_corr(&mut self, corr: u64) -> Result<Frame, NetError> {
        if let Some(f) = self.parked.remove(&corr) {
            return Ok(f);
        }
        let deadline = Instant::now() + self.read_timeout;
        loop {
            while let Some(frame) = self.decoder.next_frame()? {
                self.metrics.frames_received.incr();
                if frame.corr_id == corr {
                    return Ok(frame);
                }
                self.parked.insert(frame.corr_id, frame);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(NetError::Closed("response read")),
                Ok(n) => {
                    self.metrics.bytes_received.add(n as u64);
                    self.decoder.feed(&self.chunk[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    if Instant::now() >= deadline {
                        return Err(NetError::Timeout("response read"));
                    }
                }
                Err(e) => return Err(NetError::from_io(&e, "response read")),
            }
        }
    }

    /// Allocate the next correlation id.
    pub fn fresh_corr(&mut self) -> u64 {
        let c = self.next_corr;
        self.next_corr += 1;
        c
    }
}

/// Frame-level reply to one request.
fn into_payload(frame: Frame) -> Result<Bytes, NetError> {
    match frame.kind {
        FrameKind::Resp => Ok(frame.payload),
        FrameKind::Err => Err(NetError::Store(decode_store_error(frame.payload)?)),
        _ => Err(NetError::Malformed("unexpected reply kind")),
    }
}

/// A pool of one connection per graph store server.
pub struct NetClient {
    addrs: Vec<SocketAddr>,
    conns: Vec<Option<Connection>>,
    ever_connected: Vec<bool>,
    config: NetClientConfig,
    metrics: ClientMetrics,
}

impl NetClient {
    /// Build a pool over `addrs` (index = server id). Connections are
    /// dialed lazily on first use.
    pub fn new<A: AsRef<str>>(
        addrs: &[A],
        config: NetClientConfig,
        registry: &Registry,
    ) -> Result<NetClient, NetError> {
        let resolved =
            addrs.iter().map(|a| resolve(a.as_ref())).collect::<Result<Vec<_>, _>>()?;
        let conns = resolved.iter().map(|_| None).collect();
        Ok(NetClient {
            ever_connected: vec![false; resolved.len()],
            addrs: resolved,
            conns,
            config,
            metrics: ClientMetrics::new(registry, StoreHandler::METRIC_PREFIX),
        })
    }

    /// Number of servers in the pool.
    pub fn num_servers(&self) -> usize {
        self.addrs.len()
    }

    fn conn(&mut self, server: usize) -> Result<&mut Connection, NetError> {
        if server >= self.addrs.len() {
            return Err(NetError::Malformed("server index outside the pool"));
        }
        if self.conns[server].is_none() {
            if self.ever_connected[server] {
                self.metrics.reconnects.incr();
            }
            match Connection::connect(&self.addrs[server], &self.config, self.metrics.clone()) {
                Ok(conn) => {
                    // A pool slot must reach the server id it dialed.
                    if conn.ack().server_id as usize != server {
                        self.metrics.handshake_failures.incr();
                        return Err(NetError::Handshake("server identity mismatch"));
                    }
                    if !self.ever_connected[server] {
                        self.metrics.connects.incr();
                    }
                    self.ever_connected[server] = true;
                    self.conns[server] = Some(conn);
                }
                Err(ConnectError::Refused(frame)) => {
                    self.metrics.handshake_failures.incr();
                    return Err(NetError::Handshake(if frame.kind == FrameKind::Err {
                        "refused by server"
                    } else {
                        "first frame was not a hello ack"
                    }));
                }
                Err(ConnectError::Net(e)) => {
                    match &e {
                        NetError::Handshake(_) | NetError::VersionMismatch { .. } => {
                            self.metrics.handshake_failures.incr()
                        }
                        _ => self.metrics.connect_failures.incr(),
                    }
                    return Err(e);
                }
            }
        }
        Ok(self.conns[server].as_mut().expect("connection just ensured"))
    }

    /// One frame out, its reply back. After any transport failure the
    /// connection's state is unknown, so it is dropped and the next call
    /// redials.
    fn roundtrip(
        &mut self,
        server: usize,
        kind: FrameKind,
        payload: Bytes,
    ) -> Result<Frame, NetError> {
        let conn = self.conn(server)?;
        let corr = conn.fresh_corr();
        let reply = conn.send(Frame::new(corr, kind, payload)).and_then(|()| conn.recv_corr(corr));
        if reply.is_err() {
            self.conns[server] = None;
        }
        reply
    }

    /// The cluster shape reported by server `server`'s handshake.
    pub fn handshake(&mut self, server: usize) -> Result<HelloAck, NetError> {
        Ok(self.conn(server)?.ack())
    }

    /// One request, one response (pipelining depth 1).
    pub fn request(&mut self, server: usize, payload: Bytes) -> Result<Bytes, NetError> {
        let sent = payload.len() as u64;
        let frame = self.roundtrip(server, FrameKind::Req, payload)?;
        self.metrics.payload_bytes_sent.add(sent);
        self.metrics.pipeline_depth.record(1);
        let resp = into_payload(frame)?;
        self.metrics.payload_bytes_received.add(resp.len() as u64);
        Ok(resp)
    }

    /// Write all requests, then collect all responses (in request
    /// order), letting the server answer out of order. Per-request store
    /// errors surface per slot without failing the whole batch.
    pub fn request_pipelined(
        &mut self,
        server: usize,
        payloads: &[Bytes],
    ) -> Result<Vec<Result<Bytes, NetError>>, NetError> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        let conn = self.conn(server)?;
        let mut corrs = Vec::with_capacity(payloads.len());
        for payload in payloads {
            let corr = conn.fresh_corr();
            let sent = payload.len() as u64;
            if let Err(e) = conn.send(Frame::new(corr, FrameKind::Req, payload.clone())) {
                self.conns[server] = None;
                return Err(e);
            }
            conn.metrics().payload_bytes_sent.add(sent);
            corrs.push(corr);
        }
        conn.metrics().pipeline_depth.record(corrs.len() as u64);
        let mut out = Vec::with_capacity(corrs.len());
        for corr in corrs {
            match conn.recv_corr(corr) {
                Ok(frame) => {
                    let reply = into_payload(frame);
                    if let Ok(resp) = &reply {
                        conn.metrics().payload_bytes_received.add(resp.len() as u64);
                    }
                    out.push(reply);
                }
                Err(e) => {
                    self.conns[server] = None;
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// Send a control op; `Stats` returns its reply.
    pub fn control(
        &mut self,
        server: usize,
        op: ControlOp,
    ) -> Result<Option<StatsReply>, NetError> {
        let frame = self.roundtrip(server, FrameKind::Control, op.encode())?;
        if frame.kind != FrameKind::ControlAck {
            return Err(NetError::Malformed("unexpected reply kind"));
        }
        if op == ControlOp::Stats {
            Ok(Some(StatsReply::decode(frame.payload)?))
        } else {
            Ok(None)
        }
    }
}
