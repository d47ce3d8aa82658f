//! The TCP face of the serving front-end: the query plane's handler and
//! typed client over `bgl-net`'s connection runtime.
//!
//! [`QueryHandler`] is a [`bgl_net::server::FrameHandler`]: the runtime
//! owns the listener, the connection bound, the handshake, drain, `kill`
//! and the idle deadline; the handler only turns
//! [`bgl_net::query::QueryReq`] frames into [`ServeHandle`] submissions.
//! Because admission returns a [`Ticket`] immediately, a connection's
//! state is its list of in-flight `(corr_id, Ticket)` pairs, answered
//! from the runtime's `poll` hook: pipelined queries on one socket batch
//! together in the front-end's queue instead of serializing, which is the
//! whole point of cross-request micro-batching. A reply leaves at the
//! first poll after its ticket resolves, so on a quiet socket
//! `NetServerConfig::read_poll` bounds the latency the wire adds.
//!
//! [`ServeClient`] wraps [`bgl_net::client::Connection`]: queries by
//! correlation id, arbitrary response arrival order. Transport faults
//! map through [`bgl_net::NetError::into_store_error`] into
//! [`QueryError::Store`] — retryable, exactly like a store-server death.
//!
//! Both sides count under `serve.net.*` / `serve.net.server.*`, apart
//! from the store plane's `net.*`, so each plane's client↔server byte
//! identity holds in a shared registry.

use crate::frontend::{ServeHandle, Ticket};
use bgl_net::client::{resolve, ConnectError, Connection};
use bgl_net::obs::ClientMetrics;
use bgl_net::proto::{Frame, FrameKind, HelloAck, PROTOCOL_VERSION};
use bgl_net::query::{QueryError, QueryReq, QueryResp};
use bgl_net::server::{listen, Deferred, FrameHandler, Refusal, ServerHandle, Wire};
use bgl_net::{NetClientConfig, NetError, NetServerConfig};
use bgl_obs::Registry;
use bgl_store::StoreError;
use bytes::Bytes;
use std::io;
use std::net::ToSocketAddrs;

/// Dispatches `Query` frames into a [`ServeHandle`].
pub struct QueryHandler {
    handle: ServeHandle,
}

impl FrameHandler for QueryHandler {
    const METRIC_PREFIX: &'static str = "serve.net";
    /// Queries admitted but not yet answered, in arrival order.
    type Conn = Vec<(u64, Ticket)>;

    fn hello_ack(&self) -> HelloAck {
        // server_id 0 / num_servers 1: one front-end, not a store cluster.
        // feature_dim 0 marks the query plane.
        HelloAck { version: PROTOCOL_VERSION, server_id: 0, num_servers: 1, feature_dim: 0 }
    }

    fn refusal(&self, why: Refusal) -> (FrameKind, Bytes) {
        let e = match why {
            // A full listener is load, so retryable like a full queue.
            Refusal::ConnectionBound { max } => QueryError::Overloaded { depth: max as u32 },
            Refusal::BadHello => QueryError::Store(StoreError::Malformed("handshake refused")),
        };
        (FrameKind::QueryErr, e.encode())
    }

    /// Admit one query frame. Sheds reply immediately; admissions join
    /// the in-flight list.
    fn on_frame(&self, inflight: &mut Self::Conn, frame: Frame, wire: &mut Wire<'_>) -> bool {
        if frame.kind != FrameKind::Query {
            return false;
        }
        wire.metrics.requests.incr();
        let req = match QueryReq::decode(frame.payload) {
            Ok(r) => r,
            // An undecodable query is a protocol violation; close.
            Err(_) => return false,
        };
        match self.handle.try_submit(req.user) {
            Ok(ticket) => {
                inflight.push((frame.corr_id, ticket));
                true
            }
            Err(e) => wire.send(Frame::new(frame.corr_id, FrameKind::QueryErr, e.encode())),
        }
    }

    /// Send replies for every resolved ticket; pipelined queries answer
    /// out of submission order if the batches cut that way. With
    /// `block`, waits for all of them (the front-end's drain guarantee
    /// makes this finite).
    fn poll(&self, inflight: &mut Self::Conn, block: bool, wire: &mut Wire<'_>) -> Deferred {
        let mut i = 0;
        while i < inflight.len() {
            let resolved = if block {
                let (corr, ticket) = inflight.remove(i);
                Some((corr, ticket.wait()))
            } else if let Some(r) = inflight[i].1.try_wait() {
                let (corr, _) = inflight.remove(i);
                Some((corr, r))
            } else {
                i += 1;
                None
            };
            if let Some((corr, result)) = resolved {
                let reply = match result {
                    Ok(reply) => {
                        let payload = QueryResp {
                            latency_us: reply.latency.as_micros() as u64,
                            scores: reply.scores,
                        };
                        match payload.encode() {
                            Ok(p) => Frame::new(corr, FrameKind::QueryOk, p),
                            Err(_) => return Deferred::Dead,
                        }
                    }
                    Err(e) => Frame::new(corr, FrameKind::QueryErr, e.encode()),
                };
                if !wire.send(reply) {
                    return Deferred::Dead;
                }
            }
        }
        if inflight.is_empty() {
            Deferred::None
        } else {
            Deferred::Pending
        }
    }
}

/// Bind a listener and serve queries through `handle` until shutdown.
pub fn spawn_serve_server(
    handle: ServeHandle,
    config: NetServerConfig,
    registry: &Registry,
) -> io::Result<ServerHandle<QueryHandler>> {
    listen(QueryHandler { handle }, config, registry)
}

/// Dialing side: one connection to one serve front-end, queries
/// correlated by id, responses accepted in any order.
pub struct ServeClient {
    conn: Connection,
}

/// A transport fault turned into the query-plane error taxonomy:
/// retryable `Store(ServerDown)` for socket faults, permanent
/// `Store(Malformed)` for protocol violations — the same fold the store
/// transport applies.
fn net_to_query(e: NetError) -> QueryError {
    match e {
        NetError::Store(se) => QueryError::Store(se),
        other => QueryError::Store(other.into_store_error(0)),
    }
}

/// The typed error a server frame carries (`QueryErr`), or a protocol
/// violation for any other kind.
fn frame_error(frame: Frame) -> QueryError {
    let unexpected = QueryError::Store(StoreError::Malformed("unexpected response"));
    match frame.kind {
        FrameKind::QueryErr => QueryError::decode(frame.payload).unwrap_or(unexpected),
        _ => unexpected,
    }
}

impl ServeClient {
    /// Dial and handshake. A refusal comes home typed: `Overloaded` from
    /// a listener at its connection bound, a permanent `Store(Malformed)`
    /// from one that rejects the hello.
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        config: NetClientConfig,
        registry: &Registry,
    ) -> Result<ServeClient, QueryError> {
        let addr = resolve(addr).map_err(net_to_query)?;
        let metrics = ClientMetrics::new(registry, QueryHandler::METRIC_PREFIX);
        match Connection::connect(&addr, &config, metrics) {
            Ok(conn) => Ok(ServeClient { conn }),
            Err(ConnectError::Refused(frame)) => Err(frame_error(frame)),
            Err(ConnectError::Net(e)) => Err(net_to_query(e)),
        }
    }

    fn send(&mut self, user: u32) -> Result<u64, QueryError> {
        let corr = self.conn.fresh_corr();
        self.conn
            .send(Frame::new(corr, FrameKind::Query, QueryReq { user }.encode()))
            .map_err(net_to_query)?;
        Ok(corr)
    }

    fn recv(&mut self, corr: u64) -> Result<Result<QueryResp, QueryError>, QueryError> {
        let frame = self.conn.recv_corr(corr).map_err(net_to_query)?;
        Ok(match frame.kind {
            FrameKind::QueryOk => QueryResp::decode(frame.payload).map_err(net_to_query),
            _ => Err(frame_error(frame)),
        })
    }

    /// One query, one answer.
    pub fn query(&mut self, user: u32) -> Result<QueryResp, QueryError> {
        let corr = self.send(user)?;
        self.recv(corr)?
    }

    /// Write all queries before reading any answer: on the server they
    /// land in one (or few) micro-batches instead of serializing.
    /// Per-query errors surface per slot.
    pub fn query_pipelined(
        &mut self,
        users: &[u32],
    ) -> Result<Vec<Result<QueryResp, QueryError>>, QueryError> {
        let corrs = users.iter().map(|&u| self.send(u)).collect::<Result<Vec<_>, _>>()?;
        corrs.into_iter().map(|corr| self.recv(corr)).collect()
    }
}
