//! # bgl-net — TCP transport for the distributed graph store
//!
//! BGL's graph store is a distributed service (§3.1: samplers colocated
//! with partition servers, feature fetch over the network). This crate
//! makes that network real: it carries the exact frames `bgl-store::wire`
//! already encodes over TCP sockets, so `T_net` and the fault model stop
//! being simulation-only.
//!
//! Std-only — no async runtime. The pieces:
//!
//! * [`proto`] — the framing layer: length-prefixed frames with a
//!   correlation-id + kind + flags header, a magic/version handshake,
//!   control ops (failure injection, replication config, stats), and a
//!   wire codec for [`bgl_store::StoreError`] so server-side errors come
//!   home typed;
//! * [`decoder`] — [`decoder::FrameDecoder`], an incremental decoder that
//!   tolerates frames split across arbitrary `read()` boundaries and
//!   rejects oversized or malformed frames without panicking or
//!   over-allocating;
//! * [`server`] — the connection runtime: the workspace's one
//!   `TcpListener`, a bounded thread-per-connection loop generic over a
//!   [`server::FrameHandler`], with the connection bound, explicit
//!   handshake refusals, graceful shutdown (drain buffered frames and
//!   deferred replies, then close), chaos `kill` and per-connection idle
//!   deadlines;
//! * [`store_server`] — the store plane's handler
//!   ([`store_server::StoreHandler`]: `Req`/`Control` frames into one
//!   [`bgl_store::GraphStoreServer`]);
//!   [`store_server::spawn_loopback_cluster`] stands up an N-server
//!   loopback cluster for tests and benches;
//! * [`client`] — [`client::Connection`], the workspace's one dialer
//!   (hello handshake, frames by correlation id, parking), and
//!   [`client::NetClient`], the store plane's pool over it: request
//!   pipelining, connect/read timeouts, and reconnect-on-failure;
//! * [`transport`] — [`transport::TcpTransport`], the
//!   [`bgl_store::StoreTransport`] implementation: socket errors map to
//!   *transient* [`StoreError`]s so the cluster's `RetryPolicy` /
//!   `CircuitBreaker` / replica-failover machinery handles a killed TCP
//!   server exactly like a simulated crash;
//! * [`query`] — the query-plane schema for the online serving front-end
//!   (`bgl-serve`, which supplies the second handler):
//!   `Query`/`QueryOk`/`QueryErr` frame payloads and the typed
//!   [`query::QueryError`] with its retryability contract;
//! * [`obs`] — per-plane wire counters, gauges and histograms through
//!   `bgl-obs` (`net.*` for the store plane).

pub mod client;
pub mod decoder;
pub mod obs;
pub mod proto;
pub mod query;
pub mod server;
pub mod store_server;
pub mod transport;

pub use client::{NetClient, NetClientConfig};
pub use decoder::FrameDecoder;
pub use proto::{ControlOp, Frame, FrameKind, Hello, HelloAck, StatsReply};
pub use query::{QueryError, QueryReq, QueryResp};
pub use server::NetServerConfig;
pub use store_server::{spawn_loopback_cluster, LoopbackCluster, NetServerHandle};
pub use transport::TcpTransport;

use bgl_store::StoreError;
use std::fmt;
use std::io;

/// Errors surfaced by the transport layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A socket operation failed (`kind`, plus where it happened).
    Io(io::ErrorKind, &'static str),
    /// A read or connect deadline expired.
    Timeout(&'static str),
    /// The peer closed the connection (clean EOF mid-conversation).
    Closed(&'static str),
    /// A frame announced a length beyond the configured maximum.
    Oversized { len: usize, max: usize },
    /// A frame violated the protocol (bad kind, short header, bad magic).
    Malformed(&'static str),
    /// The version/identity handshake failed.
    Handshake(&'static str),
    /// The peer speaks a different protocol version.
    VersionMismatch { ours: u32, theirs: u32 },
    /// The server replied with a typed store error.
    Store(StoreError),
}

impl NetError {
    /// Convenience: wrap an `io::Error` with a context label, folding
    /// timeouts and disconnects into their dedicated variants.
    pub fn from_io(e: &io::Error, ctx: &'static str) -> NetError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => NetError::Timeout(ctx),
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe => NetError::Closed(ctx),
            k => NetError::Io(k, ctx),
        }
    }

    /// Map a transport failure into the store's error taxonomy so the
    /// cluster's retry / breaker / failover logic treats a real socket
    /// fault exactly like a simulated one. Connectivity failures become
    /// *transient* [`StoreError::ServerDown`]; protocol violations become
    /// permanent [`StoreError::Malformed`].
    pub fn into_store_error(self, server: usize) -> StoreError {
        match self {
            NetError::Io(..) | NetError::Timeout(_) | NetError::Closed(_) => {
                StoreError::ServerDown(server)
            }
            NetError::Oversized { .. } => StoreError::Malformed("oversized frame"),
            NetError::Malformed(what) => StoreError::Malformed(what),
            NetError::Handshake(_) => StoreError::Malformed("handshake failed"),
            NetError::VersionMismatch { .. } => {
                StoreError::Malformed("protocol version mismatch")
            }
            NetError::Store(e) => e,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(kind, ctx) => write!(f, "io error ({:?}) during {}", kind, ctx),
            NetError::Timeout(ctx) => write!(f, "timed out during {}", ctx),
            NetError::Closed(ctx) => write!(f, "connection closed during {}", ctx),
            NetError::Oversized { len, max } => {
                write!(f, "frame of {} bytes exceeds the {} byte limit", len, max)
            }
            NetError::Malformed(what) => write!(f, "malformed frame: {}", what),
            NetError::Handshake(what) => write!(f, "handshake failed: {}", what),
            NetError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {}, theirs {}", ours, theirs)
            }
            NetError::Store(e) => write!(f, "store error over the wire: {}", e),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_failures_map_to_transient_store_errors() {
        for e in [
            NetError::Io(io::ErrorKind::ConnectionRefused, "connect"),
            NetError::Timeout("read"),
            NetError::Closed("request"),
        ] {
            let mapped = e.into_store_error(3);
            assert_eq!(mapped, StoreError::ServerDown(3));
            assert!(mapped.is_transient());
        }
    }

    #[test]
    fn protocol_failures_map_to_permanent_store_errors() {
        for e in [
            NetError::Oversized { len: 1 << 30, max: 1 << 20 },
            NetError::Malformed("unknown frame kind"),
            NetError::Handshake("bad magic"),
            NetError::VersionMismatch { ours: 1, theirs: 2 },
        ] {
            assert!(!e.into_store_error(0).is_transient());
        }
    }

    #[test]
    fn server_side_store_errors_pass_through_unchanged() {
        let e = NetError::Store(StoreError::NotOwned { node: 7, server: 1 });
        assert_eq!(
            e.into_store_error(0),
            StoreError::NotOwned { node: 7, server: 1 }
        );
    }

    #[test]
    fn io_kind_folding() {
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        assert_eq!(NetError::from_io(&eof, "read"), NetError::Closed("read"));
        let to = io::Error::new(io::ErrorKind::TimedOut, "slow");
        assert_eq!(NetError::from_io(&to, "read"), NetError::Timeout("read"));
        let other = io::Error::new(io::ErrorKind::PermissionDenied, "nope");
        assert_eq!(
            NetError::from_io(&other, "connect"),
            NetError::Io(io::ErrorKind::PermissionDenied, "connect")
        );
    }
}
