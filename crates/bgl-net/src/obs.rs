//! Wire observability, one ledger per plane.
//!
//! Every name below is shown with the store plane's prefix, `net`; a
//! listener and its dialers take the prefix from
//! [`crate::server::FrameHandler::METRIC_PREFIX`], so the query plane's
//! copies live under `serve.net.*` / `serve.net.server.*` and the two
//! planes reconcile independently in a shared registry.
//!
//! Counter naming, client side:
//! * `net.bytes_sent` / `net.bytes_received` — every wire byte, length
//!   prefixes and headers included;
//! * `net.payload_bytes_sent` / `net.payload_bytes_received` — `Req` /
//!   `Resp` payload bytes only; on a clean run these reconcile exactly
//!   with the cluster's simulated traffic ledger, which charges encoded
//!   message sizes;
//! * `net.frames_sent` / `net.frames_received`;
//! * `net.connects` — successful first connections per pool slot;
//! * `net.reconnects` — reconnect *attempts* after a slot's connection
//!   failed (a killed server never reconnects successfully, but recovery
//!   work must still show up);
//! * `net.connect_failures`, `net.handshake_failures`;
//! * histogram `net.pipeline.depth` — requests in flight per
//!   pipelined batch.
//!
//! Server side mirrors under `net.server.*`, plus the
//! `net.server.connections` gauge and accept-loop accounting
//! (`accepted`, `rejected`, `idle_closed`).

use bgl_obs::{Counter, Gauge, Histogram, Registry};

/// Client-side counter bundle, resolved once per dialer.
#[derive(Clone)]
pub struct ClientMetrics {
    /// Wire bytes written (prefix + header + payload).
    pub bytes_sent: Counter,
    /// Wire bytes read.
    pub bytes_received: Counter,
    /// Frames written.
    pub frames_sent: Counter,
    /// Frames read.
    pub frames_received: Counter,
    /// `Req` payload bytes written.
    pub payload_bytes_sent: Counter,
    /// `Resp` payload bytes read.
    pub payload_bytes_received: Counter,
    /// Successful first connections.
    pub connects: Counter,
    /// Reconnect attempts after a failure.
    pub reconnects: Counter,
    /// Failed connect or connect-timeout attempts.
    pub connect_failures: Counter,
    /// Handshakes rejected (bad version, bad identity, closed mid-hello).
    pub handshake_failures: Counter,
    /// Requests in flight per pipelined batch.
    pub pipeline_depth: Histogram,
}

impl ClientMetrics {
    /// Resolve the bundle against a registry under `<prefix>.*`.
    pub fn new(reg: &Registry, prefix: &str) -> ClientMetrics {
        let counter = |name: &str| reg.counter(&format!("{prefix}.{name}"));
        ClientMetrics {
            bytes_sent: counter("bytes_sent"),
            bytes_received: counter("bytes_received"),
            frames_sent: counter("frames_sent"),
            frames_received: counter("frames_received"),
            payload_bytes_sent: counter("payload_bytes_sent"),
            payload_bytes_received: counter("payload_bytes_received"),
            connects: counter("connects"),
            reconnects: counter("reconnects"),
            connect_failures: counter("connect_failures"),
            handshake_failures: counter("handshake_failures"),
            pipeline_depth: reg.histogram(&format!("{prefix}.pipeline.depth")),
        }
    }
}

/// Server-side counter bundle, shared by every connection thread of one
/// listener.
#[derive(Clone)]
pub struct ServerMetrics {
    /// Wire bytes read.
    pub bytes_received: Counter,
    /// Wire bytes written.
    pub bytes_sent: Counter,
    /// Frames read.
    pub frames_received: Counter,
    /// Frames written.
    pub frames_sent: Counter,
    /// Request frames handled (`Req` / `Query`).
    pub requests: Counter,
    /// Connections accepted.
    pub accepted: Counter,
    /// Connections refused because the bound was reached.
    pub rejected: Counter,
    /// Handshakes completed.
    pub handshakes: Counter,
    /// Handshakes refused (bad magic / version / first frame).
    pub handshake_failures: Counter,
    /// Connections closed by the idle deadline.
    pub idle_closed: Counter,
    /// Live connections right now.
    pub connections: Gauge,
}

impl ServerMetrics {
    /// Resolve the bundle against a registry under `<prefix>.server.*`.
    pub fn new(reg: &Registry, prefix: &str) -> ServerMetrics {
        let counter = |name: &str| reg.counter(&format!("{prefix}.server.{name}"));
        ServerMetrics {
            bytes_received: counter("bytes_received"),
            bytes_sent: counter("bytes_sent"),
            frames_received: counter("frames_received"),
            frames_sent: counter("frames_sent"),
            requests: counter("requests"),
            accepted: counter("accepted"),
            rejected: counter("rejected"),
            handshakes: counter("handshakes"),
            handshake_failures: counter("handshake_failures"),
            idle_closed: counter("idle_closed"),
            connections: reg.gauge(&format!("{prefix}.server.connections")),
        }
    }
}
