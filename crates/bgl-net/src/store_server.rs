//! The store plane over the connection runtime: one
//! [`GraphStoreServer`] behind one listener.
//!
//! [`StoreHandler`] answers every frame inline — `Req` payloads go to
//! [`GraphStoreServer::handle`] verbatim, `Control` frames drive the
//! hosted store (failure injection, replication config, load stats) —
//! so it keeps no per-connection state and never defers a reply.
//! [`spawn_loopback_cluster`] stands up N of them for tests, benches and
//! examples.

use crate::proto::{
    encode_store_error, ControlOp, Frame, FrameKind, HelloAck, StatsReply, PROTOCOL_VERSION,
};
use crate::server::{listen, FrameHandler, NetServerConfig, Refusal, ServerHandle, Wire};
use bgl_graph::{Csr, FeatureStore};
use bgl_obs::Registry;
use bgl_store::{GraphStoreServer, StoreError};
use bytes::Bytes;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Dispatches `Req` and `Control` frames into one [`GraphStoreServer`].
pub struct StoreHandler {
    store: Arc<GraphStoreServer>,
    /// Artificial per-request delay (micros), set via [`ControlOp::SetSlow`].
    slow_micros: AtomicU64,
}

impl FrameHandler for StoreHandler {
    const METRIC_PREFIX: &'static str = "net";
    type Conn = ();

    fn hello_ack(&self) -> HelloAck {
        HelloAck {
            version: PROTOCOL_VERSION,
            server_id: self.store.id() as u32,
            num_servers: self.store.cluster_size() as u32,
            feature_dim: self.store.features_dim() as u32,
        }
    }

    fn refusal(&self, _why: Refusal) -> (FrameKind, Bytes) {
        (FrameKind::Err, encode_store_error(&StoreError::Malformed("handshake refused")))
    }

    fn on_frame(&self, _conn: &mut (), frame: Frame, wire: &mut Wire<'_>) -> bool {
        let ack = |payload| Frame::new(frame.corr_id, FrameKind::ControlAck, payload);
        match frame.kind {
            FrameKind::Req => {
                wire.metrics.requests.incr();
                let slow = self.slow_micros.load(Ordering::SeqCst);
                if slow > 0 {
                    thread::sleep(Duration::from_micros(slow));
                }
                let reply = match self.store.handle(frame.payload) {
                    Ok(resp) => Frame::new(frame.corr_id, FrameKind::Resp, resp),
                    Err(e) => Frame::new(frame.corr_id, FrameKind::Err, encode_store_error(&e)),
                };
                wire.send(reply)
            }
            FrameKind::Control => {
                let reply = match ControlOp::decode(frame.payload) {
                    Ok(ControlOp::SetDown(down)) => {
                        self.store.set_down(down);
                        ack(Bytes::new())
                    }
                    Ok(ControlOp::SetReplication { replication, num_servers }) => {
                        self.store.set_replication(replication as usize, num_servers as usize);
                        ack(Bytes::new())
                    }
                    Ok(ControlOp::Stats) => ack(StatsReply {
                        requests_served: self.store.requests_served(),
                        nodes_sampled: self.store.nodes_sampled(),
                    }
                    .encode()),
                    Ok(ControlOp::SetSlow { micros }) => {
                        self.slow_micros.store(micros, Ordering::SeqCst);
                        ack(Bytes::new())
                    }
                    // An undecodable control op is a protocol violation.
                    Err(_) => return false,
                };
                wire.send(reply)
            }
            // Anything else from a client after the handshake is a
            // protocol violation; close.
            _ => false,
        }
    }
}

/// Handle to one running store listener.
pub type NetServerHandle = ServerHandle<StoreHandler>;

/// Bind a listener and serve `store` on it until shutdown.
pub fn serve(
    store: Arc<GraphStoreServer>,
    config: NetServerConfig,
    registry: &Registry,
) -> io::Result<NetServerHandle> {
    listen(StoreHandler { store, slow_micros: AtomicU64::new(0) }, config, registry)
}

/// An N-server loopback cluster for tests, benches and examples.
pub struct LoopbackCluster {
    handles: Vec<Option<NetServerHandle>>,
    addrs: Vec<SocketAddr>,
}

impl LoopbackCluster {
    /// Addresses of all servers (killed ones keep their slot so indices
    /// stay aligned with server ids).
    pub fn addrs(&self) -> Vec<String> {
        self.addrs.iter().map(|a| a.to_string()).collect()
    }

    /// The hosted store for server `i`, if it is still running.
    pub fn store(&self, i: usize) -> Option<&Arc<GraphStoreServer>> {
        self.handles.get(i).and_then(|h| h.as_ref()).map(|h| &h.handler().store)
    }

    /// Crash server `i` mid-conversation (socket shutdown, threads
    /// joined). Idempotent.
    pub fn kill(&mut self, i: usize) {
        if let Some(slot) = self.handles.get_mut(i) {
            if let Some(h) = slot.take() {
                h.kill();
            }
        }
    }

    /// Gracefully shut down every remaining server.
    pub fn shutdown(mut self) {
        for slot in self.handles.iter_mut() {
            if let Some(h) = slot.take() {
                h.shutdown();
            }
        }
    }
}

/// Stand up `num_servers` loopback TCP servers over one partitioned
/// dataset — the TCP analogue of `InProcessTransport::new`.
pub fn spawn_loopback_cluster(
    graph: Arc<Csr>,
    features: Arc<FeatureStore>,
    owner: Arc<Vec<u32>>,
    num_servers: usize,
    seed: u64,
    config: NetServerConfig,
    registry: &Registry,
) -> io::Result<LoopbackCluster> {
    let mut handles = Vec::with_capacity(num_servers);
    let mut addrs = Vec::with_capacity(num_servers);
    for i in 0..num_servers {
        let store = Arc::new(GraphStoreServer::new(
            i,
            graph.clone(),
            features.clone(),
            owner.clone(),
            seed,
        ));
        let handle = serve(store, config.clone(), registry)?;
        addrs.push(handle.addr());
        handles.push(Some(handle));
    }
    Ok(LoopbackCluster { handles, addrs })
}
