//! [`TcpTransport`]: the [`StoreTransport`] implementation over real
//! sockets.
//!
//! `StoreCluster` hands this transport the same encoded frames it gives
//! `InProcessTransport`; every transport-level failure maps through
//! [`NetError::into_store_error`] into a *transient*
//! [`bgl_store::StoreError::ServerDown`], so the cluster's retry ladder,
//! circuit breakers and replica failover treat a killed TCP server
//! exactly like a simulated crash. Control-plane trait methods
//! (`set_down`, `set_replication`, `requests_per_server`) travel as
//! control frames, keeping a remote cluster fully driveable.

use crate::client::{NetClient, NetClientConfig};
use crate::proto::ControlOp;
use crate::NetError;
use bgl_obs::Registry;
use bgl_store::{StoreError, StoreTransport};
use bytes::Bytes;
use std::sync::Mutex;

/// A [`StoreTransport`] speaking the bgl-net protocol to one TCP server
/// per cluster slot.
///
/// The client pool sits behind a `Mutex` so the `&self` control-plane
/// trait methods (`set_down`, `requests_per_server`) can drive it — the
/// same sharing contract the in-process transport gets from its servers'
/// interior mutability. Data-path methods take `&mut self` and bypass the
/// lock entirely.
pub struct TcpTransport {
    client: Mutex<NetClient>,
    /// Cluster size, fixed at connect time (one address per server slot).
    num_servers: usize,
    /// Feature dimensionality, learned from the first successful
    /// handshake. Cached so the fetch path never depends on any one
    /// server staying alive just to answer a shape question.
    feature_dim: Option<usize>,
}

impl TcpTransport {
    /// Build over `addrs` (index = server id); connections are dialed
    /// lazily, so a dead server only fails the requests routed to it.
    pub fn connect<A: AsRef<str>>(
        addrs: &[A],
        config: NetClientConfig,
        registry: &Registry,
    ) -> Result<TcpTransport, NetError> {
        Ok(TcpTransport {
            num_servers: addrs.len(),
            client: Mutex::new(NetClient::new(addrs, config, registry)?),
            feature_dim: None,
        })
    }

    /// The underlying pool, for direct pipelining or control access.
    pub fn client_mut(&mut self) -> &mut NetClient {
        self.client.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

impl StoreTransport for TcpTransport {
    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn num_servers(&self) -> usize {
        self.num_servers
    }

    fn features_dim(&mut self) -> Result<usize, StoreError> {
        if let Some(dim) = self.feature_dim {
            return Ok(dim);
        }
        if self.num_servers == 0 {
            return Err(StoreError::EmptyCluster);
        }
        // Any live server can answer the shape question; only fail if
        // every one of them is unreachable.
        let mut last = StoreError::EmptyCluster;
        for server in 0..self.num_servers {
            match self.client_mut().handshake(server) {
                Ok(ack) => {
                    let dim = ack.feature_dim as usize;
                    self.feature_dim = Some(dim);
                    return Ok(dim);
                }
                Err(e) => last = e.into_store_error(server),
            }
        }
        Err(last)
    }

    fn call(&mut self, to: usize, frame: Bytes) -> Result<Bytes, StoreError> {
        if to >= self.num_servers {
            return Err(StoreError::InvalidServer(to));
        }
        self.client_mut()
            .request(to, frame)
            .map_err(|e| e.into_store_error(to))
    }

    fn set_down(&self, server: usize, down: bool) -> Result<(), StoreError> {
        if server >= self.num_servers {
            return Err(StoreError::InvalidServer(server));
        }
        self.client
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .control(server, ControlOp::SetDown(down))
            .map(|_| ())
            .map_err(|e| e.into_store_error(server))
    }

    fn set_replication(
        &mut self,
        replication: usize,
        num_servers: usize,
    ) -> Result<(), StoreError> {
        // The layout travels as two u32 fields: one that does not fit is
        // refused here, before any server has been told half of it.
        let narrow = |v| u32::try_from(v).map_err(|_| StoreError::TooLarge("replication layout"));
        let op = ControlOp::SetReplication {
            replication: narrow(replication)?,
            num_servers: narrow(num_servers)?,
        };
        for server in 0..self.num_servers {
            self.client_mut()
                .control(server, op)
                .map_err(|e| e.into_store_error(server))?;
        }
        Ok(())
    }

    fn requests_per_server(&self) -> Result<Vec<u64>, StoreError> {
        let mut out = Vec::with_capacity(self.num_servers);
        let mut client = self.client.lock().unwrap_or_else(|p| p.into_inner());
        for server in 0..self.num_servers {
            let stats = client
                .control(server, ControlOp::Stats)
                .map_err(|e| e.into_store_error(server))?
                .ok_or(StoreError::Malformed("stats reply missing"))?;
            out.push(stats.requests_served);
        }
        Ok(out)
    }
}
