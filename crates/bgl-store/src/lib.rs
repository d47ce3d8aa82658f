//! # bgl-store — distributed graph store with simulated fabric
//!
//! The substrate under both BGL and every baseline (paper Fig. 1 / Fig. 4):
//! the graph structure and node features live partitioned across graph
//! store servers; samplers are colocated with the servers; workers pull
//! sampled subgraphs and features over the network.
//!
//! In this reproduction the servers are in-process, but the data path is
//! real: every request and response is encoded through the binary [`wire`]
//! codec, byte-for-byte, and each message's size is charged to a
//! [`bgl_sim::network::NetworkModel`] to produce simulated wire time — so
//! cross-partition traffic (what the partitioner minimizes, Table 3) and
//! feature-retrieval traffic (what the cache minimizes, Fig. 14) are
//! measured on actual bytes.
//!
//! * [`wire`] — length-prefixed binary codec over `bytes`;
//! * [`server`] — [`server::GraphStoreServer`], owning one partition and
//!   serving neighbor-sampling and feature RPCs;
//! * [`cluster`] — [`StoreCluster`]: the server set + partition map +
//!   traffic ledger, with distributed multi-hop sampling and batched
//!   feature fetch;
//! * [`fault`] — deterministic fault injection: seeded [`fault::FaultPlan`]s
//!   schedule server crashes, request drops, corrupted responses and
//!   slow-server windows;
//! * [`retry`] — [`retry::RetryPolicy`]: bounded retries with exponential
//!   backoff charged to simulated time, plus a per-batch deadline budget;
//! * [`health`] — [`health::CircuitBreaker`]: per-server failure tracking
//!   that routes around persistently failing primaries;
//! * [`pager`] / [`bufpool`] / [`wal`] / [`tier`] — the durable disk tier
//!   (DESIGN.md §11): fixed-size checksummed pages behind a pin/unpin
//!   buffer pool (SIEVE replacement), a write-ahead log with
//!   fsync-to-ack discipline, and deterministic I/O fault injection
//!   ([`pager::IoFaultPlan`]) proving crash-consistent recovery.
//!
//! Multi-hour training runs survive partition-server failures through
//! r-replica placement ([`StoreCluster::with_replication`]): each node's
//! rows are served by its primary and the `r − 1` successor servers, and
//! the cluster fails over automatically when the primary is down.

pub mod bufpool;
pub mod cluster;
pub mod fault;
pub mod health;
pub mod migrate;
pub mod obs;
pub mod pager;
pub mod retry;
pub mod server;
pub mod tier;
pub mod transport;
pub mod wal;
pub mod wire;

pub use bufpool::{BufPoolStats, BufferPool};
pub use cluster::{SampleTiming, StoreCluster};
pub use fault::{FaultInjector, FaultPlan, RobustEvent};
pub use health::{BreakerState, CircuitBreaker};
pub use migrate::{MigratePhase, Migration};
pub use pager::{DiskError, IoFault, IoFaultInjector, IoFaultPlan, Pager, ShadowFile};
pub use retry::RetryPolicy;
pub use server::GraphStoreServer;
pub use tier::{DiskTierConfig, DurableFeatures, RecoveryReport};
pub use transport::{InProcessTransport, StoreTransport};
pub use wal::{Wal, WalRecord};

use std::fmt;

/// Errors surfaced by the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The target server is marked down (failure injection).
    ServerDown(usize),
    /// A request was dropped in flight (transient fault injection).
    RequestDropped(usize),
    /// A response frame failed its integrity check (transient corruption).
    CorruptFrame(usize),
    /// A request named a node the server does not own (or replicate).
    NotOwned { node: u32, server: usize },
    /// The node migrated away and the server knows the new owner: `owner`
    /// is the server's authoritative view after a committed migration.
    /// Not transient (a blind same-server retry repeats the failure) but
    /// *redirectable*: the cluster learns the hint and re-routes, so
    /// in-flight requests chasing a stale owner map converge instead of
    /// hanging.
    NotOwner { node: u32, owner: u32 },
    /// A frame failed to decode (protocol-level corruption or misuse).
    Malformed(&'static str),
    /// A value does not fit its wire/header field (e.g. a batch larger
    /// than a `u32` count). Checked at encode time instead of silently
    /// truncating with `as`.
    TooLarge(&'static str),
    /// A node id outside the partition map was named.
    InvalidNode(u32),
    /// A server index outside the cluster was named.
    InvalidServer(usize),
    /// The cluster has no servers at all.
    EmptyCluster,
    /// The retry/failover budget ran out before the batch deadline.
    DeadlineExceeded,
    /// Every replica of the owning server failed.
    AllReplicasFailed { node_owner: usize },
    /// The durable disk tier failed (checksum mismatch, exhausted EIO
    /// retries, missing tier). Non-transient at this level: the tier
    /// already retried transient I/O internally.
    Storage(&'static str),
}

impl StoreError {
    /// Whether retrying (or failing over to a replica) can plausibly
    /// succeed. Transient: a down server, a dropped request, a corrupted
    /// response. Permanent: protocol misuse, bad arguments, and exhausted
    /// budgets — retrying those repeats the same failure.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            StoreError::ServerDown(_)
                | StoreError::RequestDropped(_)
                | StoreError::CorruptFrame(_)
        )
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::ServerDown(s) => write!(f, "graph store server {} is down", s),
            StoreError::RequestDropped(s) => {
                write!(f, "request to server {} dropped in flight", s)
            }
            StoreError::CorruptFrame(s) => {
                write!(f, "response from server {} failed integrity check", s)
            }
            StoreError::NotOwned { node, server } => {
                write!(f, "node {} is not owned by server {}", node, server)
            }
            StoreError::NotOwner { node, owner } => {
                write!(f, "node {} migrated; current owner is server {}", node, owner)
            }
            StoreError::Malformed(what) => write!(f, "malformed frame: {}", what),
            StoreError::TooLarge(what) => {
                write!(f, "value does not fit wire field: {}", what)
            }
            StoreError::InvalidNode(v) => {
                write!(f, "node {} is outside the partition map", v)
            }
            StoreError::InvalidServer(s) => {
                write!(f, "server index {} is outside the cluster", s)
            }
            StoreError::EmptyCluster => write!(f, "store cluster has no servers"),
            StoreError::DeadlineExceeded => {
                write!(f, "retry budget exhausted before the batch deadline")
            }
            StoreError::AllReplicasFailed { node_owner } => {
                write!(f, "all replicas of server {} failed", node_owner)
            }
            StoreError::Storage(what) => write!(f, "durable storage error: {}", what),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_taxonomy_split() {
        assert!(StoreError::ServerDown(0).is_transient());
        assert!(StoreError::RequestDropped(1).is_transient());
        assert!(StoreError::CorruptFrame(2).is_transient());
        assert!(!StoreError::NotOwned { node: 3, server: 0 }.is_transient());
        assert!(!StoreError::NotOwner { node: 3, owner: 1 }.is_transient());
        assert!(!StoreError::Malformed("x").is_transient());
        assert!(!StoreError::InvalidNode(9).is_transient());
        assert!(!StoreError::InvalidServer(9).is_transient());
        assert!(!StoreError::EmptyCluster.is_transient());
        assert!(!StoreError::DeadlineExceeded.is_transient());
        assert!(!StoreError::AllReplicasFailed { node_owner: 0 }.is_transient());
        assert!(!StoreError::Storage("checksum mismatch").is_transient());
    }
}
