//! # bgl-serve — online k-hop inference serving
//!
//! BGL's pipeline (paper §3) trains; this crate serves. A
//! [`ServeFrontend`] answers per-user k-hop embedding/recommendation
//! queries against the live [`bgl_store::StoreCluster`] +
//! [`bgl_cache::FeatureCacheEngine`], reusing the training stack's
//! sampler, cache, and blocked matmul kernels on the read path. Three
//! mechanisms carry the design:
//!
//! * **Cross-request micro-batching** ([`frontend`]): requests queue
//!   (bounded) while the driver is busy; when it is free it takes up to
//!   `max_batch` of what is waiting and one shared sample→fetch→forward
//!   pass answers them all. It is work-conserving — an idle engine starts
//!   on a lone request at once; batches form only behind a running pass,
//!   which is the only time they pay. Batching is a *latency knob, not a
//!   numerics knob*: responses are bitwise-identical to one-at-a-time
//!   execution, which rests on
//!   [`bgl_store::StoreCluster::sample_batch_seeded`] (per-`(salt, hop,
//!   node)` RNG on the store servers, independent of request
//!   composition) and on the per-row independence of the forward pass.
//! * **Admission control + backpressure** ([`frontend`]): the queue is
//!   bounded at `queue_depth`; beyond it, submissions shed immediately
//!   with the typed, retryable [`ServeError::Overloaded`] instead of
//!   queueing without bound — `bgl-exec`'s bounded-channel discipline
//!   applied at the request edge.
//! * **SLO accounting** ([`frontend`]):
//!   per-request latency lands in the `serve.latency_us` log2 histogram
//!   (p50/p99/p999 via [`bgl_obs::HistogramSnapshot::percentile`]) and
//!   the `serve.*` counters form a ledger — `accepted = completed +
//!   failed + in-flight`, `offered = accepted + shed` — that the chaos
//!   tests reconcile exactly.
//!
//! [`net`] exposes the same front-end over TCP as a frame handler on
//! `bgl-net`'s connection runtime (`Query`/`QueryOk`/`QueryErr` frames)
//! plus a typed client over its dialer, and [`loadgen`] provides the
//! seeded open-loop load generator (Poisson arrivals) the serving tests
//! drive it with.

pub mod engine;
pub mod frontend;
pub mod loadgen;
pub mod net;

pub use bgl_net::query::QueryError as ServeError;
pub use engine::ServeEngine;
pub use frontend::{ServeFrontend, ServeHandle, Ticket};
pub use loadgen::{open_loop, LoadReport};
pub use net::{spawn_serve_server, QueryHandler, ServeClient};

/// Tuning knobs for the serving front-end.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum requests answered by one shared inference pass.
    pub max_batch: usize,
    /// Admission-queue capacity; submissions beyond it shed with
    /// [`ServeError::Overloaded`].
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { max_batch: 16, queue_depth: 256 }
    }
}
