//! Lightweight observability substrate for the BGL reproduction.
//!
//! The paper's §3.4 resource-isolation optimizer is *profiling-based*: it
//! consumes per-stage measurements. This crate provides the measurement
//! substrate — a metrics registry (counters, gauges, monotonic log2
//! histograms), scoped span timers, and a chrome-trace (`about:tracing` /
//! Perfetto JSON array) exporter — with one hard requirement: a *disabled*
//! registry must cost near nothing, so instrumentation can stay wired into
//! the hot data path permanently.
//!
//! Design:
//! - [`Registry`] is a cheap clonable handle. `Registry::disabled()` holds no
//!   allocation at all; every handle minted from it is a `None` and each
//!   `add`/`record` call is a branch on an `Option` (what leaving it
//!   enabled costs is `trace.overhead_share` in `BENCHMARK.json`).
//! - Handles ([`Counter`], [`Gauge`], [`Histogram`]) are resolved once by
//!   name and then updated lock-free via atomics; the registry's name maps
//!   are only locked at registration and export time.
//! - The typed `*Stats` / `*Report` structs the layers keep are the source
//!   of truth — they count with tracing off, which is how every timed
//!   benchmark run executes. Each names its fields once ([`Ledger`], via
//!   [`ledger!`]); [`Mirror`] copies one into `{prefix}.{field}` counters at
//!   the end of an operation and [`AtomicLedger`] is its shared-memory
//!   accumulator. The registry is the mirror, never the ledger.
//! - [`Span`] is an RAII timer: it captures `Instant::now()` on creation and
//!   pushes a [`SpanRecord`] on drop. Disabled registries never touch the
//!   clock.
//! - [`Registry::chrome_trace_json`] renders every recorded span as a
//!   `"ph":"X"` complete event and every counter/gauge/histogram as a
//!   `"ph":"C"` counter event, producing a JSON array loadable by
//!   `chrome://tracing` or Perfetto.
//!
//! The crate is dependency-free; JSON is emitted (and parsed, for
//! validation) by the small [`json`] module so artifacts stay valid even in
//! build environments where serde is stubbed out.

pub mod json;
mod ledger;
mod metrics;
mod span;
mod trace;

pub use ledger::{AtomicLedger, Ledger, Mirror};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use span::{Span, SpanRecord};
