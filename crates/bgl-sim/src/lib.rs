//! # bgl-sim — pipeline simulation and hardware device models
//!
//! The paper's testbed (8×V100 over NVLink, PCIe 3.0, 100 Gbps NICs) is not
//! available here, so throughput experiments run on *virtual time*: this
//! crate provides
//!
//! * [`pipeline::TandemPipeline`] — a finite-buffer tandem-queue simulator
//!   modelling the paper's 8-stage asynchronous training pipeline (Fig. 10):
//!   per-stage service times, bounded inter-stage buffers, backpressure,
//!   per-stage busy-time accounting (⇒ GPU utilization, Fig. 3);
//! * [`devices`] — cost models for the V100 GPU, PCIe/NVLink links and the
//!   100 Gbps NIC, calibrated to the numbers the paper itself reports
//!   (GraphSAGE mini-batch ≈ 20 ms on a V100; 195 MB of features per batch
//!   saturating a 100 Gbps NIC at ~60 batches/s);
//! * [`network::NetworkModel`] — latency + bandwidth accounting used by the
//!   distributed graph store in `bgl-store` to convert message sizes into
//!   simulated wire time.
//!
//! All simulated time is in nanoseconds ([`SimTime`]) and fully
//! deterministic.

pub mod devices;
pub mod network;
pub mod pipeline;

/// Simulated time in nanoseconds.
pub type SimTime = u64;

/// One second in [`SimTime`] units.
pub const SECOND: SimTime = 1_000_000_000;

/// One millisecond in [`SimTime`] units.
pub const MILLISECOND: SimTime = 1_000_000;

/// One microsecond in [`SimTime`] units.
pub const MICROSECOND: SimTime = 1_000;

/// Convert a duration in seconds (f64) to [`SimTime`], saturating.
pub fn secs(s: f64) -> SimTime {
    (s * SECOND as f64).round().max(0.0) as SimTime
}

/// Convert [`SimTime`] to seconds.
pub fn as_secs(t: SimTime) -> f64 {
    t as f64 / SECOND as f64
}
