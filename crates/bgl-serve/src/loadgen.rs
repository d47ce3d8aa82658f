//! Seeded open-loop load generator.
//!
//! Open-loop means arrivals follow a fixed schedule (Poisson: exponential
//! inter-arrival times at `rate_hz`) regardless of how the server is
//! doing — unlike closed-loop clients, it keeps offering load to a
//! saturated server, which is what exposes the throughput/latency knee
//! and exercises the shed path honestly.
//!
//! Determinism: the schedule and the user pick per arrival derive from
//! `mix64(seed, i)` — no shared RNG stream — so two runs at the same rate
//! offer the identical request sequence (wall-clock jitter aside).
//!
//! The report keeps *exact* sorted latencies; [`LoadReport::percentile_us`]
//! is a reference-sort quantile, deliberately independent of the
//! `serve.latency_us` log2 histogram so the two estimates cross-check
//! (`latency_histogram_percentiles_upper_bound_the_exact_sort`).

use crate::frontend::{ServeHandle, Ticket};
use bgl_net::query::QueryError;
use bgl_store::wire::mix64;
use std::time::{Duration, Instant};

/// Outcome of one open-loop run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The offered arrival rate (requests/second).
    pub rate_hz: f64,
    /// Requests the schedule offered.
    pub offered: u64,
    /// Requests admitted past the bounded queue.
    pub accepted: u64,
    /// Requests shed at admission (`Overloaded` / `ShuttingDown`).
    pub shed: u64,
    /// Accepted requests that completed with scores.
    pub completed: u64,
    /// Accepted requests that failed; their errors, in arrival order.
    pub failures: Vec<QueryError>,
    /// Front-end-measured latency of every completed request,
    /// microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Wall time from first submission to last resolution.
    pub wall: Duration,
}

impl LoadReport {
    /// Accepted requests that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Exact quantile by rank over the sorted completed latencies
    /// (`rank = ceil(p·n)`, matching
    /// `bgl_obs::HistogramSnapshot::percentile`). 0 when nothing
    /// completed.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.latencies_us.len() as f64).ceil() as usize).max(1);
        self.latencies_us[rank - 1]
    }
}

/// Uniform in (0, 1] from a counter-keyed hash (never 0, so `ln` is safe).
fn unit(seed: u64, i: u64) -> f64 {
    let bits = mix64(seed, i) >> 11; // 53 mantissa bits
    (bits as f64 + 1.0) / (1u64 << 53) as f64
}

/// Offer `n` requests at Poisson rate `rate_hz`, picking users from
/// `users` per arrival, then wait for every accepted ticket to resolve.
/// Submission never blocks on inference (that is the open loop); the
/// resolution wait happens after the schedule finishes, reading latencies
/// the front-end measured per request.
pub fn open_loop(
    handle: &ServeHandle,
    users: &[u32],
    rate_hz: f64,
    n: usize,
    seed: u64,
) -> LoadReport {
    assert!(!users.is_empty(), "open_loop needs a user population");
    assert!(rate_hz > 0.0, "open_loop needs a positive rate");
    // Pre-compute the arrival schedule so submit-time work is constant.
    let mut offsets = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for i in 0..n {
        t += -(1.0 - unit(seed, i as u64)).ln() / rate_hz;
        offsets.push(Duration::from_secs_f64(t));
    }
    // Domain-separates the user pick from the schedule draw ("user" in
    // ASCII), so the two streams never correlate.
    let pick = |i: u64| users[(mix64(seed ^ 0x7573_6572, i) % users.len() as u64) as usize];

    let start = Instant::now();
    let mut tickets: Vec<Ticket> = Vec::with_capacity(n);
    let mut shed = 0u64;
    for (i, &at) in offsets.iter().enumerate() {
        // Hold the schedule: sleep the bulk, spin the tail.
        loop {
            let elapsed = start.elapsed();
            if elapsed >= at {
                break;
            }
            let remaining = at - elapsed;
            if remaining > Duration::from_micros(200) {
                std::thread::sleep(remaining - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
        match handle.try_submit(pick(i as u64)) {
            Ok(t) => tickets.push(t),
            Err(_) => shed += 1,
        }
    }

    let accepted = tickets.len() as u64;
    let mut latencies_us: Vec<u64> = Vec::with_capacity(tickets.len());
    let mut failures = Vec::new();
    for t in tickets {
        match t.wait() {
            Ok(reply) => latencies_us.push(reply.latency.as_micros() as u64),
            Err(e) => failures.push(e),
        }
    }
    let wall = start.elapsed();
    latencies_us.sort_unstable();
    LoadReport {
        rate_hz,
        offered: n as u64,
        accepted,
        shed,
        completed: latencies_us.len() as u64,
        failures,
        latencies_us,
        wall,
    }
}
