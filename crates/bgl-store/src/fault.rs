//! Deterministic fault injection for the distributed store.
//!
//! A [`FaultPlan`] is a seeded schedule of faults; a [`FaultInjector`]
//! executes it against the cluster's request stream. Everything is driven by
//! the global request counter and the cluster's simulated clock, so the same
//! plan over the same workload produces byte-identical failure traces —
//! chaos tests can assert exact recovery behaviour, and a flake reproduces
//! from its seed.
//!
//! Fault kinds (the failure modes production GNN training actually sees over
//! multi-hour runs — the reliability bottleneck BGL-class systems inherit):
//!
//! * **Crash** — a server goes down at global request `N` and stays down for
//!   a simulated duration;
//! * **Drop** — each request is lost in flight with probability `p`;
//! * **Corrupt** — each response frame fails its integrity check with
//!   probability `p`;
//! * **Slow** — a server's wire time is multiplied within a request window
//!   (gray failure: alive but degraded).

use bgl_sim::SimTime;
use rand::prelude::*;

// The durable disk tier's seeded I/O faults (torn writes, short reads,
// transient EIO) live next to the pager but belong to the same chaos
// vocabulary; surface them here too.
pub use crate::pager::{IoFault, IoFaultInjector, IoFaultPlan};

/// A scheduled server crash: down from global request `at_request` for
/// `duration` of simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashFault {
    pub server: usize,
    pub at_request: u64,
    pub duration: SimTime,
}

/// A slow-server window: wire time to/from `server` is multiplied by
/// `multiplier` for global requests in `[from_request, until_request)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowFault {
    pub server: usize,
    pub multiplier: f64,
    pub from_request: u64,
    pub until_request: u64,
}

/// A seeded, declarative fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub crashes: Vec<CrashFault>,
    pub slowdowns: Vec<SlowFault>,
    /// Per-request probability a request is dropped in flight.
    pub drop_prob: f64,
    /// Per-response probability the frame fails its integrity check.
    pub corrupt_prob: f64,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given determinism seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            crashes: Vec::new(),
            slowdowns: Vec::new(),
            drop_prob: 0.0,
            corrupt_prob: 0.0,
        }
    }

    /// Schedule a crash of `server` at global request `at_request`, lasting
    /// `duration` simulated time.
    pub fn crash(mut self, server: usize, at_request: u64, duration: SimTime) -> Self {
        self.crashes.push(CrashFault { server, at_request, duration });
        self
    }

    /// Drop each request in flight with probability `p`.
    pub fn drops(mut self, p: f64) -> Self {
        self.drop_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Corrupt each response frame with probability `p`.
    pub fn corruption(mut self, p: f64) -> Self {
        self.corrupt_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Stretch `server`'s wire time by `multiplier` for global requests in
    /// `[from_request, until_request)`.
    pub fn slow(
        mut self,
        server: usize,
        multiplier: f64,
        from_request: u64,
        until_request: u64,
    ) -> Self {
        self.slowdowns.push(SlowFault { server, multiplier, from_request, until_request });
        self
    }
}

/// What the injector decided for one request attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Deliver normally, with wire time scaled by the multiplier (1.0 when
    /// no slow-server window applies).
    Deliver { latency_mult: f64 },
    /// The request never reaches the server.
    Drop,
    /// The server answers, but the response frame fails its integrity check.
    CorruptResponse { latency_mult: f64 },
}

/// One entry of the deterministic recovery trace kept by the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RobustEvent {
    /// A crash window opened for `server`.
    Crashed { server: usize, at_request: u64 },
    /// An attempt to `server` failed transiently and was retried.
    Retried { server: usize, attempt: u32 },
    /// The request was rerouted from `from` to replica `to`.
    FailedOver { from: usize, to: usize },
    /// `server`'s circuit opened after consecutive failures.
    BreakerOpened { server: usize },
    /// A half-open probe was admitted to `server`.
    BreakerProbed { server: usize },
    /// `server`'s circuit closed again (recovered).
    BreakerClosed { server: usize },
    /// A feature group fell back to zero rows.
    Degraded { server: usize, rows: u64 },
    /// A `NotOwner` hint taught the cluster that `node` now lives on
    /// `owner`; the request was re-routed there.
    Redirected { node: u32, owner: u32 },
}

/// Executes a [`FaultPlan`] against the live request stream.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    requests: u64,
    /// Per-server crash window end (simulated clock), if one is open.
    down_until: Vec<Option<SimTime>>,
    /// Which scheduled crashes already fired.
    fired: Vec<bool>,
    /// Crashes fired since the last [`FaultInjector::take_fired`] call, so
    /// the cluster can record them in its event trace.
    newly_fired: Vec<CrashFault>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan, num_servers: usize) -> Self {
        let fired = vec![false; plan.crashes.len()];
        FaultInjector {
            rng: StdRng::seed_from_u64(plan.seed ^ 0xFA_17),
            down_until: vec![None; num_servers],
            fired,
            newly_fired: Vec::new(),
            requests: 0,
            plan,
        }
    }

    /// Global requests observed so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Whether `server` is inside an injected crash window at `clock`.
    pub fn is_down(&self, server: usize, clock: SimTime) -> bool {
        matches!(self.down_until.get(server), Some(Some(until)) if clock < *until)
    }

    /// Observe one request attempt to `server` at simulated time `clock`:
    /// advance the request counter, open any crash windows that are due, and
    /// decide the attempt's fate. Exactly two RNG draws happen per call
    /// regardless of outcome, so traces are stable across plan tweaks.
    pub fn on_request(&mut self, server: usize, clock: SimTime) -> FaultAction {
        self.requests += 1;
        let now = self.requests;
        for (i, c) in self.plan.crashes.iter().enumerate() {
            if !self.fired[i] && now >= c.at_request {
                self.fired[i] = true;
                if c.server < self.down_until.len() {
                    self.down_until[c.server] = Some(clock + c.duration);
                }
                self.newly_fired.push(*c);
            }
        }
        let dropped = self.rng.random_bool(self.plan.drop_prob);
        let corrupted = self.rng.random_bool(self.plan.corrupt_prob);
        let latency_mult = self
            .plan
            .slowdowns
            .iter()
            .filter(|s| {
                s.server == server && now >= s.from_request && now < s.until_request
            })
            .map(|s| s.multiplier)
            .fold(1.0f64, f64::max);
        if dropped {
            FaultAction::Drop
        } else if corrupted {
            FaultAction::CorruptResponse { latency_mult }
        } else {
            FaultAction::Deliver { latency_mult }
        }
    }

    /// Drain the crashes fired since the last call (event-trace feed).
    pub fn take_fired(&mut self) -> Vec<CrashFault> {
        std::mem::take(&mut self.newly_fired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_always_delivers() {
        let mut inj = FaultInjector::new(FaultPlan::new(7), 4);
        for i in 0..100 {
            let a = inj.on_request(i % 4, 0);
            assert_eq!(a, FaultAction::Deliver { latency_mult: 1.0 });
        }
        assert_eq!(inj.requests(), 100);
    }

    #[test]
    fn crash_window_opens_and_expires() {
        let plan = FaultPlan::new(1).crash(2, 5, 1_000);
        let mut inj = FaultInjector::new(plan, 4);
        for _ in 0..4 {
            inj.on_request(0, 100);
        }
        assert!(!inj.is_down(2, 100));
        inj.on_request(0, 100); // request 5 fires the crash at clock 100
        assert!(inj.is_down(2, 100));
        assert!(inj.is_down(2, 1_099));
        assert!(!inj.is_down(2, 1_100)); // window [100, 1100) closed
        assert_eq!(inj.take_fired().len(), 1);
    }

    #[test]
    fn same_seed_same_decisions() {
        let mk = || {
            FaultInjector::new(
                FaultPlan::new(0xDECAF).drops(0.3).corruption(0.2).slow(1, 4.0, 2, 8),
                4,
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for i in 0..200u64 {
            let srv = (i % 4) as usize;
            assert_eq!(a.on_request(srv, i), b.on_request(srv, i));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultInjector::new(FaultPlan::new(1).drops(0.5), 2);
        let mut b = FaultInjector::new(FaultPlan::new(2).drops(0.5), 2);
        let same = (0..256)
            .filter(|_| a.on_request(0, 0) == b.on_request(0, 0))
            .count();
        assert!(same < 256, "independent seeds should diverge somewhere");
    }

    #[test]
    fn slow_window_applies_to_named_server_only() {
        let plan = FaultPlan::new(3).slow(1, 8.0, 1, 100);
        let mut inj = FaultInjector::new(plan, 2);
        assert_eq!(inj.on_request(1, 0), FaultAction::Deliver { latency_mult: 8.0 });
        assert_eq!(inj.on_request(0, 0), FaultAction::Deliver { latency_mult: 1.0 });
    }

    #[test]
    fn drop_probability_one_always_drops() {
        let mut inj = FaultInjector::new(FaultPlan::new(4).drops(1.0), 1);
        for _ in 0..32 {
            assert_eq!(inj.on_request(0, 0), FaultAction::Drop);
        }
    }
}
