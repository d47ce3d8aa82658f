//! Finite-buffer tandem-queue pipeline simulator.
//!
//! Models the paper's asynchronous GNN training pipeline (Fig. 10): a chain
//! of stages, each processing one mini-batch at a time, connected by bounded
//! buffers. A stage that finishes a batch while its output buffer is full
//! *blocks* (backpressure) — exactly the behaviour that makes the slowest
//! stage dominate end-to-end throughput and starve the GPU (§2.2).
//!
//! The simulator reports per-stage busy time, from which GPU utilization
//! (Fig. 3) falls out: utilization of the model-computation stage =
//! busy(gpu) / makespan.

use crate::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Per-batch service-time function for a stage.
pub type ServiceFn = Box<dyn Fn(usize) -> SimTime>;

/// One pipeline stage: a name (for reports) and its service-time model.
pub struct StageSpec {
    pub name: String,
    pub service: ServiceFn,
}

impl StageSpec {
    /// Stage with a constant per-batch service time.
    pub fn constant(name: &str, t: SimTime) -> Self {
        StageSpec { name: name.to_string(), service: Box::new(move |_| t) }
    }

    /// Stage with an arbitrary per-batch service time.
    pub fn new(name: &str, f: impl Fn(usize) -> SimTime + 'static) -> Self {
        StageSpec { name: name.to_string(), service: Box::new(f) }
    }
}

/// Result of a pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    pub stage_names: Vec<String>,
    /// Total busy (serving) nanoseconds per stage.
    pub busy: Vec<SimTime>,
    /// Total blocked-on-downstream nanoseconds per stage.
    pub blocked: Vec<SimTime>,
    /// Completion time of each batch at the final stage.
    pub completions: Vec<SimTime>,
    /// Virtual time at which the last batch completed.
    pub makespan: SimTime,
}

impl PipelineReport {
    /// End-to-end throughput in batches per simulated second.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.completions.len() as f64 / crate::as_secs(self.makespan)
    }

    /// Steady-state throughput measured over the second half of the batches
    /// (skips pipeline fill).
    pub fn steady_throughput(&self) -> f64 {
        let n = self.completions.len();
        if n < 4 {
            return self.throughput();
        }
        let mid = n / 2;
        let dt = self.completions[n - 1].saturating_sub(self.completions[mid - 1]);
        if dt == 0 {
            return self.throughput();
        }
        (n - mid) as f64 / crate::as_secs(dt)
    }

    /// Fraction of the makespan stage `i` spent actively serving.
    pub fn utilization(&self, i: usize) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.busy[i] as f64 / self.makespan as f64
    }

    /// Index of the stage with the highest busy time — the bottleneck.
    pub fn bottleneck(&self) -> usize {
        self.busy
            .iter()
            .enumerate()
            .max_by_key(|&(_, &b)| b)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

struct StageState {
    /// Batch being served and its finish time.
    busy: Option<(usize, SimTime)>,
    /// Time at which the current service started (for busy accounting).
    started: SimTime,
    /// Batch finished but waiting for downstream buffer space: (batch, since).
    held: Option<(usize, SimTime)>,
    /// Input buffer feeding this stage (unused for stage 0).
    input: VecDeque<usize>,
    busy_total: SimTime,
    blocked_total: SimTime,
}

struct Runner<'a> {
    stages: &'a [StageSpec],
    caps: &'a [usize],
    states: Vec<StageState>,
    next_source: usize,
    num_batches: usize,
    heap: BinaryHeap<Reverse<(SimTime, usize)>>,
    completions: Vec<SimTime>,
}

impl<'a> Runner<'a> {
    /// Start stage `i` if it is idle, unblocked, and has input available.
    fn try_start(&mut self, i: usize, now: SimTime) {
        if self.states[i].busy.is_some() || self.states[i].held.is_some() {
            return;
        }
        let batch = if i == 0 {
            if self.next_source >= self.num_batches {
                return;
            }
            let b = self.next_source;
            self.next_source += 1;
            b
        } else {
            match self.states[i].input.pop_front() {
                Some(b) => {
                    // A slot just freed in the buffer feeding stage i: if
                    // stage i-1 holds a blocked batch, deliver it now.
                    self.unblock(i - 1, now);
                    b
                }
                None => return,
            }
        };
        let dt = (self.stages[i].service)(batch);
        self.states[i].busy = Some((batch, now + dt));
        self.states[i].started = now;
        self.heap.push(Reverse((now + dt, i)));
    }

    /// Release stage `u`'s held batch into the (just-freed) buffer feeding
    /// stage `u + 1`, and let `u` resume.
    fn unblock(&mut self, u: usize, now: SimTime) {
        if let Some((held_batch, since)) = self.states[u].held.take() {
            self.states[u].blocked_total += now - since;
            self.states[u + 1].input.push_back(held_batch);
            self.try_start(u, now);
        }
    }

    /// Handle a stage-finish event.
    fn on_finish(&mut self, i: usize, now: SimTime) {
        let (batch, finish) = self.states[i].busy.take().expect("finish without busy");
        debug_assert_eq!(finish, now);
        let started = self.states[i].started;
        self.states[i].busy_total += now - started;
        if i + 1 == self.stages.len() {
            self.completions.push(now);
        } else if self.states[i + 1].input.len() < self.caps[i] {
            self.states[i + 1].input.push_back(batch);
            self.try_start(i + 1, now);
        } else {
            self.states[i].held = Some((batch, now));
        }
        self.try_start(i, now);
    }
}

/// The tandem pipeline simulator. Construct with stage specs and buffer
/// capacities, then call [`TandemPipeline::run`].
pub struct TandemPipeline {
    stages: Vec<StageSpec>,
    /// `caps[i]` is the capacity (≥ 1) of the buffer between stage `i` and
    /// `i + 1`; length must be `stages.len() - 1`.
    caps: Vec<usize>,
}

impl TandemPipeline {
    /// Build a pipeline. `caps.len()` must equal `stages.len() - 1` and all
    /// capacities must be ≥ 1.
    pub fn new(stages: Vec<StageSpec>, caps: Vec<usize>) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        assert_eq!(caps.len(), stages.len() - 1, "need one buffer per stage gap");
        assert!(caps.iter().all(|&c| c >= 1), "buffer capacities must be >= 1");
        TandemPipeline { stages, caps }
    }

    /// Convenience: uniform buffer capacity between all stages.
    pub fn with_uniform_buffers(stages: Vec<StageSpec>, cap: usize) -> Self {
        let n = stages.len();
        TandemPipeline::new(stages, vec![cap.max(1); n.saturating_sub(1)])
    }

    /// Build a pipeline from *measured* mean service times (nanoseconds per
    /// batch) and per-stage worker-pool sizes: a pool of `w` workers drains
    /// its input up to `w`× faster, so it is modelled as a single server
    /// with service time `t / w` (linear pool scaling). This is how the
    /// threaded executor in `bgl-exec` feeds its profile back into the
    /// tandem-queue model for the predicted-vs-measured validation.
    pub fn from_measured(
        names: &[&str],
        service_ns: &[u64],
        workers: &[usize],
        cap: usize,
    ) -> Self {
        assert_eq!(names.len(), service_ns.len(), "one service time per stage");
        assert_eq!(names.len(), workers.len(), "one pool size per stage");
        let stages = names
            .iter()
            .zip(service_ns.iter())
            .zip(workers.iter())
            .map(|((name, &t), &w)| StageSpec::constant(name, t / w.max(1) as SimTime))
            .collect();
        TandemPipeline::with_uniform_buffers(stages, cap)
    }

    /// Simulate `num_batches` flowing through the pipeline.
    pub fn run(&self, num_batches: usize) -> PipelineReport {
        let k = self.stages.len();
        let mut runner = Runner {
            stages: &self.stages,
            caps: &self.caps,
            states: (0..k)
                .map(|_| StageState {
                    busy: None,
                    started: 0,
                    held: None,
                    input: VecDeque::new(),
                    busy_total: 0,
                    blocked_total: 0,
                })
                .collect(),
            next_source: 0,
            num_batches,
            heap: BinaryHeap::new(),
            completions: Vec::with_capacity(num_batches),
        };
        runner.try_start(0, 0);
        while let Some(Reverse((now, i))) = runner.heap.pop() {
            runner.on_finish(i, now);
        }
        let makespan = runner.completions.last().copied().unwrap_or(0);
        PipelineReport {
            stage_names: self.stages.iter().map(|s| s.name.clone()).collect(),
            busy: runner.states.iter().map(|s| s.busy_total).collect(),
            blocked: runner.states.iter().map(|s| s.blocked_total).collect(),
            completions: runner.completions,
            makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MILLISECOND as MS;

    #[test]
    fn single_stage_throughput() {
        let p = TandemPipeline::new(vec![StageSpec::constant("only", 10 * MS)], vec![]);
        let r = p.run(10);
        assert_eq!(r.completions.len(), 10);
        assert_eq!(r.makespan, 100 * MS);
        assert!((r.throughput() - 100.0).abs() < 1.0);
    }

    #[test]
    fn all_batches_complete_in_order() {
        let p = TandemPipeline::with_uniform_buffers(
            vec![
                StageSpec::constant("a", 3 * MS),
                StageSpec::constant("b", 5 * MS),
                StageSpec::constant("c", 2 * MS),
            ],
            2,
        );
        let r = p.run(50);
        assert_eq!(r.completions.len(), 50);
        for w in r.completions.windows(2) {
            assert!(w[0] < w[1], "completions out of order");
        }
    }

    #[test]
    fn bottleneck_dominates() {
        let p = TandemPipeline::with_uniform_buffers(
            vec![
                StageSpec::constant("fast-in", MS),
                StageSpec::constant("slow", 10 * MS),
                StageSpec::constant("fast-out", MS),
            ],
            4,
        );
        let r = p.run(100);
        assert_eq!(r.bottleneck(), 1);
        assert!(
            (r.steady_throughput() - 100.0).abs() < 5.0,
            "steady {} should be ~100",
            r.steady_throughput()
        );
        assert!(r.utilization(1) > 0.95);
        assert!(r.utilization(0) < 0.2);
    }

    #[test]
    fn upstream_blocks_on_slow_downstream() {
        let p = TandemPipeline::with_uniform_buffers(
            vec![
                StageSpec::constant("producer", MS),
                StageSpec::constant("consumer", 10 * MS),
            ],
            1,
        );
        let r = p.run(20);
        // Producer must accumulate blocked time waiting for the consumer.
        assert!(r.blocked[0] > 0, "producer never blocked");
        assert_eq!(r.completions.len(), 20);
    }

    #[test]
    fn deeper_buffers_do_not_change_steady_state() {
        let mk = |cap| {
            TandemPipeline::with_uniform_buffers(
                vec![
                    StageSpec::constant("a", 2 * MS),
                    StageSpec::constant("b", 4 * MS),
                ],
                cap,
            )
            .run(200)
            .steady_throughput()
        };
        let shallow = mk(1);
        let deep = mk(16);
        assert!(
            (shallow - deep).abs() / deep < 0.05,
            "steady-state should match: {} vs {}",
            shallow,
            deep
        );
    }

    #[test]
    fn variable_service_times() {
        // Alternating light/heavy batches: throughput equals the mean rate.
        let p = TandemPipeline::new(
            vec![StageSpec::new("var", |b| if b % 2 == 0 { MS } else { 3 * MS })],
            vec![],
        );
        let r = p.run(100);
        // 50 * 1ms + 50 * 3ms = 200ms.
        assert_eq!(r.makespan, 200 * MS);
    }

    #[test]
    fn gpu_utilization_shape_matches_paper_motivation() {
        // Paper §2.2: preprocessing ~10x the GPU time ⇒ GPU utilization ~10%.
        let p = TandemPipeline::with_uniform_buffers(
            vec![
                StageSpec::constant("preprocess", 200 * MS),
                StageSpec::constant("gpu", 20 * MS),
            ],
            2,
        );
        let r = p.run(50);
        let gpu_util = r.utilization(1);
        assert!(
            (gpu_util - 0.1).abs() < 0.03,
            "gpu util {} should be ~0.10",
            gpu_util
        );
    }

    #[test]
    fn from_measured_divides_service_time_by_pool_size() {
        // A 4-worker 40ms stage behaves like a 10ms server: the 10ms
        // downstream stage, not the pool, sets the bottleneck pace.
        let p = TandemPipeline::from_measured(
            &["pool", "sink"],
            &[40 * MS, 10 * MS],
            &[4, 1],
            2,
        );
        let r = p.run(40);
        let thr = r.steady_throughput();
        assert!(
            (thr - 100.0).abs() < 5.0,
            "steady throughput {} should be ~100 batches/s",
            thr
        );
    }
}
