//! Property-based tests for the simulation core: conservation and
//! monotonicity laws of the tandem pipeline and device models.

use bgl_sim::devices::{GpuSpec, LinkSpec};
use bgl_sim::pipeline::{StageSpec, TandemPipeline};
use bgl_sim::MICROSECOND;
use proptest::prelude::*;

proptest! {
    /// All injected batches complete, in order, and the makespan is at
    /// least the bottleneck lower bound and at most the serial upper bound.
    #[test]
    fn pipeline_conservation_and_bounds(
        times in proptest::collection::vec(1u64..50, 1..6),
        cap in 1usize..5,
        batches in 1usize..40,
    ) {
        let stages: Vec<StageSpec> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| StageSpec::constant(&format!("s{}", i), t * MICROSECOND))
            .collect();
        let p = TandemPipeline::with_uniform_buffers(stages, cap);
        let r = p.run(batches);
        prop_assert_eq!(r.completions.len(), batches);
        for w in r.completions.windows(2) {
            prop_assert!(w[0] < w[1], "completions out of order");
        }
        let bottleneck = *times.iter().max().unwrap() * MICROSECOND;
        let serial: u64 = times.iter().map(|&t| t * MICROSECOND).sum();
        // Lower bound: the bottleneck must serve every batch.
        prop_assert!(r.makespan >= bottleneck * batches as u64);
        // Upper bound: fully serial execution.
        prop_assert!(r.makespan <= serial * batches as u64);
        // Busy time of each stage is exactly its total service demand.
        for (i, &t) in times.iter().enumerate() {
            prop_assert_eq!(r.busy[i], t * MICROSECOND * batches as u64);
        }
    }

    /// Deeper buffers never hurt throughput.
    #[test]
    fn buffers_monotone(
        times in proptest::collection::vec(1u64..30, 2..5),
    ) {
        let run = |cap: usize| {
            let stages: Vec<StageSpec> = times
                .iter()
                .map(|&t| StageSpec::constant("s", t * MICROSECOND))
                .collect();
            TandemPipeline::with_uniform_buffers(stages, cap).run(50).makespan
        };
        prop_assert!(run(4) <= run(1), "deeper buffers increased makespan");
    }

    /// Transfer time is monotone in bytes and latency-dominated at zero.
    #[test]
    fn link_transfer_monotone(b1 in 0usize..1_000_000, b2 in 0usize..1_000_000) {
        for link in [LinkSpec::pcie3_x16(), LinkSpec::nvlink(), LinkSpec::nic_100g()] {
            let (lo, hi) = (b1.min(b2), b1.max(b2));
            prop_assert!(link.transfer_time(lo) <= link.transfer_time(hi));
            prop_assert_eq!(link.transfer_time(0), link.latency);
        }
    }

    /// GPU kernel time is monotone in both flops and bytes.
    #[test]
    fn kernel_time_monotone(f1 in 0.0f64..1e12, f2 in 0.0f64..1e12, b in 0usize..1_000_000_000) {
        let gpu = GpuSpec::v100_32g();
        let (lo, hi) = (f1.min(f2), f1.max(f2));
        prop_assert!(gpu.kernel_time(lo, b) <= gpu.kernel_time(hi, b));
    }
}
