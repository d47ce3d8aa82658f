//! Per-batch FLOP estimation for the GPU device model.
//!
//! The throughput experiments run model compute on the simulated V100
//! (`bgl_sim::devices::GpuSpec`), which needs the work per mini-batch.
//! Forward + backward ≈ 3× the forward matmul cost; aggregation adds one
//! multiply-add per edge per channel. (The CPU step in this crate now does
//! 2× at layer 0 — it takes no gradient for the untrained input features —
//! but the device model keeps the paper-calibrated 3× at every layer:
//! EXPERIMENTS.md's figures are calibrated on it.)

use crate::ModelKind;
use bgl_sampler::MiniBatch;

/// Estimated forward+backward FLOPs for one batch.
pub fn batch_flops(kind: ModelKind, batch: &MiniBatch, dims: &[usize]) -> f64 {
    assert_eq!(batch.blocks.len() + 1, dims.len(), "dims must be layer+1 long");
    let mut total = 0.0f64;
    for (l, block) in batch.blocks.iter().enumerate() {
        let (din, dout) = (dims[l] as f64, dims[l + 1] as f64);
        let s = block.num_src() as f64;
        let d = block.num_dst() as f64;
        let e = block.num_edges() as f64;
        let linear_rows = match kind {
            // GCN/SAGE apply the linear map to aggregated dst rows…
            ModelKind::Gcn => d,
            ModelKind::GraphSage => d,
            // …GAT transforms every src row first.
            ModelKind::Gat => s,
        };
        let in_width = match kind {
            ModelKind::GraphSage => 2.0 * din, // concat
            _ => din,
        };
        let matmul = 2.0 * linear_rows * in_width * dout;
        let agg = 2.0 * e * match kind {
            ModelKind::Gat => dout, // aggregate in output space
            _ => din,
        };
        let attn = match kind {
            ModelKind::Gat => 4.0 * (e + d) * dout, // score dots + softmax
            _ => 0.0,
        };
        // The OGB leaderboard GAT (whose hyper-parameters the paper adopts,
        // §5.1) is multi-head; each of the ~4 heads repeats the transform
        // and attention work. `bgl-gnn`'s trainable GAT is single-head, but
        // the *device-time* model charges the evaluated configuration.
        let heads = match kind {
            ModelKind::Gat => 4.0,
            _ => 1.0,
        };
        total += 3.0 * heads * (matmul + agg + attn); // fwd + bwd ≈ 3× fwd
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_graph::generate;
    use bgl_sampler::NeighborSampler;
    use rand::prelude::*;

    fn batch() -> MiniBatch {
        let g = generate::barabasi_albert(500, 5, 1);
        let mut rng = StdRng::seed_from_u64(1);
        NeighborSampler::new(vec![5, 5]).sample(&g, &(0..10).collect::<Vec<_>>(), &mut rng)
    }

    #[test]
    fn gat_costs_more_than_sage_costs_more_than_gcn() {
        let b = batch();
        let dims = [64usize, 32, 8];
        let gcn = batch_flops(ModelKind::Gcn, &b, &dims);
        let sage = batch_flops(ModelKind::GraphSage, &b, &dims);
        let gat = batch_flops(ModelKind::Gat, &b, &dims);
        assert!(gcn > 0.0);
        assert!(sage > gcn, "sage {} should exceed gcn {}", sage, gcn);
        assert!(gat > gcn, "gat {} should exceed gcn {}", gat, gcn);
    }
}
