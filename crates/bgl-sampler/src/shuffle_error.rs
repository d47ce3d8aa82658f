//! Shuffling-error estimation (§3.2.2).
//!
//! The paper invokes the convergence theorem of Meng et al.
//! (Neurocomputing'19): if the total-variation distance ε between the label
//! distribution an ordering induces per mini-batch and the global training
//! label distribution satisfies `ε ≤ sqrt(b·M) / n` (b = batch size, M =
//! number of workers, n = training-set size), convergence is unaffected.
//! The paper's BGL starts from one BFS sequence and increases the sequence
//! count until the estimate drops below the bound; this repo runs no such
//! tuner (`SystemKind::Bgl` fixes 5 sequences) and uses the estimator for
//! the sequence-count ablation, which sweeps the count by hand.

use bgl_graph::NodeId;

/// Total-variation distance between two distributions: `½ Σ |p_i − q_i|`.
pub fn tv_distance(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution arity mismatch");
    0.5 * p.iter().zip(q).map(|(&a, &b)| (a - b).abs()).sum::<f64>()
}

/// Empirical label distribution of `nodes` over `num_classes`.
pub fn label_distribution(nodes: &[NodeId], labels: &[u16], num_classes: usize) -> Vec<f64> {
    let mut hist = vec![0.0f64; num_classes];
    for &v in nodes {
        hist[labels[v as usize] as usize] += 1.0;
    }
    let total: f64 = hist.iter().sum();
    if total > 0.0 {
        for h in hist.iter_mut() {
            *h /= total;
        }
    }
    hist
}

/// Mean per-batch TV distance from the global training label distribution —
/// the paper's shuffling-error ε estimated "as the frequency in per
/// mini-batch".
pub fn shuffling_error(
    order: &[NodeId],
    labels: &[u16],
    num_classes: usize,
    batch_size: usize,
) -> f64 {
    if order.is_empty() {
        return 0.0;
    }
    let global = label_distribution(order, labels, num_classes);
    let mut total = 0.0f64;
    let mut batches = 0usize;
    for chunk in order.chunks(batch_size.max(1)) {
        let dist = label_distribution(chunk, labels, num_classes);
        total += tv_distance(&dist, &global);
        batches += 1;
    }
    total / batches.max(1) as f64
}

/// The convergence bound `sqrt(b·M) / n`. Even a perfectly uniform shuffle
/// has per-batch TV distance ~ sqrt(K/b), so at laptop scale the bound is
/// unattainably small and the ablation reports it beside the measured ε
/// rather than gating on it.
pub fn convergence_bound(batch_size: usize, num_workers: usize, train_size: usize) -> f64 {
    ((batch_size * num_workers) as f64).sqrt() / train_size.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::{BfsOrder, ProximityAware, RandomShuffle, TrainOrdering};
    use bgl_graph::dataset::spatial_labels;
    use bgl_graph::generate::{self, CommunityConfig};
    use bgl_graph::Csr;

    fn setup() -> (Csr, Vec<NodeId>, Vec<u16>) {
        let g = generate::community_graph(
            CommunityConfig { n: 4000, communities: 20, intra: 8, inter: 1 },
            31,
        );
        let labels = spatial_labels(&g, 8, 5);
        let train: Vec<NodeId> = (0..4000).step_by(2).map(|v| v as NodeId).collect();
        (g, train, labels)
    }

    #[test]
    fn tv_distance_basics() {
        assert_eq!(tv_distance(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert_eq!(tv_distance(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert!((tv_distance(&[0.5, 0.5], &[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bfs_has_higher_error_than_random() {
        let (g, train, labels) = setup();
        let bfs = BfsOrder::new(2).epoch_order(&g, &train, 0);
        let rnd = RandomShuffle::new(2).epoch_order(&g, &train, 0);
        let eb = shuffling_error(&bfs, &labels, 8, 100);
        let er = shuffling_error(&rnd, &labels, 8, 100);
        assert!(
            eb > er * 1.5,
            "bfs error {:.4} should clearly exceed random {:.4}",
            eb,
            er
        );
    }

    #[test]
    fn more_sequences_reduce_error() {
        let (g, train, labels) = setup();
        let e1 = shuffling_error(
            &ProximityAware::new(1, 7).epoch_order(&g, &train, 0),
            &labels,
            8,
            100,
        );
        let e8 = shuffling_error(
            &ProximityAware::new(8, 7).epoch_order(&g, &train, 0),
            &labels,
            8,
            100,
        );
        assert!(
            e8 < e1,
            "8 sequences ({:.4}) should mix better than 1 ({:.4})",
            e8,
            e1
        );
    }

    #[test]
    fn bound_formula() {
        let b = convergence_bound(1000, 8, 200_000_000);
        assert!((b - (8000f64).sqrt() / 2e8).abs() < 1e-12);
    }

    #[test]
    fn empty_order_has_zero_error() {
        assert_eq!(shuffling_error(&[], &[], 4, 10), 0.0);
    }
}
