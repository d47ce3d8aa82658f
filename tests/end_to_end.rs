//! End-to-end experiment shape tests: the qualitative claims of the
//! paper's evaluation section must hold on the small context.

mod common;

use bgl::config::ModelKind;
use bgl::experiments::DatasetId;
use bgl::systems::SystemKind;
use bgl_cache::PolicyKind;

/// §5.2's headline: BGL is the fastest system on every dataset.
#[test]
fn bgl_wins_on_every_dataset() {
    let ctx = common::small_ctx();
    for id in [DatasetId::Products, DatasetId::Papers, DatasetId::UserItem] {
        let mut best_other = 0.0f64;
        let mut bgl = 0.0f64;
        for sys in SystemKind::all() {
            let row = ctx.throughput(id, sys, ModelKind::GraphSage, 4);
            if row.oom {
                continue;
            }
            if sys == SystemKind::Bgl {
                bgl = row.samples_per_sec;
            } else if sys != SystemKind::BglNoIsolation {
                best_other = best_other.max(row.samples_per_sec);
            }
        }
        assert!(
            bgl > best_other,
            "{:?}: bgl {:.0} must beat best baseline {:.0}",
            id,
            bgl,
            best_other
        );
    }
}

/// §5.2's baseline ordering on products: Euler is the slowest system.
#[test]
fn euler_is_slowest_on_products() {
    let ctx = common::small_ctx();
    let euler = ctx
        .throughput(DatasetId::Products, SystemKind::Euler, ModelKind::GraphSage, 1)
        .samples_per_sec;
    for sys in [SystemKind::Dgl, SystemKind::Pyg, SystemKind::PaGraph, SystemKind::Bgl] {
        let other = ctx
            .throughput(DatasetId::Products, sys, ModelKind::GraphSage, 1)
            .samples_per_sec;
        assert!(
            other > euler,
            "{} ({:.0}) should beat euler ({:.0})",
            sys.name(),
            other,
            euler
        );
    }
}

/// §5.2, "Different GNN models": the relative gain of BGL over DGL is
/// smaller on the compute-bound GAT than on GraphSAGE.
#[test]
fn gat_narrows_the_gap() {
    let ctx = common::small_ctx();
    // Measured at 1 GPU: with many GPUs the simulated GPU stage is
    // divided across workers and even GAT stops being compute-bound at
    // this scale, hiding the effect the paper reports.
    let ratio = |model: ModelKind| {
        let bgl = ctx
            .throughput(DatasetId::Products, SystemKind::Bgl, model, 1)
            .samples_per_sec;
        let dgl = ctx
            .throughput(DatasetId::Products, SystemKind::Dgl, model, 1)
            .samples_per_sec;
        bgl / dgl
    };
    let sage_gain = ratio(ModelKind::GraphSage);
    let gat_gain = ratio(ModelKind::Gat);
    assert!(
        gat_gain < sage_gain,
        "gat gain {:.1}x should be below graphsage gain {:.1}x",
        gat_gain,
        sage_gain
    );
    assert!(gat_gain >= 1.0, "bgl never loses: {:.2}", gat_gain);
}

/// §5.2, "Scalability": BGL scales better from 1 to 8 GPUs than DGL.
#[test]
fn bgl_scales_better_than_dgl() {
    let ctx = common::small_ctx();
    let scaling = |sys: SystemKind| {
        let t1 = ctx
            .throughput(DatasetId::Products, sys, ModelKind::GraphSage, 1)
            .samples_per_sec;
        let t8 = ctx
            .throughput(DatasetId::Products, sys, ModelKind::GraphSage, 8)
            .samples_per_sec;
        t8 / t1
    };
    let bgl = scaling(SystemKind::Bgl);
    let dgl = scaling(SystemKind::Dgl);
    assert!(
        bgl >= dgl,
        "bgl scaling {:.2}x should be at least dgl's {:.2}x",
        bgl,
        dgl
    );
}

/// §5.2, "GPU Utilization": with the same backend, BGL's utilization is
/// far above DGL's.
#[test]
fn bgl_utilization_beats_dgl() {
    let ctx = common::small_ctx();
    let bgl = ctx
        .throughput(DatasetId::Products, SystemKind::Bgl, ModelKind::GraphSage, 8)
        .gpu_utilization;
    let dgl = ctx
        .throughput(DatasetId::Products, SystemKind::Dgl, ModelKind::GraphSage, 8)
        .gpu_utilization;
    assert!(
        bgl > 2.0 * dgl,
        "bgl util {:.2} should be at least double dgl's {:.2}",
        bgl,
        dgl
    );
}

/// Fig. 5a: LRU/LFU simulated update overhead far exceeds FIFO's.
#[test]
fn fifo_overhead_is_lowest_among_dynamic_policies() {
    let ctx = common::small_ctx();
    let fifo = ctx.cache_experiment(PolicyKind::Fifo, true, 0.10);
    let lru = ctx.cache_experiment(PolicyKind::Lru, true, 0.10);
    let lfu = ctx.cache_experiment(PolicyKind::Lfu, true, 0.10);
    assert!(fifo.overhead_ms_per_batch < lru.overhead_ms_per_batch);
    assert!(lru.overhead_ms_per_batch <= lfu.overhead_ms_per_batch);
}

/// Fig. 14's shape: BGL's feature retrieval is fastest; no-cache DGL and
/// Euler are the slowest.
#[test]
fn feature_time_ordering() {
    let ctx = common::small_ctx();
    let rows = ctx.fig14(&[1]);
    let get = |name: &str| {
        rows.iter()
            .find(|r| r.system == name)
            .unwrap()
            .feature_ms_per_batch
    };
    assert!(get("bgl") < get("dgl"), "bgl {} !< dgl {}", get("bgl"), get("dgl"));
    assert!(get("bgl") < get("euler"));
    assert!(get("dgl") < get("euler"), "dgl {} !< euler {}", get("dgl"), get("euler"));
}

/// Table 5 with the f16 feature path on: training on rows squeezed through
/// the half-precision wire/cache representation must land within a small
/// delta of full-precision training (the RT-GNN/EVT_AE claim the f16 mode
/// leans on).
#[test]
fn accuracy_delta_under_f16_features_is_small() {
    let ctx32 = common::small_ctx();
    let mut ctx16 = common::small_ctx();
    ctx16.feature_precision = bgl::FeaturePrecision::F16;
    let r32 = ctx32.accuracy_experiment(DatasetId::Products, ModelKind::GraphSage, 4, 16);
    let r16 = ctx16.accuracy_experiment(DatasetId::Products, ModelKind::GraphSage, 4, 16);
    assert_eq!(r32.len(), r16.len());
    for (a, b) in r32.iter().zip(&r16) {
        let delta = (a.final_test_acc - b.final_test_acc).abs();
        assert!(
            delta < 0.05,
            "f16 features moved {} accuracy by {:.3} ({:.3} vs {:.3})",
            a.ordering,
            delta,
            a.final_test_acc,
            b.final_test_acc
        );
    }
}

/// Table 5 at laptop scale: both orderings reach comparable accuracy
/// (convergence is preserved by the shuffling-error tuning).
#[test]
fn accuracy_parity_between_orderings() {
    let ctx = common::small_ctx();
    let rows = ctx.accuracy_experiment(DatasetId::Products, ModelKind::GraphSage, 8, 16);
    assert_eq!(rows.len(), 2);
    let diff = (rows[0].final_test_acc - rows[1].final_test_acc).abs();
    assert!(
        diff < 0.15,
        "orderings diverged: {:?}",
        rows.iter().map(|r| r.final_test_acc).collect::<Vec<_>>()
    );
    // Both learn above chance.
    let chance = 1.0 / 47.0;
    for r in &rows {
        assert!(r.best_test_acc > chance * 1.5, "{} stuck at chance", r.ordering);
    }
}
