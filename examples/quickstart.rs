//! Quickstart: build a synthetic power-law graph, partition it with the
//! BGL partitioner, train GraphSAGE for a few epochs through the full BGL
//! data path, and report throughput and accuracy — then demonstrate
//! crash-and-resume through the checkpointing executor (DESIGN.md §9).
//!
//! ```text
//! cargo run --release -p bgl --example quickstart
//!
//! # Or drive the crash/resume cycle by hand across two invocations:
//! cargo run --release -p bgl --example quickstart -- \
//!     --ckpt-dir /tmp/bgl-ckpt --crash-at 5     # dies mid-epoch
//! cargo run --release -p bgl --example quickstart -- \
//!     --ckpt-dir /tmp/bgl-ckpt --resume         # finishes it exactly
//! ```

use bgl::experiments::{DatasetId, ExperimentCtx};
use bgl::systems::SystemKind;
use bgl_exec::{
    resume_from, run, CheckpointPolicy, CheckpointStore, EpochTask, ExecConfig, ExecFaultPlan,
};
use bgl_graph::{Dataset, DatasetSpec};
use bgl_gnn::{ModelKind, TrainConfig, Trainer};
use bgl_obs::Registry;
use bgl_sampler::ProximityAware;
use std::path::PathBuf;

struct CkptOpts {
    dir: Option<PathBuf>,
    crash_at: Option<usize>,
    resume: bool,
}

fn parse_args() -> CkptOpts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = CkptOpts { dir: None, crash_at: None, resume: false };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ckpt-dir" => {
                i += 1;
                opts.dir = Some(PathBuf::from(args.get(i).expect("--ckpt-dir needs a path")));
            }
            "--crash-at" => {
                i += 1;
                opts.crash_at = Some(
                    args.get(i)
                        .expect("--crash-at needs a batch index")
                        .parse()
                        .expect("--crash-at takes a batch index"),
                );
            }
            "--resume" => opts.resume = true,
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    opts
}

fn main() {
    let opts = parse_args();
    println!("== BGL quickstart ==\n");

    // 1. A scaled-down Ogbn-products-like dataset (power-law structure,
    //    100-dim features, 47 classes, 8% training nodes).
    let ds = DatasetSpec::products_like().with_nodes(1 << 12).build();
    println!(
        "dataset: {} ({} nodes, {} arcs, {} train nodes, {:.1} MB in memory)",
        ds.name,
        ds.graph.num_nodes(),
        ds.graph.num_edges(),
        ds.split.train.len(),
        ds.memory_bytes() as f64 / 1e6
    );

    // 2. Real training with the proximity-aware ordering (the ordering that
    //    makes BGL's FIFO cache hit, §3.2.2).
    let cfg = TrainConfig {
        model: ModelKind::GraphSage,
        hidden: 32,
        num_layers: 2,
        fanouts: vec![10, 5],
        batch_size: 128,
        epochs: 4,
        lr: 3e-3,
        seed: 1,
    };
    let trainer = Trainer::new(&ds, cfg);
    let ordering = ProximityAware::for_batch(5, 128, 1);
    println!("\ntraining GraphSAGE (2 layers, 32 hidden) for 4 epochs...");
    let history = trainer.run(&ordering);
    for e in &history.epochs {
        println!(
            "  epoch {}: loss {:.3}, train acc {:.3}, test acc {:.3}",
            e.epoch, e.train_loss, e.train_acc, e.test_acc
        );
    }

    // 3. End-to-end throughput of BGL vs DGL-like on the simulated paper
    //    testbed (8xV100 / 100 Gbps / PCIe 3.0).
    println!("\nsimulated testbed throughput (GraphSAGE, 4 GPUs):");
    let ctx = ExperimentCtx::small();
    for sys in [SystemKind::Dgl, SystemKind::Bgl] {
        let row = ctx.throughput(DatasetId::Products, sys, ModelKind::GraphSage, 4);
        println!(
            "  {:10} {:>10.0} samples/s   GPU util {:>3.0}%   cache hit {:.2}",
            row.system,
            row.samples_per_sec,
            row.gpu_utilization * 100.0,
            row.hit_ratio
        );
    }
    // 4. Crash-and-resume through the checkpointing executor: the train
    //    thread snapshots model + Adam state + epoch cursor every few
    //    batches (written atomically off the hot path), and a restart
    //    continues the epoch bitwise-identically to never having crashed.
    checkpoint_section(&ds, &opts);
    println!("\ndone.");
}

/// One executor epoch over `ds`: 8 batches of 64 through the full
/// partition → store → cache → model substrate.
fn exec_task(ds: &Dataset) -> EpochTask {
    let partition = bgl::measure::make_partitioner(SystemKind::Bgl.config().partitioner, 3)
        .partition(&ds.graph, &ds.split.train, 4);
    let cluster = bgl_store::StoreCluster::new(
        ds.graph.clone(),
        ds.features.clone(),
        &partition,
        bgl_sim::network::NetworkModel::paper_fabric(),
        3,
    );
    let cache = bgl_cache::FeatureCacheEngine::new(
        2,
        ds.features.dim(),
        256,
        512,
        bgl_cache::PolicyKind::Fifo,
        &[],
    );
    let model =
        bgl_gnn::make_model(ModelKind::GraphSage, ds.features.dim(), 16, ds.num_classes, 2, 7);
    EpochTask {
        graph: ds.graph.clone(),
        labels: ds.labels.clone(),
        batches: ds.split.train.chunks(64).take(8).map(|c| c.to_vec()).collect(),
        cluster,
        cache,
        model,
        opt: bgl_tensor::Adam::new(1e-3),
    }
}

fn exec_cfg() -> ExecConfig {
    ExecConfig::new(vec![5, 5], 0x9C57).with_workers([1, 2, 2, 1, 2, 1, 1, 1])
}

fn checkpoint_section(ds: &Dataset, opts: &CkptOpts) {
    println!("\n== checkpoint / resume (executor epoch, 8 batches of 64) ==");
    let dir = opts.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("bgl-quickstart-ckpt-{}", std::process::id()))
    });
    let policy = CheckpointPolicy::new(&dir).every(2).retain(3);

    if opts.resume {
        // Second invocation of the manual cycle: load the newest surviving
        // checkpoint and finish the epoch.
        let store = CheckpointStore::open(&policy, &Registry::disabled())
            .expect("open checkpoint dir");
        let (ckpt, rejected) = store
            .load_latest()
            .expect("no checkpoint found — run with --crash-at first");
        println!(
            "resuming from batch cursor {} ({} corrupt checkpoint(s) skipped)",
            ckpt.cursor, rejected
        );
        let report = resume_from(&exec_cfg(), exec_task(ds), &ckpt, &Registry::disabled())
            .expect("resumed epoch");
        println!(
            "resumed epoch finished: {} batches, final loss {:.6}",
            report.batches_trained,
            report.losses.last().copied().unwrap_or(f32::NAN)
        );
        return;
    }

    if let Some(k) = opts.crash_at {
        // First invocation of the manual cycle: die right after batch `k`.
        let cfg = exec_cfg()
            .with_checkpointing(policy)
            .with_faults(ExecFaultPlan::new(1).kill_at_trained(k));
        let report = run(&cfg, exec_task(ds), &Registry::disabled()).expect("crashed run");
        println!(
            "crashed after batch {k}: {} of {} batches trained, checkpoints in {}",
            report.batches_trained,
            report.batches_requested,
            dir.display()
        );
        println!("rerun with `--ckpt-dir {} --resume` to finish the epoch", dir.display());
        return;
    }

    // Self-contained demo: uninterrupted reference, crash after batch 3,
    // resume, and show the final losses agree exactly.
    let _ = std::fs::remove_dir_all(&dir);
    let reference =
        run(&exec_cfg(), exec_task(ds), &Registry::disabled()).expect("reference epoch");
    let crashed = run(
        &exec_cfg()
            .with_checkpointing(policy.clone())
            .with_faults(ExecFaultPlan::new(1).kill_at_trained(3)),
        exec_task(ds),
        &Registry::disabled(),
    )
    .expect("crashed run");
    let store =
        CheckpointStore::open(&policy, &Registry::disabled()).expect("open checkpoint dir");
    let (ckpt, _) = store.load_latest().expect("checkpoint survived the crash");
    let resumed = resume_from(&exec_cfg(), exec_task(ds), &ckpt, &Registry::disabled())
        .expect("resumed epoch");
    println!(
        "reference: {} batches, final loss {:.6}",
        reference.batches_trained,
        reference.losses.last().copied().unwrap()
    );
    println!(
        "crashed:   {} batches (killed after batch 3), newest checkpoint cursor {}",
        crashed.batches_trained, ckpt.cursor
    );
    println!(
        "resumed:   {} batches, final loss {:.6}",
        resumed.batches_trained,
        resumed.losses.last().copied().unwrap()
    );
    assert_eq!(resumed.losses, reference.losses, "resume must replay the epoch exactly");
    assert_eq!(resumed.params, reference.params);
    println!("resume is bitwise-identical to the uninterrupted epoch.");
    let _ = std::fs::remove_dir_all(&dir);
}
