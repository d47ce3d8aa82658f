//! Recommendation workload: a User-Item-like bipartite graph (the paper's
//! motivating ByteDance dataset) served from a 4-partition distributed
//! store, with BGL vs DGL-like data paths compared on sampling traffic and
//! end-to-end throughput.
//!
//! ```text
//! cargo run --release -p bgl --example recommendation
//! ```

use bgl::config::ModelKind;
use bgl::experiments::{DatasetId, ExperimentCtx};
use bgl::measure::make_partitioner;
use bgl::systems::SystemKind;
use bgl_graph::DatasetSpec;
use bgl_partition::metrics;
use bgl_sim::network::NetworkModel;
use bgl_store::StoreCluster;

fn main() {
    println!("== User-Item recommendation workload ==\n");

    let ds = DatasetSpec::user_item_like().with_nodes(1 << 13).build();
    println!(
        "bipartite graph: {} nodes, {} arcs, 2 classes (click / no-click)",
        ds.graph.num_nodes(),
        ds.graph.num_edges()
    );

    // Partition into 4 stores with both partitioners and compare the
    // cross-partition sampling traffic directly on the wire ledger.
    // Seeds are grouped by their owning server, as the colocated samplers
    // of the real system would (paper §3.1).
    for sys in [SystemKind::Euler, SystemKind::Bgl] {
        let cfg = sys.config();
        let p = make_partitioner(cfg.partitioner, 7).partition(&ds.graph, &ds.split.train, 4);
        let mut cluster = StoreCluster::new(
            ds.graph.clone(),
            ds.features.clone(),
            &p,
            NetworkModel::paper_fabric(),
            7,
        );
        for home in 0..4usize {
            let local: Vec<_> = ds
                .split
                .train
                .iter()
                .copied()
                .filter(|&v| p.part_of(v) == home)
                .take(256)
                .collect();
            for chunk in local.chunks(128) {
                cluster
                    .sample_batch(&[10, 5], chunk, home)
                    .expect("sampling succeeds");
            }
        }
        println!(
            "\n{} partitioning ({}):",
            cfg.partitioner.name(),
            sys.name()
        );
        println!(
            "  cross-server sampling traffic: {:.2} MB over 8 batches",
            cluster.ledger.remote.bytes as f64 / 1e6
        );
        println!(
            "  remote fraction of all bytes:  {:.0}%",
            cluster.ledger.remote_fraction() * 100.0
        );
        println!(
            "  edge cut: {:.2}   train-node imbalance: {:.2}",
            metrics::edge_cut_fraction(&ds.graph, &p),
            metrics::balance_ratio(&p.counts_of(&ds.split.train))
        );
    }

    // End-to-end throughput on the simulated testbed.
    println!("\nsimulated throughput (GraphSAGE, 8 GPUs, User-Item-like):");
    let ctx = ExperimentCtx::small();
    for sys in [SystemKind::Euler, SystemKind::Dgl, SystemKind::Bgl] {
        let row = ctx.throughput(DatasetId::UserItem, sys, ModelKind::GraphSage, 8);
        println!(
            "  {:10} {:>10.0} samples/s   GPU util {:>3.0}%",
            row.system,
            row.samples_per_sec,
            row.gpu_utilization * 100.0
        );
    }

    // Online serving: the same stack behind the micro-batching front-end
    // (`bgl-serve`), answering per-user queries live. Per-user scores are
    // bitwise-identical whether a query runs alone or shares a window —
    // batching is a latency knob, not a numerics knob.
    println!("\nonline serving (micro-batched k-hop inference, test-split users):");
    let (engine, users) = ctx.serve_stack(1, None);
    let reg = bgl_obs::Registry::enabled();
    let mut frontend =
        bgl_serve::ServeFrontend::new(engine, bgl_serve::ServeConfig::default(), &reg);
    frontend.start();
    let handle = frontend.handle();
    let tickets: Vec<_> = users
        .iter()
        .take(8)
        .map(|&u| (u, handle.try_submit(u).expect("queue has room")))
        .collect();
    for (u, t) in tickets {
        let reply = t.wait().expect("query completes");
        let best = reply
            .scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(c, _)| c)
            .unwrap_or(0);
        println!(
            "  user {:>5}  predicted class {}  latency {:>6} us",
            u,
            best,
            reply.latency.as_micros()
        );
    }
    frontend.shutdown();
    let count = |name: &str| {
        reg.counters().into_iter().find(|(k, _)| k == name).map(|(_, v)| v).unwrap_or(0)
    };
    println!(
        "  ledger: {} offered = {} completed + {} failed + {} shed, {} windows",
        count("serve.offered"),
        count("serve.completed"),
        count("serve.failed"),
        count("serve.shed"),
        count("serve.batches")
    );
}
