//! Regenerate every table and figure from the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p bgl-figures --bin figures -- --all
//! cargo run --release -p bgl-figures --bin figures -- --fig5a --fig5b --small
//! ```
//!
//! Flags: `--fig2 --fig3 --fig5a --fig5b --fig11 --fig12 --fig13 --fig14
//! --fig15 --fig16 --tab3 --tab4 --tab5 --ablate --recovery --profile
//! --all`, plus `--small` (test-scale datasets) and `--out <dir>` (JSON
//! output directory, default `results/`). No flag means `--all`; anything
//! else exits non-zero (see [`bgl_figures::parse_flags`]). Nothing here times the
//! running system: that is `bash crates/bgl-bench/run.sh`.
//!
//! `--profile` (not part of `--all`) closes the §3.4 loop: it runs the
//! real pipeline stages under an enabled [`bgl_obs`] registry, emits a
//! *measured* `StageProfile` (cache `a`/`d` fitted from timed replays at
//! several shard counts), feeds it to the brute-force allocator next to
//! the paper's running example, and writes `profile_stages.json`. With an
//! explicit `--out` it also writes the run's chrome-trace timeline
//! (`profile_trace.json`, loadable in Perfetto / `about:tracing`) there.

use bgl_figures::*;
use bgl::config::ModelKind;
use bgl::experiments::{DatasetId, ExperimentCtx};
use bgl::report::to_json;
use bgl::systems::SystemKind;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args).unwrap_or_else(|msg| {
        eprintln!("figures: {msg}");
        std::process::exit(2);
    });
    let small = flags.small;
    let out_dir = flags.out.clone().unwrap_or_else(|| PathBuf::from("results"));
    let want = |f: &str| flags.want(f);

    let ctx = if small { ExperimentCtx::small() } else { ExperimentCtx::standard() };
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let save = |name: &str, json: &str| {
        let path = out_dir.join(format!("{}.json", name));
        std::fs::write(&path, json).expect("write result json");
        eprintln!("[saved {}]", path.display());
    };

    let section = |title: &str| {
        println!("\n=== {} ===", title);
    };

    if want("fig2") || want("fig3") {
        section("Fig. 2/3 — per-batch breakdown & GPU utilization (DGL, Euler; GraphSAGE, products)");
        let rows: Vec<_> = [SystemKind::Dgl, SystemKind::Euler]
            .iter()
            .map(|&s| ctx.breakdown(s))
            .collect();
        println!("{}", render_breakdown(&rows));
        save("fig2_fig3_breakdown", &to_json(&rows));
    }

    if want("fig5a") {
        section("Fig. 5a — cache policy trade-off (10% cache, papers-like)");
        let rows = ctx.fig5a();
        println!("{}", render_cache(&rows));
        save("fig5a_cache_tradeoff", &to_json(&rows));
    }

    if want("fig5b") {
        section("Fig. 5b — hit ratio vs cache size (papers-like)");
        let rows = ctx.fig5b();
        println!("{}", render_cache(&rows));
        save("fig5b_hit_ratio_vs_size", &to_json(&rows));
    }

    for (flag, id, name) in [
        ("fig11", DatasetId::Products, "Fig. 11 — throughput on Ogbn-products-like"),
        ("fig12", DatasetId::Papers, "Fig. 12 — throughput on Ogbn-papers-like"),
        ("fig13", DatasetId::UserItem, "Fig. 13 — throughput on User-Item-like"),
    ] {
        if want(flag) {
            section(name);
            let rows = ctx.throughput_figure(id);
            println!("{}", render_throughput(&rows));
            save(&format!("{}_throughput", flag), &to_json(&rows));
        }
    }

    if want("tab3") || want("tab4") {
        section("Table 3 — sampling time per epoch / Table 4 — partition cost");
        let rows = ctx.table3();
        println!("{}", render_partition(&rows));
        save("tab3_tab4_partitioning", &to_json(&rows));
    }

    if want("fig14") {
        section("Fig. 14 — feature retrieving time per batch (papers-like)");
        let rows = ctx.fig14(&[1, 2, 4, 8]);
        println!("{}", render_feature_time(&rows));
        save("fig14_feature_time", &to_json(&rows));
    }

    if want("fig15") {
        section("Fig. 15 — resource isolation ablation (GraphSAGE, 4 GPUs)");
        let mut rows = ctx.fig15(DatasetId::Products);
        rows.extend(ctx.fig15(DatasetId::Papers));
        println!("{}", render_throughput(&rows));
        save("fig15_isolation", &to_json(&rows));
    }

    if want("ablate") {
        section("Ablation — PO sequence count (§3.2.2): mixing vs locality");
        let rows = ctx.ablate_sequences(&[1, 2, 5, 10]);
        {
            let mut t = bgl::report::TextTable::new(&[
                "sequences", "shuffling-error", "bound", "fifo-hit@10%",
            ]);
            for r in &rows {
                t.row(&[
                    r.num_sequences.to_string(),
                    format!("{:.4}", r.shuffling_error),
                    format!("{:.5}", r.bound),
                    format!("{:.3}", r.fifo_hit_ratio),
                ]);
            }
            println!("{}", t.render());
        }
        save("ablate_sequences", &to_json(&rows));

        section("Ablation — cache levels (§3.2.3): GPU-only vs GPU+CPU");
        let rows = ctx.ablate_cache_levels();
        {
            let mut t =
                bgl::report::TextTable::new(&["levels", "hit-ratio", "cpu-hit-frac"]);
            for r in &rows {
                t.row(&[
                    r.levels.to_string(),
                    format!("{:.3}", r.hit_ratio),
                    format!("{:.3}", r.cpu_hits_fraction),
                ]);
            }
            println!("{}", t.render());
        }
        save("ablate_cache_levels", &to_json(&rows));

        section("Ablation — partition locality hop depth (§3.3.2, paper j=2)");
        let rows = ctx.ablate_jhop(&[1, 2, 3]);
        {
            let mut t = bgl::report::TextTable::new(&["j", "2hop-locality", "edge-cut"]);
            for r in &rows {
                t.row(&[
                    r.jhop.to_string(),
                    format!("{:.3}", r.khop_locality),
                    format!("{:.3}", r.edge_cut),
                ]);
            }
            println!("{}", t.render());
        }
        save("ablate_jhop", &to_json(&rows));
    }

    if flags.named("profile") {
        section("§3.4 profile→allocate loop — measured vs paper-example (products-like)");
        let mut pctx =
            if small { ExperimentCtx::small() } else { ExperimentCtx::standard() };
        pctx.obs = bgl_obs::Registry::enabled();
        let m = pctx.profile_stages(DatasetId::Products, &[1, 2, 4, 8]);
        println!("{}", render_profile(&m));
        let caps = bgl_exec::allocator::Capacities::paper_testbed();
        let measured = bgl_exec::allocator::solve(&m.profile, &caps);
        let paper =
            bgl_exec::allocator::solve(&bgl_exec::StageProfile::paper_example(), &caps);
        println!("{}", render_allocations(&measured, &paper));
        save("profile_stages", &m.to_json());
        // The trace is a per-run timeline, not a result: it is written
        // only where the caller asked for output, never into `results/`.
        if let Some(dir) = &flags.out {
            let trace_path = dir.join("profile_trace.json");
            std::fs::write(&trace_path, pctx.obs.chrome_trace_json())
                .expect("write profile trace");
            eprintln!("[saved {}]", trace_path.display());
        }
    }

    if want("recovery") {
        section("Recovery — epoch under a mid-epoch primary crash (r=1 vs r=2)");
        let mut rows = ctx.recovery_figure(DatasetId::Products);
        rows.extend(ctx.recovery_figure(DatasetId::Papers));
        println!("{}", render_recovery(&rows));
        save("recovery_under_faults", &to_json(&rows));
    }

    if want("tab5") || want("fig16") {
        section("Table 5 / Fig. 16 — test accuracy & convergence (real CPU training)");
        // Real training runs on its own scale: the full fanout {15,10,5}
        // over the standard products stand-in would take hours of CPU
        // matmuls; a 8K-node variant with fanout {10,5} preserves what the
        // experiment tests (ordering vs convergence) at minutes of cost.
        let acc_ctx = {
            let mut c = if small { ExperimentCtx::small() } else { ExperimentCtx::standard() };
            if !small {
                c.products_nodes = 1 << 13;
                c.fanouts = vec![10, 5];
                c.batch_size = 128;
            }
            c
        };
        let (epochs, hidden) = if small { (3, 16) } else { (10, 32) };
        let mut rows = Vec::new();
        let models = if small {
            vec![ModelKind::GraphSage]
        } else {
            vec![ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gat]
        };
        for model in models {
            rows.extend(acc_ctx.accuracy_experiment(DatasetId::Products, model, epochs, hidden));
        }
        println!("{}", render_accuracy(&rows));
        if want("fig16") {
            println!("{}", render_curves(
                &rows
                    .iter()
                    .filter(|r| r.model == "graphsage")
                    .cloned()
                    .collect::<Vec<_>>(),
            ));
        }
        save("tab5_fig16_accuracy", &to_json(&rows));
    }

    summary(&out_dir);
}

fn summary(out_dir: &std::path::Path) {
    println!("\nAll requested experiments completed. JSON in {}", out_dir.display());
}
