//! Shared helpers for the `figures` binary: its command line, and each
//! experiment's result rows rendered as the text tables it prints.

use bgl::experiments::{
    AccuracyRow, BreakdownRow, CacheRow, FeatureTimeRow, PartitionRow, RecoveryRow,
    ThroughputRow,
};
use bgl::profiler::MeasuredProfile;
use bgl::report::TextTable;
use bgl_exec::allocator::Allocation;
use bgl_exec::StageProfile;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Every experiment flag `figures` accepts, without the leading `--`.
/// `--profile` runs only when named; `--all` selects the rest.
const MODES: [&str; 17] = [
    "fig2", "fig3", "fig5a", "fig5b", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "tab3", "tab4", "tab5", "ablate", "recovery", "profile", "all",
];

/// Former `figures` modes that timed the running system, with the
/// `bgl-bench` workload that measures the same thing now.
const RETIRED: [(&str, &str); 4] = [
    ("disk", "train-remote"),
    ("serve", "serve-sweep"),
    ("churn", "ingest-mixed"),
    ("migrate", "ingest-mixed"),
];

/// A parsed `figures` command line.
#[derive(Debug)]
pub struct Flags {
    modes: BTreeSet<&'static str>,
    /// `--small`: test-scale datasets.
    pub small: bool,
    /// `--out <dir>`, when given.
    pub out: Option<PathBuf>,
}

impl Flags {
    /// `mode` was given on the command line.
    pub fn named(&self, mode: &str) -> bool {
        self.modes.contains(mode)
    }

    /// `mode` should run: it was named, or `--all` was.
    pub fn want(&self, mode: &str) -> bool {
        self.named(mode) || self.named("all")
    }
}

/// Parse `figures`' arguments against the closed flag list. No experiment
/// flag means `--all`. Anything outside the list is an error naming the
/// valid flags; a retired mode's error names the `bgl-bench` workload that
/// replaced it.
pub fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags { modes: BTreeSet::new(), small: false, out: None };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let name = arg.strip_prefix("--").unwrap_or("");
        if name == "small" {
            flags.small = true;
        } else if name == "out" {
            let dir = args.next().ok_or("--out needs a directory")?;
            flags.out = Some(PathBuf::from(dir));
        } else if let Some(mode) = MODES.iter().copied().find(|m| *m == name) {
            flags.modes.insert(mode);
        } else if let Some((_, workload)) = RETIRED.iter().find(|(m, _)| *m == name) {
            return Err(format!(
                "{arg} moved to `bash crates/bgl-bench/run.sh --workload {workload}`"
            ));
        } else {
            let valid: Vec<String> = MODES.iter().map(|m| format!("--{m}")).collect();
            return Err(format!(
                "unknown argument {arg}; valid flags: {} --small --out <dir>",
                valid.join(" ")
            ));
        }
    }
    if flags.modes.is_empty() {
        flags.modes.insert("all");
    }
    Ok(flags)
}

/// Render Figs. 11/12/13 rows (one table per model).
pub fn render_throughput(rows: &[ThroughputRow]) -> String {
    let mut t = TextTable::new(&[
        "dataset", "model", "system", "gpus", "samples/s", "gpu-util", "hit-ratio",
    ]);
    for r in rows {
        t.row(&[
            r.dataset.to_string(),
            r.model.to_string(),
            r.system.to_string(),
            r.num_gpus.to_string(),
            if r.oom { "OOM".into() } else { format!("{:.0}", r.samples_per_sec) },
            if r.oom { "-".into() } else { format!("{:.0}%", r.gpu_utilization * 100.0) },
            if r.oom { "-".into() } else { format!("{:.2}", r.hit_ratio) },
        ]);
    }
    t.render()
}

/// Render Fig. 2 / Fig. 3 rows.
pub fn render_breakdown(rows: &[BreakdownRow]) -> String {
    let mut t = TextTable::new(&[
        "system",
        "sampling-ms",
        "feature-ms",
        "compute-ms",
        "preproc-frac",
        "gpu-util",
    ]);
    for r in rows {
        t.row(&[
            r.system.to_string(),
            format!("{:.1}", r.sampling_ms),
            format!("{:.1}", r.feature_ms),
            format!("{:.1}", r.compute_ms),
            format!("{:.0}%", r.preprocessing_fraction * 100.0),
            format!("{:.0}%", r.gpu_utilization * 100.0),
        ]);
    }
    t.render()
}

/// Render Fig. 5 rows.
pub fn render_cache(rows: &[CacheRow]) -> String {
    let mut t = TextTable::new(&[
        "policy", "ordering", "cache-size", "hit-ratio", "overhead-ms/batch",
    ]);
    for r in rows {
        t.row(&[
            r.policy.to_string(),
            if r.proximity_ordering { "proximity".into() } else { "random".into() },
            format!("{:.0}%", r.cache_frac * 100.0),
            format!("{:.3}", r.hit_ratio),
            format!("{:.2}", r.overhead_ms_per_batch),
        ]);
    }
    t.render()
}

/// Render Table 3 / Table 4 rows.
pub fn render_partition(rows: &[PartitionRow]) -> String {
    let mut t = TextTable::new(&[
        "dataset",
        "partitioner",
        "sampling-s/epoch",
        "partition-s",
        "train-imbalance",
    ]);
    for r in rows {
        t.row(&[
            r.dataset.to_string(),
            r.partitioner.to_string(),
            format!("{:.3}", r.sampling_epoch_seconds),
            format!("{:.2}", r.partition_seconds),
            format!("{:.2}", r.train_imbalance),
        ]);
    }
    t.render()
}

/// Render Fig. 14 rows.
pub fn render_feature_time(rows: &[FeatureTimeRow]) -> String {
    let mut t = TextTable::new(&["system", "gpus", "feature-ms/batch", "hit-ratio"]);
    for r in rows {
        t.row(&[
            r.system.to_string(),
            r.num_gpus.to_string(),
            format!("{:.2}", r.feature_ms_per_batch),
            format!("{:.2}", r.hit_ratio),
        ]);
    }
    t.render()
}

/// Render recovery-under-faults rows.
pub fn render_recovery(rows: &[RecoveryRow]) -> String {
    let mut t = TextTable::new(&[
        "dataset",
        "replicas",
        "batches",
        "completed",
        "failed",
        "retries",
        "failovers",
        "backoff-ms",
        "recovery-ms",
    ]);
    for r in rows {
        t.row(&[
            r.dataset.to_string(),
            r.replication.to_string(),
            r.batches_total.to_string(),
            r.batches_completed.to_string(),
            r.batches_failed.to_string(),
            r.robustness.retries.to_string(),
            r.robustness.failovers.to_string(),
            format!("{:.2}", r.backoff_ms),
            format!("{:.2}", r.recovery_ms),
        ]);
    }
    t.render()
}

/// Render Table 5 / Fig. 16 rows.
pub fn render_accuracy(rows: &[AccuracyRow]) -> String {
    let mut t = TextTable::new(&["dataset", "model", "ordering", "final-acc", "best-acc"]);
    for r in rows {
        t.row(&[
            r.dataset.to_string(),
            r.model.to_string(),
            r.ordering.to_string(),
            format!("{:.3}", r.final_test_acc),
            format!("{:.3}", r.best_test_acc),
        ]);
    }
    t.render()
}

/// Render a measured stage profile (`figures --profile`): per-stage
/// quantities plus the raw cache-scaling samples behind the fit.
pub fn render_profile(m: &MeasuredProfile) -> String {
    let p = &m.profile;
    let mut t = TextTable::new(&["stage", "value", "unit"]);
    t.row(&["t1 sample-requests".into(), format!("{:.6}", p.t1), "s/batch".into()]);
    t.row(&["t2 construct-subgraphs".into(), format!("{:.6}", p.t2), "s/batch".into()]);
    t.row(&["t_net network".into(), format!("{:.6}", p.t_net), "s/batch".into()]);
    t.row(&["t3 subgraph-processing".into(), format!("{:.6}", p.t3), "s/batch".into()]);
    t.row(&["d_i pcie-subgraph".into(), format!("{:.0}", p.d_i), "bytes/batch".into()]);
    t.row(&["cache_a (fitted)".into(), format!("{:.6}", p.cache_a), "s/batch".into()]);
    t.row(&["cache_d (fitted)".into(), format!("{:.6}", p.cache_d), "s/batch".into()]);
    t.row(&["cache_knee".into(), p.cache_knee.to_string(), "cores".into()]);
    t.row(&["d_ii pcie-features".into(), format!("{:.0}", p.d_ii), "bytes/batch".into()]);
    t.row(&["t_gpu gpu-compute".into(), format!("{:.6}", p.t_gpu), "s/batch".into()]);
    let mut out = format!(
        "measured on {} ({} batches of {}, wall {:.2}s)\n{}",
        m.dataset,
        m.num_batches,
        m.batch_size,
        m.wall_seconds,
        t.render()
    );
    let mut c = TextTable::new(&["cache-cores", "s/batch (measured)", "s/batch (fit)"]);
    for s in &m.cache_samples {
        let fitted = p.cache_a / s.cores.max(1) as f64 + p.cache_d;
        c.row(&[
            s.cores.to_string(),
            format!("{:.6}", s.seconds_per_batch),
            format!("{:.6}", fitted),
        ]);
    }
    out.push_str(&format!(
        "cache fit f(c) = a/c + d, rms residual {:.2e} s\n{}",
        m.fit_residual,
        c.render()
    ));
    out
}

/// Render the §3.4 solver's output on the measured profile next to the
/// paper's running example, one row per allocation.
pub fn render_allocations(measured: &Allocation, paper: &Allocation) -> String {
    let mut t = TextTable::new(&[
        "profile", "c1", "c2", "c3", "c4", "b_I", "b_II", "bottleneck-s", "bound-stage",
    ]);
    for (name, a) in [("measured", measured), ("paper-example", paper)] {
        let bound = a
            .stage_times
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.total_cmp(y.1))
            .map(|(i, _)| StageProfile::stage_names()[i])
            .unwrap_or("-");
        t.row(&[
            name.into(),
            a.c1.to_string(),
            a.c2.to_string(),
            a.c3.to_string(),
            a.c4.to_string(),
            a.b_i.to_string(),
            a.b_ii.to_string(),
            format!("{:.6}", a.bottleneck),
            bound.into(),
        ]);
    }
    t.render()
}

/// Render a convergence curve as "epoch: acc" lines (Fig. 16).
pub fn render_curves(rows: &[AccuracyRow]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!("{} / {} / {}:\n", r.dataset, r.model, r.ordering));
        for (e, acc) in r.curve.iter().enumerate() {
            out.push_str(&format!("  epoch {:>2}: {:.3}\n", e, acc));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl::experiments::{DatasetId, ExperimentCtx};
    use bgl::config::ModelKind;
    use bgl::systems::SystemKind;

    #[test]
    fn renderers_produce_tables() {
        let ctx = ExperimentCtx::small();
        let row = ctx.throughput(
            DatasetId::Products,
            SystemKind::Bgl,
            ModelKind::Gcn,
            1,
        );
        let s = render_throughput(&[row]);
        assert!(s.contains("samples/s"));
        assert!(s.contains("bgl"));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn empty_args_mean_all() {
        let f = parse_flags(&[]).unwrap();
        assert!(f.named("all") && f.want("fig11") && !f.named("profile"));
        assert!(!f.small && f.out.is_none());
        // Modifiers alone still mean --all.
        let f = parse_flags(&args(&["--small", "--out", "/tmp/x"])).unwrap();
        assert!(f.small && f.want("tab3"));
        assert_eq!(f.out, Some(PathBuf::from("/tmp/x")));
    }

    #[test]
    fn named_modes_select_only_themselves() {
        let f = parse_flags(&args(&["--fig5a", "--profile"])).unwrap();
        assert!(f.want("fig5a") && f.named("profile"));
        assert!(!f.want("fig5b") && !f.named("all"));
    }

    #[test]
    fn unknown_flag_is_rejected_with_the_valid_list() {
        for bad in ["--fig99", "fig2", "--", "-small"] {
            let err = parse_flags(&args(&["--fig2", bad])).unwrap_err();
            assert!(err.contains(bad) && err.contains("--fig5a") && err.contains("--out <dir>"));
        }
        assert!(parse_flags(&args(&["--out"])).unwrap_err().contains("directory"));
    }

    #[test]
    fn retired_flag_points_at_bgl_bench() {
        for flag in ["--disk", "--serve", "--churn", "--migrate"] {
            let err = parse_flags(&args(&[flag, "--small"])).unwrap_err();
            assert!(err.contains("moved to `bash crates/bgl-bench/run.sh --workload"), "{err}");
            assert!(err.starts_with(flag), "{err}");
        }
        let err = parse_flags(&args(&["--serve"])).unwrap_err();
        assert!(err.ends_with("--workload serve-sweep`"), "{err}");
    }
}
