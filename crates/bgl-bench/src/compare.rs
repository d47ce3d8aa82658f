//! `bgl-bench compare <a> <b>` and the `--repeat` summary: per (workload,
//! metric) the median, the quartiles and the spread of each side, judged
//! against the metric's bound. A metric whose run-to-run spread exceeds its
//! bound is `unresolved`, never `unchanged`. Only the workloads
//! `BENCHMARK.json` lists can fail either; the others are shown as `not
//! gated`.

use crate::names;
use crate::report::{median, quartiles};
use bgl_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `(workload, metric)` -> the values of every untraced run loaded.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

fn run_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    Ok(files)
}

/// Load the run documents under `path` (one file, or every `*.json` in a
/// directory). Traced runs and files that are not run documents (chrome
/// traces) are skipped: end-to-end metrics are measured with tracing off.
pub fn load(path: &Path) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for file in run_files(path)? {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let (Some(workload), Some(Json::Bool(false)), Some(Json::Obj(metrics))) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("traced"),
            doc.get("metrics"),
        ) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    if samples.is_empty() {
        return Err(format!("{}: no untraced run documents", path.display()));
    }
    Ok(samples)
}

fn gated(workload: &str) -> bool {
    names::GATED_WORKLOADS.iter().any(|(w, _)| *w == workload)
}

struct Side {
    n: usize,
    median: f64,
    q1: f64,
    q3: f64,
}

fn side(values: &[f64]) -> Side {
    let (q1, q3) = quartiles(values);
    Side {
        n: values.len(),
        median: median(values),
        q1,
        q3,
    }
}

/// Interquartile distance as a share of the median (what the acceptance
/// run calls the spread); 0 for a single run.
fn spread(s: &Side) -> f64 {
    if s.n < 2 || s.median == 0.0 {
        0.0
    } else {
        (s.q3 - s.q1) / s.median.abs()
    }
}

/// Print one set of runs: per end-to-end metric and workload the median,
/// quartiles and spread against the bound. Returns false when a spread
/// exceeds its bound.
pub fn summarize(samples: &Samples) -> bool {
    let mut steady = true;
    println!(
        "{:<14} {:<16} {:>3} {:>12} {:>12} {:>12} {:>7} {:>6}  verdict",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    for (def, bound) in names::end_to_end() {
        for ((workload, metric), values) in samples.iter().filter(|((_, m), _)| *m == def.name) {
            let s = side(values);
            let sp = spread(&s);
            let verdict = if s.n < 2 {
                "single run"
            } else if !gated(workload) {
                "not gated"
            } else if sp > bound {
                steady = false;
                "unresolved: spread exceeds bound"
            } else {
                "steady"
            };
            println!(
                "{workload:<14} {metric:<16} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>7.3} {:>6.2}  {verdict}",
                s.n, s.median, s.q1, s.q3, sp, bound
            );
        }
    }
    steady
}

/// Compare `b` (the change) against `a` (the parent). Returns false when an
/// end-to-end metric got worse by more than its bound.
pub fn compare(a: &Samples, b: &Samples) -> bool {
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "a.median", "b.median", "worse", "spread", "bound"
    );
    for (def, bound) in names::end_to_end() {
        for (key, va) in a.iter().filter(|((_, m), _)| *m == def.name) {
            let Some(vb) = b.get(key) else {
                println!("{:<14} {:<16} missing from the second set", key.0, key.1);
                ok &= !gated(&key.0);
                continue;
            };
            let (sa, sb) = (side(va), side(vb));
            // Positive = worse, as a share of the parent's median.
            let change = if sa.median == 0.0 {
                0.0
            } else {
                (sb.median - sa.median) / sa.median.abs()
            };
            let worse = if def.better == "higher" {
                -change
            } else {
                change
            };
            let sp = spread(&sa).max(spread(&sb));
            let verdict = if !gated(&key.0) {
                "not gated"
            } else if sp > bound {
                "unresolved: spread exceeds bound"
            } else if worse > bound {
                ok = false;
                "REGRESSED beyond bound"
            } else {
                "within bound"
            };
            println!(
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>+8.3} {:>7.3} {:>6.2}  {verdict} (n={}/{})",
                key.0, key.1, sa.median, sb.median, worse, sp, bound, sa.n, sb.n
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(workload: &str, metric: &str, values: &[f64]) -> Samples {
        let mut s = Samples::new();
        s.insert((workload.into(), metric.into()), values.to_vec());
        s
    }

    #[test]
    fn regression_beyond_bound_fails_and_noise_is_unresolved() {
        let a = set("train-local", "ops_per_s", &[100.0, 101.0, 99.0, 100.5]);
        assert!(compare(
            &a,
            &set("train-local", "ops_per_s", &[98.0, 99.0, 97.5, 98.5])
        ));
        assert!(!compare(
            &a,
            &set("train-local", "ops_per_s", &[60.0, 61.0, 59.0, 60.5])
        ));
        // Lower is better for latency: a rise beyond the bound regresses.
        let lat = set("serve-sweep", "latency_p50_ms", &[1.0, 1.01, 0.99, 1.0]);
        assert!(!compare(
            &lat,
            &set("serve-sweep", "latency_p50_ms", &[1.5, 1.51, 1.49, 1.5])
        ));
        // A spread wider than the bound resolves nothing, so it cannot fail.
        let noisy = set("train-local", "ops_per_s", &[40.0, 100.0, 160.0, 70.0]);
        assert!(compare(
            &noisy,
            &set("train-local", "ops_per_s", &[20.0, 50.0, 80.0, 35.0])
        ));
        assert!(!summarize(&noisy));
        assert!(summarize(&a));
        // `ingest-mixed` is not in BENCHMARK.json, so it cannot fail a pair.
        assert!(compare(
            &set("ingest-mixed", "ops_per_s", &[100.0, 101.0, 99.0, 100.5]),
            &set("ingest-mixed", "ops_per_s", &[60.0, 61.0, 59.0, 60.5])
        ));
    }
}
