//! What a workload run produces and how it is written out: named metrics
//! with units, percentile sample counts, correctness checks, attempted /
//! failed counts and run metadata.

use crate::params::Params;
use bgl_obs::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

// ---------------------------------------------------------------------------
// Small statistics helpers
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an ascending slice (`rank = ceil(p * n)`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    if s.is_empty() {
        return 0.0;
    }
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// First and third quartile, by the method of Python's
/// `statistics.quantiles(v, n=4)` ("exclusive"), which is what the driver
/// computes spreads with.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: usize| {
        let pos = q as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + delta * (s[j] - s[j - 1])
    };
    (at(1), at(3))
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The bit patterns of `v`: what "bitwise equal" compares.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile / median, where that applies.
    pub samples: Option<u64>,
    /// Why the value was withheld (it then reads 0), if it was.
    pub invalid: Option<String>,
}

#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form facts for the JSON (leg counts, invalid legs, ...).
    pub notes: Vec<(String, Json)>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples: None,
                invalid: None,
            },
        );
    }

    pub fn put_n(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples: Some(samples as u64),
                invalid: None,
            },
        );
    }

    /// Mark a metric invalid rather than report it: it reads 0 on the result
    /// line and `invalid` everywhere a person looks.
    pub fn withhold(&mut self, name: &str, unit: &'static str, why: String) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value: 0.0,
                unit,
                samples: None,
                invalid: Some(why),
            },
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.value)
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

// ---------------------------------------------------------------------------
// Run metadata
// ---------------------------------------------------------------------------

fn read_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    read_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount_point) = left.split_whitespace().nth(4) else {
            continue;
        };
        let Some(fstype) = right.split_whitespace().next() else {
            continue;
        };
        if abs.starts_with(mount_point) && best.as_ref().is_none_or(|(n, _)| mount_point.len() > *n)
        {
            best = Some((mount_point.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// `git rev-parse HEAD` when the working directory is the root of a git
/// checkout, else "unknown" (the driver's checkouts are not repositories,
/// and git is not sent looking through their parent directories).
pub fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub params: &'a Params,
    pub tensor_threads: usize,
    pub scratch: &'a Path,
}

/// The per-workload JSON document.
pub fn to_json(info: &RunInfo<'_>, out: &Outcome) -> Json {
    let metrics = out
        .metrics
        .iter()
        .map(|(name, m)| {
            let mut fields = vec![
                ("value".to_string(), Json::F64(m.value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ];
            if let Some(n) = m.samples {
                fields.push(("samples".to_string(), Json::U64(n)));
            }
            if let Some(why) = &m.invalid {
                fields.push(("invalid".to_string(), Json::Str(why.clone())));
            }
            (name.clone(), Json::Obj(fields))
        })
        .collect();
    let checks = out
        .checks
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str(c.name.clone())),
                ("ok".to_string(), Json::Bool(c.ok)),
                ("detail".to_string(), Json::Str(c.detail.clone())),
            ])
        })
        .collect();
    let meta = Json::Obj(vec![
        ("git_commit".into(), Json::Str(git_commit())),
        ("nproc".into(), Json::U64(nproc() as u64)),
        ("bgl_tensor_threads".into(), Json::U64(info.tensor_threads as u64)),
        ("scratch_dir".into(), Json::Str(info.scratch.display().to_string())),
        ("scratch_fs".into(), Json::Str(fs_type(info.scratch))),
        (
            "wal_flush_policy".into(),
            Json::Str(
                "fsync-to-ack: every mutation's WAL record is appended and fsynced on each replica \
                 before the ack; no group commit; pages written back lazily; fsync latency is this \
                 sandbox's filesystem, not a disk's"
                    .into(),
            ),
        ),
        // `run.sh` says which it built with: the registry crates, or the
        // offline stand-ins under `offline/` (std locks and channels, another
        // PRNG). Numbers from the two do not compare.
        (
            "dependencies".into(),
            Json::Str(std::env::var("BGL_BENCH_DEPS").unwrap_or_else(|_| "unknown".into())),
        ),
    ]);
    Json::Obj(vec![
        ("workload".into(), Json::Str(info.workload.into())),
        ("seed".into(), Json::U64(info.seed)),
        ("seconds".into(), Json::F64(info.seconds)),
        ("traced".into(), Json::Bool(info.traced)),
        ("correct".into(), Json::Bool(out.correct())),
        ("attempted".into(), Json::U64(out.attempted)),
        ("failed".into(), Json::U64(out.failed)),
        ("metrics".into(), Json::Obj(metrics)),
        ("checks".into(), Json::Arr(checks)),
        ("notes".into(), Json::Obj(out.notes.clone())),
        ("meta".into(), meta),
        ("params".into(), info.params.to_json()),
    ])
}

/// `workload metric value unit` lines, one per metric.
pub fn print_lines(workload: &str, out: &Outcome) {
    for (name, m) in &out.metrics {
        match &m.invalid {
            None => println!("{workload} {name} {} {}", m.value, m.unit),
            Some(why) => println!("{workload} {name} invalid ({why}) {}", m.unit),
        }
    }
    for c in &out.checks {
        println!(
            "{workload} check {} {} {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.5), 5.0);
    }
}
