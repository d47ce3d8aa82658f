//! All four workloads at `--smoke` scale, timed and traced: every metric
//! `BENCHMARK.json` names is present, finite and carries its declared unit,
//! every ledger / correctness check passes, and the traced unrolled path's
//! losses equal `run_serial`'s. No timing is asserted.

use bgl_obs::json::{self, Json};
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_bgl-bench");
const WORKLOADS: [&str; 4] = ["train-remote", "train-local", "serve-sweep", "ingest-mixed"];

fn manifest() -> Json {
    let out = Command::new(BIN)
        .arg("manifest")
        .output()
        .expect("run bgl-bench manifest");
    assert!(out.status.success(), "manifest failed");
    json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("manifest is JSON")
}

/// `(name, unit)` of every metric in `section` of the manifest.
fn declared(manifest: &Json, section: &str) -> Vec<(String, String)> {
    manifest
        .get(section)
        .and_then(Json::as_array)
        .expect("manifest section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("metric field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_smoke(workload: &str, traced: bool) -> (String, Json) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{traced}"));
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--smoke",
            "--trace",
            if traced { "1" } else { "0" },
            "--out",
        ])
        .arg(&dir)
        .output()
        .expect("run bgl-bench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} traced={traced} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (
        stdout.clone(),
        json::parse(last).expect("the last line is one JSON object"),
    )
}

fn check_result(workload: &str, traced: bool, manifest: &Json) {
    let (stdout, result) = run_smoke(workload, traced);
    let Json::Obj(fields) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}: result keys"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload} traced={traced}:\n{stdout}"
    );
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}: failed operations"
    );
    assert!(
        !stdout.contains(" FAILED "),
        "{workload}: a check failed:\n{stdout}"
    );

    let wanted = declared(manifest, if traced { "per_layer" } else { "end_to_end" });
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    assert_eq!(
        metrics.len(),
        wanted.len(),
        "{workload} traced={traced}: metric count"
    );
    for (name, unit) in &wanted {
        let m = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{workload}: {name} is not a finite number"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: unit of {name}"
        );
        // Printed by name with its unit as well.
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("{workload} {name} "))
                    && l.ends_with(&format!(" {unit}"))),
            "{workload}: no `{workload} {name} <value> {unit}` line"
        );
        if !traced {
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} must never be 0"
            );
        }
    }
    if traced && workload.starts_with("train-") {
        assert!(
            stdout.contains("check train.unrolled_equals_serial ok"),
            "{workload}:\n{stdout}"
        );
    }
}

#[test]
fn train_remote_smoke() {
    let m = manifest();
    check_result("train-remote", false, &m);
    check_result("train-remote", true, &m);
}

#[test]
fn train_local_smoke() {
    let m = manifest();
    check_result("train-local", false, &m);
    check_result("train-local", true, &m);
}

#[test]
fn serve_sweep_smoke() {
    let m = manifest();
    check_result("serve-sweep", false, &m);
    check_result("serve-sweep", true, &m);
}

#[test]
fn ingest_mixed_smoke() {
    let m = manifest();
    check_result("ingest-mixed", false, &m);
    check_result("ingest-mixed", true, &m);
}

#[test]
fn manifest_matches_the_committed_benchmark_json() {
    let m = manifest();
    let gated: Vec<&str> = m
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert!(gated.iter().all(|w| WORKLOADS.contains(w)));
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&committed).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        json::parse(&text).expect("BENCHMARK.json parses"),
        m,
        "regenerate with `bgl-bench manifest`"
    );
}
