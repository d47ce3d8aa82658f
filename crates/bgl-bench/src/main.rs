//! `bgl-bench`: one pinned end-to-end harness over the real stack.
//!
//! ```text
//! bgl-bench --workload <name> [--seed <u64>] [--seconds <s>] [--trace 0|1]
//!           [--smoke] [--out <dir>]
//! bgl-bench --all [--repeat <k>] [...]      each run in its own process
//! bgl-bench compare <a> <b>                 files or directories of run JSON
//! bgl-bench manifest                        print BENCHMARK.json
//! ```
//!
//! See README.md for what each workload stresses and how to read the
//! numbers.

mod compare;
mod ingest;
mod layers;
mod names;
mod params;
mod replay;
mod report;
mod rig;
mod serve;
mod timed;
mod train;

use params::Params;
use report::{Outcome, RunInfo};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    repeat: usize,
    /// Set by `--all` / `--repeat` on the runs they spawn: keeps their JSON
    /// files apart.
    tag: Option<String>,
}

fn usage() -> String {
    format!(
        "usage: bgl-bench --workload <{}> [--seed <u64>] [--seconds <s>] [--trace 0|1] \
         [--smoke] [--out <dir>]\n       bgl-bench --all [--repeat <k>] [same options]\n       \
         bgl-bench compare <a.json|dir> <b.json|dir>",
        names::WORKLOADS.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: params::DEFAULT_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        out: None,
        repeat: 1,
        tag: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, flag)?),
            "--all" => a.all = true,
            "--seed" => {
                a.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.traced = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--tag" => a.tag = Some(value(&mut it, flag)?),
            "--repeat" => {
                a.repeat = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if a.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.all == a.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    if let Some(w) = &a.workload {
        if !names::WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(a)
}

/// Pin the kernel pool to the host's cores unless the caller already chose.
fn pin_tensor_threads() -> usize {
    let n = match std::env::var("BGL_TENSOR_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) => n.clamp(1, 64),
        None => {
            let n = report::nproc();
            // Single-threaded here: no other thread exists yet to race the
            // environment.
            std::env::set_var("BGL_TENSOR_THREADS", n.to_string());
            n
        }
    };
    debug_assert_eq!(bgl_tensor::pool::global().threads(), n);
    n
}

fn out_dir(a: &Args) -> PathBuf {
    a.out.clone().unwrap_or_else(rig::scratch_root)
}

/// One workload, in this process.
fn run_workload(a: &Args, workload: &str) -> ExitCode {
    let tensor_threads = pin_tensor_threads();
    let p = if a.smoke {
        Params::smoke()
    } else {
        Params::full()
    };
    let seconds = a
        .seconds
        .unwrap_or(if a.smoke { 1.0 } else { names::RUN_SECONDS });
    let ctx = params::Ctx {
        p: &p,
        seed: a.seed,
        seconds,
    };
    let mut out: Outcome = match (workload, a.traced) {
        ("train-remote", false) => train::run_timed(train::TrainKind::Remote, &ctx),
        ("train-local", false) => train::run_timed(train::TrainKind::Local, &ctx),
        ("train-remote", true) => train::run_traced(train::TrainKind::Remote, &ctx),
        ("train-local", true) => train::run_traced(train::TrainKind::Local, &ctx),
        ("serve-sweep", false) => serve::run_timed(&ctx),
        ("serve-sweep", true) => serve::run_traced(&ctx),
        ("ingest-mixed", false) => ingest::run_timed(&ctx),
        ("ingest-mixed", true) => ingest::run_traced(&ctx),
        _ => unreachable!("parse checked the workload name"),
    };
    names::complete(workload, a.traced, &mut out);
    report::print_lines(workload, &out);
    let scratch = rig::scratch_root();
    let info = RunInfo {
        workload,
        seed: a.seed,
        seconds,
        traced: a.traced,
        params: &p,
        tensor_threads,
        scratch: &scratch,
    };
    let doc = report::to_json(&info, &out);
    let dir = out_dir(a);
    let _ = std::fs::create_dir_all(&dir);
    let file = dir.join(format!(
        "{workload}{}{}.json",
        if a.traced { ".traced" } else { "" },
        a.tag.as_ref().map_or(String::new(), |t| format!(".{t}"))
    ));
    if let Err(e) = std::fs::write(&file, doc.render()) {
        eprintln!("bgl-bench: cannot write {}: {e}", file.display());
        return ExitCode::from(2);
    }
    println!("{}", names::contract_line(&out, a.traced));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--all` and `--repeat`: every run in its own process (so `peak_rss_mb`
/// is per run), one after another, then the summary of what they wrote.
fn run_many(a: &Args, argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bgl-bench: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => names::WORKLOADS.to_vec(),
    };
    // A fresh directory per invocation, so the summary sees only these runs.
    let dir = out_dir(a).join(format!("runs-{}", std::process::id()));
    let mut all_ok = true;
    for workload in workloads {
        for rep in 0..a.repeat {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--tag", &format!("r{rep}"), "--out"])
                .arg(&dir);
            // Pass everything else through, minus what this level consumed.
            let mut it = argv.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--all" => {}
                    "--workload" | "--repeat" | "--out" | "--tag" => {
                        it.next();
                    }
                    other => {
                        cmd.arg(other);
                    }
                }
            }
            match cmd.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("bgl-bench: {workload} run {rep} ended with {status}");
                    all_ok = false;
                }
                Err(e) => {
                    eprintln!("bgl-bench: cannot start {workload} run {rep}: {e}");
                    all_ok = false;
                }
            }
        }
    }
    println!("run documents: {}", dir.display());
    if !a.traced {
        match compare::load(&dir) {
            Ok(samples) => all_ok &= compare::summarize(&samples) || a.repeat < 2,
            Err(e) => {
                eprintln!("bgl-bench: {e}");
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_compare(a: &Path, b: &Path) -> ExitCode {
    match (compare::load(a), compare::load(b)) {
        (Ok(sa), Ok(sb)) => {
            if compare::compare(&sa, &sb) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bgl-bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [a, b] => run_compare(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("bgl-bench: compare takes two paths\n{}", usage());
                ExitCode::from(2)
            }
        };
    }
    if argv.first().map(String::as_str) == Some("manifest") {
        println!("{}", names::manifest().render());
        return ExitCode::SUCCESS;
    }
    let a = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bgl-bench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match &a.workload {
        Some(w) if a.repeat == 1 => run_workload(&a, w),
        _ => run_many(&a, &argv),
    }
}
