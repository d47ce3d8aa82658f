//! Validation of the threaded 8-stage executor (`bgl_exec::runtime`).
//!
//! Three claims are checked against the real substrate:
//!
//! 1. **Determinism** — the threaded pipeline is bitwise-equivalent to a
//!    serial reference loop: same batch order at the optimizer, same
//!    sampled subgraphs, identical model parameters after the epoch.
//! 2. **Model fidelity** — feeding the executor's *measured* per-stage
//!    service times into the `bgl_sim` tandem-queue model predicts the
//!    measured throughput within tolerance, and the threaded pipeline
//!    beats the all-stages-on-one-thread baseline on a multi-core host.
//! 3. **Robustness** — a primary store-server crash mid-epoch (with r=2
//!    replication) does not abort the epoch, surfaces through the
//!    `exec.store.*` counters, and stopping the executor under full
//!    buffers never deadlocks.

mod common;

use bgl_exec::{run, run_serial, spawn, ExecConfig};
use bgl_obs::{Ledger, Registry};
use bgl_sim::network::RobustnessStats;
use bgl_sim::MILLISECOND;
use bgl_store::{FaultPlan, RetryPolicy};
use common::{EpochRig, RigSpec};
use std::time::Duration;

const FANOUTS: [usize; 2] = [5, 5];
const BATCH: usize = 16;

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.counters()
        .into_iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

/// Satellite 1: the differential test. One seeded epoch through the
/// threaded executor and through the serial inline loop must agree on
/// everything observable — batch order, subgraph digests, per-step
/// losses, and the final parameter vector, bitwise.
#[test]
fn threaded_matches_serial_bitwise() {
    let cfg = ExecConfig::new(FANOUTS.to_vec(), 0xD1FF).with_workers([1, 3, 2, 2, 2, 2, 2, 1]);
    let threaded = run(
        &cfg,
        EpochRig::build(&RigSpec::exec_sized()).into_task(BATCH, 8),
        &Registry::disabled(),
    )
    .expect("threaded epoch");
    let serial = run_serial(
        &cfg,
        EpochRig::build(&RigSpec::exec_sized()).into_task(BATCH, 8),
        &Registry::disabled(),
    )
    .expect("serial epoch");

    assert_eq!(threaded.batches_requested, 8);
    assert_eq!(threaded.batches_trained, 8, "threaded epoch must drain fully");
    assert_eq!(serial.batches_trained, 8);
    // The reorder buffer must deliver batches to the optimizer in index
    // order regardless of worker interleaving.
    assert_eq!(threaded.train_order, (0..8).collect::<Vec<_>>());
    assert_eq!(threaded.train_order, serial.train_order);
    // Identical sampled subgraphs: per-batch RNG streams are keyed by
    // batch index, not by worker.
    assert!(threaded.digests.iter().all(|&d| d != 0), "every batch was sampled");
    assert_eq!(threaded.digests, serial.digests, "sampled subgraphs must match");
    // Identical training trajectory, down to the bit.
    assert_eq!(threaded.losses, serial.losses, "per-step losses must be bitwise equal");
    assert!(!threaded.params.is_empty());
    assert_eq!(threaded.params, serial.params, "parameters must be bitwise identical");
}

/// Satellite 2: simulator-vs-executor validation plus the pipelining
/// speedup.
///
/// Synthetic per-stage service floors (milliseconds, far above debug-build
/// noise) pin the stage times; the run then *measures* them and feeds the
/// measurements into `TandemPipeline::from_measured`. Stages guarded by a
/// shared mutex (cache, store) get single-worker pools so the tandem
/// model's c-fold parallelism assumption actually holds.
#[test]
fn simulator_predicts_measured_throughput() {
    let workers = [1, 4, 2, 1, 1, 1, 2, 1];
    let floors: [u64; 8] = [
        100_000,   // order      0.1 ms
        8_000_000, // sample     8 ms / 4 workers = 2 ms
        2_000_000, // subgraph   2 ms / 2 = 1 ms
        500_000,   // cache-lookup
        1_000_000, // store-fetch
        500_000,   // cache-admit
        1_000_000, // transfer   1 ms / 2 = 0.5 ms
        5_000_000, // train      5 ms — the designed bottleneck
    ];
    let mut cfg = ExecConfig::new(FANOUTS.to_vec(), 0xBE7A).with_workers(workers);
    cfg.synthetic_stage_ns = floors;
    cfg.buffer_cap = 4;

    let reg = Registry::enabled();
    let threaded = run(
        &cfg,
        EpochRig::build(&RigSpec::exec_sized()).into_task(BATCH, 20),
        &reg,
    )
    .expect("threaded epoch");
    let serial = run_serial(
        &cfg,
        EpochRig::build(&RigSpec::exec_sized()).into_task(BATCH, 20),
        &Registry::disabled(),
    )
    .expect("serial epoch");
    assert_eq!(threaded.batches_trained, threaded.batches_requested);
    assert_eq!(serial.batches_trained, threaded.batches_trained);

    // Feed measured service times back into the tandem-queue simulator.
    let predicted = threaded.predict(&workers, cfg.buffer_cap);
    let measured = threaded.throughput();
    let ratio = predicted.throughput() / measured;
    // The sim has no channel/wakeup overhead, so it runs a little hot;
    // outside this band the model and the executor disagree structurally
    // (a serial/threaded confusion would land near 3.6x).
    assert!(
        (0.55..=1.8).contains(&ratio),
        "simulator prediction {:.1} b/s vs measured {:.1} b/s (ratio {:.2}) out of band",
        predicted.throughput(),
        measured,
        ratio
    );

    // Pipelining must beat the one-thread baseline when there are cores
    // to pipeline on. Stage floors are sleeps, so this holds in debug
    // builds too — blocked threads don't compete for CPU.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let speedup = measured / serial.throughput();
    if cores >= 4 {
        assert!(
            speedup > 1.0,
            "threaded {:.1} b/s must beat serial {:.1} b/s on {} cores",
            measured,
            serial.throughput(),
            cores
        );
    }

    // Queue-depth gauges drained back to zero and the obs counters saw
    // the run.
    assert_eq!(
        counter(&reg, "exec.batches.trained"),
        threaded.batches_trained as u64
    );
    assert!(counter(&reg, "exec.sample.edges") > 0);
    assert!(counter(&reg, "exec.pcie.bytes") > 0);
    for (name, depth) in reg.gauges() {
        if name.starts_with("exec.queue.") {
            assert_eq!(depth, 0, "gauge {name} must drain to zero");
        }
    }

}

/// Satellite 3a: a primary server crash mid-epoch under r=2 replication
/// must not abort the epoch, and the store's recovery work must surface
/// through the executor's `exec.store.*` counters.
#[test]
fn epoch_survives_primary_crash() {
    let rig = EpochRig::build(&RigSpec::exec_sized()).map_cluster(|c| {
        c.with_replication(2)
            .with_retry_policy(RetryPolicy { deadline: None, ..RetryPolicy::default() })
            .with_fault_plan(
                FaultPlan::new(0xFA17)
                    .crash(1, 10, 2 * MILLISECOND)
                    .drops(0.02),
            )
            .with_degraded_features(true)
    });
    let cfg = ExecConfig::new(FANOUTS.to_vec(), 0xC4A5).with_workers([1, 2, 1, 1, 2, 1, 1, 1]);
    let reg = Registry::enabled();
    let report = run(&cfg, rig.into_task(BATCH, 20), &reg).expect("epoch survives the crash");

    assert_eq!(report.batches_trained, report.batches_requested);
    assert!(!report.stopped);
    let r = &report.robustness;
    let recovery = r.retries + r.failovers + r.degraded_batches + r.degraded_rows;
    assert!(recovery > 0, "the fault plan must have made the store work for it: {r:?}");
    // The exec.* namespace mirrors the store's whole reliability ledger.
    for (field, value) in RobustnessStats::FIELDS.iter().zip(r.to_array()) {
        assert_eq!(counter(&reg, &format!("exec.store.{field}")), value, "{field}");
    }
    assert_eq!(
        counter(&reg, "exec.batches.trained"),
        report.batches_trained as u64
    );
}

/// Satellite 3b: stop under backpressure. Fill every buffer behind an
/// artificially slow train stage, then stop — the executor must unwind
/// within the watchdog window, with no thread left blocked on a full or
/// empty channel.
#[test]
fn stop_under_backpressure_does_not_deadlock() {
    let mut cfg = ExecConfig::new(FANOUTS.to_vec(), 0x57A7).with_workers([1, 2, 2, 1, 1, 1, 1, 1]);
    cfg.buffer_cap = 1;
    // Train crawls: everything upstream fills its single-slot buffer and
    // blocks in send().
    cfg.synthetic_stage_ns[7] = 300_000_000;

    let task = EpochRig::build(&RigSpec::exec_sized()).into_task(BATCH, 20);
    let handle = spawn(&cfg, task, &Registry::disabled());
    // Let the pipeline wedge itself against the slow sink.
    std::thread::sleep(Duration::from_millis(150));
    handle.stop();

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.join());
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(result) => {
            let report = result.expect("stop is an orderly shutdown, not an error");
            assert!(report.stopped, "report must record the early stop");
            assert!(
                report.batches_trained < report.batches_requested,
                "the epoch cannot have finished in 150ms at 300ms/batch"
            );
        }
        Err(_) => panic!("executor deadlocked: join did not return within the watchdog window"),
    }
}

/// Satellite: a panic inside any stage worker must fail the pipeline with
/// the *originating* stage attributed — both the name and the pipeline
/// index survive propagation through `catch_unwind`, the shared error
/// slot, and `join()`. A seeded fault plan injects the panic at an exact
/// `(stage, batch)` coordinate so the attribution is checkable.
#[test]
fn stage_panic_reports_originating_stage_index() {
    use bgl_exec::{ExecError, ExecFaultPlan};
    for (stage_idx, stage_name) in [(1usize, "sample"), (4usize, "store-fetch")] {
        let cfg = ExecConfig::new(FANOUTS.to_vec(), 0xFA11)
            .with_workers([1, 2, 2, 1, 2, 1, 1, 1])
            .with_faults(ExecFaultPlan::new(9).panic_at_stage(stage_idx, 2));
        let err = run(
            &cfg,
            EpochRig::build(&RigSpec::exec_sized()).into_task(BATCH, 6),
            &Registry::disabled(),
        )
        .expect_err("injected panic must fail the pipeline");
        match err {
            ExecError::StagePanic { stage, stage_index, message } => {
                assert_eq!(stage_index, stage_idx, "index must name the panicking stage");
                assert_eq!(stage, stage_name, "name must agree with the index");
                assert!(
                    message.contains("injected fault"),
                    "panic payload must survive: {message}"
                );
            }
            other => panic!("expected StagePanic, got {other}"),
        }
    }
}
