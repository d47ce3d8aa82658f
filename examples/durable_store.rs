//! Durable disk tier: WAL-acked feature updates that survive a torn crash.
//!
//! Walks the third storage level under the GPU/CPU feature caches
//! (DESIGN.md §11): a checksummed paged file behind a buffer pool, with a
//! write-ahead log making every acked update crash-consistent. The crash
//! here is simulated — the tier's files sit on shadow files behind a
//! seeded fault injector, and `crash()` tears the un-fsynced write stream
//! at a deterministic byte — but the recovery path it exercises is the
//! real one.
//!
//! ```text
//! cargo run --release -p bgl --example durable_store
//! ```

use bgl_graph::DatasetSpec;
use bgl_obs::Registry;
use bgl_store::{DiskTierConfig, DurableFeatures, IoFaultPlan};

const UPDATES: usize = 48;
const SEED: u64 = 0xD15C;

fn main() {
    println!("== BGL durable store: WAL, checkpoint, crash, recovery ==\n");
    let reg = Registry::enabled();
    let dir = std::env::temp_dir().join(format!("bgl-durable-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. A small feature store paged out to disk. The fault plan puts both
    //    files on shadow images so step 4 can crash them deterministically.
    let ds = DatasetSpec::products_like().with_nodes(1 << 11).build();
    let dim = ds.features.dim();
    let cfg = DiskTierConfig::default()
        .with_pool_pages(32)
        .with_registry(&reg)
        .with_fault_plan(IoFaultPlan::new(SEED));
    let mut tier = DurableFeatures::create(&dir, &ds.features, cfg).expect("create tier");
    println!(
        "tier: {} nodes x dim {}, SIEVE pool of 32 pages\n  at {}",
        tier.num_nodes(),
        tier.dim(),
        tier.dir().display()
    );

    // 2. First wave of updates. Each one is appended to the WAL and
    //    fsynced before it is acked; the page image goes dirty lazily.
    let touched: Vec<u32> = ds.split.train.iter().copied().step_by(3).take(UPDATES).collect();
    let half = UPDATES / 2;
    for (j, &v) in touched[..half].iter().enumerate() {
        tier.update_row(v, &vec![j as f32 * 0.5; dim]).expect("durable update");
    }
    println!("\nwave 1: {} updates acked (WAL fsync each)", half);

    // 3. Checkpoint: flush every dirty page, fsync the paged file, then
    //    truncate the WAL. Replay work after a crash is bounded by what
    //    came after this point.
    tier.checkpoint().expect("checkpoint");
    println!("checkpoint: pages flushed, WAL reset");

    // 4. Second wave, then a torn crash. Nothing after the checkpoint has
    //    been written back, so these rows live only in the WAL.
    for (j, &v) in touched[half..].iter().enumerate() {
        tier.update_row(v, &vec![100.0 + j as f32 * 0.5; dim]).expect("durable update");
    }
    println!("wave 2: {} updates acked, pages NOT written back", UPDATES - half);
    tier.crash().expect("simulated crash");
    println!("CRASH: un-synced bytes of both files torn at a seeded point");

    // 5. Cold reopen. Recovery truncates the torn WAL tail, redoes any
    //    torn page from the double-write slot, and replays the log.
    let (mut tier, report) =
        DurableFeatures::open(&dir, DiskTierConfig::default().with_registry(&reg))
            .expect("recover tier");
    println!(
        "recovery: {} updates replayed, {} torn WAL bytes truncated, {} dw redo(s)",
        report.replayed_updates, report.torn_wal_bytes, report.dw_redo
    );
    assert_eq!(report.replayed_updates, UPDATES - half);

    // 6. Every acked row — from before AND after the checkpoint — reads
    //    back exactly; every untouched row still matches the dataset.
    // read_row_into appends, so clear the scratch vec between rows.
    let mut row = Vec::new();
    for (j, &v) in touched.iter().enumerate() {
        row.clear();
        tier.read_row_into(v, &mut row).expect("read row");
        let expect = if j < half { j as f32 * 0.5 } else { 100.0 + (j - half) as f32 * 0.5 };
        assert!(row.iter().all(|&x| x == expect), "acked update lost");
    }
    let untouched = (0..ds.graph.num_nodes() as u32)
        .find(|v| !touched.contains(v))
        .expect("an untouched node");
    row.clear();
    tier.read_row_into(untouched, &mut row).expect("read row");
    assert_eq!(&row[..], ds.features.row(untouched), "untouched row changed");
    println!("verified: all {} acked updates present, untouched rows intact", UPDATES);

    // 7. What the tier counted along the way.
    tier.publish_metrics();
    println!("\nstore.disk.* counters:");
    let mut counters = reg.counters();
    counters.sort();
    for (name, value) in counters {
        if name.starts_with("store.disk.") {
            println!("  {:<36} {}", name, value);
        }
    }
    if let Some((_, h)) = reg
        .histograms()
        .into_iter()
        .find(|(k, _)| k == "store.disk.wal_fsync_ns")
    {
        println!(
            "  wal fsync latency: mean {:.1} us, max {:.1} us over {} fsyncs",
            h.mean() / 1e3,
            h.max as f64 / 1e3,
            h.count
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    println!("\ndone.");
}
