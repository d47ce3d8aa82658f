//! Properties of the ledger idiom, checked once here so no attach site has
//! to re-check them: whatever sequence of monotone snapshots a [`Mirror`]
//! is shown, the registry ends up equal to the last one; deltas add
//! exactly; unattached and disabled mirrors are inert; an [`AtomicLedger`]
//! shared by threads loses nothing.
//!
//! Seeded LCG streams instead of proptest: bgl-obs stays dependency-free.

use bgl_obs::{ledger, AtomicLedger, Ledger, Mirror, Registry};
use std::collections::BTreeMap;

/// Smallest shape in use: three lanes, one renamed (like `PagerStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Small {
    reads: u64,
    writes: u64,
    redo: u64,
}
ledger!(Small { reads, writes, redo = "redos" });

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Flow {
    bytes: u64,
    messages: u64,
    /// Not a lane: carried by the struct, ignored by the ledger.
    wire_time: u64,
}

/// Largest shape in use: twelve lanes (like `RobustnessStats`), four of
/// them reached through nested structs (like `TrafficLedger`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Wide {
    a: u64,
    b: u64,
    c: u64,
    d: u64,
    e: u64,
    f: u64,
    g: u64,
    backoff_time: u64,
    local: Flow,
    remote: Flow,
}
ledger!(Wide {
    a,
    b,
    c,
    d,
    e,
    f,
    g,
    backoff_time = "backoff_ns",
    local.bytes = "wire.local_bytes",
    local.messages = "wire.local_messages",
    remote.bytes = "wire.remote_bytes",
    remote.messages = "wire.remote_messages",
});

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// A delta with some lanes zero and some large.
    fn delta<L: Ledger>(&mut self) -> L {
        let mut lanes = L::Array::default();
        for lane in lanes.as_mut() {
            *lane = match self.next() % 4 {
                0 => 0,
                1 => self.next() % 3,
                _ => self.next() % 1_000_000,
            };
        }
        L::from_array(lanes)
    }
}

fn counters(reg: &Registry) -> BTreeMap<String, u64> {
    reg.counters().into_iter().collect()
}

/// Every name in `L`'s table exists under `prefix` and equals `want`'s lane.
fn assert_mirrors<L: Ledger>(reg: &Registry, prefix: &str, want: &L) {
    let got = counters(reg);
    assert_eq!(got.len(), L::FIELDS.len(), "exactly one counter per lane");
    for (field, lane) in L::FIELDS.iter().zip(want.to_array().as_ref()) {
        assert_eq!(got[&format!("{prefix}.{field}")], *lane, "{prefix}.{field}");
    }
}

fn check<L: Ledger + Clone + PartialEq + std::fmt::Debug + Sync>(seed: u64) {
    let mut rng = Lcg(seed);
    for case in 0..64 {
        // publish: monotone snapshots, some repeated.
        let reg = Registry::enabled();
        let mut mirror = Mirror::<L>::attach(&reg, "t");
        let mut now = L::default();
        for _ in 0..rng.next() % 12 {
            now.merge(&rng.delta::<L>());
            mirror.publish(&now);
            if rng.next().is_multiple_of(3) {
                mirror.publish(&now);
            }
            assert_mirrors(&reg, "t", &now);
        }

        // record: the registry is the running sum of the deltas.
        let reg = Registry::enabled();
        let mirror = Mirror::<L>::attach(&reg, "r");
        let mut sum = L::default();
        for _ in 0..rng.next() % 12 {
            let delta = rng.delta::<L>();
            mirror.record(&delta);
            sum.merge(&delta);
        }
        assert_mirrors(&reg, "r", &sum);

        // merge / delta_since are lane-wise and inverse on monotone pairs.
        let earlier: L = rng.delta();
        let grown: L = rng.delta();
        let mut later = earlier.clone();
        later.merge(&grown);
        for ((l, e), g) in later
            .to_array()
            .as_ref()
            .iter()
            .zip(earlier.to_array().as_ref())
            .zip(grown.to_array().as_ref())
        {
            assert_eq!(*l, e + g, "case {case}");
        }
        assert_eq!(later.delta_since(&earlier), grown);
        assert_eq!(
            earlier.delta_since(&later),
            L::default(),
            "saturates, never wraps"
        );
        assert_eq!(L::from_array(later.to_array()), later);
    }

    // Unattached, and attached to a disabled registry: nothing happens.
    let busy: L = rng.delta();
    let mut unattached = Mirror::<L>::default();
    unattached.record(&busy);
    unattached.publish(&busy);
    let disabled = Registry::disabled();
    let mut off = Mirror::<L>::attach(&disabled, "off");
    off.record(&busy);
    off.publish(&busy);
    assert!(disabled.counters().is_empty());

    // Four threads folding into one AtomicLedger: the sum is exact.
    let shared = AtomicLedger::<L>::default();
    let mut want = L::default();
    let deltas: Vec<Vec<L>> = (0..4)
        .map(|_| (0..200).map(|_| rng.delta::<L>()).collect())
        .collect();
    for delta in deltas.iter().flatten() {
        want.merge(delta);
    }
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for mine in &deltas {
            let (shared, start) = (&shared, &start);
            s.spawn(move || {
                start.wait();
                for delta in mine {
                    shared.add(delta);
                }
            });
        }
    });
    assert_eq!(shared.snapshot(), want);
}

#[test]
fn mirror_and_atomic_ledger_hold_for_three_lanes() {
    assert_eq!(Small::FIELDS, ["reads", "writes", "redos"]);
    check::<Small>(0x5EED_0003);
}

#[test]
fn mirror_and_atomic_ledger_hold_for_twelve_lanes() {
    assert_eq!(Wide::FIELDS.len(), 12);
    assert_eq!(Wide::FIELDS[7], "backoff_ns");
    assert_eq!(Wide::FIELDS[10], "wire.remote_bytes");
    check::<Wide>(0x5EED_000C);
}

/// A field the table does not list is not part of the ledger: merging
/// leaves it alone and it never reaches the registry.
#[test]
fn unlisted_fields_are_carried_not_counted() {
    let mut total = Wide::default();
    total.remote.wire_time = 7;
    let mut delta = Wide::default();
    delta.remote.bytes = 100;
    delta.remote.wire_time = 5;
    total.merge(&delta);
    assert_eq!(total.remote.bytes, 100);
    assert_eq!(total.remote.wire_time, 7);
    let reg = Registry::enabled();
    Mirror::<Wide>::attach(&reg, "store").publish(&total);
    assert_eq!(counters(&reg)["store.wire.remote_bytes"], 100);
    assert!(counters(&reg)
        .keys()
        .all(|name| !name.contains("wire_time")));
}
