//! Typed ledgers and the one way they reach the registry.
//!
//! A *ledger* is a plain struct of `u64` counters (`CacheStats`,
//! `RobustnessStats`, `WalStats`, ...) that its owner bumps directly and
//! callers read directly: it is the source of truth, and it counts whether
//! or not a registry is enabled. [`Ledger`] is what such a struct says about
//! itself, once — which fields are counters and what each is called in the
//! registry — and everything that used to be copied out per field is
//! derived from that one table: [`Ledger::merge`], [`Ledger::delta_since`],
//! the lock-free [`AtomicLedger`], and [`Mirror`], which publishes a ledger
//! into registry counters at the end of an operation.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::{Counter, Registry};

/// A struct of `u64` counters with one table naming them. Implement it
/// with [`ledger!`](crate::ledger!).
pub trait Ledger: Default {
    /// `[u64; N]`: one lane per listed field, in table order.
    type Array: Copy + Default + std::fmt::Debug + AsRef<[u64]> + AsMut<[u64]>;

    /// Registry name of each lane; [`Mirror::attach`] prefixes it.
    const FIELDS: &'static [&'static str];

    /// The listed fields, in table order.
    fn to_array(&self) -> Self::Array;

    /// Overwrite the listed fields; anything else in the struct is not
    /// part of the ledger and is left alone.
    fn set_array(&mut self, lanes: Self::Array);

    /// A ledger holding `lanes` (unlisted fields at their default).
    fn from_array(lanes: Self::Array) -> Self {
        let mut ledger = Self::default();
        ledger.set_array(lanes);
        ledger
    }

    /// Fold another counter set into this one.
    fn merge(&mut self, other: &Self) {
        let mut lanes = self.to_array();
        for (lane, add) in lanes.as_mut().iter_mut().zip(other.to_array().as_ref()) {
            *lane += add;
        }
        self.set_array(lanes);
    }

    /// Field-wise `self - earlier` (saturating): what accumulated between
    /// two snapshots of a monotonic ledger.
    fn delta_since(&self, earlier: &Self) -> Self {
        let mut lanes = self.to_array();
        for (lane, sub) in lanes.as_mut().iter_mut().zip(earlier.to_array().as_ref()) {
            *lane = lane.saturating_sub(*sub);
        }
        Self::from_array(lanes)
    }
}

/// Implement [`Ledger`] for a struct from one list of its counter fields.
///
/// ```
/// #[derive(Default)]
/// struct WalStats { appends: u64, syncs: u64 }
/// bgl_obs::ledger!(WalStats { appends = "wal_appends", syncs = "wal_syncs" });
/// ```
///
/// A field's registry name is its identifier unless `= "name"` says
/// otherwise; a dotted path (`remote.bytes = "wire.remote_bytes"`) reaches
/// into a nested struct and must be named.
#[macro_export]
macro_rules! ledger {
    (@name $field:ident) => { stringify!($field) };
    (@name $($field:ident).+ = $name:literal) => { $name };
    ($ty:ty { $($($field:ident).+ $(= $name:literal)?),+ $(,)? }) => {
        impl $crate::Ledger for $ty {
            type Array = [u64; [$($crate::ledger!(@name $($field).+ $(= $name)?)),+].len()];
            const FIELDS: &'static [&'static str] =
                &[$($crate::ledger!(@name $($field).+ $(= $name)?)),+];
            fn to_array(&self) -> Self::Array {
                [$(self.$($field).+),+]
            }
            fn set_array(&mut self, lanes: Self::Array) {
                let mut lanes = lanes.into_iter();
                $(self.$($field).+ = lanes.next().expect("one lane per listed field");)+
            }
        }
    };
}

/// Publishes a [`Ledger`] into registry counters named
/// `{prefix}.{field}`.
///
/// The default value is unattached; attaching to a disabled registry gives
/// the same thing. Either way [`Mirror::record`] and [`Mirror::publish`]
/// cost one branch, which is what every timed `bgl-bench` run pays at each
/// publish point.
#[derive(Debug, Default)]
pub struct Mirror<L: Ledger> {
    counters: Option<Box<[Counter]>>,
    last: L::Array,
}

impl<L: Ledger> Mirror<L> {
    /// Resolve one counter per field of `L` under `prefix`.
    pub fn attach(reg: &Registry, prefix: &str) -> Self {
        let counters = reg.is_enabled().then(|| {
            L::FIELDS
                .iter()
                .map(|field| reg.counter(&format!("{prefix}.{field}")))
                .collect()
        });
        Mirror {
            counters,
            last: L::Array::default(),
        }
    }

    /// Add a *delta* (not a cumulative snapshot) to the counters.
    pub fn record(&self, delta: &L) {
        if let Some(counters) = &self.counters {
            for (counter, add) in counters.iter().zip(delta.to_array().as_ref()) {
                counter.add(*add);
            }
        }
    }

    /// Publish a cumulative snapshot: add whatever accumulated since the
    /// previous `publish` and remember `now`, so a repeat adds nothing.
    pub fn publish(&mut self, now: &L) {
        if let Some(counters) = &self.counters {
            let now = now.to_array();
            for ((counter, now), last) in counters.iter().zip(now.as_ref()).zip(self.last.as_ref())
            {
                counter.add(now.saturating_sub(*last));
            }
            self.last = now;
        }
    }
}

/// Shared-memory variant of a [`Ledger`]: concurrent callers accumulate
/// deltas into the same lanes lock-free.
pub struct AtomicLedger<L: Ledger> {
    lanes: Box<[AtomicU64]>,
    _ledger: PhantomData<fn() -> L>,
}

impl<L: Ledger> Default for AtomicLedger<L> {
    fn default() -> Self {
        AtomicLedger {
            lanes: L::FIELDS.iter().map(|_| AtomicU64::new(0)).collect(),
            _ledger: PhantomData,
        }
    }
}

impl<L: Ledger> AtomicLedger<L> {
    /// Fold a counter delta into the shared totals.
    pub fn add(&self, delta: &L) {
        for (lane, add) in self.lanes.iter().zip(delta.to_array().as_ref()) {
            lane.fetch_add(*add, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy of the totals.
    pub fn snapshot(&self) -> L {
        let mut lanes = L::Array::default();
        for (out, lane) in lanes.as_mut().iter_mut().zip(self.lanes.iter()) {
            *out = lane.load(Ordering::Relaxed);
        }
        L::from_array(lanes)
    }
}
