//! Cache replacement policies.
//!
//! All policies manage a fixed array of `capacity` buffer slots and a
//! key → slot map. `lookup` returns the slot on a hit (updating recency /
//! frequency state where the policy keeps any); `insert` picks a slot for a
//! new key and reports which key was evicted. The static policy declines
//! inserts once full — that *is* PaGraph's behaviour (pre-filled, no
//! replacement at runtime).

use bgl_graph::hash::{id_map, IdMap};
use bgl_graph::NodeId;
use serde::{Deserialize, Serialize};

/// Which policy a configuration names (used by experiment harnesses).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    Fifo,
    Lru,
    Lfu,
    StaticDegree,
}

impl PolicyKind {
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fifo => "fifo",
            PolicyKind::Lru => "lru",
            PolicyKind::Lfu => "lfu",
            PolicyKind::StaticDegree => "static",
        }
    }
}

/// A cache replacement policy over `capacity` slots.
pub trait CachePolicy: Send {
    fn kind(&self) -> PolicyKind;

    /// Number of slots.
    fn capacity(&self) -> usize;

    /// Number of occupied slots.
    fn len(&self) -> usize;

    /// True when no slots are occupied.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// On hit: the slot holding `key` (recency/frequency state updated).
    fn lookup(&mut self, key: NodeId) -> Option<u32>;

    /// Admit `key`, returning `(slot, evicted_key)`. `None` means the
    /// policy declines to cache (static policy when full). Inserting a key
    /// that is already resident returns its existing slot.
    fn insert(&mut self, key: NodeId) -> Option<(u32, Option<NodeId>)>;

    /// Non-mutating membership test.
    fn contains(&self, key: NodeId) -> bool;

    /// Drop `key` if resident, returning the slot it occupied. Used by
    /// ingest-driven invalidation — a coherence drop, not an eviction, so
    /// policies must not count it against any replacement state of *other*
    /// keys.
    fn remove(&mut self, key: NodeId) -> Option<u32>;
}

// ---------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------

/// FIFO over a circular slot queue — the paper's pick (§3.2.1). The
/// insertion cursor (`tail`) is the only replacement state; in the real
/// system it is a single atomic shared by the OpenMP insert threads (§4),
/// which is why FIFO's update cost is so much lower than LRU/LFU's.
pub struct Fifo {
    map: IdMap<u32>,
    slots: Vec<Option<NodeId>>,
    tail: usize,
}

impl Fifo {
    pub fn new(capacity: usize) -> Self {
        Fifo { map: id_map(capacity), slots: vec![None; capacity.max(1)], tail: 0 }
    }
}

impl CachePolicy for Fifo {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Fifo
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn lookup(&mut self, key: NodeId) -> Option<u32> {
        self.map.get(&key).copied()
    }

    fn insert(&mut self, key: NodeId) -> Option<(u32, Option<NodeId>)> {
        if let Some(&slot) = self.map.get(&key) {
            return Some((slot, None));
        }
        let slot = self.tail;
        self.tail = (self.tail + 1) % self.slots.len();
        let evicted = self.slots[slot].take();
        if let Some(old) = evicted {
            self.map.remove(&old);
        }
        self.slots[slot] = Some(key);
        self.map.insert(key, slot as u32);
        Some((slot as u32, evicted))
    }

    fn contains(&self, key: NodeId) -> bool {
        self.map.contains_key(&key)
    }

    fn remove(&mut self, key: NodeId) -> Option<u32> {
        let slot = self.map.remove(&key)?;
        // The slot stays parked until the insertion cursor wraps back to
        // it; FIFO order of the surviving keys is untouched.
        self.slots[slot as usize] = None;
        Some(slot)
    }
}

// ---------------------------------------------------------------------
// LRU (O(1), intrusive doubly linked list over slot indices)
// ---------------------------------------------------------------------

const NIL: u32 = u32::MAX;

/// O(1) LRU: hashmap + doubly linked list threaded through slot arrays.
pub struct LruO1 {
    map: IdMap<u32>,
    keys: Vec<NodeId>,
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32, // most recent
    tail: u32, // least recent
    free: Vec<u32>,
}

impl LruO1 {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruO1 {
            map: id_map(capacity),
            keys: vec![0; capacity],
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            head: NIL,
            tail: NIL,
            free: (0..capacity as u32).rev().collect(),
        }
    }

    fn detach(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

impl CachePolicy for LruO1 {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lru
    }

    fn capacity(&self) -> usize {
        self.keys.len()
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn lookup(&mut self, key: NodeId) -> Option<u32> {
        let slot = *self.map.get(&key)?;
        self.detach(slot);
        self.push_front(slot);
        Some(slot)
    }

    fn insert(&mut self, key: NodeId) -> Option<(u32, Option<NodeId>)> {
        if let Some(&slot) = self.map.get(&key) {
            self.detach(slot);
            self.push_front(slot);
            return Some((slot, None));
        }
        let (slot, evicted) = if let Some(slot) = self.free.pop() {
            (slot, None)
        } else {
            let slot = self.tail;
            let old = self.keys[slot as usize];
            self.map.remove(&old);
            self.detach(slot);
            (slot, Some(old))
        };
        self.keys[slot as usize] = key;
        self.map.insert(key, slot);
        self.push_front(slot);
        Some((slot, evicted))
    }

    fn contains(&self, key: NodeId) -> bool {
        self.map.contains_key(&key)
    }

    fn remove(&mut self, key: NodeId) -> Option<u32> {
        let slot = self.map.remove(&key)?;
        self.detach(slot);
        self.free.push(slot);
        Some(slot)
    }
}

// ---------------------------------------------------------------------
// LFU (O(1), Shah–Mitra–Matani frequency-list scheme)
// ---------------------------------------------------------------------

/// O(1) LFU: per-slot frequency counters plus doubly linked lists of slots
/// per frequency value (frequencies form their own linked list, so both
/// increment and evict-minimum are O(1)).
pub struct LfuO1 {
    map: IdMap<u32>,
    keys: Vec<NodeId>,
    freq: Vec<u64>,
    // Slot list links within a frequency bucket.
    prev: Vec<u32>,
    next: Vec<u32>,
    // Frequency buckets: freq value -> (head, tail) slots. New arrivals
    // push at the head; eviction takes the *tail* (the oldest entry of the
    // minimum-frequency bucket), i.e. LFU with FIFO tie-breaking — the
    // variant with sane behaviour on scan-heavy streams. Buckets are kept
    // in a BTreeMap for ordered min lookup; operations are O(log F) with
    // F = number of *distinct* frequencies, effectively constant — the
    // classic O(1) scheme's linked frequency nodes traded for clarity
    // (the smoltcp guide's "simplicity over tricks").
    buckets: std::collections::BTreeMap<u64, (u32, u32)>,
    free: Vec<u32>,
}

impl LfuO1 {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LfuO1 {
            map: id_map(capacity),
            keys: vec![0; capacity],
            freq: vec![0; capacity],
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            buckets: std::collections::BTreeMap::new(),
            free: (0..capacity as u32).rev().collect(),
        }
    }

    fn bucket_remove(&mut self, slot: u32) {
        let f = self.freq[slot as usize];
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p != NIL {
            self.next[p as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
        let &(head, tail) = self.buckets.get(&f).expect("slot's bucket exists");
        let new_head = if head == slot { n } else { head };
        let new_tail = if tail == slot { p } else { tail };
        if new_head == NIL {
            self.buckets.remove(&f);
        } else {
            self.buckets.insert(f, (new_head, new_tail));
        }
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = NIL;
    }

    fn bucket_push(&mut self, slot: u32, f: u64) {
        self.freq[slot as usize] = f;
        let entry = self.buckets.get(&f).copied();
        match entry {
            Some((head, tail)) => {
                self.prev[slot as usize] = NIL;
                self.next[slot as usize] = head;
                self.prev[head as usize] = slot;
                self.buckets.insert(f, (slot, tail));
            }
            None => {
                self.prev[slot as usize] = NIL;
                self.next[slot as usize] = NIL;
                self.buckets.insert(f, (slot, slot));
            }
        }
    }

    fn touch(&mut self, slot: u32) {
        let f = self.freq[slot as usize];
        self.bucket_remove(slot);
        self.bucket_push(slot, f + 1);
    }
}

impl CachePolicy for LfuO1 {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lfu
    }

    fn capacity(&self) -> usize {
        self.keys.len()
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn lookup(&mut self, key: NodeId) -> Option<u32> {
        let slot = *self.map.get(&key)?;
        self.touch(slot);
        Some(slot)
    }

    fn insert(&mut self, key: NodeId) -> Option<(u32, Option<NodeId>)> {
        if let Some(&slot) = self.map.get(&key) {
            self.touch(slot);
            return Some((slot, None));
        }
        let (slot, evicted) = if let Some(slot) = self.free.pop() {
            (slot, None)
        } else {
            // Evict the *oldest* entry of the minimum-frequency bucket.
            let (&_fmin, &(_, tail)) =
                self.buckets.iter().next().expect("full cache has buckets");
            let old = self.keys[tail as usize];
            self.map.remove(&old);
            self.bucket_remove(tail);
            (tail, Some(old))
        };
        self.keys[slot as usize] = key;
        self.map.insert(key, slot);
        self.bucket_push(slot, 1);
        Some((slot, evicted))
    }

    fn contains(&self, key: NodeId) -> bool {
        self.map.contains_key(&key)
    }

    fn remove(&mut self, key: NodeId) -> Option<u32> {
        let slot = self.map.remove(&key)?;
        self.bucket_remove(slot);
        self.free.push(slot);
        Some(slot)
    }
}

// ---------------------------------------------------------------------
// Static (PaGraph)
// ---------------------------------------------------------------------

/// PaGraph's static cache: pre-filled with the predicted hottest nodes
/// (highest degree), never replaced at runtime.
pub struct StaticDegree {
    map: IdMap<u32>,
    capacity: usize,
}

impl StaticDegree {
    /// Pre-fill with `hot_nodes` (ranked hottest first); only the first
    /// `capacity` are admitted.
    pub fn prefilled(capacity: usize, hot_nodes: &[NodeId]) -> Self {
        let capacity = capacity.max(1);
        let map = hot_nodes
            .iter()
            .take(capacity)
            .enumerate()
            .map(|(slot, &v)| (v, slot as u32))
            .collect();
        StaticDegree { map, capacity }
    }
}

impl CachePolicy for StaticDegree {
    fn kind(&self) -> PolicyKind {
        PolicyKind::StaticDegree
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn lookup(&mut self, key: NodeId) -> Option<u32> {
        self.map.get(&key).copied()
    }

    fn insert(&mut self, key: NodeId) -> Option<(u32, Option<NodeId>)> {
        // Already resident: report its slot; otherwise decline (static).
        self.map.get(&key).map(|&s| (s, None))
    }

    fn contains(&self, key: NodeId) -> bool {
        self.map.contains_key(&key)
    }

    fn remove(&mut self, key: NodeId) -> Option<u32> {
        // Static slots never refill (insert declines new keys), so an
        // invalidated hot node stays a store fetch until the next warm().
        self.map.remove(&key)
    }
}

/// Construct a policy of `kind` with `capacity` slots; `hot_nodes` is used
/// only by the static policy.
pub fn make_policy(
    kind: PolicyKind,
    capacity: usize,
    hot_nodes: &[NodeId],
) -> Box<dyn CachePolicy> {
    match kind {
        PolicyKind::Fifo => Box::new(Fifo::new(capacity)),
        PolicyKind::Lru => Box::new(LruO1::new(capacity)),
        PolicyKind::Lfu => Box::new(LfuO1::new(capacity)),
        PolicyKind::StaticDegree => Box::new(StaticDegree::prefilled(capacity, hot_nodes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_evicts_in_insertion_order() {
        let mut c = Fifo::new(3);
        for k in [10, 20, 30] {
            assert_eq!(c.insert(k).unwrap().1, None);
        }
        // Next insert evicts the oldest (10), then 20, then 30.
        assert_eq!(c.insert(40).unwrap().1, Some(10));
        assert_eq!(c.insert(50).unwrap().1, Some(20));
        assert!(c.contains(30) && c.contains(40) && c.contains(50));
        assert!(!c.contains(10));
    }

    #[test]
    fn fifo_hit_does_not_refresh_position() {
        let mut c = Fifo::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.lookup(1).is_some()); // FIFO ignores recency
        assert_eq!(c.insert(3).unwrap().1, Some(1), "1 still evicted first");
    }

    #[test]
    fn fifo_reinsert_resident_is_noop() {
        let mut c = Fifo::new(2);
        c.insert(1);
        c.insert(2);
        let (slot, ev) = c.insert(1).unwrap();
        assert_eq!(ev, None);
        assert_eq!(c.lookup(1), Some(slot));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruO1::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        c.lookup(1); // 1 becomes most recent; 2 is LRU
        assert_eq!(c.insert(4).unwrap().1, Some(2));
        assert!(c.contains(1) && c.contains(3) && c.contains(4));
    }

    #[test]
    fn lru_insert_refreshes() {
        let mut c = LruO1::new(2);
        c.insert(1);
        c.insert(2);
        c.insert(1); // refresh: 2 is now LRU
        assert_eq!(c.insert(3).unwrap().1, Some(2));
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = LfuO1::new(2);
        c.insert(1);
        c.insert(2);
        c.lookup(1);
        c.lookup(1); // freq(1)=3, freq(2)=1
        assert_eq!(c.insert(3).unwrap().1, Some(2));
        assert!(c.contains(1));
    }

    #[test]
    fn lfu_ties_break_fifo_within_bucket() {
        let mut c = LfuO1::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3); // all freq 1; the oldest (1) is the eviction victim
        let evicted = c.insert(4).unwrap().1.unwrap();
        assert_eq!(evicted, 1, "evicts min-freq bucket tail (oldest)");
    }

    #[test]
    fn static_never_replaces() {
        let mut c = StaticDegree::prefilled(2, &[7, 8, 9]);
        assert_eq!(c.len(), 2);
        assert!(c.contains(7) && c.contains(8) && !c.contains(9));
        assert_eq!(c.insert(100), None, "static declines new keys");
        assert!(c.lookup(7).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_never_exceeded() {
        for kind in [PolicyKind::Fifo, PolicyKind::Lru, PolicyKind::Lfu] {
            let mut c = make_policy(kind, 5, &[]);
            for k in 0..100u32 {
                c.insert(k);
                assert!(c.len() <= 5, "{:?} exceeded capacity", kind);
            }
            assert_eq!(c.len(), 5);
        }
    }

    #[test]
    fn remove_frees_capacity_and_forgets_key() {
        for kind in [PolicyKind::Fifo, PolicyKind::Lru, PolicyKind::Lfu] {
            let mut c = make_policy(kind, 2, &[]);
            c.insert(1);
            c.insert(2);
            let slot = c.remove(1).expect("resident key removes");
            assert!(!c.contains(1), "{:?} still contains removed key", kind);
            assert_eq!(c.len(), 1);
            assert_eq!(c.remove(1), None, "double remove is a no-op");
            assert!(c.lookup(1).is_none());
            // The freed slot is reusable and the survivor is untouched.
            let (s2, evicted) = c.insert(3).unwrap();
            assert!(evicted.is_none(), "{:?} evicted {:?} into a free slot", kind, evicted);
            assert!(c.contains(2) && c.contains(3));
            if kind != PolicyKind::Fifo {
                assert_eq!(s2, slot, "{:?} reuses the freed slot", kind);
            }
        }
    }

    #[test]
    fn remove_static_declines_refill() {
        let mut c = StaticDegree::prefilled(2, &[7, 8]);
        assert!(c.remove(7).is_some());
        assert!(!c.contains(7));
        assert_eq!(c.insert(7), None, "static never readmits after invalidate");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut c = Fifo::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert(1);
        assert_eq!(c.insert(2).unwrap().1, Some(1));
    }
}
