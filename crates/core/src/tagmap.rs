//! A deterministic open-addressed map from `u64` keys to small copyable
//! values.
//!
//! Replaces the `BTreeMap`/`BTreeSet` point-lookup indexes on the kernel
//! hot paths (chain-head lookup, producer→waiter list heads): linear
//! probing over a power-of-two table with backward-shift deletion, no
//! per-node allocation, no tree rebalancing. Raw iteration order is never
//! exposed (snapshots go through [`TagMap::to_sorted_vec`]), so
//! determinism holds trivially (every operation's result depends only on
//! the operation history, not on any hash-seed state — the hash is a
//! fixed multiplicative mix).
// chainiq-analyze: hot-path

/// Reserved key marking an empty probe slot. Instruction tags are
/// monotonically assigned from zero, so `u64::MAX` is never a real key.
const EMPTY_KEY: u64 = u64::MAX;

/// The map. `V` is stored inline beside the key.
#[derive(Debug, Clone)]
pub struct TagMap<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
    len: usize,
}

impl<V: Copy + Default> Default for TagMap<V> {
    fn default() -> Self {
        TagMap::new()
    }
}

impl<V: Copy + Default> TagMap<V> {
    /// An empty map. Allocates on first insert.
    #[must_use]
    pub fn new() -> Self {
        TagMap { keys: Vec::new(), vals: Vec::new(), len: 0 }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        // Fibonacci multiplicative hash; table size is a power of two.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask()
    }

    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(16);
        // chainiq-analyze: allow(H2, doubling growth: amortised to zero once the map reaches its working size)
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
        // chainiq-analyze: allow(H2, doubling growth: amortised to zero once the map reaches its working size)
        let old_vals = std::mem::replace(&mut self.vals, vec![V::default(); new_cap]);
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY_KEY {
                self.insert(k, v);
            }
        }
    }

    /// Inserts or overwrites `key`.
    // chainiq-analyze: hot
    pub fn insert(&mut self, key: u64, val: V) {
        debug_assert_ne!(key, EMPTY_KEY);
        if self.keys.is_empty() || 4 * (self.len + 1) > 3 * self.keys.len() {
            self.grow();
        }
        let mut i = self.bucket(key);
        loop {
            if self.keys[i] == EMPTY_KEY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            if self.keys[i] == key {
                self.vals[i] = val;
                return;
            }
            i = (i + 1) & self.mask();
        }
    }

    /// Looks up `key`.
    // chainiq-analyze: hot
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        if self.keys.is_empty() {
            return None;
        }
        let mut i = self.bucket(key);
        loop {
            if self.keys[i] == key {
                return Some(self.vals[i]);
            }
            if self.keys[i] == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask();
        }
    }

    /// Looks up `key` for in-place mutation.
    // chainiq-analyze: hot
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if self.keys.is_empty() {
            return None;
        }
        let mut i = self.bucket(key);
        loop {
            if self.keys[i] == key {
                return Some(&mut self.vals[i]);
            }
            if self.keys[i] == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask();
        }
    }

    /// Removes `key`, backward-shifting the probe run to keep lookups
    /// tombstone-free.
    // chainiq-analyze: hot
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if self.keys.is_empty() {
            return None;
        }
        let mut i = self.bucket(key);
        loop {
            if self.keys[i] == EMPTY_KEY {
                return None;
            }
            if self.keys[i] == key {
                break;
            }
            i = (i + 1) & self.mask();
        }
        let removed = self.vals[i];
        self.len -= 1;
        // Backward-shift deletion: slide later run members whose home
        // bucket precedes the hole back over it.
        let mask = self.mask();
        let mut hole = i;
        let mut j = (i + 1) & mask;
        while self.keys[j] != EMPTY_KEY {
            let home = self.bucket(self.keys[j]);
            // `j` can move into `hole` iff its home bucket is not inside
            // the (cyclic) open interval (hole, j].
            let between =
                if hole <= j { home > hole && home <= j } else { home > hole || home <= j };
            if !between {
                self.keys[hole] = self.keys[j];
                self.vals[hole] = self.vals[j];
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.keys[hole] = EMPTY_KEY;
        Some(removed)
    }

    /// Drops every entry, keeping the table allocation.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY_KEY);
        self.len = 0;
    }

    /// The live entries in ascending key order — the canonical form for
    /// snapshots and diagnostics (raw table order is an implementation
    /// detail and is never exposed).
    #[must_use]
    pub fn to_sorted_vec(&self) -> Vec<(u64, V)> {
        let mut out: Vec<(u64, V)> = self
            .keys
            .iter()
            .zip(&self.vals)
            .filter(|&(&k, _)| k != EMPTY_KEY)
            .map(|(&k, &v)| (k, v))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_devtest::{prop_assert_eq, prop_check};
    use std::collections::BTreeMap;

    #[test]
    fn basic_ops() {
        let mut m: TagMap<u32> = TagMap::new();
        assert_eq!(m.get(1), None);
        m.insert(1, 10);
        m.insert(2, 20);
        m.insert(1, 11);
        assert_eq!((m.get(1), m.get(2), m.len()), (Some(11), Some(20), 2));
        *m.get_mut(2).unwrap() += 1;
        assert_eq!(m.remove(2), Some(21));
        assert_eq!(m.remove(2), None);
        assert_eq!(m.len(), 1);
        m.clear();
        assert_eq!((m.get(1), m.len()), (None, 0));
    }

    prop_check! {
        /// Agrees with a reference `BTreeMap` under random insert /
        /// overwrite / remove traffic, including clustered keys that
        /// force long probe runs and backward shifts.
        fn matches_reference_map(g, cases = 64) {
            let mut m: TagMap<u64> = TagMap::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            // A small key universe forces heavy collision/removal mixing.
            let universe = g.u64(4..200);
            for step in 0..500u64 {
                let key = g.u64(0..universe);
                match g.pick(3) {
                    0 => {
                        m.insert(key, step);
                        model.insert(key, step);
                    }
                    1 => {
                        prop_assert_eq!(m.remove(key), model.remove(&key), "remove({key})");
                    }
                    _ => {
                        prop_assert_eq!(m.get(key), model.get(&key).copied(), "get({key})");
                    }
                }
                prop_assert_eq!(m.len(), model.len(), "length drifted");
            }
            for (&k, &v) in &model {
                prop_assert_eq!(m.get(k), Some(v), "final get({k})");
            }
        }
    }
}
