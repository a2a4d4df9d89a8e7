//! Deliberate D1 violations: both hash collections, used the way a
//! timing model would iterate them. No tree crate may contain this.

use std::collections::{HashMap, HashSet};

/// Sums a map in hash order.
pub fn sum(m: &HashMap<u64, u64>) -> u64 {
    m.values().sum()
}

/// Counts a set in hash order.
pub fn count(s: &HashSet<u64>) -> usize {
    s.iter().count()
}
