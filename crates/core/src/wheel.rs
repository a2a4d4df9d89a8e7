//! A calendar-queue event wheel bucketed by expiry cycle.
//!
//! The v3 kernel schedules *future* readiness records and self-timed
//! eligibility rechecks here instead of keeping them in ordered trees: a
//! cycle with nothing expiring costs one empty-bucket probe, O(1), and
//! scheduling is a push onto the target bucket. Each record stores its
//! full absolute cycle, so entries more than one wheel revolution in the
//! future simply stay in their bucket and are skipped (at one compare per
//! revolution) until their cycle actually arrives — no overflow
//! structure, no sorting, deterministic drain order (ascending cycle,
//! insertion order within a cycle).

use chainiq_isa::Cycle;

/// The event wheel. `T` is the payload revalidated by the consumer at
/// drain time (records are allowed to go stale; the wheel never needs to
/// delete eagerly).
#[derive(Debug, Clone)]
pub struct Wheel<T> {
    buckets: Vec<Vec<(Cycle, T)>>,
    /// Bucket index mask; `buckets.len()` is a power of two.
    mask: u64,
    /// The cycle the wheel was last drained to.
    last: Cycle,
    /// Live records (for occupancy asserts in tests).
    len: usize,
    /// Reusable staging buffer for the catch-up sweep path.
    scratch: Vec<(Cycle, T)>,
}

impl<T: Copy> Wheel<T> {
    /// Creates a wheel of `size` buckets (rounded up to a power of two).
    pub fn new(size: usize) -> Self {
        let size = size.next_power_of_two().max(2);
        Wheel {
            buckets: vec![Vec::new(); size],
            mask: (size - 1) as u64,
            last: 0,
            len: 0,
            scratch: Vec::new(),
        }
    }

    /// Schedules `item` to be returned by the drain covering `cycle`.
    /// `cycle` must be strictly after the last drained cycle.
    #[inline]
    pub fn schedule(&mut self, cycle: Cycle, item: T) {
        debug_assert!(cycle > self.last, "scheduling into the past");
        self.buckets[(cycle & self.mask) as usize].push((cycle, item));
        self.len += 1;
    }

    /// Advances to `now`, appending every record with `cycle <= now` to
    /// `out` (ascending cycle, insertion order within a cycle). Records
    /// a full revolution or more ahead stay put.
    pub fn drain_into(&mut self, now: Cycle, out: &mut Vec<T>) {
        if now <= self.last {
            return;
        }
        let before = out.len();
        let span = now - self.last;
        if span >= self.buckets.len() as u64 {
            // Rare catch-up path (the kernel ticks every cycle): one full
            // sweep visits every bucket, which covers every elapsed
            // cycle; a stable sort restores the ascending-cycle contract
            // (same-cycle records share a bucket, so their relative
            // insertion order survives).
            self.scratch.clear();
            for b in &mut self.buckets {
                b.retain(|&(c, item)| {
                    if c <= now {
                        self.scratch.push((c, item));
                        false
                    } else {
                        true
                    }
                });
            }
            self.scratch.sort_by_key(|&(c, _)| c);
            out.extend(self.scratch.iter().map(|&(_, item)| item));
        } else {
            for c in self.last + 1..=now {
                let b = &mut self.buckets[(c & self.mask) as usize];
                if b.is_empty() {
                    continue;
                }
                b.retain(|&(cyc, item)| {
                    if cyc <= now {
                        out.push(item);
                        false
                    } else {
                        true
                    }
                });
            }
        }
        self.len -= out.len() - before;
        self.last = now;
    }

    /// The earliest cycle in `(last drained, bound)` that holds a record,
    /// or `bound` if none does. Records the consumer will find stale
    /// still count, so the answer may be early but never late. Probes
    /// at most one revolution of buckets before falling back to a scan
    /// of the far-future records.
    pub fn next_due(&self, bound: Cycle) -> Cycle {
        if self.len == 0 {
            return bound;
        }
        // Bucket `c & mask` holds cycles `c, c + size, …` only (every
        // record lies after `last`), so the first probed bucket with a
        // record for exactly its own cycle is the earliest one.
        let end = bound.min(self.last + 1 + self.buckets.len() as u64);
        for c in self.last + 1..end {
            if self.buckets[(c & self.mask) as usize].iter().any(|&(at, _)| at == c) {
                return c;
            }
        }
        if end == bound {
            return bound;
        }
        self.buckets.iter().flatten().map(|&(at, _)| at).min().map_or(bound, |at| at.min(bound))
    }

    /// Withdraws one pending `(cycle, item)` record, keeping the
    /// insertion order of the rest; returns whether one was pending.
    /// For consumers whose [`next_due`](Wheel::next_due) answers must be
    /// exact, so that no stale record may linger.
    pub fn cancel(&mut self, cycle: Cycle, item: T) -> bool
    where
        T: PartialEq,
    {
        if cycle <= self.last {
            return false;
        }
        let b = &mut self.buckets[(cycle & self.mask) as usize];
        let Some(i) = b.iter().position(|&(c, it)| c == cycle && it == item) else {
            return false;
        };
        b.remove(i);
        self.len -= 1;
        true
    }

    /// Empties the wheel and rebases the drain clock to `now` (flush /
    /// snapshot-restore rebuilds).
    pub fn reset(&mut self, now: Cycle) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.last = now;
        self.len = 0;
    }

    /// Number of undelivered records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no records are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pending records in drain order (ascending cycle, insertion
    /// order within a cycle) — the canonical form for snapshots. Raw
    /// bucket layout is an implementation detail and is never exposed.
    #[must_use]
    pub fn entries_sorted(&self) -> Vec<(Cycle, T)> {
        let mut out: Vec<(Cycle, T)> = self.buckets.iter().flatten().copied().collect();
        // Same-cycle records share one bucket, so a stable sort keeps
        // their insertion order.
        out.sort_by_key(|&(c, _)| c);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_devtest::{prop_assert, prop_assert_eq, prop_check};

    #[test]
    fn drains_in_cycle_then_insertion_order() {
        let mut w: Wheel<u32> = Wheel::new(8);
        w.schedule(3, 30);
        w.schedule(1, 10);
        w.schedule(3, 31);
        w.schedule(2, 20);
        let mut out = Vec::new();
        w.drain_into(3, &mut out);
        assert_eq!(out, vec![10, 20, 30, 31]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn far_future_record_survives_revolutions() {
        let mut w: Wheel<u32> = Wheel::new(4);
        w.schedule(1 + 4 * 10, 99); // ten revolutions out, same bucket as cycle 1
        let mut out = Vec::new();
        for now in 1..=40 {
            w.drain_into(now, &mut out);
            assert!(out.is_empty(), "fired early at {now}");
        }
        w.drain_into(41, &mut out);
        assert_eq!(out, vec![99]);
    }

    #[test]
    fn catch_up_gap_covers_every_bucket() {
        let mut w: Wheel<u32> = Wheel::new(4);
        w.schedule(2, 2);
        w.schedule(5, 5);
        w.schedule(100, 100);
        let mut out = Vec::new();
        w.drain_into(50, &mut out); // span >= size: sweep path
        out.sort_unstable();
        assert_eq!(out, vec![2, 5]);
        out.clear();
        w.drain_into(100, &mut out);
        assert_eq!(out, vec![100]);
    }

    #[test]
    fn next_due_finds_the_earliest_record_within_the_bound() {
        let mut w: Wheel<u32> = Wheel::new(4);
        assert_eq!(w.next_due(50), 50, "empty wheel answers the bound");
        w.schedule(3, 0);
        w.schedule(1 + 4 * 10, 1); // far future, shares cycle 1's bucket
        assert_eq!(w.next_due(50), 3);
        assert_eq!(w.next_due(3), 3, "a record at the bound answers the bound");
        assert_eq!(w.next_due(2), 2);
        let mut out = Vec::new();
        w.drain_into(3, &mut out);
        assert_eq!(w.next_due(100), 41, "a far-future record is found past one revolution");
        assert_eq!(w.next_due(30), 30);
        // A record its consumer will drop as stale still counts: the
        // query may answer early, never late.
        w.schedule(7, 2);
        assert_eq!(w.next_due(100), 7);
        for now in 4..7 {
            w.drain_into(now, &mut out);
            assert_eq!(w.next_due(100), 7, "drained to {now}");
        }
        out.clear();
        w.drain_into(7, &mut out);
        assert_eq!(out, vec![2]);
        assert_eq!(w.next_due(100), 41);
    }

    #[test]
    fn cancel_withdraws_one_pending_record() {
        let mut w: Wheel<u32> = Wheel::new(4);
        w.schedule(3, 7);
        w.schedule(3, 8);
        w.schedule(3 + 4, 7); // same bucket, a revolution later
        assert!(w.cancel(3, 7));
        assert!(!w.cancel(3, 7), "only one record was pending");
        assert!(!w.cancel(5, 8), "no record at that cycle");
        assert_eq!(w.len(), 2);
        assert_eq!(w.next_due(100), 3);
        let mut out = Vec::new();
        w.drain_into(3, &mut out);
        assert_eq!(out, vec![8]);
        assert!(!w.cancel(3, 8), "a drained record is no longer pending");
        assert!(w.cancel(7, 7));
        assert!(w.is_empty());
        assert_eq!(w.next_due(100), 100);
    }

    prop_check! {
        /// Against a reference sorted model: any schedule pattern
        /// (including bucket wraparound and far-future expiries) drains
        /// exactly the due set, never early, never late, in
        /// ascending-cycle order.
        fn matches_sorted_model(g, cases = 64) {
            let size = 1usize << g.usize(1..7);
            let mut w: Wheel<u64> = Wheel::new(size);
            // Model: (cycle, seq) pairs still pending.
            let mut pending: Vec<(u64, u64)> = Vec::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..200 {
                if g.bool() {
                    // Schedule between 1 cycle and several revolutions out.
                    let cycle = now + g.u64(1..(4 * size as u64 + 2));
                    w.schedule(cycle, seq);
                    pending.push((cycle, seq));
                    seq += 1;
                } else {
                    now += g.u64(1..(2 * size as u64));
                    let mut out = Vec::new();
                    w.drain_into(now, &mut out);
                    let mut want: Vec<(u64, u64)> =
                        pending.iter().copied().filter(|&(c, _)| c <= now).collect();
                    // Ascending cycle; insertion (seq) order within one.
                    want.sort();
                    pending.retain(|&(c, _)| c > now);
                    prop_assert_eq!(
                        out,
                        want.iter().map(|&(_, s)| s).collect::<Vec<_>>(),
                        "drain to {now} disagrees with model"
                    );
                }
                let bound = now + g.u64(1..(4 * size as u64 + 2));
                let want = pending.iter().map(|&(c, _)| c).filter(|&c| c < bound).min();
                prop_assert_eq!(w.next_due(bound), want.unwrap_or(bound), "next due before {bound}");
            }
            prop_assert!(w.len() == pending.len(), "live-record count drifted");
        }
    }
}
