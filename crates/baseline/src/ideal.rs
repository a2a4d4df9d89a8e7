//! The idealized monolithic conventional queue.

use chainiq_core::{
    DispatchInfo, DispatchStall, FuPool, InstTag, IqStats, IssueQueue, IssuedInst, QuietCycle,
    TagMap, WaiterLists, Wheel,
};
use chainiq_isa::{Cycle, OpClass};

#[derive(Debug, Clone, Copy)]
struct DataOperand {
    producer: InstTag,
    ready_at: Option<Cycle>,
}

#[derive(Debug, Clone)]
struct Entry {
    tag: InstTag,
    op: OpClass,
    ops: [Option<DataOperand>; 2],
    entered_at: Cycle,
}

impl Entry {
    /// The first cycle this entry may be selected, or `None` while a
    /// producer is unannounced.
    fn selectable_at(&self) -> Option<Cycle> {
        let mut at = self.entered_at + 1;
        for o in self.ops.iter().flatten() {
            at = at.max(o.ready_at?);
        }
        Some(at)
    }
}

/// An idealized, single-cycle, monolithic instruction queue: full
/// associative wakeup over every slot, oldest-first select, no
/// complexity penalty regardless of size.
///
/// This is the paper's upper bound ("ideal IQ"). Its cycle time would in
/// reality grow quadratically with capacity [Palacharla et al.]; the
/// comparison in Figure 2/3 is IPC-only, with the clock advantage of the
/// segmented design argued separately.
///
/// The simulation is indexed so that no path rescans the window: entries
/// live in a recycled slab addressed through a [`TagMap`], a producer's
/// announcement walks only its consumers' intrusive waiter lists, and
/// each entry whose operands are all announced is in exactly one place —
/// on a calendar [`Wheel`] at the cycle it becomes selectable, or, once
/// that cycle has been drained, in the tag-ordered `ready` set that
/// selection walks.
#[derive(Debug, Clone)]
pub struct IdealIq {
    capacity: usize,
    /// Entry slab; slots are recycled LIFO and hold stale data while
    /// free.
    slots: Vec<Entry>,
    free_slots: Vec<u32>,
    /// Tag → slab slot for every queued instruction.
    by_tag: TagMap<u32>,
    /// Queued slots in the order the `baseline.ideal` image lists them:
    /// dispatch appends, issue `swap_remove`s.
    order: Vec<u32>,
    /// Each slot's index in `order` (slab-parallel).
    order_pos: Vec<u32>,
    /// The operands waiting on each producer's announcement; node
    /// `2 * slot + k` is slot `slot`'s operand `k`.
    waiters: WaiterLists,
    /// Entries that become selectable after `drained_to`, keyed by that
    /// cycle. A re-announcement that moves the cycle cancels the old
    /// record, so every record is live and `next_due` is exact.
    selectable: Wheel<InstTag>,
    /// Entries selectable by `drained_to`, in ascending tag (age) order.
    ready: Vec<InstTag>,
    /// The cycle `selectable` was last drained to.
    drained_to: Cycle,
    stats: IqStats,
    /// Scratch for the records one drain delivers (not serialized).
    drain_scratch: Vec<InstTag>,
}

impl IdealIq {
    /// Creates an empty queue with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        IdealIq {
            capacity,
            slots: Vec::with_capacity(capacity),
            free_slots: Vec::new(),
            by_tag: TagMap::new(),
            order: Vec::with_capacity(capacity),
            order_pos: Vec::with_capacity(capacity),
            waiters: WaiterLists::default(),
            // Most entries become selectable within a few cycles of an
            // event; a memory miss lands a revolution or two out.
            selectable: Wheel::new(256),
            ready: Vec::with_capacity(capacity),
            drained_to: 0,
            stats: IqStats::default(),
            drain_scratch: Vec::new(),
        }
    }

    /// Queues `entry` at the end of `order`, in a free slab slot, on its
    /// producers' waiter lists, and on the wheel or in `ready` once all
    /// its operands are announced.
    fn insert(&mut self, entry: Entry) {
        let (tag, ops, at) = (entry.tag, entry.ops, entry.selectable_at());
        let slot = if let Some(s) = self.free_slots.pop() {
            self.slots[s as usize] = entry;
            s
        } else {
            self.slots.push(entry);
            self.order_pos.push(0);
            self.waiters.grow(2 * self.slots.len());
            (self.slots.len() - 1) as u32
        };
        self.order_pos[slot as usize] = self.order.len() as u32;
        self.order.push(slot);
        self.by_tag.insert(tag.0, slot);
        for (k, o) in ops.iter().enumerate() {
            if let Some(o) = o {
                self.waiters.push(o.producer, 2 * slot + k as u32);
            }
        }
        if let Some(at) = at {
            self.place(tag, at);
        }
    }

    /// Files `tag`, selectable from `at`, in the ready set or on the wheel.
    fn place(&mut self, tag: InstTag, at: Cycle) {
        if at <= self.drained_to {
            if let Err(pos) = self.ready.binary_search(&tag) {
                self.ready.insert(pos, tag);
            }
        } else {
            self.selectable.schedule(at, tag);
        }
    }

    /// Moves `tag` from where selectability `old` filed it to where `new`
    /// files it.
    fn refile(&mut self, tag: InstTag, old: Option<Cycle>, new: Option<Cycle>) {
        let Some(new) = new else { return };
        match old {
            Some(o) if o == new => return,
            Some(o) if o <= self.drained_to => {
                if new <= self.drained_to {
                    return;
                }
                if let Ok(pos) = self.ready.binary_search(&tag) {
                    self.ready.remove(pos);
                }
            }
            Some(o) => {
                let found = self.selectable.cancel(o, tag);
                debug_assert!(found, "a pending entry has its wheel record");
            }
            None => {}
        }
        self.place(tag, new);
    }

    /// Moves every entry that became selectable by `now` into the ready
    /// set.
    fn drain(&mut self, now: Cycle) {
        if now <= self.drained_to {
            return;
        }
        let mut due = std::mem::take(&mut self.drain_scratch);
        self.selectable.drain_into(now, &mut due);
        self.drained_to = now;
        for &tag in &due {
            debug_assert!(
                self.by_tag
                    .get(tag.0)
                    .and_then(|s| self.slots[s as usize].selectable_at())
                    .is_some_and(|at| at <= now),
                "wheel records are exact"
            );
            self.place(tag, now);
        }
        due.clear();
        self.drain_scratch = due;
    }

    /// Removes the entry in `slot` from the slab, `order` and its
    /// producers' waiter lists; the caller drops it from `ready`.
    fn remove_slot(&mut self, slot: u32) {
        let e = &self.slots[slot as usize];
        self.by_tag.remove(e.tag.0);
        for (k, o) in e.ops.iter().enumerate() {
            if let Some(o) = o {
                self.waiters.remove(o.producer, 2 * slot + k as u32);
            }
        }
        let pos = self.order_pos[slot as usize] as usize;
        self.order.swap_remove(pos);
        if let Some(&moved) = self.order.get(pos) {
            self.order_pos[moved as usize] = pos as u32;
        }
        self.free_slots.push(slot);
    }
}

impl IssueQueue for IdealIq {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn occupancy(&self) -> usize {
        self.order.len()
    }

    fn tick(&mut self, _now: Cycle, _execution_idle: bool) {
        self.stats.cycles += 1;
        self.stats.occupancy_accum += self.order.len() as u64;
    }

    fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
        if self.order.len() >= self.capacity {
            self.stats.stalls_full += 1;
            return Err(DispatchStall::QueueFull);
        }
        let mut ops = [None, None];
        for (i, s) in info.srcs.iter().enumerate() {
            if let Some(s) = s {
                if let Some(producer) = s.producer {
                    ops[i] = Some(DataOperand { producer, ready_at: s.known_ready_at });
                }
            }
        }
        self.insert(Entry { tag: info.tag, op: info.op, ops, entered_at: now });
        self.stats.dispatched += 1;
        Ok(())
    }

    fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
        let mut issued = Vec::new();
        self.select_issue_into(now, fus, &mut issued);
        issued
    }

    fn select_issue_into(&mut self, now: Cycle, fus: &mut FuPool, out: &mut Vec<IssuedInst>) {
        self.drain(now);
        let before = out.len();
        for i in 0..self.ready.len() {
            if fus.slots_left() == 0 {
                break;
            }
            let tag = self.ready[i];
            let Some(slot) = self.by_tag.get(tag.0) else { continue };
            let op = self.slots[slot as usize].op;
            if !fus.try_issue(now, op) {
                continue;
            }
            self.remove_slot(slot);
            out.push(IssuedInst { tag, op });
        }
        // The issued tags are a subsequence of `ready`.
        let issued = &out[before..];
        if !issued.is_empty() {
            let mut k = 0;
            self.ready.retain(|&t| {
                let hit = issued.get(k).is_some_and(|i| i.tag == t);
                k += usize::from(hit);
                !hit
            });
        }
        self.stats.issued += issued.len() as u64;
    }

    fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
        let mut cur = self.waiters.first(producer);
        while let Some(node) = cur {
            let (slot, k) = ((node / 2) as usize, (node % 2) as usize);
            let e = &mut self.slots[slot];
            let old = e.selectable_at();
            if let Some(o) = e.ops[k].as_mut() {
                debug_assert_eq!(o.producer, producer, "waiter node on the wrong producer list");
                o.ready_at = Some(ready_at);
            }
            let (tag, new) = (e.tag, e.selectable_at());
            self.refile(tag, old, new);
            cur = self.waiters.next(node);
        }
    }

    fn flush(&mut self) {
        self.slots.clear();
        self.free_slots.clear();
        self.by_tag.clear();
        self.order.clear();
        self.order_pos.clear();
        self.waiters.clear();
        self.selectable.reset(self.drained_to);
        self.ready.clear();
    }

    fn stats(&self) -> IqStats {
        self.stats
    }

    /// The ideal queue acts only by issuing, so it sleeps until its first
    /// entry becomes selectable.
    fn next_event(&self, quiet: &QuietCycle) -> Cycle {
        if !self.ready.is_empty() {
            return quiet.now + 1;
        }
        self.selectable.next_due(Cycle::MAX).max(quiet.now + 1)
    }

    fn skip_quiet(&mut self, quiet: &QuietCycle, k: u64) {
        self.stats.cycles += k;
        self.stats.occupancy_accum += k * self.order.len() as u64;
        if quiet.refused.is_some() {
            self.stats.stalls_full += k;
        }
    }
}

chainiq_ckpt::pack_fields!(DataOperand { producer, ready_at });

chainiq_ckpt::pack_fields!(Entry { tag, op, ops, entered_at });

impl chainiq_ckpt::Snapshot for IdealIq {
    const COMPONENT: &'static str = "baseline.ideal";
    const VERSION: u16 = 1;

    /// The image lists the entries in `order` (the original `Vec`'s
    /// order); every index is rebuilt from them on restore.
    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        self.capacity.pack(w);
        w.put_u64(self.order.len() as u64);
        for &s in &self.order {
            self.slots[s as usize].pack(w);
        }
        self.stats.pack(w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let corrupt =
            |context: &str| chainiq_ckpt::CkptError::Corrupt { context: context.to_string() };
        let capacity: usize = Pack::unpack(r)?;
        if capacity != self.capacity {
            return Err(corrupt("ideal IQ capacity differs from the running queue"));
        }
        let entries: Vec<Entry> = Pack::unpack(r)?;
        if entries.len() > capacity {
            return Err(corrupt("ideal IQ occupancy exceeds its capacity"));
        }
        let stats: IqStats = Pack::unpack(r)?;
        // The image carries no clock, so the wheel restarts at cycle 0
        // and the first drain catches every entry up.
        self.drained_to = 0;
        self.flush();
        for e in entries {
            if self.by_tag.get(e.tag.0).is_some() {
                return Err(corrupt("ideal IQ repeats a tag"));
            }
            self.insert(e);
        }
        self.stats = stats;
        Ok(())
    }
}

/// The ideal queue as it was first written: one `Vec` of entries,
/// rescanned by every announcement, selection and horizon query. It is
/// the reference the indexed queue is checked against.
#[cfg(test)]
mod scan {
    use super::{DataOperand, Entry};
    use chainiq_core::{
        DispatchInfo, DispatchStall, FuPool, InstTag, IqStats, IssueQueue, IssuedInst, QuietCycle,
    };
    use chainiq_isa::Cycle;

    fn ready(e: &Entry, now: Cycle) -> bool {
        e.ops.iter().flatten().all(|o| o.ready_at.map(|r| r <= now).unwrap_or(false))
    }

    #[derive(Debug, Clone)]
    pub(super) struct ScanIdealIq {
        capacity: usize,
        entries: Vec<Entry>,
        stats: IqStats,
    }

    impl ScanIdealIq {
        pub(super) fn new(capacity: usize) -> Self {
            ScanIdealIq { capacity, entries: Vec::new(), stats: IqStats::default() }
        }
    }

    impl IssueQueue for ScanIdealIq {
        fn capacity(&self) -> usize {
            self.capacity
        }

        fn occupancy(&self) -> usize {
            self.entries.len()
        }

        fn tick(&mut self, _now: Cycle, _execution_idle: bool) {
            self.stats.cycles += 1;
            self.stats.occupancy_accum += self.entries.len() as u64;
        }

        fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
            if self.entries.len() >= self.capacity {
                self.stats.stalls_full += 1;
                return Err(DispatchStall::QueueFull);
            }
            let mut ops = [None, None];
            for (i, s) in info.srcs.iter().enumerate() {
                if let Some(s) = s {
                    if let Some(producer) = s.producer {
                        ops[i] = Some(DataOperand { producer, ready_at: s.known_ready_at });
                    }
                }
            }
            self.entries.push(Entry { tag: info.tag, op: info.op, ops, entered_at: now });
            self.stats.dispatched += 1;
            Ok(())
        }

        fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
            let mut ready: Vec<InstTag> = self
                .entries
                .iter()
                .filter(|e| e.entered_at < now && ready(e, now))
                .map(|e| e.tag)
                .collect();
            ready.sort_unstable();
            let mut issued = Vec::new();
            for &tag in &ready {
                if fus.slots_left() == 0 {
                    break;
                }
                let idx =
                    self.entries.iter().position(|e| e.tag == tag).expect("candidate present");
                if !fus.try_issue(now, self.entries[idx].op) {
                    continue;
                }
                let e = self.entries.swap_remove(idx);
                issued.push(IssuedInst { tag: e.tag, op: e.op });
            }
            self.stats.issued += issued.len() as u64;
            issued
        }

        fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
            for e in &mut self.entries {
                for o in e.ops.iter_mut().flatten() {
                    if o.producer == producer {
                        o.ready_at = Some(ready_at);
                    }
                }
            }
        }

        fn flush(&mut self) {
            self.entries.clear();
        }

        fn stats(&self) -> IqStats {
            self.stats
        }

        fn next_event(&self, quiet: &QuietCycle) -> Cycle {
            let first = self.entries.iter().filter_map(Entry::selectable_at).min();
            first.map_or(Cycle::MAX, |at| at.max(quiet.now + 1))
        }

        fn skip_quiet(&mut self, quiet: &QuietCycle, k: u64) {
            self.stats.cycles += k;
            self.stats.occupancy_accum += k * self.entries.len() as u64;
            if quiet.refused.is_some() {
                self.stats.stalls_full += k;
            }
        }
    }

    impl chainiq_ckpt::Snapshot for ScanIdealIq {
        const COMPONENT: &'static str = "baseline.ideal";
        const VERSION: u16 = 1;

        fn save(&self, w: &mut chainiq_ckpt::Writer) {
            use chainiq_ckpt::Pack;
            self.capacity.pack(w);
            self.entries.pack(w);
            self.stats.pack(w);
        }

        fn restore(
            &mut self,
            r: &mut chainiq_ckpt::Reader<'_>,
        ) -> Result<(), chainiq_ckpt::CkptError> {
            use chainiq_ckpt::Pack;
            self.capacity = Pack::unpack(r)?;
            self.entries = Pack::unpack(r)?;
            self.stats = Pack::unpack(r)?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::scan::ScanIdealIq;
    use super::*;
    use chainiq_ckpt::Snapshot;
    use chainiq_core::SrcOperand;
    use chainiq_devtest::{prop_assert_eq, prop_check, Gen};
    use chainiq_isa::ArchReg;

    fn image<Q: Snapshot>(q: &Q) -> Vec<u8> {
        let mut w = chainiq_ckpt::Writer::new();
        chainiq_ckpt::save_section(&mut w, q);
        w.into_bytes()
    }

    fn restored<Q: Snapshot>(bytes: &[u8], mut fresh: Q) -> Q {
        let mut r = chainiq_ckpt::Reader::new(bytes);
        chainiq_ckpt::restore_section(&mut r, &mut fresh).expect("image restores");
        fresh
    }

    fn rand_op(g: &mut Gen) -> OpClass {
        [OpClass::IntAlu, OpClass::IntAlu, OpClass::IntMul, OpClass::FpAdd, OpClass::FpDiv]
            [g.usize(0..5)]
    }

    prop_check! {
        /// The indexed queue against the scan queue it replaced, driven
        /// in lockstep by the same traffic: dispatches naming recent
        /// producers (some never issued, some with a known ready time),
        /// announcements at issue, second announcements of a producer
        /// that move its ready time either way, announcements of
        /// producers that have not issued, flushes, quiet-cycle
        /// skips up to the horizon, and one mid-run save and restore of
        /// both. Issue schedules, horizons, statistics and images must
        /// agree at every step.
        fn matches_the_scan_queue(g, cases = 200) {
            let capacity = [4, 8, 16, 64, 512][g.usize(0..5)];
            let mut fast = IdealIq::new(capacity);
            let mut scan = ScanIdealIq::new(capacity);
            let (mut fus_f, mut fus_s) = (FuPool::table1(), FuPool::table1());
            let mut ckpt_at = Some(g.u64(1..300));
            let mut reannounce: Vec<(Cycle, InstTag, Cycle)> = Vec::new();
            let mut next_tag = 0u64;
            let mut now = 0u64;
            while now < 300 {
                now += 1;
                if ckpt_at.is_some_and(|at| now >= at) {
                    ckpt_at = None;
                    let bytes = image(&fast);
                    prop_assert_eq!(&bytes, &image(&scan), "images differ at {}", now);
                    fast = restored(&bytes, IdealIq::new(capacity));
                    scan = restored(&bytes, ScanIdealIq::new(capacity));
                }
                let mut k = 0;
                while k < reannounce.len() {
                    if reannounce[k].0 <= now {
                        let (_, tag, at) = reannounce.swap_remove(k);
                        fast.announce_ready(tag, at);
                        scan.announce_ready(tag, at);
                    } else {
                        k += 1;
                    }
                }
                fast.tick(now, false);
                scan.tick(now, false);
                let issued = fast.select_issue(now, &mut fus_f);
                prop_assert_eq!(&issued, &scan.select_issue(now, &mut fus_s), "issue at {}", now);
                fus_f.next_cycle();
                fus_s.next_cycle();
                for i in &issued {
                    let at = now + u64::from(i.op.exec_latency()) + g.u64(0..3);
                    fast.announce_ready(i.tag, at);
                    scan.announce_ready(i.tag, at);
                    if g.u64(0..4) == 0 {
                        // A second announcement, earlier or later, even
                        // in the past.
                        let when = now + g.u64(0..6);
                        let again = when.saturating_sub(3) + g.u64(0..20);
                        reannounce.push((when, i.tag, again));
                    }
                }
                if next_tag > 0 && g.u64(0..3) == 0 {
                    // Any recent tag, issued or not, announced at any time.
                    let tag = InstTag(next_tag - 1 - g.u64(0..next_tag.min(12)));
                    let at = now.saturating_sub(3) + g.u64(0..20);
                    fast.announce_ready(tag, at);
                    scan.announce_ready(tag, at);
                }
                let mut refused = None;
                for _ in 0..g.usize(0..5) {
                    let tag = InstTag(next_tag);
                    let src = |g: &mut Gen| {
                        g.option(|g| SrcOperand {
                            reg: ArchReg::int(1),
                            producer: (next_tag > 0)
                                .then(|| InstTag(next_tag - 1 - g.u64(0..next_tag.min(12)))),
                            known_ready_at: g.option(|g| now + g.u64(0..4)),
                        })
                    };
                    let srcs = [src(g), src(g)];
                    let info = DispatchInfo {
                        tag,
                        op: rand_op(g),
                        dest: Some(ArchReg::int(2)),
                        srcs,
                        predicted_hit: true,
                        lrp_pick: None,
                        thread: 0,
                    };
                    let r = fast.dispatch(now, info);
                    prop_assert_eq!(r, scan.dispatch(now, info), "dispatch at {}", now);
                    if let Err(stall) = r {
                        refused = Some(stall);
                        break;
                    }
                    next_tag += 1;
                }
                if g.u64(0..80) == 0 {
                    fast.flush();
                    scan.flush();
                }
                let quiet = QuietCycle { now, execution_idle: false, refused };
                let horizon = fast.next_event(&quiet);
                prop_assert_eq!(horizon, scan.next_event(&quiet), "horizon at {}", now);
                if horizon > now + 1 && g.bool() {
                    let k = g.u64(1..(horizon - now).min(40));
                    fast.skip_quiet(&quiet, k);
                    scan.skip_quiet(&quiet, k);
                    now += k;
                }
                prop_assert_eq!(fast.occupancy(), scan.occupancy());
            }
            prop_assert_eq!(fast.stats(), scan.stats());
            prop_assert_eq!(image(&fast), image(&scan));
        }
    }

    fn dep(reg: u8, producer: u64) -> SrcOperand {
        SrcOperand {
            reg: ArchReg::int(reg),
            producer: Some(InstTag(producer)),
            known_ready_at: None,
        }
    }

    #[test]
    fn issues_oldest_first_up_to_width() {
        let mut iq = IdealIq::new(64);
        for i in 0..12u64 {
            iq.dispatch(
                0,
                DispatchInfo::compute(InstTag(i), OpClass::IntAlu, ArchReg::int(1), &[]),
            )
            .unwrap();
        }
        let mut fus = FuPool::table1();
        iq.tick(1, false);
        let issued = iq.select_issue(1, &mut fus);
        assert_eq!(issued.len(), 8, "issue width limits selection");
        let tags: Vec<u64> = issued.iter().map(|i| i.tag.0).collect();
        assert_eq!(tags, (0..8).collect::<Vec<_>>(), "oldest first");
    }

    #[test]
    fn waits_for_producer_announcement() {
        let mut iq = IdealIq::new(8);
        iq.dispatch(
            0,
            DispatchInfo::compute(InstTag(1), OpClass::IntAlu, ArchReg::int(2), &[dep(1, 0)]),
        )
        .unwrap();
        let mut fus = FuPool::table1();
        iq.tick(1, false);
        assert!(iq.select_issue(1, &mut fus).is_empty());
        iq.announce_ready(InstTag(0), 5);
        iq.tick(4, false);
        assert!(iq.select_issue(4, &mut fus).is_empty(), "not ready until cycle 5");
        iq.tick(5, false);
        fus.next_cycle();
        assert_eq!(iq.select_issue(5, &mut fus).len(), 1);
    }

    #[test]
    fn full_queue_stalls_dispatch() {
        let mut iq = IdealIq::new(2);
        for i in 0..2u64 {
            iq.dispatch(
                0,
                DispatchInfo::compute(InstTag(i), OpClass::IntAlu, ArchReg::int(1), &[]),
            )
            .unwrap();
        }
        assert_eq!(
            iq.dispatch(
                0,
                DispatchInfo::compute(InstTag(9), OpClass::IntAlu, ArchReg::int(1), &[])
            ),
            Err(DispatchStall::QueueFull)
        );
        assert_eq!(iq.stats().stalls_full, 1);
    }

    #[test]
    fn same_cycle_dispatch_cannot_issue() {
        let mut iq = IdealIq::new(8);
        iq.tick(1, false);
        iq.dispatch(1, DispatchInfo::compute(InstTag(0), OpClass::IntAlu, ArchReg::int(1), &[]))
            .unwrap();
        let mut fus = FuPool::table1();
        assert!(iq.select_issue(1, &mut fus).is_empty());
        iq.tick(2, false);
        assert_eq!(iq.select_issue(2, &mut fus).len(), 1);
    }

    #[test]
    fn known_ready_at_dispatch_is_honored() {
        let mut iq = IdealIq::new(8);
        let src = SrcOperand {
            reg: ArchReg::int(1),
            producer: Some(InstTag(0)),
            known_ready_at: Some(3),
        };
        iq.dispatch(0, DispatchInfo::compute(InstTag(1), OpClass::IntAlu, ArchReg::int(2), &[src]))
            .unwrap();
        let mut fus = FuPool::table1();
        iq.tick(2, false);
        assert!(iq.select_issue(2, &mut fus).is_empty());
        iq.tick(3, false);
        assert_eq!(iq.select_issue(3, &mut fus).len(), 1);
    }

    #[test]
    fn flush_clears() {
        let mut iq = IdealIq::new(8);
        iq.dispatch(0, DispatchInfo::compute(InstTag(0), OpClass::IntAlu, ArchReg::int(1), &[]))
            .unwrap();
        iq.flush();
        assert!(iq.is_empty());
    }

    #[test]
    fn fu_conflict_skips_but_keeps_entry() {
        let mut iq = IdealIq::new(8);
        iq.dispatch(0, DispatchInfo::compute(InstTag(0), OpClass::FpDiv, ArchReg::fp(1), &[]))
            .unwrap();
        iq.dispatch(0, DispatchInfo::compute(InstTag(1), OpClass::FpDiv, ArchReg::fp(2), &[]))
            .unwrap();
        let mut fus = FuPool::new(1, 8); // one FP unit only
        iq.tick(1, false);
        assert_eq!(iq.select_issue(1, &mut fus).len(), 1, "one divider available");
        fus.next_cycle();
        iq.tick(2, false);
        assert!(iq.select_issue(2, &mut fus).is_empty(), "divider busy for 12 cycles");
        assert_eq!(iq.occupancy(), 1);
    }
}
