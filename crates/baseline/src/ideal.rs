//! The idealized monolithic conventional queue.

use chainiq_core::{
    DataOperands, DispatchInfo, DispatchStall, FuPool, InstTag, IqStats, IssueQueue, IssuedInst,
    Place, QuietCycle, Store,
};
use chainiq_isa::Cycle;

/// The cycle an entry was dispatched in.
#[derive(Debug, Clone, Copy)]
struct Entered(Cycle);

/// Selectable once every operand is ready, never in its dispatch cycle.
impl Place for Entered {
    fn issue_at(&self, ops: &DataOperands) -> Option<Cycle> {
        Some(ops.ready_from()?.max(self.0 + 1))
    }
}

type Entry = chainiq_core::Entry<Entered>;

/// An idealized, single-cycle, monolithic instruction queue: full
/// associative wakeup over every slot, oldest-first select, no
/// complexity penalty regardless of size.
///
/// This is the paper's upper bound ("ideal IQ"). Its cycle time would in
/// reality grow quadratically with capacity [Palacharla et al.]; the
/// comparison in Figure 2/3 is IPC-only, with the clock advantage of the
/// segmented design argued separately.
///
/// The simulation is indexed so that no path rescans the window: the
/// shared entry store wakes only an announcing producer's consumers and
/// files each entry at the cycle it becomes selectable.
#[derive(Debug, Clone)]
pub struct IdealIq {
    capacity: usize,
    store: Store<Entered>,
    stats: IqStats,
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
        // Most entries become selectable within a few cycles of an event;
        // a memory miss lands a revolution or two of 256 buckets out.
        IdealIq { capacity, store: Store::new(capacity, 256), stats: IqStats::default() }
    }
}

impl IssueQueue for IdealIq {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn occupancy(&self) -> usize {
        self.store.len()
    }

    fn tick(&mut self, _now: Cycle, _execution_idle: bool) {
        self.stats.cycles += 1;
        self.stats.occupancy_accum += self.store.len() as u64;
    }

    fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
        if self.store.len() >= self.capacity {
            self.stats.stalls_full += 1;
            return Err(DispatchStall::QueueFull);
        }
        let ops = DataOperands::from_srcs(&info.srcs);
        self.store.insert(Entry { tag: info.tag, op: info.op, ops, place: Entered(now) });
        self.stats.dispatched += 1;
        Ok(())
    }

    fn select_issue_into(&mut self, now: Cycle, fus: &mut FuPool, out: &mut Vec<IssuedInst>) {
        let before = out.len();
        self.store.select(now, fus, out, |_, _| {});
        self.stats.issued += (out.len() - before) as u64;
    }

    fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
        self.store.announce(producer, ready_at, |_| {});
    }

    fn flush(&mut self) {
        self.store.clear();
    }

    fn stats(&self) -> IqStats {
        self.stats
    }

    /// The ideal queue acts only by issuing, so it sleeps until its first
    /// entry becomes selectable.
    fn next_event(&self, quiet: &QuietCycle) -> Cycle {
        self.store.next_event(quiet)
    }

    fn skip_quiet(&mut self, quiet: &QuietCycle, k: u64) {
        self.stats.cycles += k;
        self.stats.occupancy_accum += k * self.store.len() as u64;
        if quiet.refused.is_some() {
            self.stats.stalls_full += k;
        }
    }
}

chainiq_ckpt::pack_fields!(Entered { 0 });

impl chainiq_ckpt::Snapshot for IdealIq {
    const COMPONENT: &'static str = "baseline.ideal";
    const VERSION: u16 = 2;

    /// V2 lists the queued entries in tag order; every index is rebuilt
    /// from them on restore.
    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        self.capacity.pack(w);
        self.store.save(w);
        self.stats.pack(w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let capacity: usize = Pack::unpack(r)?;
        if capacity != self.capacity {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: "ideal IQ capacity differs from the running queue".to_string(),
            });
        }
        let entries: Vec<Entry> = Pack::unpack(r)?;
        let stats: IqStats = Pack::unpack(r)?;
        self.store.restore(&entries, capacity, "ideal")?;
        self.stats = stats;
        Ok(())
    }
}

/// The ideal queue as it was first written: one `Vec` of entries,
/// rescanned by every announcement, selection and horizon query. It is
/// the reference the indexed queue is checked against.
#[cfg(test)]
mod scan {
    use super::{Entered, Entry};
    use chainiq_core::{
        DataOperand, DataOperands, DispatchInfo, DispatchStall, FuPool, InstTag, IqStats,
        IssueQueue, IssuedInst, QuietCycle,
    };
    use chainiq_isa::Cycle;

    fn ready(e: &Entry, now: Cycle) -> bool {
        e.ops.0.iter().flatten().all(|o| o.ready_at.map(|r| r <= now).unwrap_or(false))
    }

    fn selectable_at(e: &Entry) -> Option<Cycle> {
        let mut at = e.place.0 + 1;
        for o in e.ops.0.iter().flatten() {
            at = at.max(o.ready_at?);
        }
        Some(at)
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
            let ops = DataOperands(ops);
            self.entries.push(Entry { tag: info.tag, op: info.op, ops, place: Entered(now) });
            self.stats.dispatched += 1;
            Ok(())
        }

        fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
            let mut ready: Vec<InstTag> = self
                .entries
                .iter()
                .filter(|e| e.place.0 < now && ready(e, now))
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
                for o in e.ops.0.iter_mut().flatten() {
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
            let first = self.entries.iter().filter_map(selectable_at).min();
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
        const VERSION: u16 = 2;

        fn save(&self, w: &mut chainiq_ckpt::Writer) {
            use chainiq_ckpt::Pack;
            self.capacity.pack(w);
            let mut entries = self.entries.clone();
            entries.sort_by_key(|e| e.tag);
            entries.pack(w);
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
    use chainiq_isa::OpClass;

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
