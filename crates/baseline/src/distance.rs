//! Canal & González's *distance* scheme (§2 of the paper).
//!
//! The third dependence-based queue family the paper discusses: like
//! prescheduling, a two-dimensional scheduling array whose rows are
//! future issue cycles — but the small fully-associative buffer sits
//! *before* the array. Instructions whose ready time cannot be predicted
//! at dispatch (operands produced by still-unresolved loads) wait in
//! that buffer until the time is known, so instructions are guaranteed
//! ready when they reach the oldest row. The cost is the opposite
//! failure mode to prescheduling's: a run of unpredictable instructions
//! fills the wait buffer and stalls dispatch.
//!
//! The paper argues (§6.3) that distance and prescheduling perform
//! similarly due to their structural similarity; this implementation
//! exists so that claim can be tested — see
//! `cargo run -p chainiq-bench --bin rivals`. The twins share their
//! [`Store`] and [`Rows`], so no path here scans the window.

use chainiq_core::{
    insert_sorted, DataOperands, DispatchInfo, DispatchStall, FuPool, InstTag, IqStats, IssueQueue,
    IssuedInst, Place, QuietCycle, Store,
};
use chainiq_isa::{Cycle, OpClass, NUM_ARCH_REGS};

use crate::rows::Rows;

/// Geometry of a [`DistanceIq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistanceConfig {
    /// Fully-associative wait-buffer slots (before the array).
    pub wait_buffer_size: usize,
    /// Scheduling-array lines (the schedule horizon in cycles).
    pub num_lines: usize,
    /// Instruction slots per line.
    pub line_width: usize,
    /// Predicted load latency used when a load's consumers are scheduled.
    pub predicted_load_latency: u64,
}

impl DistanceConfig {
    /// A configuration size-comparable to [`PrescheduleConfig::paper`]:
    /// a 32-entry wait buffer plus `num_lines` 12-wide lines.
    ///
    /// [`PrescheduleConfig::paper`]: crate::PrescheduleConfig::paper
    ///
    /// # Panics
    ///
    /// Panics if `num_lines` is zero.
    #[must_use]
    pub fn paper_sized(num_lines: usize) -> Self {
        assert!(num_lines > 0, "the scheduling array needs at least one line");
        DistanceConfig {
            wait_buffer_size: 32,
            num_lines,
            line_width: 12,
            predicted_load_latency: 4,
        }
    }

    /// Total instruction slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.wait_buffer_size + self.num_lines * self.line_width
    }
}

/// Where the distance queue holds an entry: in the wait buffer (`None`)
/// or booked in the array at a row.
#[derive(Debug, Clone, Copy)]
struct Booking(Option<Cycle>);

/// A booked entry issues at its row, or later while an operand is not
/// ready by then (the timing table may be stale).
impl Place for Booking {
    fn issue_at(&self, ops: &DataOperands) -> Option<Cycle> {
        Some(self.0?.max(ops.ready_from()?))
    }
}

type Entry = chainiq_core::Entry<Booking>;

/// The distance-scheme queue: wait buffer → scheduling array → issue.
#[derive(Debug, Clone)]
pub struct DistanceIq {
    config: DistanceConfig,
    /// Every entry; the booked ones filed at their issue cycle.
    store: Store<Booking>,
    /// Wait-buffer residents whose ready time is still unknown.
    unannounced: usize,
    /// Wait-buffer residents whose ready time is known, in ascending tag
    /// order: each tick books them into the array oldest first.
    bookable: Vec<InstTag>,
    /// Occupancy of each row still holding booked entries.
    rows: Rows,
    /// Predicted absolute ready cycle per architectural register, when
    /// known (`None` = produced by a not-yet-resolved instruction).
    reg_ready: Vec<Option<Cycle>>,
    /// The most recent cycle ticked or skipped; rows lie at most a
    /// horizon past it.
    last_now: Cycle,
    stats: IqStats,
    /// Dispatch stalls because the wait buffer was full.
    wait_buffer_stalls: u64,
}

impl DistanceIq {
    /// Creates an empty queue.
    #[must_use]
    pub fn new(config: DistanceConfig) -> Self {
        DistanceIq {
            config,
            // One revolution covers the schedule horizon.
            store: Store::new(config.capacity(), 2 * config.num_lines),
            unannounced: 0,
            bookable: Vec::with_capacity(config.wait_buffer_size),
            rows: Rows::new(config.num_lines, config.line_width, config.predicted_load_latency),
            reg_ready: vec![Some(0); NUM_ARCH_REGS],
            last_now: 0,
            stats: IqStats::default(),
            wait_buffer_stalls: 0,
        }
    }

    /// Dispatch stalls caused by a full wait buffer.
    #[must_use]
    pub fn wait_buffer_stalls(&self) -> u64 {
        self.wait_buffer_stalls
    }

    /// Instructions currently held in the wait buffer.
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.unannounced + self.bookable.len()
    }

    /// Files a stored `entry` in the wait buffer while it has no row.
    /// Dispatch and restore both file entries through here.
    fn file(&mut self, entry: &Entry) {
        match (entry.place.0, entry.ops.ready_from()) {
            (Some(_), _) => {}
            (None, Some(_)) => insert_sorted(&mut self.bookable, entry.tag),
            (None, None) => self.unannounced += 1,
        }
    }
}

impl IssueQueue for DistanceIq {
    fn capacity(&self) -> usize {
        self.config.capacity()
    }

    fn occupancy(&self) -> usize {
        self.store.len()
    }

    fn tick(&mut self, now: Cycle, _execution_idle: bool) {
        self.stats.cycles += 1;
        self.stats.occupancy_accum += self.store.len() as u64;
        self.last_now = now;
        // Waiting entries whose ready time became known move into the
        // array, oldest first (this is the associative part of the
        // design); one that finds every row full stays and retries next
        // cycle.
        let (store, rows) = (&mut self.store, &mut self.rows);
        self.bookable.retain(|&tag| {
            let Some(slot) = store.slot_of(tag) else { return true };
            let ready = store.operands(slot).ready_from();
            let Some(row) = ready.and_then(|ready| rows.book(ready, now)) else { return true };
            store.update(slot, |b| b.0 = Some(row));
            false
        });
    }

    fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
        if self.store.len() >= self.config.capacity() {
            self.stats.stalls_full += 1;
            return Err(DispatchStall::QueueFull);
        }
        // Ready time predictable at dispatch? An operand whose producer
        // announced nothing yet falls back on the register timing table.
        let mut ops = DataOperands::from_srcs(&info.srcs);
        for (o, s) in ops.0.iter_mut().zip(&info.srcs) {
            if let (Some(o), Some(s)) = (o, s) {
                o.ready_at = o.ready_at.or(self.reg_ready[s.reg.index()]);
            }
        }
        let ready = ops.ready_from();
        let full = self.waiting() >= self.config.wait_buffer_size;
        if ready.is_none() && full {
            self.wait_buffer_stalls += 1;
            self.stats.stalls_full += 1;
            return Err(DispatchStall::QueueFull);
        }

        // Try to place it directly in the array; with every row full it
        // spills into the wait buffer until rows free up.
        let row = ready.and_then(|ready| self.rows.book(ready, now));
        if ready.is_some() && row.is_none() && full {
            self.stats.stalls_full += 1;
            return Err(DispatchStall::QueueFull);
        }
        if let Some(dest) = info.dest {
            // Loads resolve their real latency later; consumers of an
            // unresolved value must wait in the buffer, which is the
            // scheme's defining behaviour.
            self.reg_ready[dest.index()] = match row {
                Some(row) if info.op != OpClass::Load => {
                    Some(row + self.rows.produce_latency(info.op))
                }
                _ => None,
            };
        }
        let entry = Entry { tag: info.tag, op: info.op, ops, place: Booking(row) };
        self.store.insert(entry);
        self.file(&entry);
        self.stats.dispatched += 1;
        Ok(())
    }

    fn select_issue_into(&mut self, now: Cycle, fus: &mut FuPool, out: &mut Vec<IssuedInst>) {
        let before = out.len();
        let rows = &mut self.rows;
        self.store.select(now, fus, out, |_, e| e.place.0.into_iter().for_each(|r| rows.remove(r)));
        self.stats.issued += (out.len() - before) as u64;
    }

    fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
        let (unannounced, bookable) = (&mut self.unannounced, &mut self.bookable);
        self.store.announce(producer, ready_at, |w| {
            // A waiting entry whose ready time became known can book.
            if w.place.0.is_none() && w.was.is_none() && w.is.is_some() {
                *unannounced -= 1;
                insert_sorted(bookable, w.tag);
            }
        });
    }

    fn flush(&mut self) {
        self.store.clear();
        self.unannounced = 0;
        self.bookable.clear();
        self.rows.clear();
        self.reg_ready.fill(Some(0));
    }

    fn stats(&self) -> IqStats {
        self.stats
    }

    /// A booked entry issues at its filed cycle. A bookable entry books
    /// (or retries) every tick. A dispatch refused with room in the queue
    /// and the window's last row full may fit the row the window gains
    /// next cycle; any other refusal with room in the queue is the wait
    /// buffer's, which only an announcement ends.
    fn next_event(&self, quiet: &QuietCycle) -> Cycle {
        let window_refusal = quiet.refused.is_some()
            && self.store.len() < self.config.capacity()
            && self.rows.is_full(self.rows.horizon(quiet.now));
        if !self.bookable.is_empty() || window_refusal {
            return quiet.now + 1;
        }
        self.store.next_event(quiet)
    }

    fn skip_quiet(&mut self, quiet: &QuietCycle, k: u64) {
        self.stats.cycles += k;
        self.stats.occupancy_accum += k * self.store.len() as u64;
        self.last_now = quiet.now + k;
        if quiet.refused.is_some() {
            self.stats.stalls_full += k;
            if self.store.len() < self.config.capacity() {
                self.wait_buffer_stalls += k;
            }
        }
    }
}

chainiq_ckpt::pack_fields!(DistanceConfig {
    wait_buffer_size,
    num_lines,
    line_width,
    predicted_load_latency
});

chainiq_ckpt::pack_fields!(Booking { 0 });

impl chainiq_ckpt::Snapshot for DistanceIq {
    const COMPONENT: &'static str = "baseline.distance";
    const VERSION: u16 = 3;

    /// V3 lists the entries in tag order, the clock, the register timing
    /// table and the counters; every index is rebuilt from them.
    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        self.config.pack(w);
        self.store.save(w);
        self.last_now.pack(w);
        self.reg_ready.pack(w);
        self.stats.pack(w);
        self.wait_buffer_stalls.pack(w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let corrupt =
            |context: &str| chainiq_ckpt::CkptError::Corrupt { context: context.to_string() };
        let config: DistanceConfig = Pack::unpack(r)?;
        if config != self.config {
            return Err(corrupt("distance IQ config differs from the running queue"));
        }
        let entries: Vec<Entry> = Pack::unpack(r)?;
        let last_now: Cycle = Pack::unpack(r)?;
        let reg_ready: Vec<Option<Cycle>> = Pack::unpack(r)?;
        let stats: IqStats = Pack::unpack(r)?;
        let wait_buffer_stalls: u64 = Pack::unpack(r)?;
        if reg_ready.len() != NUM_ARCH_REGS {
            return Err(corrupt("distance IQ register timing table has the wrong shape"));
        }
        let waiting = entries.iter().filter(|e| e.place.0.is_none()).count();
        if waiting > config.wait_buffer_size {
            return Err(corrupt("distance IQ holds more waiting entries than its wait buffer"));
        }
        self.flush();
        for row in entries.iter().filter_map(|e| e.place.0) {
            if row > self.rows.horizon(last_now) {
                return Err(corrupt("distance IQ row lies beyond the schedule horizon"));
            }
            self.rows.add(row);
            if self.rows.count(row) > config.line_width as u32 {
                return Err(corrupt("distance IQ row holds more entries than a line"));
            }
        }
        self.store.restore(&entries, config.capacity(), "distance")?;
        for e in &entries {
            self.file(e);
        }
        self.last_now = last_now;
        self.reg_ready = reg_ready;
        self.stats = stats;
        self.wait_buffer_stalls = wait_buffer_stalls;
        Ok(())
    }
}

/// The distance queue as it was first written, booking its wait buffer
/// oldest first: one `Vec` of entries in dispatch order, rescanned by
/// every tick, selection and announcement, with a `BTreeMap` of row
/// counts. It is the reference the indexed queue is checked against. It
/// keeps the default horizon, so it steps every cycle, and it writes the
/// same image, tag-ordered.
#[cfg(test)]
mod scan {
    use std::collections::BTreeMap;

    use super::{Booking, DistanceConfig, Entry};
    use chainiq_core::{
        DataOperands, DispatchInfo, DispatchStall, FuPool, InstTag, IqStats, IssueQueue, IssuedInst,
    };
    use chainiq_isa::{ArchReg, Cycle, OpClass, NUM_ARCH_REGS};

    #[derive(Debug, Clone)]
    pub(super) struct ScanDistanceIq {
        config: DistanceConfig,
        entries: Vec<Entry>,
        row_counts: BTreeMap<Cycle, u32>,
        reg_ready: Vec<Option<Cycle>>,
        last_now: Cycle,
        stats: IqStats,
        wait_buffer_stalls: u64,
    }

    impl ScanDistanceIq {
        pub(super) fn new(config: DistanceConfig) -> Self {
            ScanDistanceIq {
                config,
                entries: Vec::new(),
                row_counts: BTreeMap::new(),
                reg_ready: vec![Some(0); NUM_ARCH_REGS],
                last_now: 0,
                stats: IqStats::default(),
                wait_buffer_stalls: 0,
            }
        }

        pub(super) fn wait_buffer_stalls(&self) -> u64 {
            self.wait_buffer_stalls
        }

        pub(super) fn waiting(&self) -> usize {
            self.entries.iter().filter(|e| e.place.0.is_none()).count()
        }

        fn produce_latency(&self, op: OpClass) -> u64 {
            if op == OpClass::Load {
                self.config.predicted_load_latency
            } else {
                u64::from(op.exec_latency())
            }
        }

        fn book_row(&mut self, ready: Cycle, now: Cycle) -> Option<Cycle> {
            let horizon = now + self.config.num_lines as u64;
            let first = ready.clamp(now + 1, horizon);
            let row = (first..=horizon).find(|c| {
                self.row_counts.get(c).copied().unwrap_or(0) < self.config.line_width as u32
            })?;
            *self.row_counts.entry(row).or_default() += 1;
            Some(row)
        }

        fn set_dest(&mut self, reg: ArchReg, ready: Option<Cycle>) {
            self.reg_ready[reg.index()] = ready;
        }
    }

    impl IssueQueue for ScanDistanceIq {
        fn capacity(&self) -> usize {
            self.config.capacity()
        }

        fn occupancy(&self) -> usize {
            self.entries.len()
        }

        fn tick(&mut self, now: Cycle, _execution_idle: bool) {
            self.stats.cycles += 1;
            self.stats.occupancy_accum += self.entries.len() as u64;
            self.last_now = now;
            for idx in 0..self.entries.len() {
                let e = &self.entries[idx];
                if let (None, Some(ready)) = (e.place.0, e.ops.ready_from()) {
                    self.entries[idx].place.0 = self.book_row(ready, now);
                }
            }
            self.row_counts.retain(|_, v| *v > 0);
        }

        fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
            if self.entries.len() >= self.config.capacity() {
                self.stats.stalls_full += 1;
                return Err(DispatchStall::QueueFull);
            }
            let mut ops = DataOperands::from_srcs(&info.srcs);
            for (o, s) in ops.0.iter_mut().zip(&info.srcs) {
                if let (Some(o), Some(s)) = (o, s) {
                    o.ready_at = o.ready_at.or(self.reg_ready[s.reg.index()]);
                }
            }
            let ready = ops.ready_from();
            if ready.is_none() && self.waiting() >= self.config.wait_buffer_size {
                self.wait_buffer_stalls += 1;
                self.stats.stalls_full += 1;
                return Err(DispatchStall::QueueFull);
            }
            let row = ready.and_then(|ready| self.book_row(ready, now));
            if ready.is_some() && row.is_none() && self.waiting() >= self.config.wait_buffer_size {
                self.stats.stalls_full += 1;
                return Err(DispatchStall::QueueFull);
            }
            let dest_ready = row.map(|row| row + self.produce_latency(info.op));
            let entry = Entry { tag: info.tag, op: info.op, ops, place: Booking(row) };
            if let Some(dest) = info.dest {
                self.set_dest(dest, if info.op == OpClass::Load { None } else { dest_ready });
            }
            self.entries.push(entry);
            self.stats.dispatched += 1;
            Ok(())
        }

        fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
            let mut due: Vec<InstTag> = self
                .entries
                .iter()
                .filter(|e| match e.place.0 {
                    Some(s) => s <= now && e.ops.ready_from().is_some_and(|r| r <= now),
                    None => false,
                })
                .map(|e| e.tag)
                .collect();
            due.sort();
            let mut issued = Vec::new();
            for tag in due {
                if fus.slots_left() == 0 {
                    break;
                }
                let idx = self.entries.iter().position(|e| e.tag == tag).expect("candidate");
                if !fus.try_issue(now, self.entries[idx].op) {
                    continue;
                }
                let e = self.entries.remove(idx);
                if let Some(s) = e.place.0 {
                    if let Some(c) = self.row_counts.get_mut(&s) {
                        *c = c.saturating_sub(1);
                    }
                }
                issued.push(IssuedInst { tag: e.tag, op: e.op });
            }
            self.stats.issued += issued.len() as u64;
            issued
        }

        fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
            for e in &mut self.entries {
                e.ops.announce(producer, ready_at);
            }
        }

        fn flush(&mut self) {
            self.entries.clear();
            self.row_counts.clear();
            self.reg_ready.fill(Some(0));
        }

        fn stats(&self) -> IqStats {
            self.stats
        }
    }

    impl chainiq_ckpt::Snapshot for ScanDistanceIq {
        const COMPONENT: &'static str = "baseline.distance";
        const VERSION: u16 = 3;

        fn save(&self, w: &mut chainiq_ckpt::Writer) {
            use chainiq_ckpt::Pack;
            self.config.pack(w);
            let mut entries = self.entries.clone();
            entries.sort_by_key(|e| e.tag);
            entries.pack(w);
            self.last_now.pack(w);
            self.reg_ready.pack(w);
            self.stats.pack(w);
            self.wait_buffer_stalls.pack(w);
        }

        fn restore(
            &mut self,
            r: &mut chainiq_ckpt::Reader<'_>,
        ) -> Result<(), chainiq_ckpt::CkptError> {
            use chainiq_ckpt::Pack;
            self.config = Pack::unpack(r)?;
            self.entries = Pack::unpack(r)?;
            self.last_now = Pack::unpack(r)?;
            self.reg_ready = Pack::unpack(r)?;
            self.stats = Pack::unpack(r)?;
            self.wait_buffer_stalls = Pack::unpack(r)?;
            self.row_counts.clear();
            for row in self.entries.iter().filter_map(|e| e.place.0) {
                *self.row_counts.entry(row).or_default() += 1;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::scan::ScanDistanceIq;
    use super::*;
    use chainiq_ckpt::{CkptError, Pack, Snapshot};
    use chainiq_core::SrcOperand;
    use chainiq_devtest::{prop_assert, prop_assert_eq, prop_check, Gen};
    use chainiq_isa::ArchReg;

    fn ready_src(reg: u8) -> SrcOperand {
        SrcOperand::ready(ArchReg::int(reg))
    }

    fn dep(reg: u8, producer: u64) -> SrcOperand {
        SrcOperand {
            reg: ArchReg::int(reg),
            producer: Some(InstTag(producer)),
            known_ready_at: None,
        }
    }

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
        [OpClass::IntAlu, OpClass::IntAlu, OpClass::IntMul, OpClass::Load, OpClass::FpDiv]
            [g.usize(0..5)]
    }

    prop_check! {
        /// The indexed queue against the scan queue it replaced, driven
        /// in lockstep by the same traffic: loads (whose consumers wait
        /// for a resolution), dispatches naming recent producers and
        /// registers the timing table has predicted, announcements at
        /// issue, second announcements that move a ready time either way,
        /// announcements of producers that have not issued, flushes, and
        /// one mid-run save and restore of both. Where the indexed queue
        /// sees a quiet stretch before its horizon it skips it, and the
        /// scan queue steps every cycle of it, issuing nothing and
        /// refusing the same dispatch. Issue schedules, statistics, wait
        /// buffers and images must agree throughout.
        fn matches_the_scan_queue(g, cases = 200) {
            let config = DistanceConfig {
                wait_buffer_size: g.usize(1..8),
                num_lines: g.usize(1..6),
                line_width: g.usize(1..4),
                predicted_load_latency: g.u64(1..6),
            };
            let mut fast = DistanceIq::new(config);
            let mut scan = ScanDistanceIq::new(config);
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
                    fast = restored(&bytes, DistanceIq::new(config));
                    scan = restored(&bytes, ScanDistanceIq::new(config));
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
                    // A load resolves a while after it issues.
                    let slow = if i.op == OpClass::Load { g.u64(0..15) } else { g.u64(0..3) };
                    let at = now + u64::from(i.op.exec_latency()) + slow;
                    fast.announce_ready(i.tag, at);
                    scan.announce_ready(i.tag, at);
                    if g.u64(0..4) == 0 {
                        let when = now + g.u64(0..6);
                        let again = when.saturating_sub(3) + g.u64(0..20);
                        reannounce.push((when, i.tag, again));
                    }
                }
                if next_tag > 0 && g.u64(0..3) == 0 {
                    let tag = InstTag(next_tag - 1 - g.u64(0..next_tag.min(12)));
                    let at = now.saturating_sub(3) + g.u64(0..20);
                    fast.announce_ready(tag, at);
                    scan.announce_ready(tag, at);
                }
                let mut refused = None;
                for _ in 0..g.usize(0..5) {
                    let src = |g: &mut Gen| {
                        g.option(|g| SrcOperand {
                            reg: ArchReg::int(g.u8(1..5)),
                            producer: (next_tag > 0 && g.bool())
                                .then(|| InstTag(next_tag - 1 - g.u64(0..next_tag.min(12)))),
                            known_ready_at: g.option(|g| now + g.u64(0..4)),
                        })
                    };
                    let info = DispatchInfo {
                        tag: InstTag(next_tag),
                        op: rand_op(g),
                        dest: g.option(|g| ArchReg::int(g.u8(1..5))),
                        srcs: [src(g), src(g)],
                        predicted_hit: true,
                        lrp_pick: None,
                        thread: 0,
                    };
                    let r = fast.dispatch(now, info);
                    prop_assert_eq!(r, scan.dispatch(now, info), "dispatch at {}", now);
                    if let Err(stall) = r {
                        refused = Some((stall, info));
                        break;
                    }
                    next_tag += 1;
                }
                if g.u64(0..80) == 0 {
                    fast.flush();
                    scan.flush();
                    refused = None;
                }
                let quiet = QuietCycle { now, execution_idle: false, refused: refused.map(|r| r.0) };
                let horizon = fast.next_event(&quiet);
                prop_assert!(horizon > now, "horizon {} at {}", horizon, now);
                if horizon > now + 1 && g.bool() {
                    let k = g.u64(1..(horizon - now).min(40));
                    fast.skip_quiet(&quiet, k);
                    for _ in 0..k {
                        now += 1;
                        scan.tick(now, false);
                        let issued = scan.select_issue(now, &mut fus_s);
                        prop_assert!(issued.is_empty(), "{:?} issued at {}, before {}", issued, now, horizon);
                        fus_s.next_cycle();
                        if let Some((stall, info)) = refused {
                            prop_assert_eq!(scan.dispatch(now, info), Err(stall), "retry at {}", now);
                        }
                    }
                }
                prop_assert_eq!(fast.occupancy(), scan.occupancy(), "occupancy at {}", now);
                prop_assert_eq!(fast.waiting(), scan.waiting(), "wait buffer at {}", now);
                prop_assert_eq!(fast.stats(), scan.stats(), "statistics at {}", now);
                prop_assert_eq!(fast.wait_buffer_stalls(), scan.wait_buffer_stalls());
            }
            prop_assert_eq!(image(&fast), image(&scan));
        }
    }

    /// Both queues through whole pipelines: every bench at the `rivals`
    /// size, on the base machine and with both predictors. The scan queue
    /// steps every cycle; the indexed queue fast-forwards.
    #[test]
    fn pipeline_matches_the_scan_queue_on_every_bench() {
        use chainiq_cpu::{Pipeline, SimConfig};
        use chainiq_workload::{Bench, SyntheticWorkload};
        let dc = DistanceConfig::paper_sized(24);
        for bench in Bench::ALL {
            for predictors in [false, true] {
                let mut config = SimConfig::default().rob_for_iq(dc.capacity());
                config.extra_dispatch_cycle = true;
                config.use_hmp = predictors;
                config.use_lrp = predictors;
                let workload = || SyntheticWorkload::from_profile(bench.profile(), 20_020_525);
                let mut fast = Pipeline::new(config, DistanceIq::new(dc), workload());
                let mut scan = Pipeline::new(config, ScanDistanceIq::new(dc), workload());
                let what = format!("{bench:?} predictors={predictors}");
                assert_eq!(
                    format!("{:?}", fast.run(3_000)),
                    format!("{:?}", scan.run(3_000)),
                    "{what}: machine statistics diverge"
                );
                assert_eq!(fast.iq().stats(), scan.iq().stats(), "{what}: queue statistics");
                assert_eq!(
                    fast.iq().wait_buffer_stalls(),
                    scan.iq().wait_buffer_stalls(),
                    "{what}: wait-buffer stalls"
                );
            }
        }
    }

    #[test]
    fn capacity() {
        assert_eq!(DistanceConfig::paper_sized(24).capacity(), 320);
    }

    #[test]
    fn predictable_instruction_issues_on_schedule() {
        let mut iq = DistanceIq::new(DistanceConfig::paper_sized(8));
        let mut fus = FuPool::table1();
        iq.dispatch(0, DispatchInfo::compute(InstTag(0), OpClass::IntAlu, ArchReg::int(1), &[]))
            .unwrap();
        assert_eq!(iq.waiting(), 0, "known-ready instructions go straight to the array");
        iq.tick(1, false);
        assert_eq!(iq.select_issue(1, &mut fus).len(), 1);
    }

    #[test]
    fn load_consumer_waits_in_buffer_until_resolution() {
        let mut iq = DistanceIq::new(DistanceConfig::paper_sized(8));
        let mut fus = FuPool::table1();
        // The load itself is predictable; its consumer is not (the load's
        // real latency is unknown until it resolves).
        iq.dispatch(0, DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(9), false))
            .unwrap();
        iq.dispatch(
            0,
            DispatchInfo::compute(InstTag(1), OpClass::IntAlu, ArchReg::int(2), &[dep(1, 0)]),
        )
        .unwrap();
        assert_eq!(iq.waiting(), 1, "the consumer waits for the load's real latency");
        // The load issues; pretend it missed and resolves at cycle 40.
        iq.tick(1, false);
        let issued = iq.select_issue(1, &mut fus);
        assert_eq!(issued.len(), 1);
        iq.announce_ready(InstTag(0), 40);
        iq.tick(2, false);
        assert_eq!(iq.waiting(), 0, "known ready time moves it into the array");
        // It must not issue before cycle 40.
        for now in 3..40 {
            fus.next_cycle();
            assert!(iq.select_issue(now, &mut fus).is_empty(), "not ready before 40");
            iq.tick(now, false);
        }
        fus.next_cycle();
        assert_eq!(iq.select_issue(40, &mut fus).len(), 1);
    }

    #[test]
    fn wait_buffer_exhaustion_stalls_dispatch() {
        let mut cfg = DistanceConfig::paper_sized(8);
        cfg.wait_buffer_size = 2;
        let mut iq = DistanceIq::new(cfg);
        iq.dispatch(0, DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(9), false))
            .unwrap();
        for i in 1..=2u64 {
            iq.dispatch(
                0,
                DispatchInfo::compute(InstTag(i), OpClass::IntAlu, ArchReg::int(2), &[dep(1, 0)]),
            )
            .unwrap();
        }
        let err = iq
            .dispatch(
                0,
                DispatchInfo::compute(InstTag(3), OpClass::IntAlu, ArchReg::int(3), &[dep(1, 0)]),
            )
            .unwrap_err();
        assert_eq!(err, DispatchStall::QueueFull);
        assert!(iq.wait_buffer_stalls() > 0);
    }

    /// A dispatch the full wait buffer refused repeats until an
    /// announcement, so the queue sleeps through it and skipping counts
    /// each repeat as a wait-buffer stall; one the row window refused may
    /// fit the row the window gains next cycle.
    #[test]
    fn a_wait_buffer_refusal_sleeps_and_a_window_refusal_does_not() {
        let cfg = DistanceConfig {
            wait_buffer_size: 1,
            num_lines: 2,
            line_width: 1,
            ..DistanceConfig::paper_sized(1)
        };
        let mut iq = DistanceIq::new(cfg);
        let mut fus = FuPool::table1();
        // A load that issues and never resolves leaves r1 unpredictable.
        iq.dispatch(0, DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(9), false))
            .unwrap();
        iq.tick(1, false);
        assert_eq!(iq.select_issue(1, &mut fus).len(), 1);
        let waits = |tag| {
            DispatchInfo::compute(InstTag(tag), OpClass::IntAlu, ArchReg::int(2), &[dep(1, 0)])
        };
        iq.dispatch(1, waits(1)).unwrap();
        let refused = iq.dispatch(1, waits(2));
        assert_eq!(refused, Err(DispatchStall::QueueFull));
        let quiet = QuietCycle { now: 1, execution_idle: true, refused: refused.err() };
        assert_eq!(iq.next_event(&quiet), Cycle::MAX, "only an announcement ends it");
        iq.skip_quiet(&quiet, 4);
        assert_eq!((iq.wait_buffer_stalls(), iq.stats().stalls_full), (5, 5));

        // Ready far ahead, both book the last row of the window; it holds
        // one, and the wait buffer is full.
        let late = SrcOperand { known_ready_at: Some(100), ..dep(3, 91) };
        let far =
            |tag| DispatchInfo::compute(InstTag(tag), OpClass::IntAlu, ArchReg::int(4), &[late]);
        iq.tick(6, false);
        iq.dispatch(6, far(3)).unwrap();
        let refused = iq.dispatch(6, far(4));
        assert_eq!(refused, Err(DispatchStall::QueueFull));
        assert!(iq.occupancy() < iq.capacity());
        let quiet = QuietCycle { now: 6, execution_idle: true, refused: refused.err() };
        assert_eq!(iq.next_event(&quiet), 7, "the window gains a row next cycle");

        // A full queue refuses until an issue, whatever the rows hold.
        let src = SrcOperand { known_ready_at: Some(7), ..dep(5, 92) };
        iq.dispatch(6, DispatchInfo::compute(InstTag(4), OpClass::IntAlu, ArchReg::int(6), &[src]))
            .unwrap();
        iq.announce_ready(InstTag(92), 60);
        let refused = iq.dispatch(6, far(5));
        assert_eq!(iq.occupancy(), iq.capacity());
        let quiet = QuietCycle { now: 6, execution_idle: true, refused: refused.err() };
        assert_eq!(iq.next_event(&quiet), 60, "the first booked entry issues at 60");
        iq.skip_quiet(&quiet, 10);
        assert_eq!((iq.wait_buffer_stalls(), iq.stats().stalls_full), (5, 17));
    }

    /// A v3 image of `entries` at clock `last_now` for a fresh queue of
    /// `cfg`, restored into another.
    fn restore_image(
        cfg: DistanceConfig,
        entries: &[Entry],
        last_now: Cycle,
    ) -> Result<(), CkptError> {
        let iq = DistanceIq::new(cfg);
        let mut w = chainiq_ckpt::Writer::new();
        cfg.pack(&mut w);
        entries.to_vec().pack(&mut w);
        last_now.pack(&mut w);
        iq.reg_ready.pack(&mut w);
        iq.stats.pack(&mut w);
        iq.wait_buffer_stalls.pack(&mut w);
        let bytes = w.into_bytes();
        DistanceIq::new(cfg).restore(&mut chainiq_ckpt::Reader::new(&bytes))
    }

    fn entry(tag: u64, row: Option<Cycle>) -> Entry {
        Entry {
            tag: InstTag(tag),
            op: OpClass::IntAlu,
            ops: DataOperands::default(),
            place: Booking(row),
        }
    }

    fn assert_corrupt(restored: Result<(), CkptError>, what: &str) {
        assert!(
            matches!(&restored, Err(CkptError::Corrupt { context }) if context.contains(what)),
            "{restored:?} does not report {what:?}"
        );
    }

    #[test]
    fn restore_rejects_an_overfull_row() {
        let cfg = DistanceConfig { line_width: 1, ..DistanceConfig::paper_sized(8) };
        let image = [entry(0, Some(3)), entry(1, Some(3))];
        assert_corrupt(restore_image(cfg, &image, 0), "more entries than a line");
    }

    #[test]
    fn restore_rejects_a_repeated_tag() {
        let image = [entry(4, Some(3)), entry(4, Some(5))];
        assert_corrupt(restore_image(DistanceConfig::paper_sized(8), &image, 0), "repeats a tag");
    }

    #[test]
    fn restore_rejects_more_entries_than_the_capacity() {
        let cfg =
            DistanceConfig { wait_buffer_size: 1, line_width: 1, ..DistanceConfig::paper_sized(1) };
        // Rows in the past may each hold a slipped entry.
        let image = [entry(0, Some(1)), entry(1, Some(2)), entry(2, Some(3))];
        assert_corrupt(restore_image(cfg, &image, 5), "exceeds its capacity");
    }

    #[test]
    fn restore_rejects_more_waiting_entries_than_the_wait_buffer() {
        let cfg = DistanceConfig { wait_buffer_size: 2, ..DistanceConfig::paper_sized(8) };
        let image = [entry(0, None), entry(1, None), entry(2, None)];
        assert_corrupt(restore_image(cfg, &image, 0), "more waiting entries than its wait buffer");
    }

    #[test]
    fn restore_rejects_a_row_beyond_the_schedule_horizon() {
        let cfg = DistanceConfig::paper_sized(8);
        assert_corrupt(
            restore_image(cfg, &[entry(0, Some(20))], 11),
            "beyond the schedule horizon",
        );
        restore_image(cfg, &[entry(0, Some(19))], 11).expect("the window's last row restores");
    }

    #[test]
    fn flush_clears() {
        let mut iq = DistanceIq::new(DistanceConfig::paper_sized(8));
        iq.dispatch(0, DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(9), false))
            .unwrap();
        iq.flush();
        assert!(iq.is_empty());
    }
}
