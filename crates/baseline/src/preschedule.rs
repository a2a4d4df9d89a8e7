//! Michaud & Seznec's prescheduling instruction queue (§2, §6.3).
//!
//! Entries live in the shared [`Store`], which also selects from the
//! issue buffer; the scheduling array is a calendar [`Wheel`] of `(row,
//! tag)` records plus a sorted backlog of *slipped* rows (due rows the
//! buffer had no space for), and row occupancy and placement are the
//! [`Rows`] the distance queue shares. No path here allocates.

use chainiq_core::{
    insert_sorted, remove_sorted, DataOperands, DispatchInfo, DispatchStall, FuPool, InstTag,
    IqStats, IssueQueue, IssuedInst, Place, QuietCycle, Store, Wheel,
};
use chainiq_isa::{Cycle, NUM_ARCH_REGS};

use crate::rows::Rows;

/// Geometry of a [`PrescheduledIq`]; defaults follow the paper's §6.3
/// configuration ("as suggested by the authors for best performance").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrescheduleConfig {
    /// Conventional issue-buffer slots (the paper uses 32).
    pub issue_buffer_size: usize,
    /// Scheduling-array lines (the schedule horizon in cycles).
    pub num_lines: usize,
    /// Instruction slots per line (the paper uses 12).
    pub line_width: usize,
    /// Predicted load latency used to build the schedule (hit assumed).
    pub predicted_load_latency: u64,
}

impl PrescheduleConfig {
    /// The paper's §6.3 data points: a 32-entry issue buffer plus 8, 24,
    /// 56 or 120 lines of 12 instructions (128, 320, 704 or 1472 total
    /// slots).
    ///
    /// # Panics
    ///
    /// Panics if `num_lines` is zero.
    #[must_use]
    pub fn paper(num_lines: usize) -> Self {
        assert!(num_lines > 0, "the scheduling array needs at least one line");
        PrescheduleConfig {
            issue_buffer_size: 32,
            num_lines,
            line_width: 12,
            predicted_load_latency: 4,
        }
    }

    /// Total instruction slots (issue buffer + array).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.issue_buffer_size + self.num_lines * self.line_width
    }
}

/// Where the prescheduling queue holds an entry.
#[derive(Debug, Clone, Copy)]
struct Placement {
    /// Predicted issue cycle: the row of the scheduling array this entry
    /// occupies, in absolute time.
    scheduled_at: Cycle,
    /// Cycle the entry moved into the issue buffer (`Cycle::MAX` while
    /// still in the array).
    entered_buffer_at: Cycle,
}

/// A buffered entry is selectable once its operands are ready, never in
/// the cycle it entered the buffer; the array never issues.
impl Place for Placement {
    fn issue_at(&self, ops: &DataOperands) -> Option<Cycle> {
        Some(ops.ready_from()?.max(self.entered_buffer_at.checked_add(1)?))
    }
}

type Entry = chainiq_core::Entry<Placement>;

/// The prescheduling queue: a two-dimensional scheduling array whose rows
/// correspond to future issue cycles, feeding a small fully-associative
/// issue buffer from its oldest row.
///
/// Dispatch places each instruction in the row matching its *predicted*
/// ready time, computed from a register timing table with predicted
/// (hit) load latencies. The schedule is quasi-static: it never adapts
/// after dispatch, so a mispredicted latency delivers instructions to
/// the issue buffer before they are ready, consuming its precious slots —
/// the failure mode the paper's segmented design avoids (§3, §6.3).
///
/// Rows are kept in absolute time: future rows sit on a calendar wheel
/// keyed by row cycle, and entries whose row has passed *slip* into a
/// sorted backlog (`overdue`) until buffer space appears. A
/// *recirculation* rule evicts the youngest unready buffer entry when
/// the buffer has filled with unready instructions while an older due
/// instruction waits in the array — without it a mis-scheduled
/// producer/consumer pair wedges the queue permanently (Michaud & Seznec
/// likewise recirculate on mis-schedule).
#[derive(Debug, Clone)]
pub struct PrescheduledIq {
    config: PrescheduleConfig,
    store: Store<Placement>,
    /// Issue-buffer residents in ascending tag (age) order.
    buffer: Vec<InstTag>,
    /// `(row, tag)` records of the array entries whose row lies ahead of
    /// the drain clock, keyed by row.
    due_wheel: Wheel<(Cycle, InstTag)>,
    /// Due records the issue buffer could not absorb yet, sorted by
    /// `(row, tag)`, the order they are admitted in.
    overdue: Vec<(Cycle, InstTag)>,
    /// Occupancy of each row still holding array entries.
    rows: Rows,
    /// Predicted cycle each architectural register's value is ready.
    reg_ready: Vec<Cycle>,
    /// The most recent `tick` cycle (drain clock for the wheel).
    last_now: Cycle,
    stats: IqStats,
    /// Cycles the array could not move a due row into the buffer.
    shift_stalls: u64,
    /// Buffer entries sent back to the array by the recirculation rule.
    recirculations: u64,
    /// Scratch for the records one drain delivers.
    drain_scratch: Vec<(Cycle, InstTag)>,
}

impl PrescheduledIq {
    /// Creates an empty prescheduling queue.
    #[must_use]
    pub fn new(config: PrescheduleConfig) -> Self {
        PrescheduledIq {
            config,
            store: Store::new(config.capacity(), 64),
            buffer: Vec::new(),
            // One revolution covers the schedule horizon.
            due_wheel: Wheel::new(2 * config.num_lines),
            overdue: Vec::new(),
            rows: Rows::new(config.num_lines, config.line_width, config.predicted_load_latency),
            reg_ready: vec![0; NUM_ARCH_REGS],
            last_now: 0,
            stats: IqStats::default(),
            shift_stalls: 0,
            recirculations: 0,
            drain_scratch: Vec::new(),
        }
    }

    /// Cycles a due row could not (fully) drain into the issue buffer.
    #[must_use]
    pub fn shift_stalls(&self) -> u64 {
        self.shift_stalls
    }

    /// Buffer entries recirculated back into the array.
    #[must_use]
    pub fn recirculations(&self) -> u64 {
        self.recirculations
    }

    /// Files a stored `entry` in the issue buffer or, while it waits in
    /// the array, at its row (which the caller has counted). Dispatch and
    /// restore both file entries through here.
    fn file(&mut self, entry: &Entry) {
        if entry.place.entered_buffer_at == Cycle::MAX {
            self.file_in_row(entry.place.scheduled_at, entry.tag);
        } else {
            insert_sorted(&mut self.buffer, entry.tag);
        }
    }

    /// Files array-resident `tag` at `row`: on the due wheel while the
    /// row lies ahead of the drain clock, else in the slipped backlog at
    /// its `(row, tag)` place.
    fn file_in_row(&mut self, row: Cycle, tag: InstTag) {
        if row > self.last_now {
            self.due_wheel.schedule(row, (row, tag));
        } else {
            let pos = self.overdue.partition_point(|&r| r < (row, tag));
            self.overdue.insert(pos, (row, tag));
        }
    }

    /// Moves an array entry (already removed from `overdue` by the
    /// caller) into the issue buffer, uncounting it from its row.
    fn admit(&mut self, now: Cycle, sched: Cycle, tag: InstTag) {
        if let Some(slot) = self.store.slot_of(tag) {
            self.store.update(slot, |e| e.entered_buffer_at = now);
        }
        insert_sorted(&mut self.buffer, tag);
        self.rows.remove(sched);
    }
}

impl IssueQueue for PrescheduledIq {
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

        // Merge newly due rows off the wheel into the slipped backlog at
        // their `(row, tag)` admission order (recirculated records can
        // arrive tag-out-of-order within a row).
        let mut drained = std::mem::take(&mut self.drain_scratch);
        drained.clear();
        self.due_wheel.drain_into(now, &mut drained);
        for &(sched, tag) in &drained {
            self.file_in_row(sched, tag);
        }
        self.drain_scratch = drained;

        // Admit due entries (oldest row first, then oldest age) while the
        // buffer has space.
        let space = self.config.issue_buffer_size - self.buffer.len();
        let admitted = space.min(self.overdue.len());
        let blocked = self.overdue.len() > space;
        for i in 0..admitted {
            let (sched, tag) = self.overdue[i];
            self.admit(now, sched, tag);
        }
        self.overdue.drain(..admitted);
        if !blocked {
            return;
        }
        self.shift_stalls += 1;
        // Recirculation: if nothing in the buffer is ready and an older
        // due instruction waits outside, send the youngest (so unready)
        // buffer entry back to the array one cycle out and admit the older
        // one, so the machine cannot wedge. Look for a ready entry first.
        let ready =
            |t| self.store.get(t).and_then(|e| e.ops.ready_from()).is_some_and(|r| r <= now);
        if self.buffer.iter().any(|&t| ready(t)) {
            return;
        }
        let oldest_due = self.overdue.iter().copied().enumerate().min_by_key(|&(_, (_, tag))| tag);
        let (Some((i, (row, due))), Some(&young)) = (oldest_due, self.buffer.last()) else {
            return;
        };
        if due < young {
            self.buffer.pop();
            if let Some(slot) = self.store.slot_of(young) {
                self.store.update(slot, |e| {
                    e.entered_buffer_at = Cycle::MAX;
                    e.scheduled_at = now + 1;
                });
            }
            self.rows.add(now + 1);
            self.file_in_row(now + 1, young);
            self.overdue.remove(i);
            self.admit(now, row, due);
            self.recirculations += 1;
        }
    }

    fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
        if self.store.len() >= self.config.capacity() {
            self.stats.stalls_full += 1;
            return Err(DispatchStall::QueueFull);
        }
        // Predicted issue cycle, booked in the first row with space.
        let regs = info.srcs.iter().flatten().map(|s| self.reg_ready[s.reg.index()]);
        let Some(row) = self.rows.book(regs.fold(now, Cycle::max), now) else {
            self.stats.stalls_full += 1;
            return Err(DispatchStall::QueueFull);
        };
        let ops = DataOperands::from_srcs(&info.srcs);
        let place = Placement { scheduled_at: row, entered_buffer_at: Cycle::MAX };
        let entry = Entry { tag: info.tag, op: info.op, ops, place };
        self.store.insert(entry);
        self.file(&entry);
        if let Some(dest) = info.dest {
            // Quasi-static: the placement row, not actual behaviour,
            // determines the predicted completion.
            self.reg_ready[dest.index()] = row + self.rows.produce_latency(info.op);
        }
        self.stats.dispatched += 1;
        Ok(())
    }

    fn select_issue_into(&mut self, now: Cycle, fus: &mut FuPool, out: &mut Vec<IssuedInst>) {
        let before = out.len();
        let buffer = &mut self.buffer;
        self.store.select(now, fus, out, |_, e| remove_sorted(buffer, e.tag));
        self.stats.issued += (out.len() - before) as u64;
    }

    fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
        self.store.announce(producer, ready_at, |_| {});
    }

    fn flush(&mut self) {
        self.store.clear();
        self.buffer.clear();
        self.due_wheel.reset(self.last_now);
        self.overdue.clear();
        self.rows.clear();
        self.reg_ready.fill(0);
    }

    fn stats(&self) -> IqStats {
        self.stats
    }

    fn next_event(&self, quiet: &QuietCycle) -> Cycle {
        let next = quiet.now + 1;
        // A due row admits into free buffer slots; a dispatch refused
        // with the queue not full was refused by the row window, which
        // slides every cycle.
        let space = self.config.issue_buffer_size - self.buffer.len();
        if (!self.overdue.is_empty() && space > 0)
            || (quiet.refused.is_some() && self.store.len() < self.config.capacity())
        {
            return next;
        }
        // The store files each buffered entry at the cycle it becomes
        // selectable.
        let first_ready = self.store.next_event(quiet);
        if first_ready <= next {
            return next;
        }
        // A blocked due row recirculates past a younger buffer entry once
        // nothing in the buffer is ready, which holds until `first_ready`.
        let oldest_due = self.overdue.iter().map(|&(_, tag)| tag).min();
        if oldest_due.zip(self.buffer.last()).is_some_and(|(due, &young)| due < young) {
            return next;
        }
        self.due_wheel.next_due(first_ready).max(next)
    }

    fn skip_quiet(&mut self, quiet: &QuietCycle, k: u64) {
        self.stats.cycles += k;
        self.stats.occupancy_accum += k * self.store.len() as u64;
        self.last_now = quiet.now + k;
        // A due row still waiting has found the buffer full every cycle.
        if !self.overdue.is_empty() {
            self.shift_stalls += k;
        }
        if quiet.refused.is_some() {
            self.stats.stalls_full += k;
        }
    }
}

#[cfg(test)]
impl PrescheduledIq {
    /// The scheduling-array row (absolute cycle) `tag` was placed in.
    fn sched_row(&self, tag: InstTag) -> Cycle {
        self.store.get(tag).expect("tag is resident").place.scheduled_at
    }
}

chainiq_ckpt::pack_fields!(PrescheduleConfig {
    issue_buffer_size,
    num_lines,
    line_width,
    predicted_load_latency
});

chainiq_ckpt::pack_fields!(Placement { scheduled_at, entered_buffer_at });

impl chainiq_ckpt::Snapshot for PrescheduledIq {
    const COMPONENT: &'static str = "baseline.preschedule";
    const VERSION: u16 = 3;

    /// V3 lists the entries in tag order (each carries its residence, row
    /// and operand readiness), the drain clock, the register timing table
    /// and the counters; every index is rebuilt from them.
    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        self.config.pack(w);
        self.store.save(w);
        self.last_now.pack(w);
        self.reg_ready.pack(w);
        self.stats.pack(w);
        self.shift_stalls.pack(w);
        self.recirculations.pack(w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let corrupt =
            |context: &str| chainiq_ckpt::CkptError::Corrupt { context: context.to_string() };
        let config: PrescheduleConfig = Pack::unpack(r)?;
        if config != self.config {
            return Err(corrupt("prescheduled IQ config differs from the running queue"));
        }
        let entries: Vec<Entry> = Pack::unpack(r)?;
        let last_now: Cycle = Pack::unpack(r)?;
        let reg_ready: Vec<Cycle> = Pack::unpack(r)?;
        let stats: IqStats = Pack::unpack(r)?;
        let shift_stalls: u64 = Pack::unpack(r)?;
        let recirculations: u64 = Pack::unpack(r)?;
        if reg_ready.len() != NUM_ARCH_REGS {
            return Err(corrupt("prescheduled IQ register timing table has the wrong shape"));
        }
        let horizon = self.rows.horizon(last_now);
        for e in &entries {
            if e.place.entered_buffer_at == Cycle::MAX {
                // Array-resident: recirculation reschedules at most one
                // cycle out, dispatch at most a horizon out.
                if e.place.scheduled_at > horizon {
                    return Err(corrupt("prescheduled IQ row lies beyond the schedule horizon"));
                }
            } else if e.place.entered_buffer_at > last_now {
                return Err(corrupt("prescheduled IQ buffer admission lies in the future"));
            }
        }
        let buffered = entries.iter().filter(|e| e.place.entered_buffer_at != Cycle::MAX).count();
        if buffered > config.issue_buffer_size {
            return Err(corrupt("prescheduled IQ issue buffer overflows its size"));
        }

        // Empty every index at the image's clock, then file each entry
        // the way dispatch does.
        self.last_now = last_now;
        self.flush();
        self.store.restore(&entries, config.capacity(), "prescheduled")?;
        for e in &entries {
            if e.place.entered_buffer_at == Cycle::MAX {
                self.rows.add(e.place.scheduled_at);
            }
            self.file(e);
        }
        self.reg_ready = reg_ready;
        self.stats = stats;
        self.shift_stalls = shift_stalls;
        self.recirculations = recirculations;
        self.drain_scratch.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_core::SrcOperand;
    use chainiq_isa::ArchReg;
    use chainiq_isa::OpClass;

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

    #[test]
    fn paper_capacities() {
        assert_eq!(PrescheduleConfig::paper(8).capacity(), 128);
        assert_eq!(PrescheduleConfig::paper(24).capacity(), 320);
        assert_eq!(PrescheduleConfig::paper(56).capacity(), 704);
        assert_eq!(PrescheduleConfig::paper(120).capacity(), 1472);
    }

    #[test]
    fn ready_instruction_reaches_buffer_then_issues() {
        let mut iq = PrescheduledIq::new(PrescheduleConfig::paper(8));
        iq.dispatch(0, DispatchInfo::compute(InstTag(0), OpClass::IntAlu, ArchReg::int(1), &[]))
            .unwrap();
        let mut fus = FuPool::table1();
        iq.tick(1, false);
        assert_eq!(iq.buffer.len(), 1);
        assert!(iq.select_issue(1, &mut fus).is_empty(), "entered the buffer this cycle");
        iq.tick(2, false);
        assert_eq!(iq.select_issue(2, &mut fus).len(), 1);
    }

    #[test]
    fn dependent_is_scheduled_behind_its_producer() {
        let mut iq = PrescheduledIq::new(PrescheduleConfig::paper(8));
        iq.dispatch(0, DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(9), false))
            .unwrap();
        iq.dispatch(
            0,
            DispatchInfo::compute(InstTag(1), OpClass::IntAlu, ArchReg::int(2), &[dep(1, 0)]),
        )
        .unwrap();
        let load_row = iq.sched_row(InstTag(0));
        let dep_row = iq.sched_row(InstTag(1));
        assert_eq!(dep_row, load_row + 4, "consumer sits a predicted load latency behind");
    }

    #[test]
    fn consumers_wake_only_when_their_producers_announce() {
        let mut iq = PrescheduledIq::new(PrescheduleConfig::paper(8));
        let mut fus = FuPool::table1();
        // Producers 90 and 91 live outside the queue. Consumer 1 waits on
        // both (one on each operand), consumer 2 on 90 twice.
        let consumers = [[dep(1, 90), dep(2, 91)], [dep(1, 90), dep(3, 90)]];
        for (tag, srcs) in (1..).zip(consumers) {
            iq.dispatch(
                0,
                DispatchInfo::compute(InstTag(tag), OpClass::IntAlu, ArchReg::int(4), &srcs),
            )
            .unwrap();
        }
        let mut issued = Vec::new();
        let mut step = |iq: &mut PrescheduledIq, now| {
            iq.tick(now, false);
            issued.extend(iq.select_issue(now, &mut fus).iter().map(|i| (now, i.tag.0)));
            fus.next_cycle();
        };
        for now in 1..10 {
            step(&mut iq, now);
        }
        iq.announce_ready(InstTag(90), 12);
        iq.announce_ready(InstTag(91), 14);
        for now in 10..20 {
            step(&mut iq, now);
        }
        assert_eq!(issued, vec![(12, 2), (14, 1)], "each issues once its last producer is ready");
    }

    #[test]
    fn mispredicted_latency_clogs_the_buffer() {
        let mut iq = PrescheduledIq::new(PrescheduleConfig::paper(8));
        iq.dispatch(0, DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(9), false))
            .unwrap();
        for i in 1..6u64 {
            iq.dispatch(
                0,
                DispatchInfo::compute(InstTag(i), OpClass::IntAlu, ArchReg::int(2), &[dep(1, 0)]),
            )
            .unwrap();
        }
        let mut fus = FuPool::table1();
        let mut drained = 0;
        for now in 1..12 {
            iq.tick(now, false);
            drained += iq.select_issue(now, &mut fus).len();
            fus.next_cycle();
        }
        // The load issued (1); its dependents sit unready in the buffer.
        assert_eq!(drained, 1);
        assert_eq!(iq.buffer.len(), 5, "unready dependents occupy buffer slots");
    }

    #[test]
    fn full_row_spills_to_next() {
        let mut iq = PrescheduledIq::new(PrescheduleConfig::paper(8));
        for i in 0..15u64 {
            iq.dispatch(
                0,
                DispatchInfo::compute(InstTag(i), OpClass::IntAlu, ArchReg::int(1), &[]),
            )
            .unwrap();
        }
        let first_row = iq.sched_row(InstTag(0));
        let spilled = (0..15).filter(|&t| iq.sched_row(InstTag(t)) == first_row + 1).count();
        assert_eq!(spilled, 3, "12 fit the first row, 3 spill");
    }

    #[test]
    fn capacity_exhaustion_stalls_dispatch() {
        let cfg = PrescheduleConfig {
            issue_buffer_size: 4,
            num_lines: 2,
            line_width: 2,
            predicted_load_latency: 4,
        };
        let mut iq = PrescheduledIq::new(cfg);
        for i in 0..4u64 {
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
    }

    #[test]
    fn full_buffer_stalls_the_drain() {
        let cfg = PrescheduleConfig {
            issue_buffer_size: 2,
            num_lines: 4,
            line_width: 2,
            predicted_load_latency: 4,
        };
        let mut iq = PrescheduledIq::new(cfg);
        // Two unready instructions (producer never announced) fill the
        // buffer; a third must wait in the array.
        for i in 0..3u64 {
            iq.dispatch(
                0,
                DispatchInfo::compute(InstTag(i), OpClass::IntAlu, ArchReg::int(2), &[dep(1, 99)]),
            )
            .unwrap();
        }
        iq.tick(1, false);
        assert_eq!(iq.buffer.len(), 2);
        let before = iq.shift_stalls();
        iq.tick(2, false);
        assert!(iq.shift_stalls() > before);
        assert_eq!(iq.buffer.len(), 2);
    }

    #[test]
    fn recirculation_prevents_wedge_when_consumer_precedes_producer() {
        // Tiny buffer; consumers mis-scheduled ahead of their producer.
        let cfg = PrescheduleConfig {
            issue_buffer_size: 2,
            num_lines: 8,
            line_width: 2,
            predicted_load_latency: 4,
        };
        let mut iq = PrescheduledIq::new(cfg);
        let mut fus = FuPool::table1();
        // Producer announced late; consumers placed early by the (bogus)
        // timing table state.
        iq.dispatch(
            0,
            DispatchInfo::compute(InstTag(5), OpClass::IntAlu, ArchReg::int(3), &[dep(2, 9)]),
        )
        .unwrap();
        iq.dispatch(
            0,
            DispatchInfo::compute(InstTag(6), OpClass::IntAlu, ArchReg::int(4), &[dep(2, 9)]),
        )
        .unwrap();
        // An *older* ready instruction arrives afterwards (e.g. replayed).
        iq.dispatch(0, DispatchInfo::compute(InstTag(1), OpClass::IntAlu, ArchReg::int(5), &[]))
            .unwrap();
        let mut issued = Vec::new();
        for now in 1..12 {
            iq.tick(now, false);
            issued.extend(iq.select_issue(now, &mut fus));
            fus.next_cycle();
        }
        assert!(
            issued.iter().any(|i| i.tag == InstTag(1)),
            "the ready old instruction must get through the clogged buffer"
        );
        assert!(iq.recirculations() > 0);
    }

    #[test]
    fn recirculated_record_merges_into_the_backlog_in_row_tag_order() {
        let cfg = PrescheduleConfig {
            issue_buffer_size: 2,
            num_lines: 8,
            line_width: 2,
            predicted_load_latency: 4,
        };
        let mut iq = PrescheduledIq::new(cfg);
        let mut fus = FuPool::table1();
        // Rows of two: 5 and 6 (never ready) in row 1; the older, ready 1
        // and 7 in row 2; ready 8 spills to row 3.
        for (tag, srcs) in
            [(5, vec![dep(2, 99)]), (6, vec![dep(2, 99)]), (1, vec![]), (7, vec![]), (8, vec![])]
        {
            iq.dispatch(
                0,
                DispatchInfo::compute(InstTag(tag), OpClass::IntAlu, ArchReg::int(3), &srcs),
            )
            .unwrap();
        }
        assert_eq!(iq.sched_row(InstTag(8)), 3);
        let mut step = |iq: &mut PrescheduledIq, now| {
            iq.tick(now, false);
            let issued: Vec<u64> = iq.select_issue(now, &mut fus).iter().map(|i| i.tag.0).collect();
            fus.next_cycle();
            issued
        };
        step(&mut iq, 1);
        // Row 2 is blocked behind the unready 5 and 6: 6 goes back to the
        // array one row out (row 3, after 8's record) and 1 takes its slot.
        step(&mut iq, 2);
        assert_eq!(iq.recirculations(), 1);
        assert_eq!(iq.sched_row(InstTag(6)), 3);
        // Row 3 drains 8 then 6; the backlog holds them by tag within the
        // row, behind row 2's slipped 7.
        assert_eq!(step(&mut iq, 3), vec![1]);
        let backlog: Vec<(Cycle, u64)> = iq.overdue.iter().map(|&(r, t)| (r, t.0)).collect();
        assert_eq!(backlog, vec![(2, 7), (3, 6), (3, 8)]);
        // Admission follows that order: 7 at cycle 4, 6 once 7 has issued.
        assert!(step(&mut iq, 4).is_empty());
        assert_eq!(iq.store.get(InstTag(7)).unwrap().place.entered_buffer_at, 4);
        assert_eq!(step(&mut iq, 5), vec![7]);
        step(&mut iq, 6);
        assert_eq!(iq.store.get(InstTag(6)).unwrap().place.entered_buffer_at, 6);
        assert_eq!(iq.overdue, vec![(3, InstTag(8))]);
    }

    #[test]
    fn flush_clears_all_state() {
        let mut iq = PrescheduledIq::new(PrescheduleConfig::paper(8));
        iq.dispatch(0, DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(9), false))
            .unwrap();
        iq.flush();
        assert!(iq.is_empty());
    }
}
