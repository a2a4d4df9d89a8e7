//! Michaud & Seznec's prescheduling instruction queue (§2, §6.3).
//!
//! The v3 kernel rebuild mirrors the segmented queue's data layout:
//! entries live in a recycled slab indexed by a [`TagMap`]; the
//! scheduling array is a calendar [`Wheel`] of `(row, tag)` records plus
//! a sorted backlog of *slipped* rows (due rows the issue buffer had no
//! space for); per-producer wakeup subscriptions are [`WaiterLists`];
//! and row occupancy is a [`TagMap`] keyed by row cycle.
//! A cycle with nothing due costs one empty-bucket probe instead of an
//! ordered-tree range scan, and no path here allocates or rebalances.

use chainiq_core::{
    DispatchInfo, DispatchStall, FuPool, InstTag, IqStats, IssueQueue, IssuedInst, QuietCycle,
    TagMap, WaiterLists, Wheel,
};
use chainiq_isa::{ArchReg, Cycle, OpClass, NUM_ARCH_REGS};

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

#[derive(Debug, Clone, Copy)]
struct DataOperand {
    producer: InstTag,
    ready_at: Option<Cycle>,
}

#[derive(Debug, Clone)]
struct Entry {
    /// Whether the slot holds a queued instruction (dead slots are on the
    /// free list awaiting reuse).
    live: bool,
    tag: InstTag,
    op: OpClass,
    ops: [Option<DataOperand>; 2],
    /// Predicted issue cycle: the row of the scheduling array this entry
    /// occupies, in absolute time.
    scheduled_at: Cycle,
    /// Cycle the entry moved into the issue buffer (`Cycle::MAX` while
    /// still in the array).
    entered_buffer_at: Cycle,
}

impl Entry {
    fn ready(&self, now: Cycle) -> bool {
        self.ops.iter().flatten().all(|o| o.ready_at.map(|r| r <= now).unwrap_or(false))
    }

    /// The first cycle every operand is ready, or `None` while a producer
    /// is unannounced.
    fn ready_from(&self) -> Option<Cycle> {
        let mut at = 0;
        for o in self.ops.iter().flatten() {
            at = at.max(o.ready_at?);
        }
        Some(at)
    }
}

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
    /// Entry slab: contiguous storage addressed by the slot numbers the
    /// indexes carry. Slots are recycled LIFO.
    slots: Vec<Entry>,
    free_slots: Vec<u32>,
    /// Tag → slab slot for every queued instruction.
    by_tag: TagMap<u32>,
    /// Issue-buffer residents in ascending tag (age) order.
    buffer: Vec<InstTag>,
    /// The data operands waiting on each producer's wakeup
    /// announcement; node `2 * slot + k` is slot `slot`'s operand `k`.
    waiters: WaiterLists,
    /// Array rows still in the future, as `(row, tag)` records keyed by
    /// row cycle. Each record names an entry still waiting in the array
    /// at that row: an entry leaves the array only through this drain,
    /// and a flush resets the wheel with every other index.
    due_wheel: Wheel<(Cycle, InstTag)>,
    /// Due records the issue buffer could not absorb, sorted by
    /// `(row, tag)` — the canonical admission order the old ordered-tree
    /// prefix scan produced.
    overdue: Vec<(Cycle, InstTag)>,
    /// Occupancy of each still-populated row (`scheduled_at` → entries).
    row_counts: TagMap<u32>,
    /// Predicted absolute cycle each architectural register's value is
    /// ready.
    reg_ready: Vec<Cycle>,
    /// The most recent `tick` cycle (drain clock for the wheel).
    last_now: Cycle,
    stats: IqStats,
    /// Cycles the array could not move a due row into the buffer.
    shift_stalls: u64,
    /// Buffer entries sent back to the array by the recirculation rule.
    recirculations: u64,
    /// Scratch buffers so the hot paths never allocate.
    drain_scratch: Vec<(Cycle, InstTag)>,
    scratch_tags: Vec<InstTag>,
}

impl PrescheduledIq {
    /// Creates an empty prescheduling queue.
    #[must_use]
    pub fn new(config: PrescheduleConfig) -> Self {
        PrescheduledIq {
            config,
            slots: Vec::new(),
            free_slots: Vec::new(),
            by_tag: TagMap::new(),
            buffer: Vec::new(),
            waiters: WaiterLists::default(),
            // One revolution comfortably covers the schedule horizon, so
            // in-horizon records never wait out a lap.
            due_wheel: Wheel::new(2 * config.num_lines),
            overdue: Vec::new(),
            row_counts: TagMap::new(),
            reg_ready: vec![0; NUM_ARCH_REGS],
            last_now: 0,
            stats: IqStats::default(),
            shift_stalls: 0,
            recirculations: 0,
            drain_scratch: Vec::new(),
            scratch_tags: Vec::new(),
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &PrescheduleConfig {
        &self.config
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

    /// Instructions currently waiting in the issue buffer.
    #[must_use]
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// The live entry holding `tag`, if resident.
    fn entry(&self, tag: InstTag) -> Option<&Entry> {
        self.by_tag.get(tag.0).map(|slot| &self.slots[slot as usize])
    }

    /// Stores `entry` in a free slab slot and returns the slot number,
    /// growing the waiter nodes alongside the slab.
    fn alloc_slot(&mut self, entry: Entry) -> u32 {
        if let Some(s) = self.free_slots.pop() {
            debug_assert!(!self.slots[s as usize].live);
            self.slots[s as usize] = entry;
            s
        } else {
            self.slots.push(entry);
            self.waiters.grow(2 * self.slots.len());
            (self.slots.len() - 1) as u32
        }
    }

    /// Files the live entry in `slot` in every index: the tag map, its
    /// producers' waiter lists, and the issue buffer or, while it waits
    /// in the array, its row. Dispatch and restore both index entries
    /// through here.
    fn index_slot(&mut self, slot: u32) {
        let e = &self.slots[slot as usize];
        let (tag, ops, row) = (e.tag, e.ops, e.scheduled_at);
        let buffered = e.entered_buffer_at != Cycle::MAX;
        self.by_tag.insert(tag.0, slot);
        for (k, o) in ops.iter().enumerate() {
            if let Some(o) = o {
                self.waiters.push(o.producer, 2 * slot + k as u32);
            }
        }
        if buffered {
            self.buffer_insert(tag);
        } else {
            self.file_in_row(row, tag);
        }
    }

    /// Files array-resident `tag` at `row`: on the due wheel while the
    /// row lies ahead of the drain clock, else in the slipped backlog at
    /// its `(row, tag)` place. Counts it in the row either way.
    fn file_in_row(&mut self, row: Cycle, tag: InstTag) {
        if row > self.last_now {
            self.due_wheel.schedule(row, (row, tag));
        } else {
            let pos = self.overdue.partition_point(|&r| r < (row, tag));
            self.overdue.insert(pos, (row, tag));
        }
        self.row_counts.insert(row, self.row_count(row) + 1);
    }

    /// Entries counted in `row`.
    fn row_count(&self, row: Cycle) -> u32 {
        self.row_counts.get(row).unwrap_or(0)
    }

    /// Inserts `tag` into the tag-ordered issue buffer.
    fn buffer_insert(&mut self, tag: InstTag) {
        if let Err(pos) = self.buffer.binary_search(&tag) {
            self.buffer.insert(pos, tag);
        } else {
            debug_assert!(false, "tag is already buffered");
        }
    }

    /// Moves an array entry (already removed from `overdue` by the
    /// caller) into the issue buffer, uncounting it from its row.
    fn admit(&mut self, now: Cycle, sched: Cycle, tag: InstTag) {
        let Some(slot) = self.by_tag.get(tag.0) else {
            debug_assert!(false, "due record names a non-resident tag");
            return;
        };
        self.slots[slot as usize].entered_buffer_at = now;
        self.buffer_insert(tag);
        let count = self.row_count(sched);
        debug_assert!(count > 0, "row count must track its entries");
        if count <= 1 {
            self.row_counts.remove(sched);
        } else {
            self.row_counts.insert(sched, count - 1);
        }
    }

    /// Removes an issued entry from every index. Only buffered entries
    /// issue; a squash clears every index wholesale in `flush`.
    fn remove_entry(&mut self, tag: InstTag) {
        let Some(slot) = self.by_tag.remove(tag.0) else { return };
        let s = slot as usize;
        debug_assert!(self.slots[s].live, "index points at a dead slot");
        for (k, o) in self.slots[s].ops.iter().enumerate() {
            if let Some(o) = o {
                self.waiters.remove(o.producer, 2 * slot + k as u32);
            }
        }
        let e = &mut self.slots[s];
        e.live = false;
        debug_assert!(e.entered_buffer_at != Cycle::MAX, "only buffered entries are removed");
        if let Ok(pos) = self.buffer.binary_search(&tag) {
            self.buffer.remove(pos);
        }
        self.free_slots.push(slot);
    }

    fn predicted_ready(&self, now: Cycle, info: &DispatchInfo) -> Cycle {
        let mut ready = now;
        for s in info.srcs.iter().flatten() {
            ready = ready.max(self.reg_ready[s.reg.index()]);
        }
        ready
    }

    fn produce_latency(&self, op: OpClass) -> u64 {
        if op == OpClass::Load {
            self.config.predicted_load_latency
        } else {
            u64::from(op.exec_latency())
        }
    }

    fn set_reg_ready(&mut self, reg: ArchReg, at: Cycle) {
        self.reg_ready[reg.index()] = at;
    }
}

impl IssueQueue for PrescheduledIq {
    fn capacity(&self) -> usize {
        self.config.capacity()
    }

    fn occupancy(&self) -> usize {
        self.by_tag.len()
    }

    fn tick(&mut self, now: Cycle, _execution_idle: bool) {
        self.stats.cycles += 1;
        self.stats.occupancy_accum += self.by_tag.len() as u64;
        self.last_now = now;

        // Merge newly due rows off the wheel into the slipped backlog at
        // their `(row, tag)` admission order, the order the old ordered
        // tree gave (recirculated records can arrive tag-out-of-order
        // within a row).
        let mut drained = std::mem::take(&mut self.drain_scratch);
        drained.clear();
        self.due_wheel.drain_into(now, &mut drained);
        for &(sched, tag) in &drained {
            debug_assert!(
                self.by_tag.get(tag.0).is_some_and(|slot| {
                    let e = &self.slots[slot as usize];
                    e.entered_buffer_at == Cycle::MAX && e.scheduled_at == sched
                }),
                "due record names an entry not waiting in the array at its row"
            );
            let pos = self.overdue.partition_point(|&r| r < (sched, tag));
            self.overdue.insert(pos, (sched, tag));
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
        if blocked {
            self.shift_stalls += 1;
            // Recirculation: if nothing in the buffer is ready and an
            // older due instruction waits outside, swap it with the
            // youngest unready buffer entry so the machine cannot wedge.
            // A ready buffer entry rules it out, so look for one first.
            if self.buffer.iter().any(|&t| self.entry(t).is_some_and(|e| e.ready(now))) {
                return;
            }
            let oldest_due =
                self.overdue.iter().copied().enumerate().min_by_key(|&(_, (_, tag))| tag);
            if let Some((due_idx, (due_sched, due_tag))) = oldest_due {
                // Nothing buffered is ready, so the youngest unready entry
                // is the youngest entry.
                if let Some(&buf_tag) = self.buffer.last() {
                    if due_tag < buf_tag {
                        // Send the young unready entry back to the array,
                        // rescheduled one cycle out, and admit the older
                        // one.
                        if let Ok(pos) = self.buffer.binary_search(&buf_tag) {
                            self.buffer.remove(pos);
                        }
                        let Some(slot) = self.by_tag.get(buf_tag.0) else { return };
                        let e = &mut self.slots[slot as usize];
                        e.entered_buffer_at = Cycle::MAX;
                        e.scheduled_at = now + 1;
                        self.file_in_row(now + 1, buf_tag);
                        self.overdue.remove(due_idx);
                        self.admit(now, due_sched, due_tag);
                        self.recirculations += 1;
                    }
                }
            }
        }
    }

    fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
        if self.by_tag.len() >= self.config.capacity() {
            self.stats.stalls_full += 1;
            return Err(DispatchStall::QueueFull);
        }
        // Predicted issue cycle, clamped to the schedule horizon, spilled
        // to the next row with space.
        let ready = self.predicted_ready(now, &info);
        let horizon = now + self.config.num_lines as u64;
        let first = ready.clamp(now + 1, horizon);
        let Some(row) =
            (first..=horizon).find(|&c| self.row_count(c) < self.config.line_width as u32)
        else {
            self.stats.stalls_full += 1;
            return Err(DispatchStall::QueueFull);
        };

        let mut ops = [None, None];
        for (i, s) in info.srcs.iter().enumerate() {
            if let Some(s) = s {
                if let Some(producer) = s.producer {
                    ops[i] = Some(DataOperand { producer, ready_at: s.known_ready_at });
                }
            }
        }
        let slot = self.alloc_slot(Entry {
            live: true,
            tag: info.tag,
            op: info.op,
            ops,
            scheduled_at: row,
            entered_buffer_at: Cycle::MAX,
        });
        self.index_slot(slot);
        if let Some(dest) = info.dest {
            // Quasi-static: the placement row, not actual behaviour,
            // determines the predicted completion.
            self.set_reg_ready(dest, row + self.produce_latency(info.op));
        }
        self.stats.dispatched += 1;
        Ok(())
    }

    fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
        let mut issued = Vec::new();
        self.select_issue_into(now, fus, &mut issued);
        issued
    }

    fn select_issue_into(&mut self, now: Cycle, fus: &mut FuPool, out: &mut Vec<IssuedInst>) {
        let mut ready = std::mem::take(&mut self.scratch_tags);
        ready.clear();
        ready.extend(
            self.buffer.iter().copied().filter(|&t| {
                self.entry(t).is_some_and(|e| e.entered_buffer_at < now && e.ready(now))
            }),
        );
        let before = out.len();
        for &tag in &ready {
            if fus.slots_left() == 0 {
                break;
            }
            let Some(op) = self.entry(tag).map(|e| e.op) else { continue };
            if !fus.try_issue(now, op) {
                continue;
            }
            self.remove_entry(tag);
            out.push(IssuedInst { tag, op });
        }
        self.scratch_tags = ready;
        self.stats.issued += (out.len() - before) as u64;
    }

    fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
        let mut cur = self.waiters.first(producer);
        while let Some(node) = cur {
            let (slot, k) = ((node / 2) as usize, (node % 2) as usize);
            if let Some(op) = self.slots[slot].ops[k].as_mut() {
                debug_assert_eq!(op.producer, producer, "waiter node on the wrong producer list");
                op.ready_at = Some(ready_at);
            }
            cur = self.waiters.next(node);
        }
    }

    fn flush(&mut self) {
        self.slots.clear();
        self.free_slots.clear();
        self.by_tag.clear();
        self.buffer.clear();
        self.waiters.clear();
        self.due_wheel.reset(self.last_now);
        self.overdue.clear();
        self.row_counts.clear();
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
            || (quiet.refused.is_some() && self.by_tag.len() < self.config.capacity())
        {
            return next;
        }
        // Every buffered entry was admitted by `now`, so it is selectable
        // exactly when its operands are ready.
        let first_ready = self
            .buffer
            .iter()
            .filter_map(|&t| self.entry(t).and_then(Entry::ready_from))
            .min()
            .unwrap_or(Cycle::MAX);
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
        self.stats.occupancy_accum += k * self.by_tag.len() as u64;
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
        self.entry(tag).expect("tag is resident").scheduled_at
    }

    /// Queued instructions whose placement row is `row` (regardless of
    /// whether they have since moved into the issue buffer).
    fn row_population(&self, row: Cycle) -> usize {
        self.slots.iter().filter(|e| e.live && e.scheduled_at == row).count()
    }
}

chainiq_ckpt::pack_fields!(PrescheduleConfig {
    issue_buffer_size,
    num_lines,
    line_width,
    predicted_load_latency
});

chainiq_ckpt::pack_fields!(DataOperand { producer, ready_at });

chainiq_ckpt::pack_fields!(Entry { live, tag, op, ops, scheduled_at, entered_buffer_at });

impl chainiq_ckpt::Snapshot for PrescheduledIq {
    const COMPONENT: &'static str = "baseline.preschedule";
    const VERSION: u16 = 2;

    /// V2 serializes *canonical* state only: the slab (whose entries
    /// carry residence, row and operand readiness), the free-list order
    /// (canonical: allocation pops it LIFO), the drain clock, the
    /// register timing table and the counters. Every index — the tag
    /// map, the buffer order, the waiter lists, the due wheel, the
    /// slipped backlog and the row counters — is a pure function of that
    /// state and is rebuilt on restore. Scratch buffers are transient
    /// (cleared before every use) and are not serialized.
    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        self.config.pack(w);
        self.slots.pack(w);
        self.free_slots.pack(w);
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
        let slots: Vec<Entry> = Pack::unpack(r)?;
        let free_slots: Vec<u32> = Pack::unpack(r)?;
        let last_now: Cycle = Pack::unpack(r)?;
        let reg_ready: Vec<Cycle> = Pack::unpack(r)?;
        let stats: IqStats = Pack::unpack(r)?;
        let shift_stalls: u64 = Pack::unpack(r)?;
        let recirculations: u64 = Pack::unpack(r)?;
        if reg_ready.len() != NUM_ARCH_REGS {
            return Err(corrupt("prescheduled IQ register timing table has the wrong shape"));
        }
        chainiq_ckpt::check_free_list(slots.iter().map(|e| e.live), &free_slots)?;
        let horizon = last_now + config.num_lines as u64;
        for e in slots.iter().filter(|e| e.live) {
            if e.entered_buffer_at == Cycle::MAX {
                // Array-resident: recirculation reschedules at most one
                // cycle out, dispatch at most a horizon out.
                if e.scheduled_at > horizon {
                    return Err(corrupt("prescheduled IQ row lies beyond the schedule horizon"));
                }
            } else if e.entered_buffer_at > last_now {
                return Err(corrupt("prescheduled IQ buffer admission lies in the future"));
            }
        }

        // Empty every index at the image's clock, install the canonical
        // state, then index each live slot the way dispatch does. The
        // buffer and the slipped backlog stay sorted as they fill; waiter
        // and wheel-bucket orders are immaterial (announces are
        // idempotent, and drained records merge into the backlog at their
        // sorted place).
        self.last_now = last_now;
        self.flush();
        self.slots = slots;
        self.free_slots = free_slots;
        self.reg_ready = reg_ready;
        self.stats = stats;
        self.shift_stalls = shift_stalls;
        self.recirculations = recirculations;
        self.waiters.grow(2 * self.slots.len());
        for slot in 0..self.slots.len() as u32 {
            let e = &self.slots[slot as usize];
            if !e.live {
                continue;
            }
            if self.by_tag.get(e.tag.0).is_some() {
                return Err(corrupt("prescheduled IQ slab repeats a tag"));
            }
            self.index_slot(slot);
        }
        if self.by_tag.len() > config.capacity() {
            return Err(corrupt("prescheduled IQ occupancy exceeds its capacity"));
        }
        if self.buffer.len() > config.issue_buffer_size {
            return Err(corrupt("prescheduled IQ issue buffer overflows its size"));
        }
        self.drain_scratch.clear();
        self.scratch_tags.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_core::SrcOperand;

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
        assert_eq!(iq.buffer_len(), 1);
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
        assert_eq!(iq.buffer_len(), 5, "unready dependents occupy buffer slots");
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
        assert_eq!(iq.row_population(first_row + 1), 3, "12 fit the first row, 3 spill");
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
        assert_eq!(iq.buffer_len(), 2);
        let before = iq.shift_stalls();
        iq.tick(2, false);
        assert!(iq.shift_stalls() > before);
        assert_eq!(iq.buffer_len(), 2);
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
        assert_eq!(iq.entry(InstTag(7)).unwrap().entered_buffer_at, 4);
        assert_eq!(step(&mut iq, 5), vec![7]);
        step(&mut iq, 6);
        assert_eq!(iq.entry(InstTag(6)).unwrap().entered_buffer_at, 6);
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
