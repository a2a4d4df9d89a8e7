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
//! `cargo run -p chainiq-bench --bin rivals`.

use std::collections::BTreeMap;

use chainiq_core::{DispatchInfo, DispatchStall, FuPool, InstTag, IqStats, IssueQueue, IssuedInst};
use chainiq_isa::{ArchReg, Cycle, OpClass, NUM_ARCH_REGS};

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
    /// `None` while waiting in the buffer; `Some(row)` once scheduled.
    scheduled_at: Option<Cycle>,
}

impl Entry {
    fn known_ready(&self) -> Option<Cycle> {
        let mut ready = 0;
        for o in self.ops.iter().flatten() {
            ready = ready.max(o.ready_at?);
        }
        Some(ready)
    }
}

/// The distance-scheme queue: wait buffer → scheduling array → issue.
#[derive(Debug, Clone)]
pub struct DistanceIq {
    config: DistanceConfig,
    entries: Vec<Entry>,
    row_counts: BTreeMap<Cycle, u32>,
    /// Predicted absolute ready cycle per architectural register, when
    /// known (`None` = produced by a not-yet-resolved instruction).
    reg_ready: Vec<Option<Cycle>>,
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
            entries: Vec::with_capacity(config.capacity()),
            row_counts: BTreeMap::new(),
            reg_ready: vec![Some(0); NUM_ARCH_REGS],
            stats: IqStats::default(),
            wait_buffer_stalls: 0,
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &DistanceConfig {
        &self.config
    }

    /// Dispatch stalls caused by a full wait buffer.
    #[must_use]
    pub fn wait_buffer_stalls(&self) -> u64 {
        self.wait_buffer_stalls
    }

    /// Instructions currently held in the wait buffer.
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.entries.iter().filter(|e| e.scheduled_at.is_none()).count()
    }

    fn produce_latency(&self, op: OpClass) -> u64 {
        if op == OpClass::Load {
            self.config.predicted_load_latency
        } else {
            u64::from(op.exec_latency())
        }
    }

    /// Places one waiting entry into the array once its ready time is
    /// known. Returns false when every row from the target onward is
    /// full (the entry stays in the buffer and retries next cycle).
    fn try_schedule(&mut self, idx: usize, now: Cycle) -> bool {
        let Some(ready) = self.entries[idx].known_ready() else {
            return false;
        };
        let horizon = now + self.config.num_lines as u64;
        let first = ready.clamp(now + 1, horizon);
        let Some(slot) = (first..=horizon)
            .find(|c| self.row_counts.get(c).copied().unwrap_or(0) < self.config.line_width as u32)
        else {
            return false;
        };
        self.entries[idx].scheduled_at = Some(slot);
        *self.row_counts.entry(slot).or_default() += 1;
        true
    }
}

impl IssueQueue for DistanceIq {
    fn capacity(&self) -> usize {
        self.config.capacity()
    }

    fn occupancy(&self) -> usize {
        self.entries.len()
    }

    fn tick(&mut self, now: Cycle, _execution_idle: bool) {
        self.stats.cycles += 1;
        self.stats.occupancy_accum += self.entries.len() as u64;
        // Waiting entries whose ready time became known move into the
        // array (this is the associative part of the design).
        for idx in 0..self.entries.len() {
            if self.entries[idx].scheduled_at.is_none() {
                let _ = self.try_schedule(idx, now);
            }
        }
        // Prune empty row counters (rows in the past may still be
        // occupied by slipped entries, so prune by count, not by time).
        self.row_counts.retain(|_, v| *v > 0);
    }

    fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
        if self.entries.len() >= self.config.capacity() {
            self.stats.stalls_full += 1;
            return Err(DispatchStall::QueueFull);
        }
        // Ready time predictable at dispatch?
        let mut known = true;
        let mut ops = [None, None];
        for (i, s) in info.srcs.iter().enumerate() {
            if let Some(s) = s {
                let table = self.reg_ready[s.reg.index()];
                match s.producer {
                    None => {}
                    Some(producer) => {
                        let ready_at = s.known_ready_at.or(table);
                        if ready_at.is_none() {
                            known = false;
                        }
                        ops[i] = Some(DataOperand { producer, ready_at });
                    }
                }
            }
        }
        if !known && self.waiting() >= self.config.wait_buffer_size {
            self.wait_buffer_stalls += 1;
            self.stats.stalls_full += 1;
            return Err(DispatchStall::QueueFull);
        }

        let mut entry = Entry { tag: info.tag, op: info.op, ops, scheduled_at: None };
        let dest_ready = if known {
            // Try to place it directly in the array.
            let ready = entry.known_ready().unwrap_or(now);
            let horizon = now + self.config.num_lines as u64;
            let first = ready.clamp(now + 1, horizon);
            let slot = (first..=horizon).find(|c| {
                self.row_counts.get(c).copied().unwrap_or(0) < self.config.line_width as u32
            });
            match slot {
                Some(slot) => {
                    entry.scheduled_at = Some(slot);
                    *self.row_counts.entry(slot).or_default() += 1;
                    Some(slot + self.produce_latency(info.op))
                }
                None => {
                    if self.waiting() >= self.config.wait_buffer_size {
                        self.stats.stalls_full += 1;
                        return Err(DispatchStall::QueueFull);
                    }
                    None // spills into the wait buffer until rows free up
                }
            }
        } else {
            None
        };
        if let Some(dest) = info.dest {
            // Loads resolve their real latency later; consumers of an
            // unresolved value must wait in the buffer, which is the
            // scheme's defining behaviour.
            self.set_dest(dest, if info.op == OpClass::Load { None } else { dest_ready });
        }
        self.entries.push(entry);
        self.stats.dispatched += 1;
        Ok(())
    }

    fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
        let mut issued = Vec::new();
        self.select_issue_into(now, fus, &mut issued);
        issued
    }

    fn select_issue_into(&mut self, now: Cycle, fus: &mut FuPool, out: &mut Vec<IssuedInst>) {
        // Issue directly from due rows, oldest tag first (instructions in
        // the array are ready by construction; a conservative readiness
        // check guards against table staleness).
        let mut due: Vec<InstTag> = self
            .entries
            .iter()
            .filter(|e| match e.scheduled_at {
                Some(s) => s <= now && e.known_ready().map(|r| r <= now).unwrap_or(false),
                None => false,
            })
            .map(|e| e.tag)
            .collect();
        due.sort();
        let before = out.len();
        for tag in due {
            if fus.slots_left() == 0 {
                break;
            }
            #[expect(clippy::expect_used, reason = "`due` was collected from `entries` above")]
            let idx = self.entries.iter().position(|e| e.tag == tag).expect("candidate present");
            if !fus.try_issue(now, self.entries[idx].op) {
                continue;
            }
            let e = self.entries.swap_remove(idx);
            if let Some(s) = e.scheduled_at {
                if let Some(c) = self.row_counts.get_mut(&s) {
                    *c = c.saturating_sub(1);
                }
            }
            out.push(IssuedInst { tag: e.tag, op: e.op });
        }
        self.stats.issued += (out.len() - before) as u64;
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
        self.row_counts.clear();
        self.reg_ready.fill(Some(0));
    }

    fn stats(&self) -> IqStats {
        self.stats
    }
}

impl DistanceIq {
    fn set_dest(&mut self, reg: ArchReg, ready: Option<Cycle>) {
        self.reg_ready[reg.index()] = ready;
    }
}

chainiq_ckpt::pack_fields!(DistanceConfig {
    wait_buffer_size,
    num_lines,
    line_width,
    predicted_load_latency
});

chainiq_ckpt::pack_fields!(DataOperand { producer, ready_at });

chainiq_ckpt::pack_fields!(Entry { tag, op, ops, scheduled_at });

impl chainiq_ckpt::Snapshot for DistanceIq {
    const COMPONENT: &'static str = "baseline.distance";
    const VERSION: u16 = 1;

    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        self.config.pack(w);
        self.entries.pack(w);
        self.row_counts.pack(w);
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
        let row_counts: BTreeMap<Cycle, u32> = Pack::unpack(r)?;
        let reg_ready: Vec<Option<Cycle>> = Pack::unpack(r)?;
        let stats: IqStats = Pack::unpack(r)?;
        let wait_buffer_stalls: u64 = Pack::unpack(r)?;
        if entries.len() > config.capacity() {
            return Err(corrupt("distance IQ occupancy exceeds its capacity"));
        }
        if reg_ready.len() != NUM_ARCH_REGS {
            return Err(corrupt("distance IQ register timing table has the wrong shape"));
        }
        // Row counters must track the scheduled entries exactly (a row
        // drained to zero may linger until the next tick prunes it).
        let mut recomputed: BTreeMap<Cycle, u32> = BTreeMap::new();
        for e in &entries {
            if let Some(row) = e.scheduled_at {
                *recomputed.entry(row).or_default() += 1;
            }
        }
        let rows_consistent = row_counts.iter().all(|(row, &n)| {
            let expect = recomputed.get(row).copied().unwrap_or(0);
            n == expect
        }) && recomputed.keys().all(|row| row_counts.contains_key(row));
        if !rows_consistent {
            return Err(corrupt("distance IQ row counters disagree with its entries"));
        }
        self.entries = entries;
        self.row_counts = row_counts;
        self.reg_ready = reg_ready;
        self.stats = stats;
        self.wait_buffer_stalls = wait_buffer_stalls;
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

    #[test]
    fn flush_clears() {
        let mut iq = DistanceIq::new(DistanceConfig::paper_sized(8));
        iq.dispatch(0, DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(9), false))
            .unwrap();
        iq.flush();
        assert!(iq.is_empty());
    }
}
