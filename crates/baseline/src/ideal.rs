//! The idealized monolithic conventional queue.

use chainiq_core::{DispatchInfo, DispatchStall, FuPool, InstTag, IqStats, IssueQueue, IssuedInst};
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
    fn ready(&self, now: Cycle) -> bool {
        self.ops.iter().flatten().all(|o| o.ready_at.map(|r| r <= now).unwrap_or(false))
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
#[derive(Debug, Clone)]
pub struct IdealIq {
    capacity: usize,
    entries: Vec<Entry>,
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
        IdealIq { capacity, entries: Vec::with_capacity(capacity), stats: IqStats::default() }
    }
}

impl IssueQueue for IdealIq {
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
            .filter(|e| e.entered_at < now && e.ready(now))
            .map(|e| e.tag)
            .collect();
        ready.sort();
        let mut issued = Vec::new();
        for tag in ready {
            if fus.slots_left() == 0 {
                break;
            }
            #[expect(clippy::expect_used, reason = "`ready` was collected from `entries` above")]
            let idx = self.entries.iter().position(|e| e.tag == tag).expect("candidate present");
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
}

impl chainiq_ckpt::Pack for DataOperand {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.producer.pack(w);
        self.ready_at.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        Ok(DataOperand { producer: Pack::unpack(r)?, ready_at: Pack::unpack(r)? })
    }
}

impl chainiq_ckpt::Pack for Entry {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.tag.pack(w);
        self.op.pack(w);
        self.ops.pack(w);
        self.entered_at.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        Ok(Entry {
            tag: Pack::unpack(r)?,
            op: Pack::unpack(r)?,
            ops: Pack::unpack(r)?,
            entered_at: Pack::unpack(r)?,
        })
    }
}

impl chainiq_ckpt::Snapshot for IdealIq {
    const COMPONENT: &'static str = "baseline.ideal";
    const VERSION: u16 = 1;

    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        self.capacity.pack(w);
        self.entries.pack(w);
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
        self.entries = entries;
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_core::SrcOperand;
    use chainiq_isa::ArchReg;

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
