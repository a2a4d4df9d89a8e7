//! The reorder buffer.

use std::collections::VecDeque;

use chainiq_core::InstTag;
use chainiq_isa::Inst;

/// Lifecycle of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RobState {
    /// In the instruction queue.
    Dispatched,
    /// Executing (or waiting for its memory access).
    Issued,
    /// Result written back; eligible to commit.
    Completed,
}

#[derive(Debug, Clone)]
pub(crate) struct RobEntry {
    pub tag: InstTag,
    pub inst: Inst,
    pub state: RobState,
    /// Producer tags of the source operands (for LRP training).
    pub src_producers: [Option<InstTag>; 2],
}

/// An in-order reorder buffer: dispatch appends, commit pops completed
/// entries from the head, bounded capacity backpressures dispatch.
#[derive(Debug, Clone)]
pub(crate) struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    committed: u64,
    occupancy_accum: u64,
    samples: u64,
}

impl Rob {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB capacity must be positive");
        Rob {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            committed: 0,
            occupancy_accum: 0,
            samples: 0,
        }
    }

    pub(crate) fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    pub(crate) fn committed(&self) -> u64 {
        self.committed
    }

    pub(crate) fn sample_occupancy(&mut self) {
        self.occupancy_accum += self.entries.len() as u64;
        self.samples += 1;
    }

    pub(crate) fn mean_occupancy(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.occupancy_accum as f64 / self.samples as f64
        }
    }

    pub(crate) fn push(&mut self, entry: RobEntry) {
        assert!(self.has_space(), "caller must check ROB space");
        self.entries.push_back(entry);
    }

    pub(crate) fn mark(&mut self, tag: InstTag, state: RobState) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.tag == tag) {
            e.state = state;
        }
    }

    /// Pops up to `width` completed entries from the head, in order.
    pub(crate) fn commit(&mut self, width: usize) -> Vec<RobEntry> {
        let mut out = Vec::new();
        while out.len() < width {
            match self.entries.front() {
                Some(e) if e.state == RobState::Completed => {
                    out.push(self.entries.pop_front().expect("front exists"));
                }
                _ => break,
            }
        }
        self.committed += out.len() as u64;
        out
    }

    /// The in-flight entry for `tag`, if present.
    pub(crate) fn get(&self, tag: InstTag) -> Option<&RobEntry> {
        self.entries.iter().find(|e| e.tag == tag)
    }
}

impl chainiq_ckpt::Pack for RobState {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        w.put_u8(match self {
            RobState::Dispatched => 0,
            RobState::Issued => 1,
            RobState::Completed => 2,
        });
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        match r.take_u8("ROB state tag")? {
            0 => Ok(RobState::Dispatched),
            1 => Ok(RobState::Issued),
            2 => Ok(RobState::Completed),
            _ => Err(chainiq_ckpt::CkptError::Corrupt { context: "ROB state tag".to_string() }),
        }
    }
}

impl chainiq_ckpt::Pack for RobEntry {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.tag.pack(w);
        self.inst.pack(w);
        self.state.pack(w);
        self.src_producers.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        Ok(RobEntry {
            tag: Pack::unpack(r)?,
            inst: Pack::unpack(r)?,
            state: Pack::unpack(r)?,
            src_producers: Pack::unpack(r)?,
        })
    }
}

impl chainiq_ckpt::Pack for Rob {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.entries.pack(w);
        self.capacity.pack(w);
        self.committed.pack(w);
        self.occupancy_accum.pack(w);
        self.samples.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let entries: std::collections::VecDeque<RobEntry> = Pack::unpack(r)?;
        let capacity: usize = Pack::unpack(r)?;
        if capacity == 0 || entries.len() > capacity {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: "ROB occupancy exceeds its capacity".to_string(),
            });
        }
        Ok(Rob {
            entries,
            capacity,
            committed: Pack::unpack(r)?,
            occupancy_accum: Pack::unpack(r)?,
            samples: Pack::unpack(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_isa::{ArchReg, Inst};

    fn entry(tag: u64) -> RobEntry {
        RobEntry {
            tag: InstTag(tag),
            inst: Inst::alu(0, ArchReg::int(1), &[]),
            state: RobState::Dispatched,
            src_producers: [None, None],
        }
    }

    #[test]
    fn commits_in_order_only() {
        let mut rob = Rob::new(8);
        rob.push(entry(0));
        rob.push(entry(1));
        rob.mark(InstTag(1), RobState::Completed);
        assert!(rob.commit(8).is_empty(), "head not complete, nothing commits");
        rob.mark(InstTag(0), RobState::Completed);
        let c = rob.commit(8);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].tag, InstTag(0));
        assert_eq!(rob.committed(), 2);
    }

    #[test]
    fn commit_width_limits() {
        let mut rob = Rob::new(16);
        for i in 0..10 {
            rob.push(entry(i));
            rob.mark(InstTag(i), RobState::Completed);
        }
        assert_eq!(rob.commit(8).len(), 8);
        assert_eq!(rob.commit(8).len(), 2);
    }

    #[test]
    fn capacity_backpressure() {
        let mut rob = Rob::new(2);
        rob.push(entry(0));
        rob.push(entry(1));
        assert!(!rob.has_space());
    }

    #[test]
    #[should_panic(expected = "ROB space")]
    fn push_past_capacity_panics() {
        let mut rob = Rob::new(1);
        rob.push(entry(0));
        rob.push(entry(1));
    }

    #[test]
    fn occupancy_sampling() {
        let mut rob = Rob::new(4);
        rob.push(entry(0));
        rob.sample_occupancy();
        rob.push(entry(1));
        rob.sample_occupancy();
        assert!((rob.mean_occupancy() - 1.5).abs() < 1e-12);
    }
}
