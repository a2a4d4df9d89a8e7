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

    /// Position of `tag`: entries are pushed in dispatch order, so the
    /// deque is sorted by tag.
    fn find(&self, tag: InstTag) -> Option<usize> {
        self.entries.binary_search_by_key(&tag.0, |e| e.tag.0).ok()
    }

    pub(crate) fn mark(&mut self, tag: InstTag, state: RobState) {
        if let Some(i) = self.find(tag) {
            self.entries[i].state = state;
        }
    }

    /// Moves up to `width` completed entries from the head, in order, onto
    /// the end of `out`.
    pub(crate) fn commit(&mut self, width: usize, out: &mut Vec<RobEntry>) {
        let start = out.len();
        while out.len() - start < width {
            match self.entries.front() {
                Some(e) if e.state == RobState::Completed => {
                    #[expect(clippy::expect_used, reason = "front() just matched Some")]
                    out.push(self.entries.pop_front().expect("front exists"));
                }
                _ => break,
            }
        }
        self.committed += (out.len() - start) as u64;
    }

    /// The in-flight entry for `tag`, if present.
    pub(crate) fn get(&self, tag: InstTag) -> Option<&RobEntry> {
        self.find(tag).map(|i| &self.entries[i])
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
        if entries.iter().zip(entries.iter().skip(1)).any(|(a, b)| a.tag.0 >= b.tag.0) {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: "ROB entries out of tag order".to_string(),
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
        let mut c = Vec::new();
        rob.commit(8, &mut c);
        assert!(c.is_empty(), "head not complete, nothing commits");
        rob.mark(InstTag(0), RobState::Completed);
        rob.commit(8, &mut c);
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
        let mut c = Vec::new();
        rob.commit(8, &mut c);
        assert_eq!(c.len(), 8);
        c.clear();
        rob.commit(8, &mut c);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lookup_by_tag_finds_present_entries_only() {
        let mut rob = Rob::new(8);
        for tag in [3, 5, 9] {
            rob.push(entry(tag));
        }
        rob.mark(InstTag(5), RobState::Issued);
        rob.mark(InstTag(4), RobState::Completed); // absent: no effect
        assert_eq!(rob.get(InstTag(5)).map(|e| e.state), Some(RobState::Issued));
        assert_eq!(rob.get(InstTag(9)).map(|e| e.state), Some(RobState::Dispatched));
        assert!(rob.get(InstTag(4)).is_none());
        assert!(rob.get(InstTag(10)).is_none());
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
