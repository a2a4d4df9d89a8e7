//! Register renaming: architectural register → in-flight producer.

use chainiq_core::{InstTag, SrcOperand, TagMap};
use chainiq_isa::{ArchReg, Cycle, NUM_ARCH_REGS};

/// The rename map plus a scoreboard of announced completion times.
///
/// Timing-only renaming: each architectural register maps to the newest
/// in-flight producer's tag (the wakeup tag). The scoreboard records the
/// announced completion time of each in-flight instruction so that
/// consumers dispatched *after* the announcement carry `known_ready_at`
/// instead of waiting for a broadcast that already happened.
#[derive(Debug, Clone)]
pub(crate) struct RenameState {
    map: [Option<InstTag>; NUM_ARCH_REGS],
    ready_time: TagMap<Cycle>,
}

impl RenameState {
    pub(crate) fn new() -> Self {
        RenameState { map: [None; NUM_ARCH_REGS], ready_time: TagMap::new() }
    }

    /// Renames one source register.
    pub(crate) fn src(&self, reg: ArchReg) -> SrcOperand {
        match self.map[reg.index()] {
            None => SrcOperand::ready(reg),
            Some(tag) => {
                SrcOperand { reg, producer: Some(tag), known_ready_at: self.ready_time.get(tag.0) }
            }
        }
    }

    /// Registers `tag` as the newest producer of `reg`.
    pub(crate) fn define(&mut self, reg: ArchReg, tag: InstTag) {
        self.map[reg.index()] = Some(tag);
    }

    /// Records the announced completion time of `tag`.
    pub(crate) fn announce(&mut self, tag: InstTag, ready_at: Cycle) {
        self.ready_time.insert(tag.0, ready_at);
    }

    /// The announced completion time of `tag`, if known.
    #[cfg(test)]
    pub(crate) fn ready_time(&self, tag: InstTag) -> Option<Cycle> {
        self.ready_time.get(tag.0)
    }

    /// Retires `tag`: if it is still the newest producer of `reg`, the
    /// committed register file now holds the value.
    pub(crate) fn retire(&mut self, reg: Option<ArchReg>, tag: InstTag) {
        if let Some(reg) = reg {
            if self.map[reg.index()] == Some(tag) {
                self.map[reg.index()] = None;
            }
        }
        self.ready_time.remove(tag.0);
    }
}

impl chainiq_ckpt::Pack for RenameState {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.map.pack(w);
        // Canonical sorted-pair form — byte-identical to the BTreeMap
        // encoding this field used before the TagMap conversion.
        self.ready_time.to_sorted_vec().pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let map = Pack::unpack(r)?;
        let pairs: Vec<(u64, Cycle)> = Pack::unpack(r)?;
        let mut ready_time = TagMap::new();
        for (k, v) in pairs {
            ready_time.insert(k, v);
        }
        Ok(RenameState { map, ready_time })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_register_is_ready() {
        let r = RenameState::new();
        let s = r.src(ArchReg::int(1));
        assert_eq!(s.producer, None);
        assert_eq!(s.known_ready_at, Some(0));
    }

    #[test]
    fn defined_register_names_producer() {
        let mut r = RenameState::new();
        r.define(ArchReg::int(1), InstTag(7));
        let s = r.src(ArchReg::int(1));
        assert_eq!(s.producer, Some(InstTag(7)));
        assert_eq!(s.known_ready_at, None);
    }

    #[test]
    fn announcement_flows_to_later_consumers() {
        let mut r = RenameState::new();
        r.define(ArchReg::int(1), InstTag(7));
        r.announce(InstTag(7), 42);
        assert_eq!(r.src(ArchReg::int(1)).known_ready_at, Some(42));
        assert_eq!(r.ready_time(InstTag(7)), Some(42));
    }

    #[test]
    fn newest_writer_wins() {
        let mut r = RenameState::new();
        r.define(ArchReg::int(1), InstTag(7));
        r.define(ArchReg::int(1), InstTag(9));
        assert_eq!(r.src(ArchReg::int(1)).producer, Some(InstTag(9)));
    }

    #[test]
    fn retire_clears_only_current_mapping() {
        let mut r = RenameState::new();
        r.define(ArchReg::int(1), InstTag(7));
        r.define(ArchReg::int(1), InstTag(9));
        r.retire(Some(ArchReg::int(1)), InstTag(7)); // stale writer
        assert_eq!(r.src(ArchReg::int(1)).producer, Some(InstTag(9)));
        r.retire(Some(ArchReg::int(1)), InstTag(9));
        assert_eq!(r.src(ArchReg::int(1)).producer, None);
    }
}
