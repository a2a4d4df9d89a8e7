//! Instruction identities, the dispatch-time information handed to an
//! issue queue, and the data-operand record every queue wakes on.
//!
//! [`DataOperands`] is the one copy of conventional tag-broadcast wakeup
//! state: built from [`DispatchInfo::srcs`], set by a producer's
//! announcement, and read as the cycle every operand is ready. The
//! queues file it on their producers' [`WaiterLists`] through
//! [`WaiterLists::subscribe`], so an announcement reaches only the
//! entries waiting for it.
//!
//! [`WaiterLists`]: crate::WaiterLists
//! [`WaiterLists::subscribe`]: crate::WaiterLists::subscribe

use chainiq_isa::{ArchReg, Cycle, OpClass};

/// Identity of one in-flight dynamic instruction.
///
/// Tags are assigned in program order by the rename stage and double as
/// the age ordering (smaller = older) and as the wakeup tag that a
/// producer broadcasts — each instruction has at most one destination, so
/// the tag is equivalent to a physical-register tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstTag(pub u64);

impl std::fmt::Display for InstTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One renamed source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcOperand {
    /// The architectural register read.
    pub reg: ArchReg,
    /// Producing in-flight instruction, or `None` when the value comes
    /// from the committed register file.
    pub producer: Option<InstTag>,
    /// The producer's announced completion time, if already known at
    /// dispatch (`None` = wait for the wakeup broadcast).
    pub known_ready_at: Option<Cycle>,
}

impl SrcOperand {
    /// An operand whose value is available immediately.
    #[must_use]
    pub fn ready(reg: ArchReg) -> Self {
        SrcOperand { reg, producer: None, known_ready_at: Some(0) }
    }
}

/// One source operand's data readiness: the in-flight producer it waits
/// on and, once known, the cycle that producer's value is ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataOperand {
    /// The producing in-flight instruction.
    pub producer: InstTag,
    /// The announced ready cycle, or `None` while the producer is
    /// unannounced.
    pub ready_at: Option<Cycle>,
}

/// An instruction's data operands, indexed like [`DispatchInfo::srcs`]:
/// operand `k` is `Some` exactly when source `k` names an in-flight
/// producer. This drives *issue* in every queue design; the segmented
/// queue's chain signals drive only promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataOperands(pub [Option<DataOperand>; 2]);

impl DataOperands {
    /// The operands of `srcs` that wait on an in-flight producer, each
    /// with the ready time known at dispatch, if any.
    #[must_use]
    pub fn from_srcs(srcs: &[Option<SrcOperand>; 2]) -> Self {
        DataOperands(srcs.map(|s| {
            let s = s?;
            Some(DataOperand { producer: s.producer?, ready_at: s.known_ready_at })
        }))
    }

    /// The latest ready cycle over every operand (0 with none), or
    /// `None` while any producer is unannounced.
    #[must_use]
    pub fn ready_from(&self) -> Option<Cycle> {
        let mut at = 0;
        for o in self.0.iter().flatten() {
            at = at.max(o.ready_at?);
        }
        Some(at)
    }

    /// Records that `producer`'s value is ready at `at` on every operand
    /// waiting for it; reports whether any operand did.
    pub fn announce(&mut self, producer: InstTag, at: Cycle) -> bool {
        let mut hit = false;
        for o in self.0.iter_mut().flatten() {
            if o.producer == producer {
                o.ready_at = Some(at);
                hit = true;
            }
        }
        hit
    }
}

/// Which operand the left/right predictor picked as critical.
///
/// Mirrors `chainiq_predict::Operand` without creating a dependency
/// between the core crate and the predictor crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandPick {
    /// First source operand.
    Left,
    /// Second source operand.
    Right,
}

/// Everything an issue queue needs to accept one instruction at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchInfo {
    /// Program-order identity (and wakeup tag).
    pub tag: InstTag,
    /// Operation class (determines function unit and latency).
    pub op: OpClass,
    /// Destination register, if any.
    pub dest: Option<ArchReg>,
    /// Renamed source operands.
    pub srcs: [Option<SrcOperand>; 2],
    /// Hit/miss predictor verdict for loads (`true` = predicted L1 hit,
    /// so the segmented IQ may skip creating a chain; ignored for
    /// non-loads). Without an HMP the pipeline passes `false` for every
    /// load, reproducing the paper's base chain-per-load policy.
    pub predicted_hit: bool,
    /// Left/right-predictor pick, when the queue is configured to follow
    /// a single chain (§4.3). `None` means the queue may track two
    /// chains (the base configuration).
    pub lrp_pick: Option<OperandPick>,
    /// Hardware thread context (SMT). Register names are per-context;
    /// queue designs keep one register-information/timing table per
    /// thread. Single-threaded runs use 0.
    pub thread: u8,
}

impl DispatchInfo {
    /// Convenience constructor for a computational instruction.
    ///
    /// # Panics
    ///
    /// Panics if more than two sources are given.
    #[must_use]
    pub fn compute(tag: InstTag, op: OpClass, dest: ArchReg, srcs: &[SrcOperand]) -> Self {
        assert!(srcs.len() <= 2, "at most two source operands");
        DispatchInfo {
            tag,
            op,
            dest: Some(dest),
            srcs: [srcs.first().copied(), srcs.get(1).copied()],
            predicted_hit: false,
            lrp_pick: None,
            thread: 0,
        }
    }

    /// Convenience constructor for a load.
    #[must_use]
    pub fn load(tag: InstTag, dest: ArchReg, addr_src: SrcOperand, predicted_hit: bool) -> Self {
        DispatchInfo {
            tag,
            op: OpClass::Load,
            dest: Some(dest),
            srcs: [Some(addr_src), None],
            predicted_hit,
            lrp_pick: None,
            thread: 0,
        }
    }

    /// Number of sources present.
    #[must_use]
    pub fn num_srcs(&self) -> usize {
        self.srcs.iter().flatten().count()
    }

    /// Execution latency on the function unit.
    #[must_use]
    pub fn exec_latency(&self) -> u32 {
        self.op.exec_latency()
    }
}

/// Why a dispatch could not be accepted this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchStall {
    /// No instruction slot available in the receiving segment/queue.
    QueueFull,
    /// The instruction must head a new chain but no chain wire is free
    /// (§3.4: the dispatch stage stalls).
    NoChainWire,
}

impl std::fmt::Display for DispatchStall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchStall::QueueFull => f.write_str("instruction queue full"),
            DispatchStall::NoChainWire => f.write_str("no free chain wire"),
        }
    }
}

impl std::error::Error for DispatchStall {}

chainiq_ckpt::pack_fields!(InstTag { 0 });

chainiq_ckpt::pack_fields!(SrcOperand { reg, producer, known_ready_at });

chainiq_ckpt::pack_fields!(DataOperand { producer, ready_at });

chainiq_ckpt::pack_fields!(DataOperands { 0 });

chainiq_ckpt::pack_enum!(OperandPick, "operand pick" { Left = 0, Right = 1 });

chainiq_ckpt::pack_fields!(DispatchInfo { tag, op, dest, srcs, predicted_hit, lrp_pick, thread });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_order_by_age() {
        assert!(InstTag(3) < InstTag(5));
        assert_eq!(InstTag(7).to_string(), "#7");
    }

    #[test]
    fn compute_constructor_counts_sources() {
        let d = DispatchInfo::compute(
            InstTag(1),
            OpClass::FpMul,
            ArchReg::fp(0),
            &[SrcOperand::ready(ArchReg::fp(1))],
        );
        assert_eq!(d.num_srcs(), 1);
        assert_eq!(d.exec_latency(), 4);
        assert_eq!(d.lrp_pick, None);
    }

    #[test]
    fn load_constructor_sets_prediction() {
        let d = DispatchInfo::load(
            InstTag(2),
            ArchReg::int(1),
            SrcOperand::ready(ArchReg::int(2)),
            true,
        );
        assert!(d.predicted_hit);
        assert_eq!(d.op, OpClass::Load);
    }

    #[test]
    fn ready_operand_is_known_at_zero() {
        let s = SrcOperand::ready(ArchReg::int(4));
        assert_eq!(s.known_ready_at, Some(0));
        assert_eq!(s.producer, None);
    }

    #[test]
    fn stall_reasons_display() {
        assert!(DispatchStall::QueueFull.to_string().contains("full"));
        assert!(DispatchStall::NoChainWire.to_string().contains("chain"));
    }

    #[test]
    #[should_panic(expected = "at most two")]
    fn three_sources_panic() {
        let s = SrcOperand::ready(ArchReg::int(1));
        let _ = DispatchInfo::compute(InstTag(0), OpClass::IntAlu, ArchReg::int(0), &[s, s, s]);
    }
}
