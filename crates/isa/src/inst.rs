//! Resolved dynamic instructions.

use std::fmt;

use crate::{ArchReg, OpClass};

/// Memory behaviour of a dynamic load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemInfo {
    /// Virtual byte address accessed.
    pub addr: u64,
    /// Access size in bytes (power of two, at most the cache line size).
    pub size: u8,
}

/// Resolved outcome of a dynamic branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Whether the branch was taken.
    pub taken: bool,
    /// Target address when taken.
    pub target: u64,
    /// Whether this is an unconditional transfer (always taken;
    /// predictors only need the target, not the direction).
    pub unconditional: bool,
}

/// One *dynamic* (already resolved) instruction, as produced by the
/// workload layer and consumed by the timing model.
///
/// The timing simulator is trace-style: values are not computed, so a
/// dynamic instruction carries everything timing needs — its dependence
/// footprint (`dest`, `srcs`), its memory address if any, and its branch
/// outcome if any.
///
/// # Examples
///
/// ```
/// use chainiq_isa::{Inst, ArchReg, OpClass};
///
/// let ld = Inst::load(0x4000, ArchReg::int(1), ArchReg::int(2), 0x1_0000);
/// assert_eq!(ld.op, OpClass::Load);
/// assert_eq!(ld.mem.unwrap().addr, 0x1_0000);
/// assert!(ld.srcs().eq([ArchReg::int(2)]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Static program counter (identifies the static instruction for the
    /// PC-indexed predictors).
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// Destination register, if the op produces a register value.
    pub dest: Option<ArchReg>,
    /// First source operand.
    pub src1: Option<ArchReg>,
    /// Second source operand.
    pub src2: Option<ArchReg>,
    /// Memory access, for loads and stores.
    pub mem: Option<MemInfo>,
    /// Branch outcome, for control transfers.
    pub branch: Option<BranchInfo>,
}

impl Inst {
    /// Creates a register-to-register computational instruction.
    ///
    /// # Panics
    ///
    /// Panics if `op` is a memory or branch class (use [`Inst::load`],
    /// [`Inst::store`] or [`Inst::branch`]) or if more than two sources
    /// are supplied.
    #[must_use]
    pub fn compute(pc: u64, op: OpClass, dest: ArchReg, srcs: &[ArchReg]) -> Self {
        assert!(!op.is_mem() && !op.is_branch(), "use the dedicated constructor for {op}");
        assert!(srcs.len() <= 2, "at most two source operands");
        Inst {
            pc,
            op,
            dest: Some(dest),
            src1: srcs.first().copied(),
            src2: srcs.get(1).copied(),
            mem: None,
            branch: None,
        }
    }

    /// Creates a single-cycle integer ALU instruction.
    #[must_use]
    pub fn alu(pc: u64, dest: ArchReg, srcs: &[ArchReg]) -> Self {
        Inst::compute(pc, OpClass::IntAlu, dest, srcs)
    }

    /// Creates a load of `dest` from `addr`, with EA computed from `base`.
    #[must_use]
    pub fn load(pc: u64, dest: ArchReg, base: ArchReg, addr: u64) -> Self {
        Inst {
            pc,
            op: OpClass::Load,
            dest: Some(dest),
            src1: Some(base),
            src2: None,
            mem: Some(MemInfo { addr, size: 8 }),
            branch: None,
        }
    }

    /// Creates a store of `value` to `addr`, with EA computed from `base`.
    #[must_use]
    pub fn store(pc: u64, value: ArchReg, base: ArchReg, addr: u64) -> Self {
        Inst {
            pc,
            op: OpClass::Store,
            dest: None,
            src1: Some(base),
            src2: Some(value),
            mem: Some(MemInfo { addr, size: 8 }),
            branch: None,
        }
    }

    /// Creates a conditional branch on `cond` with resolved outcome.
    #[must_use]
    pub fn branch(pc: u64, cond: Option<ArchReg>, taken: bool, target: u64) -> Self {
        Inst {
            pc,
            op: OpClass::Branch,
            dest: None,
            src1: cond,
            src2: None,
            mem: None,
            branch: Some(BranchInfo { taken, target, unconditional: false }),
        }
    }

    /// Creates an unconditional jump to `target`.
    #[must_use]
    pub fn jump(pc: u64, target: u64) -> Self {
        Inst {
            pc,
            op: OpClass::Branch,
            dest: None,
            src1: None,
            src2: None,
            mem: None,
            branch: Some(BranchInfo { taken: true, target, unconditional: true }),
        }
    }

    /// The source operands that are present, in operand order.
    pub fn srcs(&self) -> impl Iterator<Item = ArchReg> {
        self.src1.into_iter().chain(self.src2)
    }

    /// Number of source operands.
    #[must_use]
    pub fn num_srcs(&self) -> usize {
        usize::from(self.src1.is_some()) + usize::from(self.src2.is_some())
    }

    /// Execution latency of this instruction on its function unit; see
    /// [`OpClass::exec_latency`].
    #[must_use]
    pub fn exec_latency(&self) -> u32 {
        self.op.exec_latency()
    }

    /// Whether this is a load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        self.op == OpClass::Load
    }

    /// Whether this is a store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.op == OpClass::Store
    }

    /// Whether this is a branch.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        self.op.is_branch()
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#06x}: {}", self.pc, self.op.mnemonic())?;
        if let Some(d) = self.dest {
            write!(f, " {d}")?;
        }
        for (i, s) in self.srcs().enumerate() {
            let sep = if i == 0 && self.dest.is_none() { ' ' } else { ',' };
            write!(f, "{sep}{s}")?;
        }
        if let Some(m) = self.mem {
            write!(f, " [{:#x}]", m.addr)?;
        }
        if let Some(b) = self.branch {
            write!(f, " -> {:#x} ({})", b.target, if b.taken { "T" } else { "N" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_with_zero_one_two_sources() {
        let r = ArchReg::int(1);
        let i0 = Inst::compute(0, OpClass::IntAlu, r, &[]);
        assert_eq!(i0.num_srcs(), 0);
        let i1 = Inst::compute(0, OpClass::IntMul, r, &[ArchReg::int(2)]);
        assert_eq!(i1.num_srcs(), 1);
        let i2 =
            Inst::compute(0, OpClass::FpAdd, ArchReg::fp(0), &[ArchReg::fp(1), ArchReg::fp(2)]);
        assert_eq!(i2.num_srcs(), 2);
        assert!(i2.srcs().eq([ArchReg::fp(1), ArchReg::fp(2)]));
    }

    #[test]
    #[should_panic(expected = "dedicated constructor")]
    fn compute_rejects_memory_ops() {
        let _ = Inst::compute(0, OpClass::Load, ArchReg::int(1), &[]);
    }

    #[test]
    #[should_panic(expected = "at most two")]
    fn compute_rejects_three_sources() {
        let r = ArchReg::int(0);
        let _ = Inst::compute(0, OpClass::IntAlu, r, &[r, r, r]);
    }

    #[test]
    fn load_carries_address_and_base_dependence() {
        let ld = Inst::load(8, ArchReg::int(4), ArchReg::int(5), 0xAB0);
        assert!(ld.is_load());
        assert_eq!(ld.dest, Some(ArchReg::int(4)));
        assert!(ld.srcs().eq([ArchReg::int(5)]));
        assert_eq!(ld.mem, Some(MemInfo { addr: 0xAB0, size: 8 }));
    }

    #[test]
    fn store_has_no_dest_and_two_sources() {
        let st = Inst::store(8, ArchReg::int(4), ArchReg::int(5), 0xAB0);
        assert!(st.is_store());
        assert_eq!(st.dest, None);
        assert_eq!(st.num_srcs(), 2);
    }

    #[test]
    fn branch_outcomes() {
        let br = Inst::branch(16, Some(ArchReg::int(1)), true, 0x40);
        assert!(br.is_branch());
        let b = br.branch.unwrap();
        assert!(b.taken && !b.unconditional);

        let j = Inst::jump(20, 0x80);
        let b = j.branch.unwrap();
        assert!(b.taken && b.unconditional);
        assert_eq!(j.num_srcs(), 0);
    }

    #[test]
    fn display_is_nonempty_and_mentions_operands() {
        let ld = Inst::load(0x40, ArchReg::int(4), ArchReg::int(5), 0xAB0);
        let s = ld.to_string();
        assert!(s.contains("ld"));
        assert!(s.contains("r4"));
        assert!(s.contains("0xab0"));
    }
}
