//! Instruction-set and dynamic-instruction representation for the chainiq
//! simulator.
//!
//! The simulator reproduces *"A Scalable Instruction Queue Design Using
//! Dependence Chains"* (Raasch, Binkert & Reinhardt, ISCA 2002). The paper
//! evaluates on Compaq Alpha binaries; this crate defines the minimal
//! RISC-style *dynamic* instruction representation that the timing model
//! needs: op classes with the paper's Table 1 latencies, architectural
//! registers, and resolved dynamic instructions (with memory addresses and
//! branch outcomes attached, since the workload layer produces fully
//! resolved streams).
//!
//! # Examples
//!
//! ```
//! use chainiq_isa::{Inst, OpClass, ArchReg};
//!
//! // r3 <- r1 + r2, a single-cycle integer ALU op
//! let add = Inst::alu(0x1000, ArchReg::int(3), &[ArchReg::int(1), ArchReg::int(2)]);
//! assert_eq!(add.op, OpClass::IntAlu);
//! assert_eq!(add.exec_latency(), 1);
//! ```

#![deny(missing_docs)]

mod ckpt;
mod inst;
mod op;
mod reg;

pub use inst::{BranchInfo, Inst, MemInfo};
pub use op::{FuKind, OpClass};
pub use reg::{ArchReg, NUM_ARCH_REGS};

/// A point in simulated time, counted in CPU clock cycles from reset.
pub type Cycle = u64;
