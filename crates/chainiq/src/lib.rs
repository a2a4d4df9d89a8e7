//! chainiq — a from-scratch reproduction of *"A Scalable Instruction
//! Queue Design Using Dependence Chains"* (Raasch, Binkert & Reinhardt,
//! ISCA 2002) as a Rust library.
//!
//! This facade re-exports the whole system:
//!
//! * [`core`] — the paper's contribution: the segmented instruction queue
//!   with dependence-chain scheduling ([`SegmentedIq`]).
//! * [`baseline`] — the comparison queues: the ideal monolithic CAM
//!   ([`IdealIq`]) and Michaud & Seznec's prescheduling array
//!   ([`PrescheduledIq`]).
//! * [`cpu`] — the Table 1 out-of-order core, generic over the queue
//!   ([`Pipeline`]), plus the experiment harness ([`run_one`]).
//! * [`mem`] — the event-driven L1/L2/DRAM hierarchy with MSHRs and
//!   delayed hits.
//! * [`predict`] — the hybrid branch predictor, the §4.4 hit/miss
//!   predictor and the §4.3 left/right operand predictor.
//! * [`workload`] — synthetic SPEC CPU2000 benchmark profiles
//!   ([`Bench`]).
//! * [`isa`] — the dynamic instruction representation.
//! * [`circuit`] — a Palacharla-style wakeup/select delay model that
//!   converts queue geometry into cycle time, completing the paper's
//!   clock-speed argument ([`Technology`], [`QueueGeometry`]).
//! * [`power`] — event-based dynamic-energy accounting for the §7
//!   power question ([`EnergyModel`]).
//! * [`ckpt`] — versioned, fingerprinted snapshot/restore of full
//!   machine state, powering the checkpoint-cached experiment path
//!   ([`run_one_ckpt`]).
//!
//! # Quickstart
//!
//! ```
//! use chainiq::{run_one, Bench, IqKind, SegmentedIqConfig};
//!
//! // A 128-entry segmented queue with 64 chain wires, HMP + LRP on.
//! let kind = IqKind::Segmented(SegmentedIqConfig::paper(128, Some(64)));
//! let result = run_one(Bench::Vortex.profile(), kind, true, true, 5_000, 42);
//! println!("{} IPC: {:.3}", Bench::Vortex, result.ipc());
//! # assert!(result.ipc() > 0.0);
//! ```
//!
//! See `examples/` for richer scenarios and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

#![deny(missing_docs)]

pub use chainiq_baseline as baseline;
pub use chainiq_circuit as circuit;
pub use chainiq_ckpt as ckpt;
pub use chainiq_core as core;
pub use chainiq_cpu as cpu;
pub use chainiq_isa as isa;
pub use chainiq_mem as mem;
pub use chainiq_power as power;
pub use chainiq_predict as predict;
pub use chainiq_workload as workload;

pub use chainiq_baseline::{
    DistanceConfig, DistanceIq, IdealIq, PrescheduleConfig, PrescheduledIq,
};
pub use chainiq_circuit::{QueueGeometry, Technology};
pub use chainiq_core::{
    DispatchInfo, DispatchStall, FuPool, InstTag, IssueQueue, SegmentedIq, SegmentedIqConfig,
    SegmentedStats, SrcOperand,
};
pub use chainiq_cpu::{
    run_one, run_one_ckpt, CkptOutcome, CkptPlan, IqKind, Pipeline, RunResult, SimConfig, SimStats,
    SmtPipeline,
};
pub use chainiq_isa::{ArchReg, Cycle, Inst, OpClass};
pub use chainiq_mem::{Hierarchy, MemConfig};
pub use chainiq_power::{EnergyBreakdown, EnergyModel};
pub use chainiq_predict::{HitMissPredictor, HybridBranchPredictor, LeftRightPredictor};
pub use chainiq_workload::{
    AddressSpace, Bench, KernelSpec, Phase, Profile, SyntheticWorkload, VecWorkload,
};
