//! Cycle-level out-of-order superscalar core, generic over the
//! instruction-queue design.
//!
//! Reproduces the §5 evaluation machine of *"A Scalable Instruction Queue
//! Design Using Dependence Chains"* (ISCA 2002): an 8-wide,
//! deeply-pipelined out-of-order processor with the Table 1 parameters —
//! 15-cycle front end, hybrid branch predictor, generous function units,
//! a reorder buffer three times the IQ size, a separate load/store queue
//! that enforces memory dependences, and the event-driven cache hierarchy
//! of `chainiq-mem`.
//!
//! The IQ itself is a type parameter implementing
//! [`chainiq_core::IssueQueue`], so the same pipeline runs the segmented
//! dependence-chain queue, the ideal monolithic queue, and the
//! prescheduling baseline — exactly the comparison the paper draws.
//!
//! There is one core, and it is thread-indexed: [`Pipeline::new`] builds
//! the single-thread machine, and [`SmtPipeline`] runs several hardware
//! threads, each with its own front end, rename map, ROB and LSQ, over
//! one shared queue, function-unit pool, memory hierarchy and predictor
//! set (§7). SMT runs report `rob_mean_occupancy` as 0.
//!
//! The timing model is trace-style: the workload supplies resolved
//! dynamic instructions, branch predictors are trained on real outcomes,
//! and a misprediction stalls fetch until the branch resolves (charging
//! the full in-flight + front-end refill penalty). Wrong-path *cache
//! pollution* is not modelled; see `DESIGN.md` §2.
//!
//! # Examples
//!
//! ```
//! use chainiq_baseline::IdealIq;
//! use chainiq_cpu::{Pipeline, SimConfig};
//! use chainiq_workload::{Bench, SyntheticWorkload};
//!
//! let workload = SyntheticWorkload::from_profile(Bench::Vortex.profile(), 1);
//! let mut sim = Pipeline::new(SimConfig::default(), IdealIq::new(64), workload);
//! let result = sim.run(5_000);
//! assert!(result.ipc() > 0.1);
//! ```

#![deny(missing_docs)]

mod config;
mod frontend;
mod harness;
mod lsq;
mod pipeline;
mod rename;
mod rob;
mod smt;
mod stats;

pub use config::SimConfig;
pub use harness::{run_one, run_one_ckpt, CkptOutcome, CkptPlan, IqKind, RunResult};
pub use pipeline::Pipeline;
pub use smt::SmtPipeline;
pub use stats::SimStats;
