//! Branch, hit/miss and left/right predictors for the chainiq simulator.
//!
//! Three predictors from *"A Scalable Instruction Queue Design Using
//! Dependence Chains"* (ISCA 2002):
//!
//! * [`HybridBranchPredictor`] — the Table 1 front-end predictor, an Alpha
//!   21264-style tournament of a local and a global component plus a
//!   4K-entry 4-way [`Btb`];
//! * [`HitMissPredictor`] (§4.4) — 4-bit saturating counters indexed by
//!   load PC; increment on hit, clear on miss, predict *hit* only when the
//!   counter exceeds 13 (very-high-confidence hit predictions keep
//!   mispredicted misses — which flood segment 0 with unready
//!   instructions — rare);
//! * [`LeftRightPredictor`] (§4.3) — 2-bit counters indexed by PC that
//!   guess which of a two-operand instruction's inputs arrives *later*,
//!   so the instruction can follow a single chain.
//!
//! # Examples
//!
//! ```
//! use chainiq_predict::HitMissPredictor;
//!
//! let mut hmp = HitMissPredictor::default();
//! // A load must hit 14 times in a row before the HMP trusts it.
//! for _ in 0..14 { hmp.update(0x40, true); }
//! assert!(hmp.predict_hit(0x40));
//! // One miss clears the counter entirely.
//! hmp.update(0x40, false);
//! assert!(!hmp.predict_hit(0x40));
//! ```

#![deny(missing_docs)]
// T1 (DESIGN.md §8): no clock, environment or thread-identity read, and
// no site may exempt itself, since `forbid` rejects a local `#[expect]`.
#![forbid(clippy::disallowed_types, clippy::disallowed_methods)]

mod branch;
mod counter;
mod hmp;
mod lrp;

pub use branch::{BranchPrediction, BranchPredictorConfig, Btb, HybridBranchPredictor};
pub use counter::SaturatingCounter;
pub use hmp::{HitMissPredictor, HmpStats};
pub use lrp::{LeftRightPredictor, LrpStats, Operand};
