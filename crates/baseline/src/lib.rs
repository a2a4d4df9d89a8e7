//! Baseline instruction-queue designs the paper compares against.
//!
//! * [`IdealIq`] — the idealized, monolithic, single-cycle conventional
//!   queue of §6: every slot is searched by wakeup/select each cycle with
//!   no penalty for size. Physically unrealizable at 512 entries (wakeup
//!   latency grows quadratically, §1), which is the paper's whole point —
//!   it is the performance *upper bound* the segmented queue is measured
//!   against.
//! * [`DistanceIq`] — Canal & González's *distance* scheme (§2): the
//!   same quasi-static array, but with the associative buffer *before*
//!   it, holding instructions whose ready time is not yet known.
//! * [`PrescheduledIq`] — Michaud & Seznec's prescheduling scheme
//!   (§2, §6.3): a quasi-static scheduling array of 12-instruction lines
//!   feeding a small conventional issue buffer. Instructions are placed
//!   at dispatch according to *predicted* operand timing and do not
//!   adapt afterwards; unpredictable latencies (cache misses) clog the
//!   issue buffer.
//!
//! Both implement [`chainiq_core::IssueQueue`], so the pipeline in
//! `chainiq-cpu` runs them interchangeably with the segmented design.
//!
//! # Examples
//!
//! ```
//! use chainiq_baseline::IdealIq;
//! use chainiq_core::{DispatchInfo, FuPool, InstTag, IssueQueue};
//! use chainiq_isa::{ArchReg, OpClass};
//!
//! let mut iq = IdealIq::new(512);
//! let mut fus = FuPool::table1();
//! iq.dispatch(0, DispatchInfo::compute(InstTag(0), OpClass::IntAlu, ArchReg::int(1), &[]))
//!     .unwrap();
//! iq.tick(1, false);
//! assert_eq!(iq.select_issue(1, &mut fus).len(), 1);
//! ```

#![deny(missing_docs)]

mod distance;
mod ideal;
mod preschedule;
#[cfg(test)]
mod testutil;

pub use distance::{DistanceConfig, DistanceIq};
pub use ideal::IdealIq;
pub use preschedule::{PrescheduleConfig, PrescheduledIq};
