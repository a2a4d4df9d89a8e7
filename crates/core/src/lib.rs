//! The segmented instruction queue with dependence chains — the primary
//! contribution of *"A Scalable Instruction Queue Design Using Dependence
//! Chains"* (Raasch, Binkert & Reinhardt, ISCA 2002).
//!
//! # The design in one paragraph
//!
//! A large instruction queue is split into a vertical pipeline of small
//! *segments*; only the bottom segment (segment 0, the *issue buffer*)
//! issues to function units. Every queued instruction carries a *delay
//! value* — its expected distance, in cycles, from being ready — and may
//! promote into the next lower segment only when its delay value is below
//! that segment's *threshold* (2, 4, 6, … from the bottom). Delay values
//! are maintained cheaply through *dependence chains*: subtrees of the
//! data dependence graph rooted at a (typically variable-latency) *chain
//! head*. Heads broadcast their promotions/issue on one-hot, pipelined
//! *chain wires*; members react by decrementing their delay values, and
//! switch to *self-timed* countdown once their head issues. A cache miss
//! suspends a chain's self-timing until the fill returns, which is what
//! lets the design tolerate unpredictable latencies that defeat
//! quasi-static prescheduling schemes.
//!
//! # Crate layout
//!
//! * [`SegmentedIq`] — the queue itself, with all of the paper's §4
//!   enhancements (pushdown, dispatch bypass, operand and hit/miss
//!   predictor hooks, deadlock recovery) individually configurable via
//!   [`SegmentedIqConfig`].
//! * [`IssueQueue`] — the scheduling contract shared with the baseline
//!   designs in `chainiq-baseline`, so the pipeline in `chainiq-cpu` is
//!   generic over the IQ design exactly as the paper's evaluation is.
//! * [`FuPool`] — Table 1's function units (8 of each kind; divide and
//!   square root unpipelined).
//! * [`Store`] — the entry store all four queue designs keep their
//!   entries in: a slab addressed by tag or slot, the waiter lists that
//!   wake an announcing producer's consumers, and oldest-first selection
//!   at the cycle each queue's [`Place`] says an entry becomes issuable.
//!
//! # Examples
//!
//! Dispatch two dependent instructions and watch the dependent issue
//! after its producer:
//!
//! ```
//! use chainiq_core::{DispatchInfo, FuPool, InstTag, IssueQueue, SegmentedIq,
//!                    SegmentedIqConfig, SrcOperand};
//! use chainiq_isa::{ArchReg, OpClass};
//!
//! let mut iq = SegmentedIq::new(SegmentedIqConfig::small_for_tests());
//! let mut fus = FuPool::table1();
//!
//! let producer = InstTag(0);
//! iq.dispatch(0, DispatchInfo::compute(producer, OpClass::IntAlu, ArchReg::int(1), &[]))
//!     .unwrap();
//! let consumer = DispatchInfo::compute(
//!     InstTag(1),
//!     OpClass::IntAlu,
//!     ArchReg::int(2),
//!     &[SrcOperand { reg: ArchReg::int(1), producer: Some(producer), known_ready_at: None }],
//! );
//! iq.dispatch(0, consumer).unwrap();
//!
//! let mut issued = Vec::new();
//! for now in 1..20u64 {
//!     iq.tick(now, issued.is_empty());
//!     for sel in iq.select_issue(now, &mut fus) {
//!         // Announce the result timing so dependents wake up.
//!         iq.announce_ready(sel.tag, now + u64::from(sel.op.exec_latency()));
//!         issued.push(sel.tag);
//!     }
//!     fus.next_cycle();
//! }
//! assert_eq!(issued, vec![InstTag(0), InstTag(1)]);
//! ```

#![deny(missing_docs)]
// T1 (DESIGN.md §8): no clock, environment or thread-identity read, and
// no site may exempt itself, since `forbid` rejects a local `#[expect]`.
#![forbid(clippy::disallowed_types, clippy::disallowed_methods)]

mod bitset;
mod chain;
mod fu;
mod queue;
mod regtable;
mod segmented;
mod slab_list;
mod stats;
mod store;
mod tag;
mod tagmap;
mod wheel;

pub use chain::{ChainRef, ChainStats};
pub use fu::FuPool;
pub use queue::{IqStats, IssueQueue, IssuedInst, QuietCycle};
pub use segmented::{SegmentedIq, SegmentedIqConfig};
pub use slab_list::WaiterLists;
pub use stats::SegmentedStats;
pub use store::{insert_sorted, remove_sorted, Entry, Place, Store, Woken};
pub use tag::{
    DataOperand, DataOperands, DispatchInfo, DispatchStall, InstTag, OperandPick, SrcOperand,
};
pub use tagmap::TagMap;
pub use wheel::Wheel;
