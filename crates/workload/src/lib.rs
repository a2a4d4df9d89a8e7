//! Synthetic SPEC-profile workload generators for the chainiq simulator.
//!
//! The paper evaluates on Alpha binaries of eight SPEC CPU2000 benchmarks
//! (ammp, applu, equake, gcc, mgrid, swim, twolf, vortex). Binaries and
//! reference inputs are unavailable here, so this crate substitutes
//! *synthetic dynamic instruction streams* whose structural properties —
//! instruction mix, dependence-graph shape, memory access patterns
//! (working-set size, stride, indirection), and branch predictability —
//! are chosen per benchmark to reproduce the behaviours the paper's
//! results hinge on (see `DESIGN.md` §2 for the substitution argument).
//!
//! A [`Profile`] is a set of [`Phase`]s, each wrapping a loop *kernel*
//! ([`KernelSpec`]): streaming, stencil, reduction, pointer-chase,
//! gather, or branchy integer code. [`SyntheticWorkload`] interleaves the
//! phases in bursts and yields an endless stream of resolved
//! [`Inst`](chainiq_isa::Inst)s, deterministically from a seed.
//!
//! # Examples
//!
//! ```
//! use chainiq_workload::{Bench, SyntheticWorkload};
//!
//! let mut w = SyntheticWorkload::from_profile(Bench::Swim.profile(), 42);
//! let first_thousand: Vec<_> = w.by_ref().take(1000).collect();
//! assert_eq!(first_thousand.len(), 1000);
//! // The same seed reproduces the same stream.
//! let mut w2 = SyntheticWorkload::from_profile(Bench::Swim.profile(), 42);
//! assert!(first_thousand.iter().eq(w2.by_ref().take(1000).collect::<Vec<_>>().iter()));
//! ```

#![deny(missing_docs)]
// T1 (DESIGN.md §8): no clock, environment or thread-identity read, and
// no site may exempt itself, since `forbid` rejects a local `#[expect]`.
#![forbid(clippy::disallowed_types, clippy::disallowed_methods)]

mod gen;
mod kernels;
mod profile;

pub use gen::{AddressSpace, MixSummary, SyntheticWorkload, VecWorkload};
pub use kernels::KernelSpec;
pub use profile::{Bench, Phase, Profile};
