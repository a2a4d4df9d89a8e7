//! Event-driven cache hierarchy for the chainiq simulator.
//!
//! Models the memory system of Table 1 of *"A Scalable Instruction Queue
//! Design Using Dependence Chains"* (ISCA 2002):
//!
//! * split 64 KB 2-way L1 instruction and data caches, 64-byte lines
//!   (1-cycle instruction latency, 3-cycle data latency, up to 32
//!   outstanding misses each),
//! * a unified 1 MB 4-way L2 with 10-cycle latency, 32 MSHRs and
//!   64 bytes/cycle of bandwidth to/from the L1s,
//! * main memory with 100-cycle latency and 8 bytes/CPU-cycle bandwidth.
//!
//! The model resolves each access's completion time eagerly (latency
//! resolution) instead of queueing discrete events, while still capturing
//! the phenomena the paper's evaluation depends on:
//!
//! * **delayed hits** — a reference to a line with an outstanding fill
//!   merges into the MSHR and completes when the fill arrives (the paper
//!   notes these dominate swim's L1 misses),
//! * **MSHR exhaustion** — accesses are rejected and must be retried,
//! * **bandwidth contention** — line transfers serialize on the L1↔L2 and
//!   memory buses,
//! * **dirty writebacks** — evictions of dirty lines consume bus
//!   bandwidth.
//!
//! # Examples
//!
//! ```
//! use chainiq_mem::{Hierarchy, MemConfig, AccessKind, ServicedBy};
//!
//! let mut mem = Hierarchy::new(MemConfig::default());
//! let out = mem.access(0, 0x1000, AccessKind::Read).unwrap();
//! // A cold access misses all the way to memory.
//! assert_eq!(out.serviced_by, ServicedBy::Memory);
//! // Once the fill has landed, the same line hits in the L1.
//! let again = mem.access(out.completes_at + 1, 0x1008, AccessKind::Read).unwrap();
//! assert_eq!(again.serviced_by, ServicedBy::L1);
//! ```

#![deny(missing_docs)]
// T1 (DESIGN.md §8): no clock, environment or thread-identity read, and
// no site may exempt itself, since `forbid` rejects a local `#[expect]`.
#![forbid(clippy::disallowed_types, clippy::disallowed_methods)]

mod bus;
mod cache;
mod hierarchy;
mod mshr;
mod stats;

pub use bus::Bus;
pub use cache::{CacheArray, CacheConfig, LookupOutcome};
pub use hierarchy::{AccessKind, AccessOutcome, Hierarchy, MemConfig, RejectReason, ServicedBy};
pub use mshr::{MshrFile, MshrGrant};
pub use stats::{CacheStats, MemStats};

/// A point in simulated time, in CPU cycles (re-exported convention shared
/// with `chainiq_isa::Cycle`).
pub type Cycle = u64;
