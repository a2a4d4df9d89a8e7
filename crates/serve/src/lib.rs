//! `chainiq-serve` — a long-running simulation daemon in front of the
//! chainiq experiment harness.
//!
//! Every experiment binary re-executes its grid from scratch; across a
//! working session (sweep, tweak, re-sweep) the same `RunSpec`s are
//! simulated over and over. This crate moves the execute-and-cache loop
//! behind a TCP daemon so that *any number of clients* share one
//! content-addressed result store:
//!
//! * **Protocol** ([`proto`]) — a versioned, length-prefixed wire
//!   format. Clients submit grids of [`RunSpec`]s; the server answers
//!   with per-job progress, result images in submission order, or a
//!   typed [`proto::ServerMsg::Busy`] when the pending queue is full.
//! * **Server** ([`server`]) — accepts connections, answers from the
//!   result cache (a `chainiq_ckpt::CacheDir`, persisted on disk in the
//!   checkpoint-image format), collapses concurrent identical
//!   submissions onto one in-flight simulation (single-flight dedupe),
//!   and shards misses across a fixed worker pool.
//! * **Client** ([`client`]) — the blocking client the integration
//!   tests and the `benchmark/` package's `serve-mix` workload drive.
//!
//! Responses are **byte-identical** for a given spec regardless of
//! arrival order, worker count, or whether the bytes came from the
//! cache or a fresh simulation: the image is a deterministic encoding
//! of a deterministic simulation, and the cache key is a fingerprint of
//! the spec's canonical wire encoding.

#![deny(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use chainiq_bench::RunSpec;
pub use client::{Client, GridReply, Submission};
pub use proto::{spec_key, ServeError, ServeStats, PROTO_VERSION};
pub use server::{Server, ServerConfig};
