//! `chainiq-analyze` — the lexer and item parser left of the retired
//! workspace analyzer, awaiting deletion.
//!
//! Nothing in the workspace calls it: the rules the analyzer used to
//! enforce on the tree are checked by the compiler, clippy, `ci.sh` and
//! `crates/cpu/tests/alloc.rs` (DESIGN.md §8). A hand-rolled lexer
//! ([`lexer`]) feeds an item parser ([`parser`]) that recovers `fn`
//! items, their call expressions and their allocation and taint facts.

#![deny(missing_docs)]

pub mod lexer;
pub mod parser;
