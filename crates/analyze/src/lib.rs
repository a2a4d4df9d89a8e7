//! `chainiq-analyze` — the call-graph engine of the retired workspace
//! analyzer, kept as a library while it is removed in stages.
//!
//! Nothing in the workspace runs it any more: the rules it used to
//! enforce on the tree are now checked by the compiler, clippy, `ci.sh`
//! and `crates/cpu/tests/alloc.rs` (DESIGN.md §8), and the tree carries
//! no marker comments for it to read. What remains is the engine and its
//! tests: a hand-rolled lexer ([`lexer`]) and item parser recover `fn`
//! items and call expressions, a conservative name-based call graph links
//! them, and the flow rules run over it — H2 (no allocation reachable
//! from a `hot`-marked function) and T1 (no nondeterminism reaching a
//! `Snapshot`, `*Stats` or sim-crate public function), both with witness
//! paths — plus the per-file P3 and marker-hygiene checks ([`rules`]).
//!
//! Entry point: [`analyze_sources`] runs every rule over in-memory
//! sources.

#![deny(missing_docs)]

mod callgraph;
mod flows;
pub mod lexer;
mod parser;
pub mod rules;

pub use flows::GraphStats;

use rules::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// One source file to analyze.
#[derive(Debug, Clone, Copy)]
pub struct Source<'a> {
    /// Directory name of the crate under `crates/`, e.g. `core`.
    pub crate_name: &'a str,
    /// Workspace-relative path, e.g. `crates/core/src/wheel.rs`.
    pub path: &'a str,
    /// The file's text.
    pub text: &'a str,
}

/// Everything one analysis run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings across all rules, sorted by (file, line, rule).
    pub diags: Vec<Diagnostic>,
    /// Shape of the call graph.
    pub callgraph: GraphStats,
}

/// Runs P3, A0, H2 and T1 over `sources`. `deps` maps each crate name to
/// the crates it depends on directly; calls only resolve into a crate's
/// own code and its transitive dependencies.
#[must_use]
pub fn analyze_sources(
    sources: &[Source<'_>],
    deps: &BTreeMap<String, BTreeSet<String>>,
) -> Report {
    let mut diags = Vec::new();
    let mut file_items = Vec::with_capacity(sources.len());
    for s in sources {
        let is_bin = s.path.contains("/src/bin/") || s.path.ends_with("/src/main.rs");
        let mut items = parser::parse_file(s.crate_name, s.path, s.text, is_bin);
        diags.append(&mut items.diags);
        file_items.push(items);
    }
    let graph = callgraph::build(file_items, &callgraph::close_deps(deps));
    let flow = flows::analyze(&graph);
    diags.extend(flow.h2.into_values().chain(flow.t1.into_values()).flatten());
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Report { diags, callgraph: flow.stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::RuleId;

    #[test]
    fn analyze_sources_links_across_crates_and_sorts_findings() {
        let core = "pub fn grow() -> Vec<u8> { Vec::new() }";
        let cpu = "// chainiq-analyze: hot\nfn tick() { let _ = chainiq_core::grow(); }\n\
                   // chainiq-analyze: allow(X9, unknown rule)\nfn f() {}";
        let sources = [
            Source { crate_name: "cpu", path: "crates/cpu/src/lib.rs", text: cpu },
            Source { crate_name: "core", path: "crates/core/src/lib.rs", text: core },
        ];
        let deps = BTreeMap::from([
            ("core".to_string(), BTreeSet::new()),
            ("cpu".to_string(), BTreeSet::from(["core".to_string()])),
        ]);
        let report = analyze_sources(&sources, &deps);
        let found: Vec<_> =
            report.diags.iter().map(|d| (d.file.as_str(), d.line, d.rule)).collect();
        assert_eq!(
            found,
            [("crates/core/src/lib.rs", 1, RuleId::H2), ("crates/cpu/src/lib.rs", 3, RuleId::A0)],
            "{:?}",
            report.diags
        );
        assert_eq!(report.callgraph.hot_roots, 1);

        // Without the dependency edge the call cannot resolve into core.
        let no_deps = BTreeMap::from([
            ("core".to_string(), BTreeSet::new()),
            ("cpu".to_string(), BTreeSet::new()),
        ]);
        let report = analyze_sources(&sources, &no_deps);
        assert!(report.diags.iter().all(|d| d.rule != RuleId::H2), "{:?}", report.diags);
    }
}
