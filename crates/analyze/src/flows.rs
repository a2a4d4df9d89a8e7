//! Flow-based rules over the workspace call graph: **H2** (hot-path
//! purity) and **T1** (determinism taint).
//!
//! * **H2** runs a forward multi-source BFS from every hot-marked
//!   function; any allocation fact in a reached function — the hot body
//!   itself at depth 0 included — is flagged with a witness call path.
//! * **T1** runs a *backward* multi-source BFS from every function
//!   containing a nondeterminism source; any sink — a `Snapshot` impl
//!   method, a `*Stats` impl method, or a public function of a sim
//!   crate — reached at any depth, the source's own body included, is
//!   flagged with the witness path down to the source. Suppression is
//!   checked at the *source* fact: an `allow(T1, …)` next to the
//!   offending read certifies the value never corrupts determinism,
//!   killing every flow out of it.
//!
//! All traversals use index-ordered queues over `BTreeSet` adjacency, so
//! witness paths and diagnostic order are deterministic run to run.

use crate::callgraph::Graph;
use crate::rules::{Diagnostic, RuleId};
use std::collections::{BTreeMap, VecDeque};

/// Crate directory names (under `crates/`) whose code is the simulation
/// proper: their public functions are T1 determinism sinks. `analyze`
/// itself is on the list, since its diagnostics must be deterministic
/// too.
const SIM_CRATES: &[&str] = &[
    "analyze", "baseline", "chainiq", "circuit", "core", "cpu", "isa", "mem", "power", "predict",
    "workload",
];

/// Shape of the call graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats {
    /// Non-test functions in the graph.
    pub functions: usize,
    /// Distinct candidate call edges.
    pub edges: usize,
    /// Hot-marked entry points.
    pub hot_roots: usize,
}

/// Everything the flow pass produced.
#[derive(Debug, Default)]
pub(crate) struct FlowReport {
    /// Unsuppressed H2 site diagnostics, keyed by allocation-site file.
    pub(crate) h2: BTreeMap<String, Vec<Diagnostic>>,
    /// Unsuppressed T1 sink diagnostics, keyed by sink file.
    pub(crate) t1: BTreeMap<String, Vec<Diagnostic>>,
    /// Graph shape.
    pub(crate) stats: GraphStats,
}

/// Runs both flow analyses over the graph.
pub(crate) fn analyze(g: &Graph) -> FlowReport {
    let mut report = FlowReport {
        stats: GraphStats {
            functions: g.nodes.len(),
            edges: g.edge_count,
            hot_roots: g.nodes.iter().filter(|n| n.item.is_hot).count(),
        },
        ..FlowReport::default()
    };

    // ---- forward reachability from hot roots (H2) ----
    let hot_roots: Vec<usize> = (0..g.nodes.len()).filter(|&i| g.nodes[i].item.is_hot).collect();
    let fwd = bfs(&g.edges, &hot_roots);

    for (v, n) in g.nodes.iter().enumerate().filter(|&(v, _)| fwd[v].is_some()) {
        for alloc in &n.item.allocs {
            let suppressed =
                g.markers.get(&n.file).is_some_and(|m| m.suppressed(RuleId::H2, alloc.line));
            if suppressed {
                continue;
            }
            let path = render(g, hops(&fwd, v).iter().rev());
            report.h2.entry(n.file.clone()).or_default().push(Diagnostic {
                file: n.file.clone(),
                line: alloc.line,
                rule: RuleId::H2,
                message: format!(
                    "{} allocates on a hot path: {path} → {}; per-cycle paths must not \
                     allocate at any depth — hoist the buffer, or carry \
                     `// chainiq-analyze: allow(H2, reason)` at this site",
                    alloc.what, alloc.what
                ),
            });
        }
    }

    // ---- backward reachability from taint sources (T1) ----
    // A node seeds the traversal if it holds at least one unsuppressed
    // taint fact; the first such fact is the witness endpoint.
    let mut source_fact: BTreeMap<usize, (String, u32)> = BTreeMap::new();
    let mut sources = Vec::new();
    for (v, n) in g.nodes.iter().enumerate() {
        let fact =
            n.item.taints.iter().find(|t| {
                !g.markers.get(&n.file).is_some_and(|m| m.suppressed(RuleId::T1, t.line))
            });
        if let Some(t) = fact {
            source_fact.insert(v, (t.what.clone(), t.line));
            sources.push(v);
        }
    }
    let bwd = bfs(&g.redges, &sources);

    for (v, n) in g.nodes.iter().enumerate().filter(|&(v, _)| bwd[v].is_some()) {
        let Some(sink_kind) = sink_kind(g, v) else {
            continue;
        };
        // Backward BFS parents lead from the sink down to the seeding
        // source, which is the order the witness prints in.
        let hops = hops(&bwd, v);
        let path = render(g, hops.iter());
        let src = hops[hops.len() - 1];
        let (what, line) = &source_fact[&src];
        report.t1.entry(n.file.clone()).or_default().push(Diagnostic {
            file: n.file.clone(),
            line: n.item.line,
            rule: RuleId::T1,
            message: format!(
                "{sink_kind} `{}` can reach a nondeterminism source: {path} → {what} at \
                 {}:{line}; route the value out of the model, or carry \
                 `// chainiq-analyze: allow(T1, reason)` at the source read",
                n.item.name, g.nodes[src].file
            ),
        });
    }

    report
}

/// Which kind of T1 sink node `v` is, if any.
fn sink_kind(g: &Graph, v: usize) -> Option<&'static str> {
    let n = &g.nodes[v];
    if n.item.trait_name.as_deref() == Some("Snapshot") {
        return Some("Snapshot impl method");
    }
    let stats = |s: &Option<String>| s.as_deref().is_some_and(|t| t.ends_with("Stats"));
    if stats(&n.item.impl_ty) || stats(&n.item.trait_name) {
        return Some("Stats method");
    }
    if SIM_CRATES.contains(&n.crate_name.as_str()) && n.item.is_pub && !n.is_bin {
        return Some("sim-crate public fn");
    }
    None
}

/// Multi-source BFS: per node, `None` if unreached, else `Some(parent)`
/// with a root as its own parent.
fn bfs(adj: &[std::collections::BTreeSet<usize>], roots: &[usize]) -> Vec<Option<usize>> {
    let mut parent = vec![None; adj.len()];
    let mut q = VecDeque::new();
    for &r in roots {
        if parent[r].is_none() {
            parent[r] = Some(r);
            q.push_back(r);
        }
    }
    while let Some(u) = q.pop_front() {
        for &v in &adj[u] {
            if parent[v].is_none() {
                parent[v] = Some(u);
                q.push_back(v);
            }
        }
    }
    parent
}

/// The BFS-tree path from `v` up to its root, `v` first (never empty).
fn hops(parent: &[Option<usize>], v: usize) -> Vec<usize> {
    let mut path = vec![v];
    let mut u = v;
    while let Some(p) = parent[u].filter(|&p| p != u) {
        path.push(p);
        u = p;
    }
    path
}

/// Renders a witness path as `a.rs:10 (f) → b.rs:42 (g) → …`.
fn render<'a>(g: &Graph, path: impl Iterator<Item = &'a usize>) -> String {
    path.map(|&h| g.nodes[h].describe()).collect::<Vec<_>>().join(" → ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::parser::parse_file;
    use std::collections::BTreeSet;

    fn flow_of(files: &[(&str, &str, &str)]) -> FlowReport {
        let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (c, _, _) in files {
            deps.insert(
                (*c).to_string(),
                files.iter().map(|(c2, _, _)| (*c2).to_string()).collect(),
            );
        }
        let g =
            build(files.iter().map(|(c, f, src)| parse_file(c, f, src, false)).collect(), &deps);
        analyze(&g)
    }

    #[test]
    fn h2_flags_transitive_allocation_with_witness() {
        let r = flow_of(&[(
            "core",
            "crates/core/src/a.rs",
            "// chainiq-analyze: hot\n\
             pub fn tick() { helper(); }\n\
             fn helper() { let _v = Vec::new(); }\n",
        )]);
        let diags = &r.h2["crates/core/src/a.rs"];
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::H2);
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("a.rs:2 (tick) → "), "{}", diags[0].message);
    }

    #[test]
    fn h2_reports_depth_zero_and_skips_unreachable_allocs() {
        let r = flow_of(&[(
            "core",
            "crates/core/src/a.rs",
            "// chainiq-analyze: hot\n\
             pub fn tick() { let _v = Vec::new(); }\n\
             fn cold() { let _v = Vec::new(); }\n",
        )]);
        let diags = &r.h2["crates/core/src/a.rs"];
        assert_eq!(diags.len(), 1, "the hot body counts, cold is unreachable: {diags:?}");
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].message.contains("a.rs:2 (tick) → Vec::new"), "{}", diags[0].message);
    }

    #[test]
    fn h2_survives_recursion_cycles() {
        let r = flow_of(&[(
            "core",
            "crates/core/src/a.rs",
            "// chainiq-analyze: hot\n\
             pub fn tick() { ping(); }\n\
             fn ping() { pong(); }\n\
             fn pong() { ping(); let _s = format!(\"x\"); }\n",
        )]);
        let diags = &r.h2["crates/core/src/a.rs"];
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("format!"));
    }

    #[test]
    fn h2_suppression_at_site_wins() {
        let r = flow_of(&[(
            "core",
            "crates/core/src/a.rs",
            "// chainiq-analyze: hot\n\
             pub fn tick() { helper(); }\n\
             fn helper() {\n\
             // chainiq-analyze: allow(H2, one-time growth amortized to zero)\n\
             let _v = Vec::new();\n\
             }\n",
        )]);
        assert!(r.h2.is_empty(), "{:?}", r.h2);
    }

    #[test]
    fn t1_flags_sim_pub_fn_reaching_source() {
        let r = flow_of(&[(
            "core",
            "crates/core/src/a.rs",
            "pub fn api() { helper(); }\n\
             fn helper() { let _t = std::thread::current(); }\n",
        )]);
        let diags = &r.t1["crates/core/src/a.rs"];
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::T1);
        assert_eq!(diags[0].line, 1, "diagnostic anchors at the sink fn");
        assert!(diags[0].message.contains("thread::current"), "{}", diags[0].message);
        assert!(diags[0].message.contains("(api) → "), "{}", diags[0].message);
    }

    #[test]
    fn t1_flags_direct_use_and_skips_private_fns() {
        let r = flow_of(&[(
            "core",
            "crates/core/src/a.rs",
            "pub fn api() { let _t = std::thread::current(); }\n\
             fn private() { helper(); }\n\
             fn helper() { let _t = std::thread::current(); }\n",
        )]);
        let diags = &r.t1["crates/core/src/a.rs"];
        assert_eq!(diags.len(), 1, "private fns are not sinks: {diags:?}");
        assert_eq!(diags[0].line, 1, "the sink is its own source");
    }

    #[test]
    fn t1_source_suppression_kills_the_flow() {
        let r = flow_of(&[(
            "core",
            "crates/core/src/a.rs",
            "pub fn api() { helper(); }\n\
             fn helper() {\n\
             // chainiq-analyze: allow(T1, handle printed to stderr, never enters state)\n\
             let _t = std::thread::current();\n\
             }\n",
        )]);
        assert!(r.t1.is_empty(), "{:?}", r.t1);
    }

    #[test]
    fn t1_snapshot_and_stats_sinks() {
        let r = flow_of(&[(
            "bench",
            "crates/bench/src/a.rs",
            "impl Snapshot for Thing { fn save(&self) { now(); } }\n\
             impl RunStats { fn emit(&self) { now(); } }\n\
             fn now() { let _t = std::thread::current(); }\n",
        )]);
        let diags = &r.t1["crates/bench/src/a.rs"];
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].message.contains("Snapshot impl method"), "{}", diags[0].message);
        assert!(diags[1].message.contains("Stats method"), "{}", diags[1].message);
    }

    #[test]
    fn method_dispatch_through_two_candidate_impls_is_conservative() {
        // The hot loop calls `q.step()`; only one impl allocates, but
        // name-based resolution must consider both, so the allocating
        // one is flagged.
        let r = flow_of(&[(
            "core",
            "crates/core/src/a.rs",
            "// chainiq-analyze: hot\n\
             pub fn drive(q: &mut dyn Queue) { q.step(); }\n\
             impl Clean { fn step(&mut self) {} }\n\
             impl Dirty { fn step(&mut self) { let _v = Vec::new(); } }\n",
        )]);
        let diags = &r.h2["crates/core/src/a.rs"];
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn stats_counts_graph_shape() {
        let r = flow_of(&[(
            "core",
            "crates/core/src/a.rs",
            "// chainiq-analyze: hot\n\
             pub fn tick() { helper(); }\n\
             fn helper() {}\n",
        )]);
        assert_eq!(r.stats.functions, 2);
        assert_eq!(r.stats.edges, 1);
        assert_eq!(r.stats.hot_roots, 1);
    }
}
