//! The workspace call graph, built from [`crate::parser`] output.
//!
//! Resolution is **conservative and name-based**: a call site links to
//! every workspace function that could plausibly be its target —
//!
//! * a free call `helper(…)` links to every free `fn helper` visible
//!   from the caller's crate;
//! * a method call `x.step(…)` links to every `fn step` defined inside
//!   *any* visible `impl`/`trait` block (no type inference — all
//!   candidate impls are taken, which is exactly what makes H2/T1 sound
//!   against dynamic dispatch and generics);
//! * a qualified call `Type::assoc(…)` links to methods of impls on
//!   `Type` (or of trait `Type`), falling back to free functions for
//!   module-qualified paths (`module::helper(…)`).
//!
//! Candidates are filtered by the crate dependency graph: crate A's
//! calls can only land in A itself or in crates A (transitively) depends
//! on, and cross-crate targets must be exported (`pub`, or a trait
//! method). Without this filter, same-named entry points across sibling
//! crates (every queue has a `step`) would weld the whole workspace into
//! one blob and drown the flow rules in false witnesses.
//!
//! Internals are `Vec` + `BTreeSet`/`BTreeMap` only, and nodes are laid
//! out in path-sorted file order, so every traversal — and therefore
//! every diagnostic and witness path — is deterministic.

use crate::parser::{CallKind, FileItems, FnItem};
use crate::rules::Markers;
use std::collections::{BTreeMap, BTreeSet};

/// One function in the graph.
#[derive(Debug)]
pub(crate) struct Node {
    /// Crate directory name under `crates/`.
    pub(crate) crate_name: String,
    /// Workspace-relative file path.
    pub(crate) file: String,
    /// Whether the file is a binary target.
    pub(crate) is_bin: bool,
    /// The parsed function.
    pub(crate) item: FnItem,
}

impl Node {
    /// `file:line (name)` — one hop of a witness path.
    pub(crate) fn describe(&self) -> String {
        format!("{}:{} ({})", self.file, self.item.line, self.item.name)
    }
}

/// The whole-workspace call graph.
#[derive(Debug, Default)]
pub(crate) struct Graph {
    /// Non-test functions, in path-sorted file order then source order.
    pub(crate) nodes: Vec<Node>,
    /// `edges[caller]` → candidate callee indices.
    pub(crate) edges: Vec<BTreeSet<usize>>,
    /// Reverse edges, for backward taint traversal.
    pub(crate) redges: Vec<BTreeSet<usize>>,
    /// Per-file marker facts (suppressions, hot markers).
    pub(crate) markers: BTreeMap<String, Markers>,
    /// Total number of distinct call edges.
    pub(crate) edge_count: usize,
}

/// Builds the graph. `deps` maps each crate directory name to the
/// (transitively closed) set of crate directories it may call into.
pub(crate) fn build(files: Vec<FileItems>, deps: &BTreeMap<String, BTreeSet<String>>) -> Graph {
    let mut nodes = Vec::new();
    let mut markers = BTreeMap::new();
    for fi in files {
        markers.insert(fi.file.clone(), fi.markers);
        for item in fi.fns {
            nodes.push(Node {
                crate_name: fi.crate_name.clone(),
                file: fi.file.clone(),
                is_bin: fi.is_bin,
                item,
            });
        }
    }

    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(n.item.name.as_str()).or_default().push(i);
    }

    let mut edges = vec![BTreeSet::new(); nodes.len()];
    let mut redges = vec![BTreeSet::new(); nodes.len()];
    let mut edge_count = 0usize;
    for c in 0..nodes.len() {
        let caller = &nodes[c];
        for call in &caller.item.calls {
            let Some(cands) = by_name.get(call.name.as_str()) else {
                continue;
            };
            for &k in cands {
                let callee = &nodes[k];
                if !crate_visible(caller, callee, deps) {
                    continue;
                }
                let shape_ok = match &call.kind {
                    CallKind::Free => !callee.item.in_container,
                    CallKind::Method => callee.item.in_container,
                    CallKind::Qualified(q) => {
                        callee.item.impl_ty.as_deref() == Some(q.as_str())
                            || callee.item.trait_name.as_deref() == Some(q.as_str())
                            || !callee.item.in_container
                    }
                };
                if shape_ok && edges[c].insert(k) {
                    redges[k].insert(c);
                    edge_count += 1;
                }
            }
        }
    }

    Graph { nodes, edges, redges, markers, edge_count }
}

/// Whether `caller`'s crate may call `callee` at all: same crate, or a
/// (transitive) dependency exposing the function.
fn crate_visible(caller: &Node, callee: &Node, deps: &BTreeMap<String, BTreeSet<String>>) -> bool {
    if caller.crate_name == callee.crate_name {
        return true;
    }
    if !deps.get(&caller.crate_name).is_some_and(|d| d.contains(&callee.crate_name)) {
        return false;
    }
    // Cross-crate: the target must be exported. Trait methods are
    // callable through the (pub) trait even when the `fn` itself carries
    // no `pub`, so count them as exported.
    callee.item.is_pub || callee.item.trait_name.is_some()
}

/// Transitively closes a direct crate-dependency map (dir → dirs).
pub(crate) fn close_deps(
    direct: &BTreeMap<String, BTreeSet<String>>,
) -> BTreeMap<String, BTreeSet<String>> {
    let mut closed = direct.clone();
    // Fixed-point iteration; the workspace has a dozen crates, so no
    // fancy algorithm is warranted.
    loop {
        let mut grew = false;
        for name in direct.keys() {
            let reach: BTreeSet<String> = closed[name]
                .iter()
                .flat_map(|d| closed.get(d).into_iter().flatten().cloned())
                .collect();
            if let Some(entry) = closed.get_mut(name) {
                for r in reach {
                    grew |= entry.insert(r);
                }
            }
        }
        if !grew {
            return closed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn graph_of(files: &[(&str, &str, &str)]) -> Graph {
        // All fixture crates may see each other; tests that need the dep
        // filter build their own map.
        let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (c, _, _) in files {
            let all: BTreeSet<String> = files.iter().map(|(c2, _, _)| (*c2).to_string()).collect();
            deps.insert((*c).to_string(), all);
        }
        build(files.iter().map(|(c, f, src)| parse_file(c, f, src, false)).collect(), &deps)
    }

    fn idx(g: &Graph, name: &str) -> usize {
        g.nodes.iter().position(|n| n.item.name == name).unwrap_or_else(|| panic!("no {name}"))
    }

    #[test]
    fn free_call_links_and_methods_do_not_cross_shapes() {
        let g = graph_of(&[(
            "core",
            "crates/core/src/a.rs",
            "pub fn a() { b(); }\nfn b() {}\nimpl T { fn a(&self) {} }\n",
        )]);
        let a = idx(&g, "a");
        let b = idx(&g, "b");
        assert!(g.edges[a].contains(&b));
        // The free call `b()` must not link to a method named `a`.
        let method_a =
            g.nodes.iter().position(|n| n.item.name == "a" && n.item.in_container).unwrap();
        assert!(!g.edges[a].contains(&method_a));
        assert!(g.redges[b].contains(&a));
    }

    #[test]
    fn method_call_links_to_every_candidate_impl() {
        let g = graph_of(&[(
            "core",
            "crates/core/src/a.rs",
            "pub fn drive(x: &mut dyn Q) { x.step(); }\n\
             impl A { fn step(&mut self) {} }\n\
             impl B { fn step(&mut self) {} }\n\
             fn step() {}\n",
        )]);
        let drive = idx(&g, "drive");
        let targets: Vec<bool> =
            g.edges[drive].iter().map(|&k| g.nodes[k].item.in_container).collect();
        assert_eq!(targets, vec![true, true], "both impls, not the free fn: {targets:?}");
    }

    #[test]
    fn qualified_call_prefers_the_named_type() {
        let g = graph_of(&[(
            "core",
            "crates/core/src/a.rs",
            "pub fn f() { A::step(); }\n\
             impl A { fn step() {} }\n\
             impl B { fn step() {} }\n",
        )]);
        let f = idx(&g, "f");
        assert_eq!(g.edges[f].len(), 1);
        let k = *g.edges[f].iter().next().unwrap();
        assert_eq!(g.nodes[k].item.impl_ty.as_deref(), Some("A"));
    }

    #[test]
    fn cross_crate_edges_respect_deps_and_visibility() {
        let files = [
            ("cpu", "crates/cpu/src/a.rs", "pub fn f() { helper(); }\n"),
            ("core", "crates/core/src/b.rs", "pub fn helper() {}\nfn hidden() { helper(); }\n"),
            ("mem", "crates/mem/src/c.rs", "pub fn helper() {}\n"),
        ];
        // cpu depends on core only.
        let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        deps.insert("cpu".into(), ["core".to_string()].into_iter().collect());
        let g =
            build(files.iter().map(|(c, f, src)| parse_file(c, f, src, false)).collect(), &deps);
        let f = idx(&g, "f");
        let targets: Vec<&str> = g.edges[f].iter().map(|&k| g.nodes[k].file.as_str()).collect();
        assert_eq!(targets, vec!["crates/core/src/b.rs"], "mem is not a dep of cpu: {targets:?}");
    }

    #[test]
    fn cross_crate_private_fns_are_not_candidates() {
        let files = [
            ("cpu", "crates/cpu/src/a.rs", "pub fn f() { hidden(); }\n"),
            ("core", "crates/core/src/b.rs", "fn hidden() {}\n"),
        ];
        let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        deps.insert("cpu".into(), ["core".to_string()].into_iter().collect());
        let g =
            build(files.iter().map(|(c, f, src)| parse_file(c, f, src, false)).collect(), &deps);
        assert!(g.edges[idx(&g, "f")].is_empty());
    }

    #[test]
    fn test_fns_are_excluded_from_the_graph() {
        let g = graph_of(&[(
            "core",
            "crates/core/src/a.rs",
            "pub fn real() {}\n#[cfg(test)]\nmod tests { fn t() { real(); } }\n",
        )]);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.edge_count, 0);
    }

    #[test]
    fn close_deps_is_transitive() {
        let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        direct.insert("a".into(), ["b".to_string()].into_iter().collect());
        direct.insert("b".into(), ["c".to_string()].into_iter().collect());
        direct.insert("c".into(), BTreeSet::new());
        let closed = close_deps(&direct);
        assert!(closed["a"].contains("c"), "{closed:?}");
    }
}
