//! Rule ids, diagnostics and marker comments.
//!
//! The rules this crate implements:
//!
//! * **H2** and **T1**, the call-graph rules in the `flows` module;
//! * **P3** — no `BTreeMap`/`BTreeSet` in a file carrying the bare
//!   `hot-path` marker comment, checked by the parser. Those files hold
//!   the per-cycle kernel data structures, which were deliberately
//!   rebuilt on slab-intrusive lists, bitsets and event wheels; a tree
//!   map reintroduces pointer-chasing node allocation on the paths the
//!   marker protects;
//! * **A0** — a malformed marker comment: neither `hot`, `hot-path`,
//!   nor `allow(RULE, reason)` with a known rule and a non-empty reason
//!   (this module).
//!
//! Test code — `#[cfg(test)]` items and `#[test]` functions — is exempt
//! from every rule.
//!
//! # Suppression
//!
//! `// chainiq-analyze: allow(H2, why this occurrence is sound)` on the
//! same line or the line directly above an occurrence suppresses it. The
//! reason is mandatory (**A0**). The only other well-formed marker
//! bodies are the bare word `hot`, which makes the following function an
//! H2 root, and the bare word `hot-path`, which opts the whole file into
//! P3.

use crate::lexer::{TokKind, Token};

/// Identifiers of the rules, as they appear in diagnostics and
/// suppression comments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Tree map in a hot-path-marked file.
    P3,
    /// Malformed marker comment.
    A0,
    /// Allocation reachable from a hot-marked function, its body included.
    H2,
    /// Determinism-taint source reaching a Snapshot/Stats/sim-public sink.
    T1,
}

impl RuleId {
    const ALL: [RuleId; 4] = [RuleId::P3, RuleId::A0, RuleId::H2, RuleId::T1];

    fn name(self) -> &'static str {
        match self {
            RuleId::P3 => "P3",
            RuleId::A0 => "A0",
            RuleId::H2 => "H2",
            RuleId::T1 => "T1",
        }
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, formatted as `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The violated rule.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// The comment marker that introduces a suppression.
const SUPPRESS_MARKER: &str = "chainiq-analyze:";

#[derive(Debug)]
struct Suppression {
    rule: RuleId,
    /// Lines this suppression covers: its own and the next.
    lines: [u32; 2],
}

/// Everything the marker comments of one file declare: suppressions,
/// `hot` function markers, and the file-level `hot-path` marker. Shared
/// between the per-file scan and the workspace flow analysis
/// (the `flows` module), which needs the same facts without re-reporting
/// A0.
#[derive(Debug, Default)]
pub(crate) struct Markers {
    sups: Vec<Suppression>,
    hot_lines: Vec<u32>,
    pub(crate) hot_path: bool,
}

impl Markers {
    /// Whether `line` in this file is covered by an `allow(rule, …)`.
    pub(crate) fn suppressed(&self, rule: RuleId, line: u32) -> bool {
        self.sups.iter().any(|s| s.rule == rule && s.lines.contains(&line))
    }

    /// Whether a `fn` token on `line` carries the `hot` marker (same
    /// line or the line directly above).
    pub(crate) fn is_hot_fn_line(&self, line: u32) -> bool {
        self.hot_lines.iter().any(|&l| l == line || l + 1 == line)
    }
}

/// Parses suppression and `hot` / `hot-path` marker comments out of the
/// token stream. Malformed ones (neither a marker word nor `allow(...)`,
/// unknown rule id, missing reason) produce A0 diagnostics.
pub(crate) fn collect_markers(
    file: &str,
    toks: &[Token<'_>],
    diags: &mut Vec<Diagnostic>,
) -> Markers {
    let mut markers = Markers::default();
    for t in toks {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let Some(pos) = t.text.find(SUPPRESS_MARKER) else {
            continue;
        };
        let rest = t.text[pos + SUPPRESS_MARKER.len()..].trim();
        if rest == "hot" {
            markers.hot_lines.push(t.line);
            continue;
        }
        if rest == "hot-path" {
            markers.hot_path = true;
            continue;
        }
        let mut bad = |msg: &str| {
            diags.push(Diagnostic {
                file: file.to_string(),
                line: t.line,
                rule: RuleId::A0,
                message: format!(
                    "{msg} — write `// chainiq-analyze: allow(RULE, reason)` with a non-empty \
                     reason, `// chainiq-analyze: hot` to mark a kernel function, or \
                     `// chainiq-analyze: hot-path` to mark a kernel file"
                ),
            });
        };
        let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.rfind(')').map(|e| &r[..e]))
        else {
            bad("suppression comment without a well-formed `allow(...)`");
            continue;
        };
        let (rule_str, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inner.trim(), ""),
        };
        let Some(rule) = RuleId::ALL.into_iter().find(|r| r.name() == rule_str) else {
            bad(&format!("suppression names unknown rule `{rule_str}`"));
            continue;
        };
        if reason.is_empty() {
            bad(&format!("suppression of {rule} is missing its mandatory reason"));
            continue;
        }
        markers.sups.push(Suppression { rule, lines: [t.line, t.line + 1] });
    }
    markers
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// A0 and P3 from the parser plus H2 and T1 from the flow pass, over
    /// a one-file workspace.
    fn diags_of(crate_name: &str, file: &str, src: &str) -> Vec<Diagnostic> {
        let mut items = crate::parser::parse_file(crate_name, file, src, false);
        let mut diags = std::mem::take(&mut items.diags);
        let deps = BTreeMap::from([(crate_name.to_string(), BTreeSet::new())]);
        let flow = crate::flows::analyze(&crate::callgraph::build(vec![items], &deps));
        diags.extend(flow.h2.into_values().chain(flow.t1.into_values()).flatten());
        diags
    }

    // ---- former P2: H2 at depth 0, the hot body itself ----

    #[test]
    fn p2_flags_allocation_in_hot_fn() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "// chainiq-analyze: hot\n\
             fn tick(&mut self) {\n\
             let v = self.items.clone();\n\
             let w: Vec<u32> = Vec::new();\n\
             let x: Vec<u32> = v.iter().copied().collect();\n\
             drop((w, x));\n\
             }",
        );
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|d| d.rule == RuleId::H2));
        assert_eq!(d[0].line, 3);
        assert_eq!(d[1].line, 4);
        assert_eq!(d[2].line, 5);
    }

    #[test]
    fn p2_marker_on_fn_line_also_covers() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "fn tick(&mut self) { // chainiq-analyze: hot\n let _v = self.items.clone();\n}",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RuleId::H2);
    }

    #[test]
    fn p2_ignores_non_hot_functions() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "// chainiq-analyze: hot\n\
             fn hot_one(&self) -> u32 { self.n }\n\
             fn cold(&self) -> Vec<u32> { self.items.clone() }",
        );
        assert!(d.is_empty(), "allocation outside the hot fn is fine: {d:?}");
    }

    #[test]
    fn p2_hot_marker_is_not_a0() {
        let d = diags_of("core", "crates/core/src/x.rs", "// chainiq-analyze: hot\nfn f() {}");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn p2_hot_marker_with_trailing_words_is_a0() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "// chainiq-analyze: hot path here\nfn f() {}",
        );
        assert!(d.iter().any(|d| d.rule == RuleId::A0), "{d:?}");
    }

    #[test]
    fn p2_suppressed_with_reason_passes() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "// chainiq-analyze: hot\n\
             fn tick(&mut self) {\n\
             // chainiq-analyze: allow(H2, one-time growth amortized to zero)\n\
             let _v = self.items.clone();\n\
             }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn p2_flags_with_capacity_but_not_clone_without_call_parens() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "// chainiq-analyze: hot\n\
             fn tick(&mut self) {\n\
             let _c = Clone::clone;\n\
             let _v: Vec<u32> = Vec::with_capacity(4);\n\
             let _w = vec![0u32; 4];\n\
             let _s = String::from(\"x\");\n\
             let _o = self.name.to_owned();\n\
             let _b: Box<[u8]> = Box::from(&b\"x\"[..]);\n\
             }",
        );
        let lines: Vec<u32> = d.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![4, 5, 6, 7, 8], "{d:?}");
        assert!(d.iter().all(|d| d.rule == RuleId::H2));
    }

    // ---- P3 ----

    #[test]
    fn p3_flags_tree_maps_in_hot_path_file() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "// chainiq-analyze: hot-path\n\
             use std::collections::BTreeMap;\n\
             fn f() { let _m: BTreeMap<u32, u32> = BTreeMap::new(); }",
        );
        assert_eq!(d.len(), 3, "import + type + constructor: {d:?}");
        assert!(d.iter().all(|d| d.rule == RuleId::P3));
    }

    #[test]
    fn p3_ignores_tree_maps_without_the_file_marker() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "use std::collections::BTreeSet;\nfn f() { let _s: BTreeSet<u32> = BTreeSet::new(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn p3_ignores_tree_maps_in_test_code() {
        // The differential/property tests inside a kernel file use tree
        // maps as reference models on purpose.
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "// chainiq-analyze: hot-path\n\
             fn f() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 use std::collections::BTreeMap;\n\
                 #[test]\n\
                 fn t() { let _m: BTreeMap<u8, u8> = BTreeMap::new(); }\n\
             }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn p3_suppressed_with_reason_passes() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "// chainiq-analyze: hot-path\n\
             // chainiq-analyze: allow(P3, cold-path config table, never touched per cycle)\n\
             use std::collections::BTreeMap;",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn p3_hot_path_marker_is_not_a0() {
        let d = diags_of("core", "crates/core/src/x.rs", "// chainiq-analyze: hot-path\nfn f() {}");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn p3_hot_path_marker_with_trailing_words_is_a0() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "// chainiq-analyze: hot-path stuff\nfn f() {}",
        );
        assert!(d.iter().any(|d| d.rule == RuleId::A0), "{d:?}");
    }

    // ---- former S1: T1 at depth 0 inside a Snapshot impl ----

    #[test]
    fn s1_flags_wall_clock_in_snapshot_impl_even_in_exempt_crates() {
        // `bench` may time things; a Snapshot body may not.
        let d = diags_of(
            "bench",
            "crates/bench/src/x.rs",
            "impl chainiq_ckpt::Snapshot for Thing {\n\
             fn save(&self, w: &mut Writer) { let _t = Instant::now(); }\n\
             }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RuleId::T1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn s1_flags_env_read_in_snapshot_impl_even_in_knob_rs() {
        let d = diags_of(
            "bench",
            "crates/bench/src/knob.rs",
            "impl Snapshot for Thing {\n\
             fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {\n\
             let _ = std::env::var(\"HOME\");\nOk(())\n}\n}",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RuleId::T1);
    }

    #[test]
    fn s1_flags_std_time_path_in_generic_snapshot_impl() {
        let d = diags_of(
            "cpu",
            "crates/cpu/src/x.rs",
            "impl<Q, W> chainiq_ckpt::Snapshot for Pipeline<Q, W>\n\
             where\n    Q: IssueQueue + chainiq_ckpt::Snapshot,\n    W: Iterator,\n{\n\
             fn save(&self, w: &mut Writer) { let _d = std::time::Duration::ZERO; }\n\
             }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RuleId::T1);
        assert!(d[0].message.contains("Snapshot impl method"), "{}", d[0].message);
    }

    #[test]
    fn s1_does_not_mark_snapshot_bounds_or_other_impls() {
        // A `Snapshot` *bound* is not a `Snapshot` impl.
        let d = diags_of(
            "bench",
            "crates/bench/src/x.rs",
            "impl<Q: Snapshot> Runner<Q> {\n\
             fn time(&self) { let _t = Instant::now(); }\n\
             }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn s1_suppressed_with_reason_passes() {
        let d = diags_of(
            "bench",
            "crates/bench/src/x.rs",
            "impl Snapshot for Thing {\n\
             // chainiq-analyze: allow(T1, stderr diagnostic, never packed into the image)\n\
             fn save(&self) { let _t = Instant::now(); }\n\
             fn other(&self) { let _t = Instant::now(); }\n\
             }",
        );
        assert_eq!(d.len(), 1, "only the unsuppressed read reports: {d:?}");
        assert_eq!(d[0].rule, RuleId::T1);
        assert_eq!(d[0].line, 4);
    }

    // ---- A0 / suppression hygiene ----

    #[test]
    fn a0_suppression_without_reason_fails() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "// chainiq-analyze: hot-path\n\
             // chainiq-analyze: allow(P3)\n\
             use std::collections::BTreeMap;",
        );
        assert!(d.iter().any(|d| d.rule == RuleId::A0), "{d:?}");
        assert!(d.iter().any(|d| d.rule == RuleId::P3), "reasonless allow must not suppress");
    }

    #[test]
    fn a0_unknown_rule_fails() {
        // Retired rule ids are unknown too, so a stale marker fails loudly.
        for id in ["D9", "D1", "P1"] {
            let src = format!("// chainiq-analyze: allow({id}, whatever)\nfn f() {{}}");
            let d = diags_of("core", "crates/core/src/x.rs", &src);
            assert!(d.iter().any(|d| d.rule == RuleId::A0), "{id}: {d:?}");
        }
    }

    #[test]
    fn a0_malformed_marker_fails() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "// chainiq-analyze: please ignore\nfn f() {}",
        );
        assert!(d.iter().any(|d| d.rule == RuleId::A0));
    }

    // ---- cfg(test) mask edge cases ----

    #[test]
    fn cfg_not_test_is_not_a_test_gate() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "// chainiq-analyze: hot-path\n\
             #[cfg(not(test))]\nfn f() { let _m = std::collections::BTreeMap::<u8, u8>::new(); }",
        );
        assert_eq!(d.len(), 1, "cfg(not(test)) code is live code: {d:?}");
    }

    #[test]
    fn gated_semicolon_item_is_skipped() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "// chainiq-analyze: hot-path\n#[cfg(test)]\nuse std::collections::BTreeMap;\nfn f() {}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn code_after_test_module_is_still_scanned() {
        let d = diags_of(
            "core",
            "crates/core/src/x.rs",
            "// chainiq-analyze: hot-path\n\
             #[cfg(test)]\nmod tests { fn t() {} }\nuse std::collections::BTreeMap;",
        );
        assert_eq!(d.len(), 1);
    }
}
