//! End-to-end tests for `chainiq-analyze` over fixture workspaces built
//! in a temp directory, plus a dogfood run over the real repo.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test support code: a failed unwrap is the test failing"
)]

use chainiq_analyze::rules::RuleId;
use chainiq_analyze::{analyze_workspace, write_baseline};
use std::fs;
use std::path::{Path, PathBuf};

/// A throwaway fixture workspace; the directory is removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("chainiq-analyze-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create fixture root");
        fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n\n[workspace.lints.rust]\nunsafe_code = \"forbid\"\n",
        )
        .expect("write root manifest");
        Fixture { root }
    }

    /// Adds a crate with a clean manifest (no dependencies, workspace
    /// lints inherited) and the given `src/lib.rs`.
    fn add_crate(&self, name: &str, lib_rs: &str) -> &Fixture {
        self.add_crate_raw(name, &manifest(name, ""), lib_rs)
    }

    fn add_crate_raw(&self, name: &str, manifest: &str, lib_rs: &str) -> &Fixture {
        let dir = self.root.join("crates").join(name);
        fs::create_dir_all(dir.join("src")).expect("create crate dirs");
        fs::write(dir.join("Cargo.toml"), manifest).expect("write crate manifest");
        fs::write(dir.join("src/lib.rs"), lib_rs).expect("write lib.rs");
        self
    }

    fn write(&self, rel: &str, content: &str) -> &Fixture {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("rel path has a parent")).expect("mkdir");
        fs::write(path, content).expect("write fixture file");
        self
    }

    fn rules_found(&self) -> Vec<RuleId> {
        analyze_workspace(&self.root).expect("analysis runs").diags.iter().map(|d| d.rule).collect()
    }
}

/// A crate manifest that inherits the workspace lints, with `deps` as
/// its `[dependencies]` table body.
fn manifest(name: &str, deps: &str) -> String {
    format!(
        "[package]\nname = \"{name}\"\nversion = \"0.1.0\"\n\n[lints]\nworkspace = true\n\n\
         [dependencies]\n{deps}"
    )
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

// ---- a clean crate passes; one outside the workspace lints fails ----

#[test]
fn clean_btreemap_core_passes() {
    let fx = Fixture::new("d1-clean");
    fx.add_crate(
        "core",
        "use std::collections::BTreeMap;\n\
         pub fn f(m: &BTreeMap<u32, u32>) -> u32 { m.values().sum() }\n",
    );
    assert!(fx.rules_found().is_empty());
}

#[test]
fn crate_opting_out_of_workspace_lints_fails() {
    let fx = Fixture::new("l1");
    fx.add_crate("core", "pub fn f() {}\n");
    fx.add_crate_raw("mem", "[package]\nname = \"m\"\nversion = \"0.1.0\"\n", "pub fn g() {}\n");
    let report = analyze_workspace(&fx.root).expect("analysis runs");
    let files: Vec<_> = report.diags.iter().map(|d| (d.rule, d.file.as_str())).collect();
    assert_eq!(files, vec![(RuleId::L1, "crates/mem/Cargo.toml")]);

    fx.write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    let rules = fx.rules_found();
    assert_eq!(rules, vec![RuleId::L1, RuleId::L1], "root and crate: {rules:?}");
}

// ---- baseline ratchet ----

#[test]
fn stale_baseline_entry_fails() {
    let fx = Fixture::new("stale");
    fx.add_crate("core", "");
    fx.write("analyze-baseline.toml", "[hot-alloc-budget]\n\"crates/core/src/deleted.rs\" = 3\n");
    let rules = fx.rules_found();
    assert_eq!(rules, vec![RuleId::B1], "stale entry must fail: {rules:?}");
}

#[test]
fn corrupt_baseline_is_an_error_not_a_pass() {
    let fx = Fixture::new("corrupt");
    fx.add_crate("core", "");
    fx.write("analyze-baseline.toml", "[hot-alloc-budget]\nnot a kv line\n");
    assert!(analyze_workspace(&fx.root).is_err());
}

// ---- suppression hygiene and the baseline gate ----

#[test]
fn suppressed_findings_pass_reasonless_suppression_fails() {
    let fx = Fixture::new("suppress");
    fx.add_crate(
        "core",
        "// chainiq-analyze: hot-path\n\
         // chainiq-analyze: allow(P3, cold-path config table, never touched per cycle)\n\
         use std::collections::BTreeMap;\n\
         pub fn get(m: &BTreeMap<u32, u32>, k: u32) -> Option<u32> { m.get(&k).copied() } // chainiq-analyze: allow(P3, cold path)\n",
    );
    assert!(fx.rules_found().is_empty());

    let fx2 = Fixture::new("suppress-bad");
    fx2.add_crate(
        "core",
        "// chainiq-analyze: hot-path\n// chainiq-analyze: allow(P3)\nuse std::collections::BTreeMap;\n",
    );
    let rules = fx2.rules_found();
    assert!(rules.contains(&RuleId::A0), "{rules:?}");
    assert!(rules.contains(&RuleId::P3), "reasonless allow must not suppress: {rules:?}");
}

#[test]
fn write_baseline_refuses_while_rule_findings_exist() {
    // write_baseline itself writes unconditionally (library level); the
    // CLI gates it. At the library level, verify baselining H2 debt does
    // not mask a P3 finding on the next run.
    let fx = Fixture::new("no-bless");
    fx.add_crate(
        "core",
        "// chainiq-analyze: hot-path\n\
         use std::collections::BTreeMap;\n\
         // chainiq-analyze: hot\n\
         pub fn tick(v: &[u8]) -> usize { v.to_vec().len() }\n",
    );
    write_baseline(&fx.root).expect("write baseline");
    let rules = fx.rules_found();
    assert!(rules.contains(&RuleId::P3), "baseline must not bless P3: {rules:?}");
    assert!(!rules.contains(&RuleId::H2), "H2 debt is baselined: {rules:?}");
}

// ---- flow rules end-to-end: H2 / T1 over fixture workspaces ----

#[test]
fn h2_transitive_allocation_fails_and_site_allow_passes() {
    let fx = Fixture::new("h2-e2e");
    fx.add_crate(
        "core",
        "// chainiq-analyze: hot\n\
         pub fn tick(v: &[u8]) -> usize { helper(v) }\n\
         fn helper(v: &[u8]) -> usize { v.to_vec().len() }\n",
    );
    let report = analyze_workspace(&fx.root).expect("analysis runs");
    let h2: Vec<_> = report.diags.iter().filter(|d| d.rule == RuleId::H2).collect();
    assert_eq!(h2.len(), 1, "{:?}", report.diags);
    assert!(
        h2[0].message.contains("(tick) →"),
        "witness path names the hot root: {}",
        h2[0].message
    );
    assert!(h2[0].message.contains("(helper)"), "witness path names the callee: {}", h2[0].message);

    // An allow(H2) at the allocation site clears the finding.
    fx.write(
        "crates/core/src/lib.rs",
        "// chainiq-analyze: hot\n\
         pub fn tick(v: &[u8]) -> usize { helper(v) }\n\
         // chainiq-analyze: allow(H2, scratch copy measured cold in EXPERIMENTS.md)\n\
         fn helper(v: &[u8]) -> usize { v.to_vec().len() }\n",
    );
    assert!(fx.rules_found().is_empty(), "{:?}", fx.rules_found());
}

#[test]
fn t1_cross_crate_taint_fails_and_source_allow_kills_every_flow() {
    // A wall-clock read in `bench` (not a sim crate) reached by a public
    // sim fn in `core` through a path dependency: T1 at the sink, witness
    // path crossing the crate boundary.
    let taint = |marker: &str| {
        let fx = Fixture::new(&format!("t1-e2e{}", marker.len()));
        fx.add_crate(
            "bench",
            &format!(
                "pub fn now_ms() -> u128 {{\n\
                     {marker}std::time::Instant::now().elapsed().as_millis()\n\
                 }}\n"
            ),
        );
        fx.add_crate_raw(
            "core",
            &manifest("core", "bench = { path = \"../bench\" }\n"),
            "pub fn stamp() -> u128 { now_ms() }\n",
        );
        analyze_workspace(&fx.root).expect("analysis runs")
    };

    let report = taint("");
    let t1: Vec<_> = report.diags.iter().filter(|d| d.rule == RuleId::T1).collect();
    assert_eq!(t1.len(), 1, "{:?}", report.diags);
    assert!(t1[0].file.contains("core"), "T1 anchors at the sink: {}", t1[0].file);
    assert!(
        t1[0].message.contains("(now_ms) →"),
        "witness crosses into the source crate: {}",
        t1[0].message
    );
    assert!(
        t1[0].message.contains("at crates/bench/src/lib.rs"),
        "witness ends at the source read: {}",
        t1[0].message
    );

    // One allow(T1) at the source read kills every flow out of it.
    let report = taint("// chainiq-analyze: allow(T1, bench timing is outside the model)\n");
    assert!(report.diags.is_empty(), "{:?}", report.diags);
}

#[test]
fn t1_without_dependency_edge_does_not_link_same_named_fns() {
    // `core` has a fn named like `other`'s tainted pub fn but no dep on
    // it: the visibility filter must keep the crates apart.
    let fx = Fixture::new("t1-nodep");
    fx.add_crate(
        "bench",
        "pub fn now_ms() -> u128 { std::time::Instant::now().elapsed().as_millis() }\n",
    );
    fx.add_crate(
        "core",
        "fn now_ms() -> u128 { 0 }\n\
         pub fn stamp() -> u128 { now_ms() }\n",
    );
    let report = analyze_workspace(&fx.root).expect("analysis runs");
    assert!(report.diags.is_empty(), "{:?}", report.diags);
}

#[test]
fn h2_ratchet_budget_covers_sites_and_surplus_is_slack() {
    let fx = Fixture::new("h2-ratchet");
    fx.add_crate(
        "core",
        "// chainiq-analyze: hot\n\
         pub fn tick(v: &[u8]) -> usize { helper(v) }\n\
         fn helper(v: &[u8]) -> usize { v.to_vec().len() }\n",
    );
    fx.write(
        "analyze-baseline.toml",
        "[hot-alloc-budget]\n\"crates/core/src/lib.rs\" = 1\n[taint-budget]\n",
    );
    let report = analyze_workspace(&fx.root).expect("analysis runs");
    assert!(report.diags.is_empty(), "budgeted site must pass: {:?}", report.diags);

    // Budget above the actual count → slack, surfaced for --check-tight.
    fx.write(
        "analyze-baseline.toml",
        "[hot-alloc-budget]\n\"crates/core/src/lib.rs\" = 2\n[taint-budget]\n",
    );
    let report = analyze_workspace(&fx.root).expect("analysis runs");
    assert!(report.diags.is_empty(), "{:?}", report.diags);
    assert!(
        report.slack.iter().any(|s| s.contains("crates/core/src/lib.rs")),
        "surplus budget must surface as slack: {:?}",
        report.slack
    );
}

// ---- dogfood: the real repo must be clean ----

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels under the workspace root")
        .to_path_buf();
    let report = analyze_workspace(&root).expect("analysis of the real repo runs");
    assert!(
        report.diags.is_empty(),
        "the committed workspace must be clean:\n{}",
        report.diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
    assert!(report.files_scanned > 50, "sanity: scanned {} files", report.files_scanned);
}
