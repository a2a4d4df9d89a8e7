//! `chainiq-analyze` — the project invariants no compiler lint can check.
//!
//! chainiq's experiments rest on bit-for-bit determinism and on
//! allocation-free per-cycle kernels. The toolchain enforces the per-file
//! half of that (`clippy.toml` and `[workspace.lints]`; DESIGN.md §8);
//! this crate enforces the half that needs the whole workspace at once:
//! a hand-rolled lexer ([`lexer`]) and item parser recover `fn` items and
//! call expressions, a conservative name-based call graph links them, and
//! the flow rules run over it — H2 (no allocation reachable from a hot
//! kernel function) and T1 (no nondeterminism reaching a `Snapshot`,
//! `*Stats` or sim-crate public function), both with witness paths. Per
//! file it checks P3 and marker-comment hygiene ([`rules`]); per manifest,
//! that every crate stays under the workspace lints ([`manifest`]).
//! Residual H2/T1 debt is ratcheted against a committed baseline
//! ([`baseline`]). The whole tool is zero-dependency, like the rest of
//! the workspace.
//!
//! Entry point: [`analyze_workspace`] walks `crates/*/src/**/*.rs` plus
//! every `Cargo.toml` and returns a [`Report`]; the `chainiq-analyze`
//! binary turns that into `file:line: rule: message` diagnostics and an
//! exit code.

#![deny(missing_docs)]

pub mod baseline;
mod callgraph;
mod flows;
pub mod lexer;
pub mod manifest;
mod parser;
pub mod rules;

pub use flows::GraphStats;

use rules::{Diagnostic, SiteCounts};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Everything one analysis run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Failing findings across all rules, sorted by (file, line, rule).
    /// Non-empty → the run fails.
    pub diags: Vec<Diagnostic>,
    /// Ratchet slack: files under budget. Informational by default;
    /// `--check-tight` turns these into failures so cleanups are pinned.
    pub slack: Vec<String>,
    /// Fresh per-file H2 hot-path allocation-site counts.
    pub hot_alloc_counts: SiteCounts,
    /// Fresh per-file T1 tainted-sink counts.
    pub taint_counts: SiteCounts,
    /// Shape of the workspace call graph.
    pub callgraph: GraphStats,
    /// Number of `.rs` files scanned, for the summary line.
    pub files_scanned: usize,
}

/// Analyzes the workspace rooted at `root` (the directory holding the
/// virtual-workspace `Cargo.toml` and `crates/`).
///
/// # Errors
/// Propagates I/O failures reading the tree; a malformed committed
/// baseline is also an error (it is machine-written).
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let mut file_items = Vec::new();
    // Crate dependency facts for call-graph visibility: package name →
    // crate directory, and per-directory runtime dep package names.
    let mut pkg_to_dir: BTreeMap<String, String> = BTreeMap::new();
    let mut direct_pkg_deps: BTreeMap<String, Vec<String>> = BTreeMap::new();

    // Manifests: the workspace root first, then each crate, path-sorted.
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        let src = fs::read_to_string(&root_manifest)?;
        manifest::check_lints("Cargo.toml", &src, true, &mut report.diags);
    }
    for crate_dir in sorted_dirs(&root.join("crates"))? {
        let crate_name = file_name_string(&crate_dir);
        let manifest_path = crate_dir.join("Cargo.toml");
        if manifest_path.is_file() {
            let src = fs::read_to_string(&manifest_path)?;
            let file = format!("crates/{crate_name}/Cargo.toml");
            manifest::check_lints(&file, &src, false, &mut report.diags);
            if let Some(pkg) = manifest::package_name(&src) {
                pkg_to_dir.insert(pkg, crate_name.clone());
            }
            direct_pkg_deps.insert(crate_name.clone(), manifest::runtime_dep_names(&src));
        }

        // Sources: everything under src/, recursively, path-sorted.
        let src_dir = crate_dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        for file in sorted_rs_files(&src_dir)? {
            let Ok(rel_in_src) = file.strip_prefix(&src_dir) else {
                continue;
            };
            let rel = format!("crates/{crate_name}/src/{}", rel_in_src.display());
            let is_bin = rel.contains("/src/bin/") || rel.ends_with("/src/main.rs");
            let src = fs::read_to_string(&file)?;
            let mut items = parser::parse_file(&crate_name, &rel, &src, is_bin);
            report.diags.append(&mut items.diags);
            file_items.push(items);
            report.files_scanned += 1;
        }
    }

    // Whole-workspace pass: call graph + flow rules.
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (dir, dep_pkgs) in &direct_pkg_deps {
        direct.insert(
            dir.clone(),
            dep_pkgs.iter().filter_map(|p| pkg_to_dir.get(p)).cloned().collect(),
        );
    }
    let deps = callgraph::close_deps(&direct);
    let graph = callgraph::build(file_items, &deps);
    let flow = flows::analyze(&graph);
    report.callgraph = flow.stats;
    let count = |sites: &BTreeMap<String, Vec<Diagnostic>>| -> SiteCounts {
        sites
            .iter()
            .map(|(f, ds)| (f.clone(), u32::try_from(ds.len()).unwrap_or(u32::MAX)))
            .collect()
    };
    report.hot_alloc_counts = count(&flow.h2);
    report.taint_counts = count(&flow.t1);

    // Ratchets: compare fresh counts against the committed budgets.
    let baseline_path = root.join(baseline::BASELINE_FILE);
    let committed = if baseline_path.is_file() {
        baseline::parse(&fs::read_to_string(&baseline_path)?).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e} (regenerate with --write-baseline)", baseline::BASELINE_FILE),
            )
        })?
    } else {
        baseline::Baseline::default()
    };
    let exists = |f: &str| root.join(f).is_file();
    for ratchet in [
        baseline::compare_sites(
            "hot-path allocation site(s)",
            &committed.hot_alloc,
            &flow.h2,
            exists,
        ),
        baseline::compare_sites("tainted sink(s)", &committed.taint, &flow.t1, exists),
    ] {
        report.diags.extend(ratchet.diags);
        report.slack.extend(ratchet.slack);
    }

    // One deterministic order for everything, wherever it was found.
    report
        .diags
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

    Ok(report)
}

/// Regenerates `analyze-baseline.toml` from fresh counts. Returns the
/// path written. Findings of the non-ratcheted rules still fail the run
/// at the CLI level, so `--write-baseline` cannot bless e.g. a tree map
/// in a kernel file.
///
/// # Errors
/// Propagates I/O failures from the scan or the write.
pub fn write_baseline(root: &Path) -> io::Result<PathBuf> {
    let report = analyze_workspace(root)?;
    let path = root.join(baseline::BASELINE_FILE);
    let fresh =
        baseline::Baseline { hot_alloc: report.hot_alloc_counts, taint: report.taint_counts };
    fs::write(&path, baseline::render(&fresh))?;
    Ok(path)
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`. Mirrors the
/// runtime discovery the bench runner uses — nothing is baked in at
/// compile time, so the binary works from any cwd inside the repo.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start.ancestors().find_map(|dir| {
        let manifest = dir.join("Cargo.toml");
        let text = fs::read_to_string(&manifest).ok()?;
        text.contains("[workspace]").then(|| dir.to_path_buf())
    })
}

/// Child directories of `dir`, sorted by name so diagnostics come out in
/// the same order on every OS (raw `read_dir` order is arbitrary).
fn sorted_dirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    out.sort();
    Ok(out)
}

/// All `.rs` files under `dir`, recursively, path-sorted.
fn sorted_rs_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)?.collect::<io::Result<Vec<_>>>()? {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn file_name_string(p: &Path) -> String {
    p.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
}
