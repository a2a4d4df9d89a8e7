//! CLI for `chainiq-analyze`.
//!
//! ```text
//! cargo run -p chainiq-analyze --offline                  # check, exit 1 on findings
//! cargo run -p chainiq-analyze --offline -- --check-tight # also fail on ratchet slack
//! cargo run -p chainiq-analyze --offline -- --write-baseline
//! ```
//!
//! Exit codes: 0 clean, 1 diagnostics found, 2 usage or I/O error.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a binary may exit through a panic")]

use chainiq_analyze::rules::RuleId;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
chainiq-analyze: enforce chainiq's call-graph invariants (DESIGN.md §8)

USAGE:
    chainiq-analyze [--root DIR] [--check-tight]
    chainiq-analyze [--root DIR] --write-baseline

OPTIONS:
    --root DIR         analyze the workspace at DIR (default: walk up from cwd)
    --write-baseline   regenerate analyze-baseline.toml (hot-alloc/taint budgets)
    --check-tight      also fail when a budget exceeds the actual count (ratchet slack)
    --help             print this help

Diagnostics are `file:line: rule-id: message`. Suppress a finding inline with
`// chainiq-analyze: allow(RULE, reason)` — the reason is mandatory. Mark a
per-cycle kernel function with `// chainiq-analyze: hot` (an H2 root), a kernel
file with `// chainiq-analyze: hot-path` (P3).
Rules: H2 allocation reachable from a hot function, its own body included
(ratcheted); T1 nondeterminism reaching a Snapshot/Stats/sim-public fn (ratcheted);
P3 tree maps in hot-path files; L1 crate manifest not inheriting the workspace
lints; A0 malformed marker comment; B1 stale baseline entry.";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut check_tight = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--write-baseline" => write_baseline = true,
            "--check-tight" => check_tight = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root needs a directory argument"),
            },
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let root =
        match root.or_else(discover_root) {
            Some(r) => r,
            None => return usage_error(
                "no workspace root found walking up from the current directory; pass --root DIR",
            ),
        };
    let report = match chainiq_analyze::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chainiq-analyze: error: {e}");
            return ExitCode::from(2);
        }
    };
    if write_baseline {
        run_write_baseline(&root, &report)
    } else {
        run_check(&report, check_tight)
    }
}

fn discover_root() -> Option<PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    chainiq_analyze::find_workspace_root(&cwd)
}

fn run_check(report: &chainiq_analyze::Report, check_tight: bool) -> ExitCode {
    let mut failures = report.diags.len();
    for d in &report.diags {
        println!("{d}");
    }
    if check_tight {
        for s in &report.slack {
            println!("{s} (failing under --check-tight)");
        }
        failures += report.slack.len();
    } else {
        for s in &report.slack {
            println!("note: {s}");
        }
    }
    if failures == 0 {
        println!(
            "chainiq-analyze: {} files clean (call graph: {} fns, {} edges, {} hot roots)",
            report.files_scanned,
            report.callgraph.functions,
            report.callgraph.edges,
            report.callgraph.hot_roots,
        );
        return ExitCode::SUCCESS;
    }
    println!("chainiq-analyze: {failures} finding(s) across {} files", report.files_scanned);
    ExitCode::from(1)
}

fn run_write_baseline(root: &Path, report: &chainiq_analyze::Report) -> ExitCode {
    // Refuse to ratchet while non-ratcheted rules are failing:
    // --write-baseline must not become a way to bless a new finding.
    let blocking: Vec<_> = report
        .diags
        .iter()
        .filter(|d| !matches!(d.rule, RuleId::B1 | RuleId::H2 | RuleId::T1))
        .collect();
    if !blocking.is_empty() {
        for d in &blocking {
            println!("{d}");
        }
        eprintln!("chainiq-analyze: fix the findings above before writing a new baseline");
        return ExitCode::from(1);
    }
    match chainiq_analyze::write_baseline(root) {
        Ok(path) => {
            println!(
                "chainiq-analyze: wrote {} ({} hot-alloc, {} taint entries)",
                path.display(),
                report.hot_alloc_counts.len(),
                report.taint_counts.len(),
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("chainiq-analyze: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("chainiq-analyze: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
