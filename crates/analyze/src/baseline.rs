//! The ratchet budgets and their on-disk format, `analyze-baseline.toml`.
//!
//! Two rule families carry pre-existing debt that should not block CI
//! while still blocking any *new* debt:
//!
//! * `[hot-alloc-budget]` — **H2** hot-path-reachable allocation sites
//!   per file;
//! * `[taint-budget]` — **T1** tainted sinks per file.
//!
//! Each run compares fresh counts against the committed budgets:
//!
//! * count **above** budget → failing diagnostics;
//! * count **below** budget → *slack*: a passing note suggesting
//!   `--write-baseline` (and a failure under `--check-tight`, so cleanups
//!   ratchet down automatically instead of leaving headroom that could
//!   silently absorb new debt);
//! * budget for a file **absent on disk** → **B1** diagnostic.
//!
//! The format is the minimal TOML subset this tool writes itself:
//!
//! ```toml
//! # generated by: cargo run -p chainiq-analyze -- --write-baseline
//! [hot-alloc-budget]
//! "crates/core/src/segmented.rs" = 1
//! ```

use crate::rules::{Diagnostic, RuleId, SiteCounts};
use std::collections::BTreeMap;

/// Name of the committed baseline file at the workspace root.
pub const BASELINE_FILE: &str = "analyze-baseline.toml";

/// All committed budgets, one [`SiteCounts`] map per ratcheted rule.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `[hot-alloc-budget]` — H2.
    pub hot_alloc: SiteCounts,
    /// `[taint-budget]` — T1.
    pub taint: SiteCounts,
}

/// Parses a baseline file. Unknown sections and malformed lines are
/// errors — the file is machine-written, so any deviation is corruption
/// worth failing loudly on.
pub fn parse(src: &str) -> Result<Baseline, String> {
    let mut out = Baseline::default();
    let mut section: Option<&mut SiteCounts> = None;
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = match line {
                "[hot-alloc-budget]" => Some(&mut out.hot_alloc),
                "[taint-budget]" => Some(&mut out.taint),
                _ => return Err(format!("{}: unknown section {line}", idx + 1)),
            };
            continue;
        }
        let Some(counts) = section.as_deref_mut() else {
            return Err(format!("{}: entry outside a budget section: {line}", idx + 1));
        };
        let (key, val) = line
            .split_once('=')
            .ok_or_else(|| format!("{}: expected `\"file\" = count`: {line}", idx + 1))?;
        let file = key.trim().trim_matches('"').to_string();
        let n: u32 = val
            .trim()
            .parse()
            .map_err(|_| format!("{}: count is not an integer: {line}", idx + 1))?;
        if counts.insert(file.clone(), n).is_some() {
            return Err(format!("{}: duplicate entry for {file}", idx + 1));
        }
    }
    Ok(out)
}

/// Renders fresh counts in the committed format. Zero-count files are
/// omitted; keys come out sorted because [`SiteCounts`] is a `BTreeMap`.
#[must_use]
pub fn render(b: &Baseline) -> String {
    let mut out = String::from(
        "# Ratcheted debt budgets: counts may only go down. Regenerate after a\n\
         # cleanup with:\n\
         #   cargo run -p chainiq-analyze --offline -- --write-baseline\n\
         \n\
         # H2 allocation sites reachable from hot-marked functions, per file.\n\
         [hot-alloc-budget]\n",
    );
    let push_counts = |out: &mut String, counts: &SiteCounts| {
        for (file, n) in counts {
            if *n > 0 {
                out.push_str(&format!("\"{file}\" = {n}\n"));
            }
        }
    };
    push_counts(&mut out, &b.hot_alloc);
    out.push_str(
        "\n# T1 determinism-tainted sinks per file.\n\
         [taint-budget]\n",
    );
    push_counts(&mut out, &b.taint);
    out
}

/// Outcome of comparing fresh counts against the committed baseline.
#[derive(Debug, Default)]
pub struct RatchetReport {
    /// Failing findings: increases (H2/T1) and stale entries (B1).
    pub diags: Vec<Diagnostic>,
    /// Slack: files now under budget. Informational by default, failing
    /// under `--check-tight`.
    pub slack: Vec<String>,
}

/// Compares per-site flow diagnostics (H2/T1) against a budget section:
/// a file whose site count exceeds its budget contributes every one of
/// its site diagnostics (each carries its own witness path); a file
/// under budget contributes slack.
pub(crate) fn compare_sites(
    what: &str,
    baseline: &SiteCounts,
    sites: &BTreeMap<String, Vec<Diagnostic>>,
    file_exists: impl Fn(&str) -> bool,
) -> RatchetReport {
    let mut report = RatchetReport::default();
    for (file, diags) in sites {
        let budget = baseline.get(file).copied().unwrap_or(0);
        let n = u32::try_from(diags.len()).unwrap_or(u32::MAX);
        if n > budget {
            report.diags.extend(diags.iter().cloned());
        } else if n < budget {
            report.slack.push(slack_note(file, what, n, budget));
        }
    }
    stale_and_drops(baseline, |f| sites.contains_key(f), what, file_exists, &mut report);
    report
}

/// Shared tail of every comparison: baseline entries whose file vanished
/// are B1 failures; entries whose file is clean now are slack.
fn stale_and_drops(
    baseline: &SiteCounts,
    has_fresh: impl Fn(&str) -> bool,
    what: &str,
    file_exists: impl Fn(&str) -> bool,
    report: &mut RatchetReport,
) {
    for (file, &budget) in baseline {
        if !file_exists(file) {
            report.diags.push(Diagnostic {
                file: file.clone(),
                line: 0,
                rule: RuleId::B1,
                message: format!(
                    "stale baseline entry (budget {budget}) for a file that no longer exists; \
                     run --write-baseline to refresh"
                ),
            });
        } else if budget > 0 && !has_fresh(file) {
            report.slack.push(slack_note(file, what, 0, budget));
        }
    }
}

fn slack_note(file: &str, what: &str, n: u32, budget: u32) -> String {
    format!("{file}: {n} {what}, down from {budget} — run --write-baseline to ratchet")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(&str, u32)]) -> SiteCounts {
        entries.iter().map(|(f, n)| (f.to_string(), *n)).collect()
    }

    /// `n` H2 site diagnostics per file.
    fn sites(entries: &[(&str, u32)]) -> BTreeMap<String, Vec<Diagnostic>> {
        let diag = |file: &str, line: u32| Diagnostic {
            file: file.to_string(),
            line,
            rule: RuleId::H2,
            message: "alloc".to_string(),
        };
        entries
            .iter()
            .map(|(f, n)| (f.to_string(), (1..=*n).map(|l| diag(f, l)).collect()))
            .collect()
    }

    fn compare(baseline: &SiteCounts, fresh: &[(&str, u32)], exists: bool) -> RatchetReport {
        compare_sites("alloc site(s)", baseline, &sites(fresh), |_| exists)
    }

    #[test]
    fn render_parse_round_trip() {
        let b = Baseline {
            hot_alloc: counts(&[("crates/core/src/seg.rs", 2), ("crates/cpu/src/b.rs", 1)]),
            taint: counts(&[("crates/mem/src/c.rs", 1)]),
        };
        let parsed = parse(&render(&b)).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn parses_legacy_single_section_files() {
        let b = parse("[hot-alloc-budget]\n\"crates/core/src/a.rs\" = 2\n").unwrap();
        assert_eq!(b.hot_alloc, counts(&[("crates/core/src/a.rs", 2)]));
        assert!(b.taint.is_empty());
    }

    #[test]
    fn render_omits_zero_counts() {
        let b = Baseline {
            hot_alloc: counts(&[("crates/core/src/a.rs", 0), ("crates/cpu/src/b.rs", 2)]),
            ..Baseline::default()
        };
        let text = render(&b);
        assert!(!text.contains("a.rs"));
        assert!(text.contains("\"crates/cpu/src/b.rs\" = 2"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("[hot-alloc-budget]\nnot a kv line\n").is_err());
        assert!(parse("[other-section]\n\"f\" = 1\n").is_err());
        assert!(parse("[panic-budget]\n\"f\" = 1\n").is_err(), "retired section");
        assert!(parse("\"orphan\" = 1\n").is_err());
        assert!(parse("[taint-budget]\n\"f\" = many\n").is_err());
        assert!(parse("[taint-budget]\n\"f\" = 1\n\"f\" = 2\n").is_err());
        assert!(parse("[hot-alloc-budget]\n\"f\" = 1\n[taint-budget]\n\"f\" = 1\n").is_ok());
    }

    #[test]
    fn increase_fails_decrease_is_slack() {
        let base = counts(&[("a.rs", 2), ("b.rs", 2)]);
        let r = compare(&base, &[("a.rs", 3), ("b.rs", 1)], true);
        assert_eq!(r.diags.len(), 3, "every site of the file over budget: {:?}", r.diags);
        assert!(r.diags.iter().all(|d| d.file == "a.rs"));
        assert_eq!(r.slack.len(), 1);
        assert!(r.slack[0].contains("write-baseline"), "{:?}", r.slack);
    }

    #[test]
    fn new_file_with_sites_fails_without_baseline_entry() {
        let r = compare(&counts(&[]), &[("new.rs", 1)], true);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].rule, RuleId::H2);
    }

    #[test]
    fn stale_entry_is_b1() {
        let r = compare(&counts(&[("gone.rs", 4)]), &[], false);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].rule, RuleId::B1);
        assert!(r.diags[0].message.contains("stale"));
    }

    #[test]
    fn existing_unscanned_file_is_slack_not_a_failure() {
        let r = compare(&counts(&[("still-here.rs", 4)]), &[], true);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.slack.len(), 1);
    }

    #[test]
    fn equal_counts_are_silent() {
        let r = compare(&counts(&[("a.rs", 2)]), &[("a.rs", 2)], true);
        assert!(r.diags.is_empty() && r.slack.is_empty());
    }

    #[test]
    fn compare_sites_over_budget_emits_every_site_diag() {
        let over = compare(&counts(&[("a.rs", 1)]), &[("a.rs", 2)], true);
        assert_eq!(over.diags.len(), 2, "{:?}", over.diags);
        let within = compare(&counts(&[("a.rs", 2)]), &[("a.rs", 2)], true);
        assert!(within.diags.is_empty() && within.slack.is_empty());
        let slack = compare(&counts(&[("a.rs", 3)]), &[("a.rs", 2)], true);
        assert_eq!(slack.slack.len(), 1);
    }
}
