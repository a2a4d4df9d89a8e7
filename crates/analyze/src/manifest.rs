//! Manifest facts: package names and runtime dependencies for the call
//! graph, and rule **L1**, which keeps every crate under the workspace
//! lints.
//!
//! The toolchain enforces most of the project's rules through
//! `[workspace.lints]` and `clippy.toml`, but only for crates that opt
//! in with `[lints] workspace = true`, and the `unsafe` ban only while
//! the root keeps `unsafe_code = "forbid"`. A crate that forgets the
//! opt-in would silently lose every lint, so L1 fails it.
//!
//! This is a purpose-built scan of the few TOML shapes involved, not a
//! general TOML parser.

use crate::rules::{Diagnostic, RuleId};

/// Appends an L1 diagnostic unless the manifest keeps the workspace
/// lints in force: a crate manifest must inherit them (`[lints]
/// workspace = true`), and the root manifest (`is_root`) must forbid
/// `unsafe_code` under `[workspace.lints.rust]`.
pub fn check_lints(file: &str, src: &str, is_root: bool, diags: &mut Vec<Diagnostic>) {
    let (table, key, value) = if is_root {
        ("workspace.lints.rust", "unsafe_code", "\"forbid\"")
    } else {
        ("lints", "workspace", "true")
    };
    let mut in_table = false;
    for raw in src.lines() {
        let line = strip_toml_comment(raw).trim();
        if line.starts_with('[') {
            in_table = line.trim_start_matches('[').trim_end_matches(']').trim() == table;
        } else if let Some((k, v)) = line.split_once('=').filter(|_| in_table) {
            if k.trim() == key && v.trim() == value {
                return;
            }
        }
    }
    diags.push(Diagnostic {
        file: file.to_string(),
        line: 0,
        rule: RuleId::L1,
        message: format!(
            "manifest lacks `{key} = {value}` under `[{table}]`; without it the workspace lints \
             (unsafe_code, clippy.toml's disallowed types and methods, the panic lints) \
             silently stop applying"
        ),
    });
}

/// The `[package] name = "…"` of a manifest, if any.
#[must_use]
pub fn package_name(src: &str) -> Option<String> {
    let mut in_package = false;
    for raw in src.lines() {
        let line = strip_toml_comment(raw).trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some((key, val)) = line.split_once('=') {
                if key.trim() == "name" {
                    return Some(val.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Package names this manifest depends on at *runtime*: entries of
/// `[dependencies]` and `[target.….dependencies]` (and their dotted
/// subsections). Dev- and build-dependencies are excluded on purpose —
/// the call graph only covers `src/` with `#[cfg(test)]` masked out, so
/// a dev-dep edge would manufacture flows that cannot execute in the
/// shipped simulator.
#[must_use]
pub fn runtime_dep_names(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_deps = false;
    let runtime_table = |header: &str| {
        header == "dependencies"
            || (header.ends_with(".dependencies") && header.starts_with("target."))
    };
    for raw in src.lines() {
        let line = strip_toml_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            let header = line.trim_start_matches('[').trim_end_matches(']').trim();
            in_deps = runtime_table(header);
            if !in_deps {
                // `[dependencies.foo]` subsection names a dep directly.
                if let Some((table, name)) = header.rsplit_once('.') {
                    if runtime_table(table) {
                        out.push(name.trim().trim_matches('"').to_string());
                    }
                }
            }
            continue;
        }
        if in_deps {
            if let Some((name, _)) = line.split_once('=') {
                let name = name.trim().trim_matches('"');
                // Dotted-key shorthand `foo.workspace = true` → `foo`.
                out.push(name.split('.').next().unwrap_or(name).to_string());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// TOML comments start at a `#` outside a string; a conservative scan
/// that respects double-quoted strings is enough for these manifests.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str, is_root: bool) -> Vec<Diagnostic> {
        let mut d = Vec::new();
        check_lints("Cargo.toml", src, is_root, &mut d);
        d
    }

    #[test]
    fn crate_without_workspace_lints_fails() {
        let ok = check("[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n", false);
        assert!(ok.is_empty(), "{ok:?}");
        for bad in [
            "[package]\nname = \"x\"\n",
            "[package]\nname = \"x\"\nworkspace = true\n",
            "[lints]\nworkspace = false\n",
            "[lints.rust]\nunsafe_code = \"allow\"\n",
        ] {
            let d = check(bad, false);
            assert_eq!(d.len(), 1, "{bad}: {d:?}");
            assert_eq!(d[0].rule, RuleId::L1);
        }
    }

    #[test]
    fn root_without_unsafe_forbid_fails() {
        let ok = check("[workspace]\n\n[workspace.lints.rust]\nunsafe_code = \"forbid\"\n", true);
        assert!(ok.is_empty(), "{ok:?}");
        let weakened =
            check("[workspace]\n\n[workspace.lints.rust]\nunsafe_code = \"deny\"\n", true);
        assert_eq!(weakened.len(), 1, "{weakened:?}");
        let missing = check("[workspace]\nmembers = [\"crates/*\"]\n", true);
        assert_eq!(missing.len(), 1, "{missing:?}");
    }

    #[test]
    fn dotted_subsection_forms() {
        let src = "[dependencies.chainiq-core]\nworkspace = true\n\n\
                   [dependencies.\"chainiq-isa\"]\npath = \"../isa\"\nfeatures = []\n\n\
                   [dev-dependencies.chainiq-devtest]\nworkspace = true\n";
        assert_eq!(runtime_dep_names(src), vec!["chainiq-core", "chainiq-isa"]);
    }

    #[test]
    fn package_name_and_runtime_deps_extract() {
        let src = "[package]\nname = \"chainiq-cpu\"\nversion = \"0.1.0\"\n\n\
                   [dependencies]\nchainiq-core.workspace = true\n\
                   chainiq-isa = { path = \"../isa\" }\n\n\
                   [dependencies.chainiq-mem]\nworkspace = true\n\n\
                   [dev-dependencies]\nchainiq-devtest.workspace = true\n\n\
                   [target.'cfg(unix)'.dependencies]\nchainiq-rng = { path = \"../rng\" }\n";
        assert_eq!(package_name(src).as_deref(), Some("chainiq-cpu"));
        assert_eq!(
            runtime_dep_names(src),
            vec!["chainiq-core", "chainiq-isa", "chainiq-mem", "chainiq-rng"],
            "dev-dependencies must be excluded"
        );
    }

    #[test]
    fn non_dep_sections_and_comments_ignored() {
        let src = "[package]\nversion = \"0.1.0\"\n\n[features]\ndefault = []\n\n\
                   [[bench]]\nname = \"b\"\nharness = false\n\n\
                   # [lints]\n# workspace = true\n\n\
                   [dependencies]\n# serde = \"1.0\"\nchainiq-core.workspace = true # local\n";
        assert_eq!(runtime_dep_names(src), vec!["chainiq-core"]);
        assert_eq!(check(src, false).len(), 1, "a commented-out opt-in does not count");
        let opted_in = format!("{src}\n[lints] # inherited\nworkspace = true # see root\n");
        assert!(check(&opted_in, false).is_empty());
    }
}
