//! Where benchmark artifacts land.
//!
//! `CHAINIQ_BENCH_DIR=path` overrides the default, the `results/`
//! directory at the repo root.

use std::path::PathBuf;

/// The directory benchmark artifacts land in: `CHAINIQ_BENCH_DIR` when
/// set, otherwise the runtime-discovered workspace `results/` directory.
#[must_use]
pub fn results_dir() -> PathBuf {
    crate::knob::bench_dir().unwrap_or_else(default_results_dir)
}

/// The default results directory, resolved at **runtime**: walk up from
/// the executable's location, then from the current directory, to the
/// nearest enclosing workspace root (a `Cargo.toml` declaring
/// `[workspace]`) and use its `results/`. Falls back to `./results`.
/// Compile-time `env!("CARGO_MANIFEST_DIR")` would bake the build host's
/// absolute path into the binary, which goes stale the moment the binary
/// is copied to another machine.
fn default_results_dir() -> PathBuf {
    let starts = [std::env::current_exe().ok(), std::env::current_dir().ok()];
    for start in starts.iter().flatten() {
        for dir in start.ancestors() {
            let manifest = dir.join("Cargo.toml");
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir.join("results");
                }
            }
        }
    }
    PathBuf::from("./results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_results_dir_is_the_workspace_results() {
        // Under `cargo test` the walk-up from the test executable (in
        // `target/...`) must find the workspace root, not bake in a path.
        let dir = default_results_dir();
        assert_eq!(dir.file_name().and_then(|n| n.to_str()), Some("results"));
        let root = dir.parent().expect("results dir has a parent");
        let manifest =
            std::fs::read_to_string(root.join("Cargo.toml")).expect("workspace manifest");
        assert!(manifest.contains("[workspace]"));
    }
}
