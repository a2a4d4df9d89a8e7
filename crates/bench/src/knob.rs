//! Centralized environment-knob parsing.
//!
//! Every `CHAINIQ_*` environment variable the harness reads goes through
//! [`knob`], so a typo (`CHAINIQ_SAMPLE=300k`, `CHAINIQ_JOBS=abc`)
//! produces a stderr warning naming the rejected value and the default
//! that will be used instead — rather than silently running the wrong
//! experiment.

use std::fmt::Display;
use std::str::FromStr;

/// Reads `name` from the environment and parses it as `T`.
///
/// * Unset → `default`, silently (the normal case).
/// * Set and parsable → the parsed value.
/// * Set but unparsable (or not UTF-8) → `default`, with a warning on
///   stderr quoting the rejected value.
#[must_use]
#[expect(clippy::disallowed_methods, reason = "D3: the one module that reads CHAINIQ_* knobs")]
pub fn knob<T: FromStr + Display>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Ok(raw) => match raw.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("warning: {name}={raw:?} is not a valid value; using default {default}");
                default
            }
        },
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(raw)) => {
            eprintln!("warning: {name}={raw:?} is not UTF-8; using default {default}");
            default
        }
    }
}

/// Results directory override: `CHAINIQ_BENCH_DIR`, or `None` when unset
/// (callers fall back to the runtime-discovered `results/` dir). Taken
/// as-is — any non-empty path is valid, so there is nothing to warn on.
#[must_use]
#[expect(clippy::disallowed_methods, reason = "D3: the one module that reads CHAINIQ_* knobs")]
pub fn bench_dir() -> Option<std::path::PathBuf> {
    std::env::var_os("CHAINIQ_BENCH_DIR").map(std::path::PathBuf::from)
}

/// Checkpoint-cache switch: `CHAINIQ_CKPT`. Accepts `1`/`true`/`on` and
/// `0`/`false`/`off`; anything else warns on stderr and keeps the
/// default (**off**, so plain runs never touch a cache directory and
/// behave exactly as before the cache existed).
#[must_use]
#[expect(clippy::disallowed_methods, reason = "D3: the one module that reads CHAINIQ_* knobs")]
pub fn ckpt_enabled() -> bool {
    match std::env::var("CHAINIQ_CKPT") {
        Ok(raw) => match raw.trim() {
            "1" | "true" | "on" => true,
            "" | "0" | "false" | "off" => false,
            _ => {
                eprintln!("warning: CHAINIQ_CKPT={raw:?} is not a valid value; using default off");
                false
            }
        },
        Err(std::env::VarError::NotPresent) => false,
        Err(std::env::VarError::NotUnicode(raw)) => {
            eprintln!("warning: CHAINIQ_CKPT={raw:?} is not UTF-8; using default off");
            false
        }
    }
}

/// Checkpoint-cache directory: `CHAINIQ_CKPT_DIR` when set, otherwise
/// `ckpt-cache/` inside the runtime-resolved results directory (so
/// cached warmup prefixes live beside the artifacts they accelerate).
/// Any non-empty path is valid, so there is nothing to warn on.
#[must_use]
#[expect(clippy::disallowed_methods, reason = "D3: the one module that reads CHAINIQ_* knobs")]
pub fn ckpt_dir() -> std::path::PathBuf {
    std::env::var_os("CHAINIQ_CKPT_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| crate::runner::results_dir().join("ckpt-cache"))
}

/// Source-revision label stamped into the perf-history artifact:
/// `CHAINIQ_GIT_REV` when set (CI passes `git rev-parse --short HEAD`),
/// otherwise `"unknown"`. The binaries never shell out to `git`
/// themselves — the label is an input, so sandboxed or exported trees
/// still produce well-formed history lines. Any non-empty string is
/// valid, so there is nothing to warn on.
#[must_use]
#[expect(clippy::disallowed_methods, reason = "D3: the one module that reads CHAINIQ_* knobs")]
pub fn git_rev() -> String {
    match std::env::var("CHAINIQ_GIT_REV") {
        Ok(raw) if !raw.trim().is_empty() => raw.trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// Checkpoint/result cache size cap in mebibytes: `CHAINIQ_CKPT_MAX_MB`.
/// Unset or `0` means unlimited (today's behavior); a positive value
/// makes cache-owning code paths evict least-recently-used entries until
/// the directory fits (see `chainiq_ckpt::CacheDir`). Unparsable values
/// warn on stderr and fall back to unlimited.
#[must_use]
pub fn ckpt_max_mb() -> Option<u64> {
    match knob("CHAINIQ_CKPT_MAX_MB", 0u64) {
        0 => None,
        mb => Some(mb),
    }
}

/// Default TCP listen/connect address for `chainiq-serve` and its
/// clients: `CHAINIQ_SERVE_ADDR`. The value must parse as a socket
/// address (`host:port`); anything else warns on stderr and falls back
/// to the loopback default. Port `0` asks the OS for a free port (the
/// daemon prints — and can write to a file — the address it actually
/// bound).
#[must_use]
pub fn serve_addr() -> std::net::SocketAddr {
    let default = std::net::SocketAddr::from(([127, 0, 0, 1], 9417));
    knob("CHAINIQ_SERVE_ADDR", default)
}

/// Pending-job queue depth for `chainiq-serve`: `CHAINIQ_SERVE_QUEUE`.
/// A submission that would push the pending queue past this depth gets a
/// typed `Busy` response instead of buffering without bound. `0` is
/// rejected (with a warning) the same way a non-numeric value is.
#[must_use]
pub fn serve_queue_depth() -> usize {
    const DEFAULT: usize = 256;
    let d = knob("CHAINIQ_SERVE_QUEUE", DEFAULT);
    if d == 0 {
        eprintln!("warning: CHAINIQ_SERVE_QUEUE=0 is not a valid value; using default {DEFAULT}");
        DEFAULT
    } else {
        d
    }
}

/// Worker-thread count for the sweep executor: `CHAINIQ_JOBS`, defaulting
/// to [`std::thread::available_parallelism`]. `CHAINIQ_JOBS=0` is
/// rejected (with a warning) the same way a non-numeric value is.
#[must_use]
pub fn jobs() -> usize {
    let auto = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let j = knob("CHAINIQ_JOBS", auto);
    if j == 0 {
        eprintln!("warning: CHAINIQ_JOBS=0 is not a valid value; using default {auto}");
        auto
    } else {
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses its own variable name so parallel test threads
    // cannot race on shared environment state.

    #[test]
    fn unset_uses_default() {
        assert_eq!(knob("CHAINIQ_TEST_KNOB_UNSET", 42u64), 42);
    }

    #[test]
    fn set_and_valid_parses() {
        std::env::set_var("CHAINIQ_TEST_KNOB_VALID", "7");
        assert_eq!(knob("CHAINIQ_TEST_KNOB_VALID", 42u64), 7);
    }

    #[test]
    fn malformed_falls_back_to_default() {
        // The regression the issue calls out: "300k" and "abc" used to be
        // swallowed by `.and_then(parse).unwrap_or(default)`.
        std::env::set_var("CHAINIQ_TEST_KNOB_BAD", "300k");
        assert_eq!(knob("CHAINIQ_TEST_KNOB_BAD", 300_000u64), 300_000);
        std::env::set_var("CHAINIQ_TEST_KNOB_BAD2", "abc");
        assert_eq!(knob("CHAINIQ_TEST_KNOB_BAD2", 5u32), 5);
    }

    #[test]
    fn jobs_is_positive() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn git_rev_defaults_and_trims() {
        // Only this test touches CHAINIQ_GIT_REV, so no cross-test race.
        std::env::remove_var("CHAINIQ_GIT_REV");
        assert_eq!(git_rev(), "unknown");
        std::env::set_var("CHAINIQ_GIT_REV", "  1c5b71a \n");
        assert_eq!(git_rev(), "1c5b71a");
        std::env::set_var("CHAINIQ_GIT_REV", "   ");
        assert_eq!(git_rev(), "unknown", "blank labels fall back");
        std::env::remove_var("CHAINIQ_GIT_REV");
    }

    #[test]
    fn ckpt_max_mb_zero_and_garbage_mean_unlimited() {
        // Only this test touches CHAINIQ_CKPT_MAX_MB, so no cross-test race.
        std::env::remove_var("CHAINIQ_CKPT_MAX_MB");
        assert_eq!(ckpt_max_mb(), None);
        std::env::set_var("CHAINIQ_CKPT_MAX_MB", "0");
        assert_eq!(ckpt_max_mb(), None);
        std::env::set_var("CHAINIQ_CKPT_MAX_MB", "64");
        assert_eq!(ckpt_max_mb(), Some(64));
        std::env::set_var("CHAINIQ_CKPT_MAX_MB", "lots");
        assert_eq!(ckpt_max_mb(), None, "unparsable caps fall back to unlimited");
        std::env::remove_var("CHAINIQ_CKPT_MAX_MB");
    }

    #[test]
    fn serve_addr_parses_and_rejects_garbage() {
        // Only this test touches CHAINIQ_SERVE_ADDR, so no cross-test race.
        std::env::remove_var("CHAINIQ_SERVE_ADDR");
        let default = serve_addr();
        assert!(default.ip().is_loopback());
        std::env::set_var("CHAINIQ_SERVE_ADDR", "127.0.0.1:0");
        assert_eq!(serve_addr().port(), 0);
        std::env::set_var("CHAINIQ_SERVE_ADDR", "not-an-addr");
        assert_eq!(serve_addr(), default, "unparsable addresses fall back");
        std::env::remove_var("CHAINIQ_SERVE_ADDR");
    }

    #[test]
    fn serve_queue_depth_rejects_zero() {
        // Only this test touches CHAINIQ_SERVE_QUEUE, so no cross-test race.
        std::env::remove_var("CHAINIQ_SERVE_QUEUE");
        assert_eq!(serve_queue_depth(), 256);
        std::env::set_var("CHAINIQ_SERVE_QUEUE", "8");
        assert_eq!(serve_queue_depth(), 8);
        std::env::set_var("CHAINIQ_SERVE_QUEUE", "0");
        assert_eq!(serve_queue_depth(), 256, "0 is rejected like a parse failure");
        std::env::remove_var("CHAINIQ_SERVE_QUEUE");
    }

    #[test]
    fn ckpt_dir_honors_override() {
        // Only this test touches CHAINIQ_CKPT_DIR, so no cross-test race.
        std::env::set_var("CHAINIQ_CKPT_DIR", "/tmp/chainiq-knob-test-cache");
        assert_eq!(ckpt_dir(), std::path::PathBuf::from("/tmp/chainiq-knob-test-cache"));
        std::env::remove_var("CHAINIQ_CKPT_DIR");
        assert!(ckpt_dir().ends_with("ckpt-cache"), "default must be the results-side cache");
    }
}
