#!/usr/bin/env bash
# Canonical verification for chainiq. The workspace is hermetic: it has
# zero crates.io dependencies, so everything here must succeed against an
# empty registry — hence --offline on every cargo invocation. If a step
# fails under --offline but passes without it, a registry dependency has
# crept back in; see DESIGN.md §7.
set -euo pipefail
cd "$(dirname "$0")"

echo "== Cargo.lock: no registry or git package (H1)"
# Every package of a path-only workspace is lockfile-listed without a
# `source =` line; any registry or git dependency adds one.
if grep -n '^source = ' Cargo.lock; then
    echo "ci.sh: Cargo.lock names a non-path package; the workspace must stay hermetic" >&2
    exit 1
fi

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== cargo test -q --offline"
cargo test -q --offline --workspace

echo "== cargo clippy --offline (-D warnings)"
# clippy.toml and [workspace.lints] carry the determinism, unsafe and
# panic rules (DESIGN.md §8); every exempt site is an #[expect], so a
# site that stops needing its exemption fails here too.
cargo clippy --offline --workspace -- -D warnings

echo "== clippy.toml D1 proof: the lint fixture must fail on HashMap and HashSet"
# No tree crate has a D1 exemption, so the fixture is the standing proof
# that the ban fires. It is its own workspace and builds under target/.
LINT_OUT="$(CARGO_TARGET_DIR="$PWD/target/lint-fixture" cargo clippy --offline --quiet \
    --manifest-path tests/lint-fixture/Cargo.toml -- -D warnings 2>&1 || true)"
for ty in HashMap HashSet; do
    grep -q "disallowed type \`std::collections::$ty\`" <<<"$LINT_OUT" \
        || { echo "ci.sh: clippy.toml no longer rejects $ty in tests/lint-fixture" >&2; exit 1; }
done

echo "== chainiq-analyze (call-graph invariants, tight ratchets)"
cargo run -p chainiq-analyze --release --offline -- --check-tight

echo "== cargo fmt --check"
cargo fmt --check

echo "== benchmark digest: full stats of every paper-grid spec and SMT mix at the default seed"
# The benchmark package pins the complete SimStats + segmented-queue
# statistics of all 275 F2+T2+F3 specs and all 9 SMT mixes; any change
# to simulated behaviour shows up here as a byte difference. The build
# goes under target/ so the step leaves benchmark/ exactly as it found it.
CARGO_TARGET_DIR="$PWD/target/benchmark" \
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --print-digest \
    | cmp - benchmark/digest/default-seed.txt \
    || { echo "ci.sh: benchmark digest differs from benchmark/digest/default-seed.txt" >&2; exit 1; }

echo "== benchmark package tests: traced twins must write and restore identical images"
# The traced twin of run_one_ckpt must write byte-identical checkpoint
# images and restore them on the crossed hit path, so every checkpoint
# encoding is exercised here. Like the digest step, it builds under
# target/ and only reads benchmark/.
CARGO_TARGET_DIR="$PWD/target/benchmark" \
    cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== perf gate smoke: --bin perf at a tiny sample into a scratch dir"
PERF_DIR="$(mktemp -d)"
trap 'rm -rf "$PERF_DIR"' EXIT

# check_artifacts SUITE EMITTED.json HISTORY.jsonl COMMITTED.json
# perf and storm refuse to write a degenerate aggregate themselves; this
# checks that the emitted artifact, the last history line and the
# committed artifact name the same matrix, and that the history line
# carries a revision label.
check_artifacts() {
    local suite="$1" emitted="$2" history="$3" committed="$4" points="$PERF_DIR/points"
    grep -q "\"suite\": \"$suite\"" "$emitted" \
        || { echo "ci.sh: $emitted is not a $suite artifact" >&2; exit 1; }
    grep -o '"point": "[^"]*"' "$emitted" | sort > "$points.emitted"
    tail -n 1 "$history" | grep -o '"point": "[^"]*"' | sort > "$points.history"
    grep -o '"point": "[^"]*"' "$committed" | sort > "$points.committed"
    [ -s "$points.emitted" ] || { echo "ci.sh: $emitted has no points" >&2; exit 1; }
    cmp -s "$points.emitted" "$points.history" \
        || { echo "ci.sh: last line of $history covers a different point set" >&2; exit 1; }
    cmp -s "$points.emitted" "$points.committed" \
        || { echo "ci.sh: $suite matrix drifted from $committed" >&2; exit 1; }
    tail -n 1 "$history" | grep -q '"rev": "[^"]' \
        || { echo "ci.sh: last line of $history lacks a revision label" >&2; exit 1; }
}
CHAINIQ_SAMPLE=1000 CHAINIQ_BENCH_DIR="$PERF_DIR" \
    CHAINIQ_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    cargo run -p chainiq-bench --release --bin perf --offline >/dev/null
PERF_JSON="$PERF_DIR/BENCH_perf.json"
PERF_HISTORY="$PERF_DIR/BENCH_perf_history.jsonl"
[ -s "$PERF_JSON" ] || { echo "ci.sh: BENCH_perf.json missing or empty" >&2; exit 1; }
[ -s "$PERF_HISTORY" ] || { echo "ci.sh: BENCH_perf_history.jsonl missing or empty" >&2; exit 1; }
check_artifacts perf "$PERF_JSON" "$PERF_HISTORY" results/BENCH_perf.json

echo "== sweep smoke: fig3 on 2 workers at a small sample"
CHAINIQ_SAMPLE=2000 CHAINIQ_JOBS=2 \
    cargo run -p chainiq-bench --release --bin fig3 --offline >/dev/null

echo "== checkpoint smoke: snapshot, restore, compare (cold vs cached stdout)"
# First cached run simulates cold and saves warmup images; the second
# restores them (serial) and the third restores them concurrently. All
# three must render byte-identical tables to the uncached run.
CKPT_CACHE="$PERF_DIR/ckpt-cache"
run_fig3() {
    CHAINIQ_SAMPLE=2000 CHAINIQ_BENCH_DIR="$PERF_DIR" "$@" \
        cargo run -p chainiq-bench --release --bin fig3 --offline
}
run_fig3 env CHAINIQ_JOBS=1 > "$PERF_DIR/fig3-cold.txt"
run_fig3 env CHAINIQ_JOBS=1 CHAINIQ_CKPT=1 CHAINIQ_CKPT_DIR="$CKPT_CACHE" \
    > "$PERF_DIR/fig3-save.txt"
run_fig3 env CHAINIQ_JOBS=1 CHAINIQ_CKPT=1 CHAINIQ_CKPT_DIR="$CKPT_CACHE" \
    > "$PERF_DIR/fig3-restore.txt"
run_fig3 env CHAINIQ_JOBS=4 CHAINIQ_CKPT=1 CHAINIQ_CKPT_DIR="$CKPT_CACHE" \
    > "$PERF_DIR/fig3-restore-par.txt"
cmp "$PERF_DIR/fig3-cold.txt" "$PERF_DIR/fig3-save.txt" \
    || { echo "ci.sh: checkpoint-saving run diverged from cold stdout" >&2; exit 1; }
cmp "$PERF_DIR/fig3-cold.txt" "$PERF_DIR/fig3-restore.txt" \
    || { echo "ci.sh: checkpoint-restored run diverged from cold stdout" >&2; exit 1; }
cmp "$PERF_DIR/fig3-cold.txt" "$PERF_DIR/fig3-restore-par.txt" \
    || { echo "ci.sh: concurrent checkpoint-restored run diverged from cold stdout" >&2; exit 1; }
[ -n "$(ls -A "$CKPT_CACHE" 2>/dev/null)" ] \
    || { echo "ci.sh: checkpoint cache directory is empty after a caching run" >&2; exit 1; }

echo "== serve smoke: daemon + storm twice over loopback, hits must be byte-stable"
# The daemon binds an ephemeral port and publishes it via --addr-file.
# The first storm pass populates the result cache; the second runs the
# same deterministic job stream and must be answered entirely from it
# (storm itself asserts byte-identity of every repeated response, and
# --expect-warm-all-hits makes a single re-simulation fatal).
SERVE_DIR="$PERF_DIR/serve"
mkdir -p "$SERVE_DIR"
CHAINIQ_BENCH_DIR="$SERVE_DIR" ./target/release/chainiq-serve \
    --addr 127.0.0.1:0 --addr-file "$SERVE_DIR/addr" --workers 2 \
    2> "$SERVE_DIR/daemon.log" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$PERF_DIR"' EXIT
for _ in $(seq 1 100); do [ -s "$SERVE_DIR/addr" ] && break; sleep 0.1; done
[ -s "$SERVE_DIR/addr" ] \
    || { echo "ci.sh: chainiq-serve never published its address" >&2; exit 1; }
SERVE_ADDR="$(cat "$SERVE_DIR/addr")"
run_storm() {
    CHAINIQ_BENCH_DIR="$SERVE_DIR" \
        CHAINIQ_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
        ./target/release/storm --addr "$SERVE_ADDR" \
        --clients 4 --total 40 --distinct 8 --sample 2000 --hit-ratio 1.0 "$@"
}
run_storm >/dev/null
run_storm --expect-warm-all-hits >/dev/null \
    || { echo "ci.sh: second storm pass re-simulated or diverged" >&2; exit 1; }
./target/release/storm --addr "$SERVE_ADDR" --shutdown 2>/dev/null
wait "$SERVE_PID" \
    || { echo "ci.sh: chainiq-serve exited uncleanly" >&2; cat "$SERVE_DIR/daemon.log" >&2; exit 1; }
check_artifacts serve "$SERVE_DIR/BENCH_serve.json" "$SERVE_DIR/BENCH_serve_history.jsonl" \
    results/BENCH_serve.json

echo "ci.sh: all checks passed"
