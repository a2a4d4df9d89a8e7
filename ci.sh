#!/usr/bin/env bash
# Canonical verification for chainiq. The workspace is hermetic: it has
# zero crates.io dependencies, so everything here must succeed against an
# empty registry — hence --offline on every cargo invocation. If a step
# fails under --offline but passes without it, a registry dependency has
# crept back in; see DESIGN.md §7.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== cargo test -q --offline"
cargo test -q --offline --workspace

echo "== cargo clippy --offline (-D warnings)"
cargo clippy --offline --workspace -- -D warnings

echo "== chainiq-analyze (project-specific invariants, tight ratchets)"
ANALYZE_JSON="$(mktemp)"
trap 'rm -f "$ANALYZE_JSON"' EXIT  # widened below once PERF_DIR exists
cargo run -p chainiq-analyze --release --offline -- --check-tight --json "$ANALYZE_JSON"
[ -s "$ANALYZE_JSON" ] || { echo "ci.sh: analyze --json artifact missing or empty" >&2; exit 1; }

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
trap 'rm -f "$ANALYZE_JSON"; rm -rf "$PERF_DIR"' EXIT
CHAINIQ_SAMPLE=1000 CHAINIQ_BENCH_DIR="$PERF_DIR" \
    CHAINIQ_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    cargo run -p chainiq-bench --release --bin perf --offline >/dev/null
PERF_JSON="$PERF_DIR/BENCH_perf.json"
PERF_HISTORY="$PERF_DIR/BENCH_perf_history.jsonl"
[ -s "$PERF_JSON" ] || { echo "ci.sh: BENCH_perf.json missing or empty" >&2; exit 1; }
[ -s "$PERF_HISTORY" ] || { echo "ci.sh: BENCH_perf_history.jsonl missing or empty" >&2; exit 1; }
# Artifact consistency is checked hermetically in Rust (no python3 in
# the toolchain anymore): suite/points/aggregate sanity, history point
# set + rev label, and matrix identity with the committed artifact.
cargo run -p chainiq-analyze --release --offline -- \
    --check-perf "$PERF_JSON" "$PERF_HISTORY" results/BENCH_perf.json

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
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$ANALYZE_JSON"; rm -rf "$PERF_DIR"' EXIT
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
cargo run -p chainiq-analyze --release --offline -- \
    --check-serve "$SERVE_DIR/BENCH_serve.json" "$SERVE_DIR/BENCH_serve_history.jsonl" \
    results/BENCH_serve.json

echo "ci.sh: all checks passed"
