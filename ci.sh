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

echo "== crate manifests: every crate inherits [workspace.lints] (L1)"
for manifest in crates/*/Cargo.toml; do
    awk '/^\[/ { in_lints = ($0 == "[lints]") } in_lints && /^workspace = true$/ { ok = 1 }
         END { exit !ok }' "$manifest" \
        || { echo "ci.sh: $manifest lacks [lints] workspace = true" >&2; exit 1; }
done

echo "== crate manifests: no cargo features"
# A feature is a second build of a production kernel. Test-only switches
# belong in test code: a reference model lives beside the tests that run
# it (crates/cpu/tests/scan_iq), not behind a flag inside the kernel.
if grep -n '^\[features\]' crates/*/Cargo.toml; then
    echo "ci.sh: a crate manifest declares [features]; keep test-only switches in test code" >&2
    exit 1
fi

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== cargo test -q --offline"
cargo test -q --offline --workspace

echo "== seeded queue properties at depth (300 cases each)"
# The restore-equals-continuous properties (each baseline one also
# demands that the uninterrupted run issues its whole program), the
# ideal and distance queues' lockstep properties against their scan
# references, core's properties of the shared structures, and the
# segmented queue's lockstep against its scan reference across a mid-run
# restore. Rare ordering defects need many cases to show.
CHAINIQ_PROP_CASES=300 cargo test --release --offline -p chainiq-baseline -p chainiq-core
CHAINIQ_PROP_CASES=300 cargo test --release --offline -p chainiq-cpu --test differential

echo "== cargo clippy --offline --all-targets (-D warnings)"
# clippy.toml and [workspace.lints] carry the determinism, unsafe and
# panic rules (DESIGN.md §8); every exempt site is an #[expect], so a
# site that stops needing its exemption fails here too. The simulator
# crates forbid the disallowed-type and -method lints at their roots, so
# an #[expect] of either there is an error (T1).
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc --document-private-items (-D warnings): every intra-doc link resolves"
# Private items are documented too, so a doc link to a renamed or
# deleted field, helper or type fails here rather than rendering as
# plain text. Builds under target/ like the rest.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --document-private-items

echo "== clippy.toml D1 proof: the lint fixture must fail on HashMap and HashSet"
# No tree crate has a D1 exemption, so the fixture is the standing proof
# that the ban fires. It is its own workspace and builds under target/.
LINT_OUT="$(CARGO_TARGET_DIR="$PWD/target/lint-fixture" cargo clippy --offline --quiet \
    --manifest-path tests/lint-fixture/Cargo.toml -- -D warnings 2>&1 || true)"
for ty in HashMap HashSet; do
    grep -q "disallowed type \`std::collections::$ty\`" <<<"$LINT_OUT" \
        || { echo "ci.sh: clippy.toml no longer rejects $ty in tests/lint-fixture" >&2; exit 1; }
done

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

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

echo "== traced paper-grid at the held-out seed 7: fast-forward must equal stepping"
# Untraced passes fast-forward over quiet cycles; traced passes run every
# queue inside the benchmark's Timed<Q>, which keeps the stepwise horizon
# defaults, and must equal them. That checks fast-forward against
# stepping on all 275 specs and 9 SMT mixes at a seed the committed
# digest does not cover. It runs from the scratch directory so the
# benchmark's .bench_work/ stays out of the tree.
ROOT="$PWD"
GRID_OUT="$(cd "$WORK_DIR" && CARGO_TARGET_DIR="$ROOT/target/benchmark" \
    cargo run --release --offline --quiet --manifest-path "$ROOT/benchmark/Cargo.toml" -- \
    --workload paper-grid --seed 7 --seconds 1 --trace 1 2>/dev/null | tail -n 1)"
{ grep -q '"correct": true' <<<"$GRID_OUT" && grep -q '"failed": 0' <<<"$GRID_OUT"; } \
    || { echo "ci.sh: traced paper-grid at seed 7 failed: $GRID_OUT" >&2; exit 1; }

echo "== sweep and checkpoint smoke: fig3 stdout at any worker count, cold or cached"
# A second cold run on 2 workers checks the sweep executor; the first
# cached run simulates cold and saves warmup images; the next restores
# them (serial) and the last restores them concurrently. All four must
# render byte-identical tables to the serial cold run.
CKPT_CACHE="$WORK_DIR/ckpt-cache"
run_fig3() {
    CHAINIQ_SAMPLE=2000 CHAINIQ_BENCH_DIR="$WORK_DIR" "$@" \
        cargo run -p chainiq-bench --release --bin fig3 --offline
}
run_fig3 env CHAINIQ_JOBS=1 > "$WORK_DIR/fig3-cold.txt"
run_fig3 env CHAINIQ_JOBS=2 > "$WORK_DIR/fig3-cold-par.txt"
run_fig3 env CHAINIQ_JOBS=1 CHAINIQ_CKPT=1 CHAINIQ_CKPT_DIR="$CKPT_CACHE" \
    > "$WORK_DIR/fig3-save.txt"
run_fig3 env CHAINIQ_JOBS=1 CHAINIQ_CKPT=1 CHAINIQ_CKPT_DIR="$CKPT_CACHE" \
    > "$WORK_DIR/fig3-restore.txt"
run_fig3 env CHAINIQ_JOBS=4 CHAINIQ_CKPT=1 CHAINIQ_CKPT_DIR="$CKPT_CACHE" \
    > "$WORK_DIR/fig3-restore-par.txt"
cmp "$WORK_DIR/fig3-cold.txt" "$WORK_DIR/fig3-cold-par.txt" \
    || { echo "ci.sh: 2-worker cold run diverged from 1-worker cold stdout" >&2; exit 1; }
cmp "$WORK_DIR/fig3-cold.txt" "$WORK_DIR/fig3-save.txt" \
    || { echo "ci.sh: checkpoint-saving run diverged from cold stdout" >&2; exit 1; }
cmp "$WORK_DIR/fig3-cold.txt" "$WORK_DIR/fig3-restore.txt" \
    || { echo "ci.sh: checkpoint-restored run diverged from cold stdout" >&2; exit 1; }
cmp "$WORK_DIR/fig3-cold.txt" "$WORK_DIR/fig3-restore-par.txt" \
    || { echo "ci.sh: concurrent checkpoint-restored run diverged from cold stdout" >&2; exit 1; }
[ -n "$(ls -A "$CKPT_CACHE" 2>/dev/null)" ] \
    || { echo "ci.sh: checkpoint cache directory is empty after a caching run" >&2; exit 1; }

echo "== results/ byte-identity: all nine experiment tables at the default sample"
# The contract: every committed table in results/ is exactly what its
# binary prints today, cold, at the default sample, on any worker count.
# A change to simulated behaviour must regenerate results/ with it, so
# tests/paper_claims.rs always reads current data. Unsetting the sample
# and checkpoint knobs pins the run to the committed configuration.
for bin in table1 fig2 table2 fig3 ablate rivals smt clock power; do
    env -u CHAINIQ_SAMPLE -u CHAINIQ_CKPT -u CHAINIQ_CKPT_DIR CHAINIQ_JOBS=2 \
        CHAINIQ_BENCH_DIR="$WORK_DIR" cargo run -p chainiq-bench --release --bin "$bin" \
        --offline --quiet > "$WORK_DIR/$bin.txt" 2>/dev/null \
        || { echo "ci.sh: $bin failed" >&2; exit 1; }
    cmp "$WORK_DIR/$bin.txt" "results/$bin.txt" \
        || { echo "ci.sh: results/$bin.txt differs from a fresh $bin run" >&2; exit 1; }
done

echo "ci.sh: all checks passed"
