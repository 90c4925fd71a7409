#!/usr/bin/env bash
# Offline CI gate for the Sprite migration reproduction.
#
#   scripts/ci.sh          # full gate: quick mode plus chaos suite, fmt --check,
#                          # bench_check.sh and the perfbench fingerprints
#   scripts/ci.sh --quick  # release build, tests, clippy, sprite_lint, smokes
#
# Everything runs offline: the workspace has zero external dependencies, so
# no network access (and no pre-populated registry cache) is required.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
if [[ "${1:-}" == "--quick" ]]; then
    quick=1
fi

echo "==> cargo build --release --workspace"
# --workspace: the smokes below run target/release/experiments, which a
# bare `cargo build --release` (the root facade package only) never builds.
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# Clippy holds two determinism bans through `disallowed-types` in the root
# clippy.toml: std HashMap/HashSet/RandomState (randomized hasher) and
# std::time::Instant/SystemTime (wall clock). crates/bench has its own
# clippy.toml that keeps only the hasher entries. `unsafe` is a compile
# error through `[workspace.lints.rust] unsafe_code = "forbid"`.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> sprite_lint (determinism invariants + semantic coverage)"
# The static analyzer keeps the checks rustc, clippy and visibility cannot
# do. Token rules: no unwrap/expect on transport results (including
# multiline chains) and no unordered map iteration into scheduling. The
# semantic pass checks the item graph: digest-field-coverage (every field
# of a digest_into type is folded or carries an annotated digest-skip),
# rpc-op-wire-coverage (every RpcOp variant appears in
# wire_size()/label()/ALL), stats-merge-coverage (every *Stats field
# survives merge and JSON emission), and unused-allow (stale or
# misspelled suppressions). Rule IDs and the allow syntax are documented
# in DESIGN.md; any non-allowed diagnostic fails the gate.
cargo run -q -p sprite_lint -- crates src tests examples

echo "==> m02 smoke (200 hosts, 1 simulated day, 2 shards)"
# The partitioned-parallel engine compares its sharded digest stream
# against the serial reference in-process and exits 1 on divergence; one
# small run keeps the determinism contract in even the quick gate.
target/release/experiments e01 --m02=200:1 --shards 2 > /dev/null 2>&1

echo "==> e10-sweep smoke (200 hosts, central vs sharded vs gossip)"
# The decentralization sweep fans its cells over worker threads; its table
# must be byte-identical for any --jobs value (gossip fanout is seeded).
sweep_tmp="$(mktemp -d)"
trap 'rm -rf "$sweep_tmp"' EXIT
target/release/experiments e01 --e10-sweep=200 --jobs 1 > "$sweep_tmp/sweep1.txt" 2> /dev/null
target/release/experiments e01 --e10-sweep=200 --jobs 4 > "$sweep_tmp/sweep4.txt" 2> /dev/null
if ! cmp -s "$sweep_tmp/sweep1.txt" "$sweep_tmp/sweep4.txt"; then
    echo "FAIL: e10 sweep stdout diverged between --jobs 1 and --jobs 4" >&2
    diff "$sweep_tmp/sweep1.txt" "$sweep_tmp/sweep4.txt" | head -40 >&2 || true
    exit 1
fi
if ! grep -q '^## E10 sweep: decentralized host selection' "$sweep_tmp/sweep1.txt"; then
    echo "FAIL: --e10-sweep run printed no sweep table" >&2
    exit 1
fi

echo "==> sharded-FS smoke (e05 striped servers, jobs 1 vs 4)"
# The striped file-service sweep (1/2/4 server daemons) must render the
# same bytes for any --jobs value, and the 2-shard series must report its
# saturation crossover — the number the regression gate tracks.
target/release/experiments e05 --jobs 1 > "$sweep_tmp/e05_1.txt" 2> /dev/null
target/release/experiments e05 --jobs 4 > "$sweep_tmp/e05_4.txt" 2> /dev/null
if ! cmp -s "$sweep_tmp/e05_1.txt" "$sweep_tmp/e05_4.txt"; then
    echo "FAIL: e05 stdout diverged between --jobs 1 and --jobs 4" >&2
    diff "$sweep_tmp/e05_1.txt" "$sweep_tmp/e05_4.txt" | head -40 >&2 || true
    exit 1
fi
if ! grep -q 'saturation crossover at 2 shard' "$sweep_tmp/e05_1.txt"; then
    echo "FAIL: e05 run printed no 2-shard saturation crossover" >&2
    exit 1
fi

echo "==> f02 smoke (checkpoint vs migration, jobs 1 vs 4)"
# The crossover grid fans its (mtbf, image) cells over worker threads and
# merges by index; a small two-point grid must render the same bytes for
# any --jobs value and still report where migration takes over.
target/release/experiments e01 --f02=30,600:0.25 --jobs 1 > "$sweep_tmp/f02_1.txt" 2> /dev/null
target/release/experiments e01 --f02=30,600:0.25 --jobs 4 > "$sweep_tmp/f02_4.txt" 2> /dev/null
if ! cmp -s "$sweep_tmp/f02_1.txt" "$sweep_tmp/f02_4.txt"; then
    echo "FAIL: f02 stdout diverged between --jobs 1 and --jobs 4" >&2
    diff "$sweep_tmp/f02_1.txt" "$sweep_tmp/f02_4.txt" | head -40 >&2 || true
    exit 1
fi
if ! grep -q '^## F2: checkpoint/restart vs live migration' "$sweep_tmp/f02_1.txt"; then
    echo "FAIL: --f02 run printed no F2 table" >&2
    exit 1
fi
if ! grep -q 'migration takes over at mtbf' "$sweep_tmp/f02_1.txt"; then
    echo "FAIL: f02 smoke grid reported no crossover" >&2
    exit 1
fi

if [[ "$quick" == 1 ]]; then
    echo "==> tier-1 OK (quick mode; skipped chaos suite, fmt, bench_check, perfbench)"
    exit 0
fi

echo "==> cargo test -q --test fault_properties"
# The deterministic chaos suite: 50 fault seeds x 3 drop rates, replayed.
cargo test -q --test fault_properties

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> scripts/bench_check.sh"
scripts/bench_check.sh

echo "==> perfbench cell_month (seed 53, recorded fingerprint)"
# The repo benchmark's cell_month workload drives 2 000 hosts through the
# serial and then the sharded engine and compares the digest stream with
# the fingerprint recorded under perfbench/; one short run gates both
# engines' queue order at the default size.
if ! perf_out="$(CARGO_TARGET_DIR=.bench_build cargo run --release \
        --manifest-path perfbench/Cargo.toml -- \
        --workload cell_month --seed 53 --seconds 1 --trace 0 2>&1)"; then
    echo "FAIL: perfbench cell_month exited non-zero" >&2
    echo "$perf_out" | tail -20 >&2
    exit 1
fi
if ! grep -q '^baseline: matches the recorded fingerprint' <<< "$perf_out"; then
    echo "FAIL: perfbench cell_month did not match its recorded fingerprint" >&2
    echo "$perf_out" | tail -20 >&2
    exit 1
fi

echo "==> perfbench mechanism_month (seed 53, recorded fingerprint)"
# The e11-style month runs the mechanism code: gossip load reports, the
# activity-trace lookups, exec-time migration and eviction. Its fingerprint
# pins the cluster digest and the migration counts, so any change to the
# gossip caches or the trace lookups that moves a placement fails here.
if ! perf_out="$(CARGO_TARGET_DIR=.bench_build cargo run --release \
        --manifest-path perfbench/Cargo.toml -- \
        --workload mechanism_month --seed 53 --seconds 1 --trace 0 2>&1)"; then
    echo "FAIL: perfbench mechanism_month exited non-zero" >&2
    echo "$perf_out" | tail -20 >&2
    exit 1
fi
if ! grep -q '^baseline: matches the recorded fingerprint' <<< "$perf_out"; then
    echo "FAIL: perfbench mechanism_month did not match its recorded fingerprint" >&2
    echo "$perf_out" | tail -20 >&2
    exit 1
fi

echo "==> CI gate OK"
