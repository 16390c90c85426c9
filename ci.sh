#!/usr/bin/env bash
# Offline CI gate: everything here must pass with no network and no
# external crates (the workspace is std-only).
#
# Usage:
#   ./ci.sh            - the full offline gate
#   ./ci.sh sanitize   - opt-in: runtime tests under ThreadSanitizer
#                        (requires a nightly toolchain with -Zsanitizer;
#                        skipped with a message when unavailable)
#   ./ci.sh miri       - opt-in: IR interpreter unit tests under Miri
#                        (requires a nightly toolchain with the miri
#                        component; skipped with a message when
#                        unavailable)
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == "miri" ]]; then
    echo "==> Miri (IR interpreter unit tests, nightly, best-effort)"
    if ! rustup toolchain list 2>/dev/null | grep -q nightly; then
        echo "miri: no nightly toolchain installed - skipping"
        exit 0
    fi
    if ! rustup component list --toolchain nightly 2>/dev/null \
            | grep -q "miri.*installed"; then
        echo "miri: nightly miri component not installed - skipping"
        exit 0
    fi
    cargo +nightly miri test -p intercom --lib -q ir::
    echo "ci.sh miri: all green"
    exit 0
fi

if [[ "${1:-}" == "sanitize" ]]; then
    echo "==> ThreadSanitizer (runtime tests, nightly, best-effort)"
    if ! rustup toolchain list 2>/dev/null | grep -q nightly; then
        echo "sanitize: no nightly toolchain installed - skipping"
        exit 0
    fi
    host="$(rustc -vV | sed -n 's/^host: //p')"
    if ! rustup component list --toolchain nightly 2>/dev/null \
            | grep -q "rust-src.*installed"; then
        echo "sanitize: nightly rust-src not installed (needed for -Zbuild-std) - skipping"
        exit 0
    fi
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -p intercom-runtime -q \
        -Zbuild-std --target "$host"
    echo "ci.sh sanitize: all green"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy --no-default-features -- -D warnings"
cargo clippy --workspace --all-targets --no-default-features -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> schedule-audit (static verification sweep)"
cargo run --release -p intercom-verify --bin schedule-audit

echo "==> schedule-audit --source=concurrent (multi-tenant non-interference sweep)"
cargo run --release -p intercom-verify --bin schedule-audit -- --source=concurrent

echo "==> schedule-audit --source=chaos (fault-injection sweep, both backends)"
cargo run --release -p intercom-verify --bin schedule-audit -- --source=chaos

echo "==> schedule-audit --source=hier (hierarchical cluster-schedule sweep)"
cargo run --release -p intercom-verify --bin schedule-audit -- --source=hier

echo "==> schedule-optimizer A/B bench (smoke)"
cargo run --release -p intercom-bench --bin iropt -- --smoke >/dev/null

echo "==> observability smoke (trace export round-trip + residual reports)"
# --check re-parses every emitted Chrome-trace JSON through the strict
# std-only parser and asserts the known (p=9, SC, 3x3) cross-stage skew
# is detected from measured timestamps.
cargo run --release --bin trace-dump -- --check --out target/ci-traces >/dev/null

echo "==> observability overhead gate (disabled recorder <= 3%)"
cargo run --release -p intercom-bench --bin obs -- --smoke >/dev/null

echo "==> metrics exposition round-trip (export -> parse -> re-export idempotent)"
cargo run --release --bin intercom-metrics -- --check --p 6 >/dev/null

echo "==> benchmark selftest (fmt, clippy, tests, quick runs of every workload, compare)"
bash benchmark/selftest.sh >/dev/null

echo "ci.sh: all green"
