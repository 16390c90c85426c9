#!/usr/bin/env bash
# Offline CI gate: everything here must pass with no network and no
# external crates (the workspace is std-only).
#
# Usage:
#   ./ci.sh            - the full offline gate
#   ./ci.sh sanitize   - opt-in: runtime tests under ThreadSanitizer
#                        (needs a nightly toolchain with rust-src for
#                        -Zbuild-std)
#   ./ci.sh miri       - opt-in: program-walk and IR unit tests under Miri
#                        (needs a nightly toolchain with the miri
#                        component)
#
# The two opt-in modes never pass silently: when what they need is
# missing they print "SKIPPED: <reason>" and exit 77 (the automake
# "skipped" status), so a caller can tell "checked" from "not checked".
set -euo pipefail
cd "$(dirname "$0")"

skip() {
    echo "SKIPPED: $*"
    exit 77
}

have_nightly() {
    rustup toolchain list 2>/dev/null | grep -q nightly
}

have_nightly_component() {
    rustup component list --toolchain nightly 2>/dev/null | grep -q "$1.*installed"
}

if [[ "${1:-}" == "miri" ]]; then
    echo "==> Miri (program-walk and IR unit tests, nightly)"
    have_nightly || skip "miri needs a nightly toolchain, none is installed"
    have_nightly_component miri || skip "the nightly miri component is not installed"
    cargo +nightly miri test -p intercom --lib -q -- ir:: comm::
    echo "ci.sh miri: all green"
    exit 0
fi

if [[ "${1:-}" == "sanitize" ]]; then
    echo "==> ThreadSanitizer (runtime tests, nightly)"
    have_nightly || skip "sanitize needs a nightly toolchain, none is installed"
    have_nightly_component rust-src \
        || skip "nightly rust-src is not installed (needed for -Zbuild-std)"
    host="$(rustc -vV | sed -n 's/^host: //p')"
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -p intercom-runtime -q \
        -Zbuild-std --target "$host"
    echo "ci.sh sanitize: all green"
    exit 0
fi

# at_least WHAT ACTUAL MIN
at_least() {
    if [[ -z "$2" || "$2" -lt "$3" ]]; then
        echo "ci.sh: the audit reports ${2:-no} $1, expected at least $3"
        exit 1
    fi
}

# at_most WHAT ACTUAL MAX
at_most() {
    if [[ -z "$2" || "$2" -gt "$3" ]]; then
        echo "ci.sh: the audit reports ${2:-no} $1, expected at most $3"
        exit 1
    fi
}

echo "==> non-test lines under crates/ (reported, not gated)"
# Every .rs file under crates/*/src, counted up to its first
# `#[cfg(test)]` module (the attribute line directly followed by a
# `mod` line); a `#[cfg(test)]` field, function or static before it is
# counted. The tests/ directories are all test code.
find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1; held = 0 }
    held {
        held = 0
        if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod /) counting = 0
        else n++
    }
    counting && /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
    counting { n++ }
    END { print "non-test lines under crates/: " n }'

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (under a 900 s timeout)"
# A hang (a simulated deadlock that never unwinds, a lost wake-up) fails
# the gate instead of stalling it: the debug build takes a few minutes
# from cold, the suite itself under one.
timeout 900 cargo test --workspace -q

echo "==> the ⊕ kernel's tests in release (every tier's vectorized body against the scalar loop)"
# The debug build above never vectorizes the `#[target_feature]` bodies,
# so the kernel's identity tests, the ops' and the byte-level folds' run
# again optimized; the cold release build of the lib tests is most of it.
timeout 600 cargo test --release -p intercom --lib -q -- cast:: op:: ir::bound::

echo "==> pinned to one core: the threaded runtime's whole suite, the core's threaded suites, and the simulator without its helper"
# Pinned, every runtime test sees one core: `oversubscribed` runs 4
# ranks on it, so every hop waits for a peer that can only run once the
# waiting rank gives the core up; the mailbox stress runs 8 producers and
# their receiver on it, so a receive keeps parking while posts race its
# handshake; and the spill, stash and self-send paths, `alloc_free`'s
# steady states included, run with every rank sharing the core.
# The simulator sees one core too (`available_parallelism() == 1`), so
# its engine spawns no helper and copies and folds every batch itself.
# And the core's threaded suites run their collectives on threads, whose
# default path is the deployed program from a shape's second call: its
# rendezvous hops and the one-way sends left where the optimizer elided
# an empty half run with every rank sharing the core.
if command -v taskset >/dev/null; then
    timeout 240 taskset -c 0 cargo test -p intercom-runtime -q
    timeout 300 taskset -c 0 cargo test -p intercom-meshsim --test programs --test alloc_free -q
    timeout 300 taskset -c 0 cargo test -p intercom --test collectives_threaded \
        --test fused_threaded --test plans_threaded --test default_path_threaded -q
else
    echo "SKIPPED: no taskset"
fi

echo "==> examples (release, each under a 120 s timeout)"
# The only user-style programs that call Comm::send directly (jacobi's
# halo edges): a send-ordering deadlock fails here instead of hanging.
cargo build --release --examples
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    timeout 120 "target/release/examples/$name" >/dev/null || {
        echo "ci.sh: example $name failed or timed out"
        exit 1
    }
done

echo "==> envelope identity sweep (selection by lookup == selection by enumeration)"
# Any mismatch fails the test; a sweep over fewer lengths than today
# fails the count.
sweep="$(cargo test --release -p intercom-cost --test envelope_identity -- --ignored --nocapture)" || {
    echo "$sweep"
    exit 1
}
at_least "identity-sweep points" "$(grep -o 'identity sweep: [0-9]*' <<<"$sweep" | grep -o '[0-9]*$')" 4840930

echo "==> program path == direct path on the 21 full-size sim-mesh rows (release)"
# Every virtual time, clock, result and transfer that moves a byte
# bit-identical; a row missing from the count fails it. The scratch the simulator readies
# over the rows is pinned from above (≈889 MB before combining receives
# folded where they land and the collect un-permuted in place), and so
# are the steps their cached programs keep (1 545 318 before a collect's
# un-permutation compiled to one step instead of a copy per moved block,
# 185 282 while the simulator ran the unoptimized program).
rows="$(cargo test --release --test program_path -- --ignored --nocapture)" || {
    echo "$rows"
    exit 1
}
at_least "bit-identical sim-mesh rows" "$(grep -o 'sim-mesh rows: [0-9]*' <<<"$rows" | grep -o '[0-9]*$')" 21
at_most "sim-mesh arena bytes" "$(grep -o 'sim-mesh arena bytes: [0-9]*' <<<"$rows" | grep -o '[0-9]*$')" 1190208
at_most "sim-mesh program steps" "$(grep -o 'sim-mesh program steps: [0-9]*' <<<"$rows" | grep -o '[0-9]*$')" 178110

echo "==> the p = 4 096 row: 64×64 broadcasts, every byte checked, virtual time repeated (release)"
big="$(cargo test --release -p intercom-meshsim --test big_world -- --ignored --nocapture)" || {
    echo "$big"
    exit 1
}
grep 'p=4096' <<<"$big"
at_least "repeated p=4096 rows" "$(grep -o 'p=4096 rows: [0-9]*' <<<"$big" | grep -o '[0-9]*$')" 2

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -- -D warnings"
# A doc link to an item that moved or went private fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> unsafe inventory (the files that may say \`unsafe\` are a fixed list)"
# The token outside `//` comments (lint names such as unsafe_code are
# other tokens). A new entry is a decision: add it here, with the
# argument for it under a SAFETY comment in the file.
unsafe_files="$(
    find crates/*/src -name '*.rs' | sort | while read -r f; do
        if [[ -n "$(sed -n 's://.*$::; /\<unsafe\>/p' "$f")" ]]; then echo "${f#crates/}"; fi
    done
)"
expected_unsafe_files="core/src/cast.rs
meshsim/src/sim.rs
meshsim/src/window.rs
runtime/src/endpoint.rs
runtime/src/mailbox.rs"
if [[ "$unsafe_files" != "$expected_unsafe_files" ]]; then
    echo "ci.sh: the files containing \`unsafe\` changed; expected"
    echo "$expected_unsafe_files"
    echo "found"
    echo "$unsafe_files"
    exit 1
fi

# Each audit writes its --json document, and the sweep sizes in it are
# pinned: zero failures over fewer schedules than today is a failure.
audit_dir=target/ci-audit
mkdir -p "$audit_dir"

# audit NAME [ARG...]: runs one audit mode into $audit_dir/NAME.json.
audit() {
    local out="$audit_dir/$1.json"
    shift
    cargo run --release -p intercom-verify --bin schedule-audit -- --json "$@" >"$out" || {
        cat "$out"
        exit 1
    }
}

# audit_count NAME MEMBER KEY: the number at KEY on the line of the
# document's top-level MEMBER (the audit prints one member per line).
audit_count() {
    grep "^  \"$2\":" "$audit_dir/$1.json" | grep -o "\"$3\": *[0-9]*" | head -1 | grep -o '[0-9]*$'
}

echo "==> schedule-audit (static verification sweep)"
audit default
# 14 943 and 2 577 while a one-row or one-column mesh listed its whole
# line twice, as the linear strategy and as a one-dim mesh strategy:
# 798 (and 126) checks of duplicate schedules left.
at_least "IR checks" "$(audit_count default checks checks)" 14145
at_least "optimized-IR checks" "$(audit_count default optsweep checks)" 14145
at_least "trace cross-checks" "$(audit_count default crosscheck checks)" 2451
at_least "concurrent scenarios" "$(audit_count default concurrent scenarios)" 13
at_least "caught mutation probes" "$(grep -o '"caught":true' "$audit_dir/default.json" | wc -l)" 15
# The rewrite counts are pinned too: zero failures over fewer rewrites
# than today is a failure (no audited shape has a same-stage pair to
# fuse: that pin only catches the count going missing). 893 576 elided
# and 44 144 coalesced while the 798 duplicate schedules were swept.
at_least "elided halves" "$(audit_count default optsweep elided)" 845460
at_least "fused pairs" "$(audit_count default optsweep fused)" 0
at_least "coalesced messages and copies" "$(audit_count default optsweep coalesced)" 35932
# Pinned from above: every dead copy is a local copy the direct path
# still makes (586 975 before the bucket reduce-scatter read its input
# in place, 562 500 before the collect un-permuted in place, 292 388
# before the 798 duplicate schedules left, 287 326 before a gathering
# root gathered straight into its output).
at_most "dead copies" "$(audit_count default optsweep dead_copies)" 287191

echo "==> schedule-audit --source=concurrent (multi-tenant non-interference sweep)"
audit concurrent --source=concurrent

echo "==> schedule-audit --source=chaos (fault-injection sweep, both backends)"
audit chaos --source=chaos
at_least "chaos cases" "$(audit_count chaos chaos cases)" 98
# What the sweep recovers is pinned from both sides: each count repeated
# exactly over five runs, so a fault layer that retried less (or more)
# than today fails here even with zero failures.
for pin in recoveries:56 aborts:42 retries:154; do
    at_least "chaos ${pin%:*}" "$(audit_count chaos chaos "${pin%:*}")" "${pin#*:}"
    at_most "chaos ${pin%:*}" "$(audit_count chaos chaos "${pin%:*}")" "${pin#*:}"
done

echo "==> schedule-audit --source=hier (hierarchical cluster-schedule sweep)"
audit hier --source=hier
# 1 227 while a hierarchical strategy held a strategy for collect's
# gather and reduce-scatter's scatter stage, which run none: 168 checks
# of duplicate schedules left.
for key in checks opt_checks trace_checks; do
    at_least "hierarchical $key" "$(audit_count hier hier "$key")" 1059
done
# The rewrites over them, pinned when the hierarchical collect and
# reduce-scatter stopped staging in per-call vectors: elided 19 110 ->
# 19 110, coalesced 820 -> 820, dead copies 3 856 -> 3 176.
at_least "hierarchical elided halves" "$(audit_count hier hier elided)" 19110
at_least "hierarchical coalesced messages and copies" "$(audit_count hier hier coalesced)" 820
at_most "hierarchical dead copies" "$(audit_count hier hier dead_copies)" 3176

echo "==> observability smoke (trace export round-trip + residual reports)"
# --check re-parses every emitted Chrome-trace JSON through the strict
# std-only parser and asserts the known (p=9, SC, 3x3) cross-stage skew
# is detected from measured timestamps.
cargo run --release --bin intercom-cli -- trace --check --out target/ci-traces >/dev/null

echo "==> observability overhead gate (disabled recorder <= 3%, median of paired runs)"
cargo run --release --bin intercom-cli -- obs --smoke >/dev/null

echo "==> metrics exposition round-trip (export -> parse -> re-export idempotent)"
cargo run --release --bin intercom-cli -- metrics --check --p 6 >/dev/null

echo "==> paper subcommands (each under a 120 s timeout; ~10 s in all)"
# Every table, figure and section claim regenerates without failing or
# hanging; table3 and fig4 on their --quick meshes.
for cmd in table2 fig2 "table3 --quick" "fig4 --quick" section5 crossover-map groups \
    pipelined hypercube; do
    timeout 120 target/release/intercom-cli $cmd >/dev/null 2>&1 || {
        echo "ci.sh: intercom-cli $cmd failed or timed out"
        exit 1
    }
done

echo "==> benchmark selftest (fmt, clippy, tests, quick runs of every workload, compare)"
bash benchmark/selftest.sh >/dev/null

echo "ci.sh: all green"
