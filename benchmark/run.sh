#!/usr/bin/env bash
# The benchmark's single command. Builds the benchmark (and the library
# it path-depends on) in release mode, then runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh [--quick] [--seed <n>] [--seconds <s>]   all four workloads
#   benchmark/run.sh --trace [--quick]                        traced run and probes
#   benchmark/run.sh compare A.json B.json   (paths from the repository root, or absolute)
#
# Build output goes to $CARGO_TARGET_DIR if set (relative paths are
# taken from the repository root), else to benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build messages go to stderr so the last line of stdout stays the result.
cargo build --release --offline --locked --quiet \
  --manifest-path benchmark/Cargo.toml 1>&2

exec "$target/release/intercom-benchmark" "$@"
