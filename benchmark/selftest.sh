#!/usr/bin/env bash
# Checks the benchmark itself: unit tests (percentiles, best-segment
# rule, JSON writer and parser, NullComm/TracedComm, the cross-check,
# reference results, compare), clippy, formatting, and a quick run of
# every workload and of the traced run. Quick runs use tiny round
# counts: they show that everything executes and checks, not numbers.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

cargo fmt --check
cargo clippy --release --offline --locked --all-targets -- -D warnings
cargo test --release --offline --locked

./run.sh --quick
./run.sh --trace --quick
for w in thr-small thr-large cpu-p64 sim-mesh; do
  test -s "out/trace-$w.json"
done
./run.sh compare "$here/out/results.json" "$here/out/results.json"
echo "selftest: ok"
