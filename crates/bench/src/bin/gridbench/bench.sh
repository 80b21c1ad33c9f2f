#!/usr/bin/env bash
# Builds gridbench and gridmine-node in release mode into one target
# directory, then runs `gridbench run` with the arguments given:
#
#   bash crates/bench/src/bin/gridbench/bench.sh                  # every workload, both passes
#   bash crates/bench/src/bin/gridbench/bench.sh --workload net_mock_t5i2 --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. Build output goes to stderr, so the
# last line of stdout is gridbench's.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../../../../../.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p gridbench --bin gridbench -p gridmine-net --bin gridmine-node >&2
exec "$target/release/gridbench" run "$@"
