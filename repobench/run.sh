#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash repobench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build output goes to $CARGO_TARGET_DIR when set, else
# repobench/target. The build fails (and nothing is run) when the
# repository's crates are not beside this directory.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2
exec "$target/release/repobench" "$@"
